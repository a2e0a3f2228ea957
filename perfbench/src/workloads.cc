// The timed phase of each workload, plus the write probe.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

#include "bench.h"
#include "common/random.h"
#include "graph/graph_generator.h"

namespace perfbench {
namespace {

/// Persistent client threads that run one task per round. Threads live for
/// the whole phase so per-thread search scratch stays warm across rounds.
class RoundRunner {
 public:
  explicit RoundRunner(int threads) {
    for (int t = 0; t < threads; ++t) {
      workers_.emplace_back([this, t] { Loop(t); });
    }
  }
  ~RoundRunner() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }
  RoundRunner(const RoundRunner&) = delete;
  RoundRunner& operator=(const RoundRunner&) = delete;

  /// Runs task(thread_index) on every worker; returns when all are done.
  void Run(const std::function<void(int)>& task) {
    std::unique_lock<std::mutex> lock(mu_);
    task_ = &task;
    remaining_ = static_cast<int>(workers_.size());
    ++generation_;
    start_cv_.notify_all();
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
    task_ = nullptr;
  }

 private:
  void Loop(int t) {
    uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* task = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        task = task_;
      }
      (*task)(t);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--remaining_ == 0) done_cv_.notify_one();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* task_ = nullptr;
  uint64_t generation_ = 0;
  int remaining_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

lan::SearchOptions LanOptions() {
  lan::SearchOptions o;
  o.k = kK;
  o.beam = kBeam;
  o.routing = lan::RoutingMethod::kLanRoute;
  o.init = lan::InitMethod::kLanIs;
  return o;
}

/// One Search, timed. A traced execution runs under the stage profiler
/// with `sink` attached.
QueryRecord Execute(const LanIndex& index, const Inputs& inputs, int32_t q,
                    BenchTraceSink* sink) {
  lan::SearchOptions o = LanOptions();
  if (sink != nullptr) {
    sink->Clear();
    o.trace = sink;
    o.profile = true;
  }
  QueryRecord rec;
  rec.query = q;
  rec.traced = sink != nullptr;
  const double t0 = Now();
  rec.result = index.Search(inputs.queries[static_cast<size_t>(q)], o);
  rec.latency_s = Now() - t0;
  return rec;
}

/// A graph to insert: alternately a perturbed copy of a live graph and a
/// freshly generated one.
Graph NextInsert(const LanIndex& index, const Inputs& inputs,
                 const std::vector<GraphId>& live, int ordinal,
                 lan::Rng* rng) {
  if (ordinal % 2 == 0 && !live.empty()) {
    const GraphId base = live[rng->NextBounded(live.size())];
    const int edits = 2 + static_cast<int>(rng->NextBounded(3));
    return lan::PerturbGraph(index.db().Get(base), edits,
                             inputs.spec.num_labels, rng);
  }
  return lan::GenerateGraph(inputs.spec, rng);
}

MutationRecord TimedInsert(LanIndex* index, Graph graph,
                           PhaseOutput* out) {
  MutationRecord m;
  m.insert = true;
  Graph copy = graph;
  const double t0 = Now();
  lan::Result<GraphId> r = index->Insert(std::move(graph));
  m.latency_s = Now() - t0;
  m.epoch_after = index->epoch();
  if (r.ok()) {
    m.id = r.value();
    out->inserted.emplace_back(m.id, std::move(copy));
  } else {
    m.status = r.status();
  }
  return m;
}

void CacheCounters(const LanIndex& index, lan::ShardCacheStats* s) {
  if (index.result_cache() != nullptr) *s = index.result_cache()->Stats();
}

void AddCacheDelta(const lan::ShardCacheStats& before,
                   const lan::ShardCacheStats& after, PhaseOutput* out) {
  out->cache_evictions += after.evictions - before.evictions;
  out->cache_invalidations += after.invalidations - before.invalidations;
}

// ---- paper_protocol: one client, the held-out pool in seeded order, cache
// off. A round is one pass over the pool. Traced runs execute each query
// twice, untraced then traced, so trace.qps_ratio compares the same work.
void RunPaperProtocol(const Args& args, const Inputs& inputs,
                      const Served& served, PhaseOutput* out) {
  const LanIndex& index = *served.index;
  BenchTraceSink sink;
  const double start = Now();
  do {
    for (const int32_t q : inputs.stream) {
      QueryRecord plain = Execute(index, inputs, q, nullptr);
      out->query_latencies.push_back(plain.latency_s);
      out->query_wall_s += plain.latency_s;
      ++out->measured_queries;
      if (args.trace) {
        QueryRecord traced = Execute(index, inputs, q, &sink);
        out->trace.untraced_seconds += plain.latency_s;
        ++out->trace.untraced_queries;
        out->trace.traced_seconds += traced.latency_s;
        AbsorbTrace(q, traced.result, sink, out);
        out->queries.push_back(std::move(traced));
      }
      out->queries.push_back(std::move(plain));
    }
  } while (Now() - start < args.seconds);
}

// ---- hot_repeat: kMaxThreads clients share a Zipf stream; each round
// starts from an empty cache and serves the whole stream. Traced runs
// alternate untraced and traced rounds.
void RunHotRepeat(const Args& args, const Inputs& inputs, int threads,
                  const Served& served, PhaseOutput* out) {
  const LanIndex& index = *served.index;
  const size_t n = inputs.stream.size();
  RoundRunner runner(threads);
  std::vector<QueryRecord> slots(n);
  std::vector<BenchTraceSink> sinks(n);
  const double start = Now();
  int round = 0;
  do {
    const bool traced = args.trace && round % 2 == 1;
    index.result_cache()->Clear();
    lan::ShardCacheStats before, after;
    CacheCounters(index, &before);
    std::atomic<size_t> next{0};
    const double t0 = Now();
    runner.Run([&](int) {
      for (size_t j = next.fetch_add(1); j < n; j = next.fetch_add(1)) {
        slots[j] = Execute(index, inputs, inputs.stream[j],
                           traced ? &sinks[j] : nullptr);
      }
    });
    const double wall = Now() - t0;
    CacheCounters(index, &after);
    AddCacheDelta(before, after, out);
    for (size_t j = 0; j < n; ++j) {
      if (traced) {
        out->trace.traced_seconds += wall / static_cast<double>(n);
        AbsorbTrace(slots[j].query, slots[j].result, sinks[j], out);
      } else {
        out->query_latencies.push_back(slots[j].latency_s);
        if (args.trace) {
          out->trace.untraced_seconds += wall / static_cast<double>(n);
          ++out->trace.untraced_queries;
        }
      }
      out->queries.push_back(std::move(slots[j]));
    }
    if (!traced) {
      out->query_wall_s += wall;
      out->measured_queries += static_cast<int64_t>(n);
      out->round_qps.push_back(static_cast<double>(n) / wall);
    }
    ++round;
  } while (Now() - start < args.seconds || (args.trace && round < 2));
}

// ---- churn: one writer applies a seeded Insert/Remove schedule while one
// reader serves a repeating query stream; a round is kChurnWrites
// mutations (two inserts, one remove) plus kChurnReads queries. The reader
// first warms the cache with one untimed pass over the pool, so the timed
// rounds measure the steady state of a repeating stream under
// invalidation. Traced runs alternate reader rounds.
constexpr int kChurnWrites = 3;
constexpr int kChurnReads = 8;

void RunChurn(const Args& args, const Inputs& inputs, Served* served,
              PhaseOutput* out) {
  LanIndex* index = served->index.get();
  const size_t pool = inputs.stream.size();
  lan::Rng write_rng(SubSeed(args.seed, 5));
  std::vector<GraphId> live;
  for (GraphId id = 0; id < index->db().size(); ++id) live.push_back(id);
  size_t cursor = 0;  // reader position in the seeded order, cycled

  RoundRunner runner(2);
  runner.Run([&](int t) {
    if (t != 1) return;
    for (int32_t q : inputs.stream) Execute(*index, inputs, q, nullptr);
  });
  std::vector<QueryRecord> reads(kChurnReads);
  std::vector<BenchTraceSink> sinks(kChurnReads);
  std::vector<MutationRecord> writes;
  std::vector<int32_t> read_plan(kChurnReads);
  int inserts = 0;
  lan::ShardCacheStats before, after;
  CacheCounters(*index, &before);
  const double start = Now();
  int round = 0;
  do {
    const bool traced = args.trace && round % 2 == 1;
    for (int32_t& q : read_plan) q = inputs.stream[cursor++ % pool];
    writes.clear();
    double read_wall = 0.0;
    runner.Run([&](int t) {
      if (t == 0) {
        // Inserts alternate perturbed copies and fresh graphs.
        for (int w = 0; w < kChurnWrites; ++w) {
          if (w % 3 == 2 && live.size() > static_cast<size_t>(kK) * 4) {
            const size_t pick = write_rng.NextBounded(live.size());
            MutationRecord m;
            m.id = live[pick];
            const double t0 = Now();
            m.status = index->Remove(m.id);
            m.latency_s = Now() - t0;
            m.epoch_after = index->epoch();
            live[pick] = live.back();
            live.pop_back();
            writes.push_back(std::move(m));
          } else {
            Graph g = NextInsert(*index, inputs, live, inserts++, &write_rng);
            MutationRecord m = TimedInsert(index, std::move(g), out);
            if (m.status.ok()) live.push_back(m.id);
            writes.push_back(std::move(m));
          }
        }
      } else {
        const double t0 = Now();
        for (int r = 0; r < kChurnReads; ++r) {
          reads[static_cast<size_t>(r)] =
              Execute(*index, inputs, read_plan[static_cast<size_t>(r)],
                      traced ? &sinks[static_cast<size_t>(r)] : nullptr);
        }
        read_wall = Now() - t0;
      }
    });
    for (MutationRecord& m : writes) {
      if (m.insert) out->insert_latencies.push_back(m.latency_s);
      out->mutations.push_back(std::move(m));
    }
    for (size_t r = 0; r < reads.size(); ++r) {
      if (traced) {
        out->trace.traced_seconds += reads[r].latency_s;
        AbsorbTrace(reads[r].query, reads[r].result, sinks[r], out);
      } else {
        out->query_latencies.push_back(reads[r].latency_s);
        if (args.trace) {
          out->trace.untraced_seconds += reads[r].latency_s;
          ++out->trace.untraced_queries;
        }
      }
      out->queries.push_back(std::move(reads[r]));
    }
    if (!traced) {
      out->query_wall_s += read_wall;
      out->measured_queries += kChurnReads;
      out->round_qps.push_back(kChurnReads / read_wall);
    }
    ++round;
  } while (Now() - start < args.seconds || (args.trace && round < 2));
  CacheCounters(*index, &after);
  AddCacheDelta(before, after, out);
}

/// Write probe for the read-only workloads: kProbeInserts single Inserts
/// into the served index after the query phase.
constexpr int kProbeInserts = 48;

void RunWriteProbe(const Args& args, const Inputs& inputs, Served* served,
                   PhaseOutput* out) {
  LanIndex* index = served->index.get();
  lan::Rng rng(SubSeed(args.seed, 7));
  std::vector<GraphId> live;
  for (GraphId id = 0; id < index->db().size(); ++id) live.push_back(id);
  for (int i = 0; i < kProbeInserts; ++i) {
    Graph g = NextInsert(*index, inputs, live, i, &rng);
    MutationRecord m = TimedInsert(index, std::move(g), out);
    out->insert_latencies.push_back(m.latency_s);
    out->mutations.push_back(std::move(m));
  }
}

}  // namespace

PhaseOutput RunPhase(const Args& args, const Inputs& inputs, Served* served,
                     int threads) {
  PhaseOutput out;
  switch (args.workload) {
    case WorkloadKind::kPaperProtocol:
      RunPaperProtocol(args, inputs, *served, &out);
      break;
    case WorkloadKind::kHotRepeat:
      RunHotRepeat(args, inputs, threads, *served, &out);
      break;
    case WorkloadKind::kChurn:
      RunChurn(args, inputs, served, &out);
      break;
  }
  out.peak_rss_mb = PeakRssMb();
  if (args.workload != WorkloadKind::kChurn) {
    RunWriteProbe(args, inputs, served, &out);
  }
  return out;
}

}  // namespace perfbench
