// Microbench for the epoch-versioned mutable index: online insert
// throughput, and search tail latency with the writer idle vs actively
// mutating. The headline number is the p99 ratio — the search hot path
// takes no lock, so a busy writer should move the search p99 by well
// under 10% (COW publication costs land on the writer).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_env.h"
#include "common/logging.h"
#include "common/timer.h"

namespace lan {
namespace bench {
namespace {

double Percentile(std::vector<double> values, double p) {
  LAN_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      p * static_cast<double>(values.size() - 1) / 100.0 + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

/// Runs `seconds` worth of searches on one thread, returns latencies.
std::vector<double> MeasureSearches(const LanIndex& index,
                                    const std::vector<Graph>& queries,
                                    double seconds) {
  SearchOptions options;
  options.k = 10;
  options.beam = 16;
  options.routing = RoutingMethod::kBaselineRoute;
  options.init = InitMethod::kHnswIs;
  std::vector<double> latencies;
  Timer wall;
  size_t next = 0;
  while (wall.ElapsedSeconds() < seconds) {
    const Graph& query = queries[next++ % queries.size()];
    Timer timer;
    SearchResult result = index.Search(query, options);
    LAN_CHECK(result.status.ok()) << result.status.ToString();
    latencies.push_back(timer.ElapsedSeconds());
  }
  return latencies;
}

int Main() {
  const double scale = BenchScale();
  const int64_t db_size =
      std::max<int64_t>(150, static_cast<int64_t>(300 * scale));
  const int64_t warm_inserts =
      std::max<int64_t>(30, static_cast<int64_t>(60 * scale));

  DatasetSpec spec = DatasetSpec::SynLike(db_size);
  GraphDatabase db = GenerateDatabase(spec, 2024);
  LanConfig config;
  config.hnsw.M = 8;
  config.hnsw.ef_construction = 24;
  config.query_ged = BenchQueryGed();
  config.scorer.gnn_dims = {16, 16};
  config.embedding.dim = 32;
  LanIndex index(config);
  std::fprintf(stderr, "[bench] building mutable index over %lld graphs\n",
               static_cast<long long>(db_size));
  LAN_CHECK_OK(index.Build(&db));

  WorkloadOptions wopts;
  wopts.num_queries = 40;
  QueryWorkload workload = SampleWorkload(db, wopts, 2025);
  std::vector<Graph> queries = workload.train;

  std::printf("\n=== Online insert throughput + search tail latency ===\n");

  // 1. Pure insert throughput (writer only).
  Rng rng(77);
  {
    const InsertStats built = index.insert_stats();
    Timer timer;
    for (int64_t i = 0; i < warm_inserts; ++i) {
      const GraphId base =
          static_cast<GraphId>(rng.NextBounded(static_cast<uint64_t>(db_size)));
      auto inserted =
          index.Insert(PerturbGraph(db.Get(base), 2, db.num_labels(), &rng));
      LAN_CHECK(inserted.ok()) << inserted.status().ToString();
    }
    const double seconds = timer.ElapsedSeconds();
    std::printf("%-28s %10.1f inserts/sec (%lld inserts, %.2fs)\n",
                "insert throughput:",
                static_cast<double>(warm_inserts) / seconds,
                static_cast<long long>(warm_inserts), seconds);
    // The writer's pair memo starts with every distance the build
    // computed; an insert pays GED only for pairs it has not seen.
    const InsertStats after = index.insert_stats();
    std::printf("%-28s %10.1f per insert (memo: %llu pairs after build, "
                "%llu now, %.2f MB)\n",
                "pair-distance calls:",
                static_cast<double>(after.pair_distance_calls -
                                    built.pair_distance_calls) /
                    static_cast<double>(warm_inserts),
                static_cast<unsigned long long>(built.pair_memo_entries),
                static_cast<unsigned long long>(after.pair_memo_entries),
                static_cast<double>(after.pair_memo_bytes) / (1 << 20));
  }

  // 2. Search latency, writer idle.
  const double kMeasureSeconds = 3.0;
  std::vector<double> idle = MeasureSearches(index, queries, kMeasureSeconds);

  // 3. Search latency with a concurrent writer alternating insert/remove
  // (keeps the live size steady so the workloads stay comparable).
  std::atomic<bool> done{false};
  std::atomic<int64_t> mutations{0};
  std::thread writer([&] {
    Rng wrng(78);
    std::vector<GraphId> inserted_ids;
    while (!done.load(std::memory_order_acquire)) {
      const GraphId base = static_cast<GraphId>(
          wrng.NextBounded(static_cast<uint64_t>(db_size)));
      auto inserted =
          index.Insert(PerturbGraph(db.Get(base), 2, db.num_labels(), &wrng));
      LAN_CHECK(inserted.ok()) << inserted.status().ToString();
      inserted_ids.push_back(inserted.value());
      if (inserted_ids.size() > 1) {
        const size_t pick =
            static_cast<size_t>(wrng.NextBounded(inserted_ids.size()));
        LAN_CHECK_OK(index.Remove(inserted_ids[pick]));
        inserted_ids[pick] = inserted_ids.back();
        inserted_ids.pop_back();
      }
      mutations.fetch_add(2);
    }
  });
  std::vector<double> busy = MeasureSearches(index, queries, kMeasureSeconds);
  done.store(true, std::memory_order_release);
  writer.join();

  const double idle_p50 = Percentile(idle, 50) * 1e3;
  const double idle_p99 = Percentile(idle, 99) * 1e3;
  const double busy_p50 = Percentile(busy, 50) * 1e3;
  const double busy_p99 = Percentile(busy, 99) * 1e3;
  std::printf("%-28s %8zu searches, p50 %.3fms, p99 %.3fms\n",
              "writer idle:", idle.size(), idle_p50, idle_p99);
  std::printf("%-28s %8zu searches, p50 %.3fms, p99 %.3fms "
              "(%lld concurrent mutations)\n",
              "writer busy:", busy.size(), busy_p50, busy_p99,
              static_cast<long long>(mutations.load()));
  std::printf("%-28s p99 ratio %.2fx (target: <= 1.10x — the search hot "
              "path takes no lock)\n",
              "impact:", busy_p99 / idle_p99);
  if (std::thread::hardware_concurrency() < 2) {
    std::printf("note: only one hardware thread — the writer and searcher "
                "time-slice one core, so the ratio measures CPU contention, "
                "not locking; rerun on a multi-core host for the 1.10x "
                "target.\n");
  }
  std::printf("final state: %d graphs, %d live, epoch %llu\n",
              index.db().size(), index.live_size(),
              static_cast<unsigned long long>(index.epoch()));
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace lan

int main() { return lan::bench::Main(); }
