// lan_tool — command-line front end for the LAN library.
//
//   lan_tool generate --kind aids --count 300 --seed 7 --out db.gdb
//   lan_tool stats    --db db.gdb
//   lan_tool build    --db db.gdb --models lan.mdl [--queries 30] [--seed 9]
//   lan_tool search   --db db.gdb --models lan.mdl --k 10 [--queries 3]
//   lan_tool eval     --db db.gdb --models lan.mdl --k 10 [--queries 6]
//   lan_tool insert   --db db.gdb --count 20 --out-db db2.gdb --out-index i2
//   lan_tool remove   --db db.gdb --count 10 --out-db db2.gdb --out-index i2
//   lan_tool snapshot save    --db db.gdb --out idx.lansnap
//   lan_tool snapshot load    --snapshot idx.lansnap --k 10
//   lan_tool snapshot inspect --snapshot idx.lansnap
//   lan_tool serve    --snapshot idx.lansnap --stats-port 8080
//
// `build` trains the learned components and checkpoints them; `search`
// and `eval` reload the checkpoint, so the expensive phases run once.
// `insert`/`remove` exercise the online index maintenance path: they
// mutate the database through the index (new epoch per mutation) and
// persist the updated database + index checkpoint for the next command.
// `snapshot` works with the single-file zero-copy format: `save` builds
// (and by default trains) an index and writes everything — database,
// embeddings, clusters, CGs, HNSW, models — into one file; `load` mmaps
// that file into a ready index without the original database and runs a
// few sanity queries; `inspect` prints the section table.
// `serve` opens a snapshot and runs a self-generated query loop with the
// embedded stats server attached (/metrics, /statusz, /slowz, /healthz)
// until SIGTERM/SIGINT; `--stats-port` also attaches the server to
// `search` and `eval` for long runs.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu_features.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/profile.h"
#include "common/slow_query.h"
#include "common/timer.h"
#include "common/trace.h"
#include "graph/graph_generator.h"
#include "graph/graph_io.h"
#include "lan/evaluation.h"
#include "lan/lan_index.h"
#include "lan/workload.h"
#include "server/stats_server.h"
#include "store/snapshot.h"

namespace lan {
namespace tool {
namespace {

/// Minimal --flag value parser.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "expected --flag, got '%s'\n", argv[i]);
        std::exit(2);
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atoll(it->second.c_str());
  }
  bool Has(const std::string& key) const { return values_.contains(key); }

 private:
  std::map<std::string, std::string> values_;
};

int Usage() {
  std::fprintf(stderr,
               "usage: lan_tool "
               "<generate|stats|build|search|eval|diagnose|insert|remove|"
               "snapshot|serve> [--flag value ...]\n"
               "  global   --force-scalar 1     pin scalar kernels "
               "(bit-reproducible; same as LAN_FORCE_SCALAR=1)\n"
               "           --quantized 1        int8 embedding plane for "
               "embedding-space distances (default f32)\n"
               "  generate --kind aids|linux|pubchem|syn --count N "
               "[--seed S] --out FILE\n"
               "  stats    --db FILE\n"
               "  build    --db FILE --models FILE [--index FILE] [--queries N]\n"
               "           [--build-threads N]   0 = hardware concurrency\n"
               "  search   --db FILE --models FILE [--index FILE] [--k K]\n"
               "           [--trace-out FILE]    per-query trace, JSON lines\n"
               "           [--metrics-out FILE]  metrics snapshot, JSON\n"
               "           [--ged-cache-mb N]    cross-query result cache "
               "budget (0 = off)\n"
               "           [--cache-admission admit_all|admit_on_repeat]\n"
               "           [--stats-port P]      embedded stats server "
               "(0 = ephemeral port)\n"
               "  eval     --db FILE --models FILE [--index FILE] [--k K]\n"
               "           [--trace-out FILE] [--metrics-out FILE]\n"
               "           [--ged-cache-mb N] [--cache-admission ...]\n"
               "           [--stats-port P]\n"
               "  diagnose --db FILE --models FILE [--index FILE]\n"
               "  insert   --db FILE --count N [--seed S] [--edits E]\n"
               "           [--index FILE] [--models FILE] [--build-threads N]\n"
               "           [--out-db FILE] [--out-index FILE]\n"
               "  remove   --db FILE (--id G | --count N [--seed S])\n"
               "           [--index FILE] [--models FILE]\n"
               "           [--out-db FILE] [--out-index FILE]\n"
               "  snapshot save    --db FILE --out FILE [--queries N] "
               "[--seed S]\n"
               "                   (--queries 0 skips model training)\n"
               "  snapshot load    --snapshot FILE [--k K] [--queries N]\n"
               "  snapshot inspect --snapshot FILE\n"
               "  serve    --snapshot FILE [--stats-port P] [--k K]\n"
               "           [--port-file FILE]    write the bound port\n"
               "           [--queries N]         query pool size (default 8)\n"
               "           [--max-queries N]     stop after N (0 = until "
               "SIGTERM)\n"
               "           [--trace-sample N]    trace 1-in-N queries "
               "(default 1)\n"
               "           [--slow-queries K]    /slowz ring size "
               "(default 16)\n"
               "           [--slow-inject-every N] widen every Nth query's "
               "beam\n"
               "           [--throttle-ms N]     sleep between queries\n");
  return 2;
}

DatasetSpec SpecFor(const std::string& kind, int64_t count) {
  if (kind == "aids") return DatasetSpec::AidsLike(count);
  if (kind == "linux") return DatasetSpec::LinuxLike(count);
  if (kind == "pubchem") return DatasetSpec::PubchemLike(count);
  if (kind == "syn") return DatasetSpec::SynLike(count);
  std::fprintf(stderr, "unknown dataset kind '%s'\n", kind.c_str());
  std::exit(2);
}

/// Shared tool-scale index configuration (must match between `build` and
/// the commands that reload the checkpoint).
///
/// `--build-threads N` sizes the worker pool AND opts PG insertion into
/// the parallel builder (N = 0 follows the hardware count). Threading
/// never changes the persisted formats, so checkpoints built with any
/// thread count reload under any other.
LanConfig ToolConfig(const Flags& flags) {
  LanConfig config;
  config.query_ged.skip_exact_gap = 3.0;
  config.scorer.gnn_dims = {16, 16};
  config.rank.epochs = 5;
  config.nh.epochs = 5;
  config.max_rank_examples = 1500;
  config.max_nh_examples = 1500;
  if (flags.Has("build-threads")) {
    const int threads = static_cast<int>(flags.GetInt("build-threads", 0));
    config.num_threads = threads;
    config.hnsw.num_build_threads = threads;
  }
  // `--ged-cache-mb N` opts into the cross-query result cache with an
  // N MiB budget (0 keeps it off). Serving-time state only: checkpoints
  // and model files are identical with and without it.
  if (flags.Has("ged-cache-mb")) {
    const int64_t mb = flags.GetInt("ged-cache-mb", 0);
    config.cache.enabled = mb > 0;
    config.cache.capacity_bytes = static_cast<size_t>(mb) << 20;
  }
  // `--quantized 1` builds/serves the int8 embedding plane (default f32).
  if (flags.GetInt("quantized", 0) != 0) {
    config.quantized_embeddings = true;
  }
  if (flags.Has("cache-admission")) {
    const std::string name = flags.Get("cache-admission", "");
    if (!ParseCacheAdmission(name, &config.cache.admission)) {
      std::fprintf(stderr,
                   "unknown --cache-admission '%s' "
                   "(want admit_all or admit_on_repeat)\n",
                   name.c_str());
      std::exit(2);
    }
  }
  return config;
}

Result<GraphDatabase> LoadDb(const Flags& flags) {
  const std::string path = flags.Get("db", "");
  if (path.empty()) {
    return Status::InvalidArgument("--db is required");
  }
  return ReadDatabaseFromFile(path);
}

int Generate(const Flags& flags) {
  const std::string out = flags.Get("out", "");
  if (out.empty() || !flags.Has("count")) {
    std::fprintf(stderr, "generate: --count and --out are required\n");
    return 2;
  }
  DatasetSpec spec =
      SpecFor(flags.Get("kind", "aids"), flags.GetInt("count", 0));
  GraphDatabase db = GenerateDatabase(
      spec, static_cast<uint64_t>(flags.GetInt("seed", 1)));
  LAN_CHECK_OK(WriteDatabaseToFile(db, out));
  std::printf("wrote %d graphs (%s) to %s\n", db.size(), db.name().c_str(),
              out.c_str());
  return 0;
}

int Stats(const Flags& flags) {
  auto db = LoadDb(flags);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: %d graphs, avg |V| %.1f, avg |E| %.1f, %d labels used "
              "(alphabet %d)\n",
              db->name().c_str(), db->size(), db->AverageNodes(),
              db->AverageEdges(), db->DistinctLabelsUsed(), db->num_labels());
  return 0;
}

int Build(const Flags& flags) {
  auto db = LoadDb(flags);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  const std::string models = flags.Get("models", "");
  if (models.empty()) {
    std::fprintf(stderr, "build: --models is required\n");
    return 2;
  }
  LanIndex index(ToolConfig(flags));
  LAN_CHECK_OK(index.Build(&*db));
  WorkloadOptions wopts;
  wopts.num_queries = flags.GetInt("queries", 30);
  QueryWorkload workload = SampleWorkload(
      *db, wopts, static_cast<uint64_t>(flags.GetInt("seed", 9)));
  LAN_CHECK_OK(index.Train(workload.train));
  LAN_CHECK_OK(index.SaveModelsToFile(models));
  if (flags.Has("index")) {
    LAN_CHECK_OK(index.SaveIndexToFile(flags.Get("index", "")));
  }
  std::printf("trained on %zu queries (gamma* = %.1f); models saved to %s%s\n",
              workload.train.size(), index.gamma_star(), models.c_str(),
              flags.Has("index") ? " (+ index checkpoint)" : "");
  return 0;
}

/// Loads db + models into a ready index; exits on failure.
struct LoadedIndex {
  explicit LoadedIndex(LanConfig config) : index(std::move(config)) {}
  GraphDatabase db;
  LanIndex index;
};

std::unique_ptr<LoadedIndex> LoadIndex(const Flags& flags,
                                       bool require_models = true) {
  auto db = LoadDb(flags);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return nullptr;
  }
  const std::string models = flags.Get("models", "");
  if (models.empty() && require_models) {
    std::fprintf(stderr, "--models is required\n");
    return nullptr;
  }
  auto loaded = std::make_unique<LoadedIndex>(ToolConfig(flags));
  loaded->db = std::move(db).value();
  Status build_status =
      flags.Has("index")
          ? loaded->index.BuildFromSavedIndexFile(&loaded->db,
                                                  flags.Get("index", ""))
          : loaded->index.Build(&loaded->db);
  if (!build_status.ok()) {
    std::fprintf(stderr, "%s\n", build_status.ToString().c_str());
    return nullptr;
  }
  if (!models.empty()) {
    if (Status s = loaded->index.LoadModelsFromFile(models); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return nullptr;
    }
  }
  return loaded;
}

/// Persists the mutated database/index when `--out-db`/`--out-index` are
/// given; shared by `insert` and `remove`.
int SaveMutation(const Flags& flags, const LoadedIndex& loaded) {
  if (flags.Has("out-db")) {
    const std::string out_db = flags.Get("out-db", "");
    if (Status s = WriteDatabaseToFile(loaded.db, out_db); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("database saved to %s\n", out_db.c_str());
  }
  if (flags.Has("out-index")) {
    const std::string out_index = flags.Get("out-index", "");
    if (Status s = loaded.index.SaveIndexToFile(out_index); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("index checkpoint saved to %s\n", out_index.c_str());
  }
  return 0;
}

int InsertCmd(const Flags& flags) {
  if (!flags.Has("count")) {
    std::fprintf(stderr, "insert: --count is required\n");
    return 2;
  }
  auto loaded = LoadIndex(flags, /*require_models=*/false);
  if (loaded == nullptr) return 1;
  const int64_t count = flags.GetInt("count", 0);
  const int edits = static_cast<int>(flags.GetInt("edits", 3));
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 99)));
  Timer timer;
  for (int64_t i = 0; i < count; ++i) {
    // New graphs are perturbations of existing ones, like the paper's
    // query workloads — they stay on the database's distribution.
    const GraphId base =
        static_cast<GraphId>(rng.NextBounded(
            static_cast<uint64_t>(loaded->db.size())));
    Graph graph =
        PerturbGraph(loaded->db.Get(base), edits, loaded->db.num_labels(),
                     &rng);
    auto inserted = loaded->index.Insert(std::move(graph));
    if (!inserted.ok()) {
      std::fprintf(stderr, "insert %lld failed: %s\n",
                   static_cast<long long>(i),
                   inserted.status().ToString().c_str());
      return 1;
    }
  }
  std::printf("inserted %lld graphs in %.2fs; db now %d graphs "
              "(%d live, %d tombstones), epoch %llu\n",
              static_cast<long long>(count), timer.ElapsedSeconds(),
              loaded->db.size(), loaded->index.live_size(),
              loaded->index.tombstones(),
              static_cast<unsigned long long>(loaded->index.epoch()));
  return SaveMutation(flags, *loaded);
}

int RemoveCmd(const Flags& flags) {
  if (!flags.Has("id") && !flags.Has("count")) {
    std::fprintf(stderr, "remove: --id or --count is required\n");
    return 2;
  }
  auto loaded = LoadIndex(flags, /*require_models=*/false);
  if (loaded == nullptr) return 1;
  std::vector<GraphId> targets;
  if (flags.Has("id")) {
    targets.push_back(static_cast<GraphId>(flags.GetInt("id", -1)));
  } else {
    // Random live ids, sampled without replacement via retry.
    Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 99)));
    const int64_t count =
        std::min<int64_t>(flags.GetInt("count", 0),
                          loaded->index.live_size());
    std::vector<uint8_t> picked(static_cast<size_t>(loaded->db.size()), 0);
    while (static_cast<int64_t>(targets.size()) < count) {
      const GraphId id = static_cast<GraphId>(
          rng.NextBounded(static_cast<uint64_t>(loaded->db.size())));
      if (picked[static_cast<size_t>(id)] || !loaded->db.IsLive(id)) continue;
      picked[static_cast<size_t>(id)] = 1;
      targets.push_back(id);
    }
  }
  for (const GraphId id : targets) {
    if (Status s = loaded->index.Remove(id); !s.ok()) {
      std::fprintf(stderr, "remove #%d failed: %s\n", id,
                   s.ToString().c_str());
      return 1;
    }
  }
  std::printf("removed %zu graphs; db now %d graphs "
              "(%d live, %d tombstones), epoch %llu\n",
              targets.size(), loaded->db.size(), loaded->index.live_size(),
              loaded->index.tombstones(),
              static_cast<unsigned long long>(loaded->index.epoch()));
  return SaveMutation(flags, *loaded);
}

/// Opens `path` for writing or returns null after reporting the error
/// (with errno, so "permission denied" and "no such directory" are
/// distinguishable).
std::unique_ptr<std::ofstream> OpenOut(const std::string& path) {
  auto out = std::make_unique<std::ofstream>(path);
  if (!out->is_open()) {
    std::fprintf(stderr, "%s\n",
                 ErrnoIoError("cannot open for writing", path)
                     .ToString()
                     .c_str());
    return nullptr;
  }
  return out;
}

/// Final-write check for an output stream: flushes and reports a failed
/// write (ENOSPC and friends surface here, not at open).
int CloseOut(std::ofstream* out, const std::string& path) {
  out->flush();
  if (!out->good()) {
    std::fprintf(stderr, "%s\n",
                 ErrnoIoError("write failed", path).ToString().c_str());
    return 1;
  }
  return 0;
}

/// Writes the bound stats port to `--port-file` so scripts launching the
/// tool with an ephemeral port (--stats-port 0) can learn where it landed.
int WritePortFile(const Flags& flags, int port) {
  if (!flags.Has("port-file")) return 0;
  const std::string path = flags.Get("port-file", "");
  auto out = OpenOut(path);
  if (out == nullptr) return 1;
  *out << port << "\n";
  return CloseOut(out.get(), path);
}

/// Attaches the embedded stats server to a long-running command when
/// `--stats-port P` is present (0 = kernel-assigned; the bound port is
/// printed and written to `--port-file`). Serves /metrics, /statusz and
/// /healthz straight off `registry`, which must outlive the returned
/// server. Returns null without the flag; exits on bind failure so a
/// mistyped port fails loudly instead of running unobserved.
std::unique_ptr<StatsServer> StartStatsServer(const Flags& flags,
                                              MetricsRegistry* registry) {
  if (!flags.Has("stats-port")) return nullptr;
  StatsServer::Options options;
  options.port = static_cast<int>(flags.GetInt("stats-port", 0));
  auto server = std::make_unique<StatsServer>(options);
  server->Handle("/metrics", [registry](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = RenderPrometheus(registry->Snapshot());
    return response;
  });
  server->Handle("/healthz", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "ok\n";
    return response;
  });
  auto uptime = std::make_shared<Timer>();
  server->Handle("/statusz", [registry, uptime](const HttpRequest&) {
    std::ostringstream body;
    body << "{\"uptime_seconds\":" << uptime->ElapsedSeconds()
         << ",\"simd\":{\"detected\":\"" << SimdLevelName(DetectedSimdLevel())
         << "\",\"active\":\"" << SimdLevelName(ActiveSimdLevel()) << "\"}"
         << ",\"metrics\":" << registry->Snapshot().ToJson() << "}\n";
    HttpResponse response;
    response.content_type = "application/json";
    response.body = body.str();
    return response;
  });
  if (Status s = server->Start(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    std::exit(1);
  }
  if (WritePortFile(flags, server->port()) != 0) std::exit(1);
  std::printf("stats server on http://%s:%d\n", options.bind_address.c_str(),
              server->port());
  std::fflush(stdout);
  return server;
}

int SearchCmd(const Flags& flags) {
  auto loaded = LoadIndex(flags);
  if (loaded == nullptr) return 1;
  const int k = static_cast<int>(flags.GetInt("k", 10));
  const int64_t num_queries = flags.GetInt("queries", 3);
  WorkloadOptions wopts;
  wopts.num_queries = num_queries;
  QueryWorkload workload = SampleWorkload(
      loaded->db, wopts, static_cast<uint64_t>(flags.GetInt("seed", 123)));
  // All sampled queries land in `train` for tiny counts; search whatever
  // was sampled.
  std::vector<Graph> queries = workload.train;
  queries.insert(queries.end(), workload.validation.begin(),
                 workload.validation.end());
  queries.insert(queries.end(), workload.test.begin(), workload.test.end());

  std::unique_ptr<std::ofstream> trace_out;
  if (flags.Has("trace-out")) {
    trace_out = OpenOut(flags.Get("trace-out", ""));
    if (trace_out == nullptr) return 1;
  }
  std::unique_ptr<std::ofstream> metrics_out;
  if (flags.Has("metrics-out")) {
    metrics_out = OpenOut(flags.Get("metrics-out", ""));
    if (metrics_out == nullptr) return 1;
  }
  MetricsRegistry registry;
  const CounterId queries_counter = registry.Counter("queries");
  const HistogramId latency_hist = registry.Histogram(
      "query_latency_seconds", MetricsRegistry::LatencyBounds());
  const HistogramId ndc_hist =
      registry.Histogram("query_ndc", MetricsRegistry::CountBounds());
  StageHistograms stage_hists;
  stage_hists.Register(&registry);
  auto stats_server = StartStatsServer(flags, &registry);

  QueryTrace trace;
  for (size_t i = 0; i < queries.size(); ++i) {
    SearchOptions options;
    options.k = k;
    options.profile = true;
    if (trace_out != nullptr) {
      trace.Clear();
      options.trace = &trace;
    }
    Timer timer;
    SearchResult result = loaded->index.Search(queries[i], options);
    registry.Increment(queries_counter);
    registry.Observe(latency_hist, timer.ElapsedSeconds());
    registry.Observe(ndc_hist, static_cast<double>(result.stats.ndc));
    stage_hists.Observe(result.stats.stages);
    if (!result.status.ok()) {
      std::fprintf(stderr, "query %zu failed: %s\n", i,
                   result.status.ToString().c_str());
      return 1;
    }
    std::printf("query %zu (%s): NDC %lld, steps %lld\n", i,
                queries[i].ToString().c_str(),
                static_cast<long long>(result.stats.ndc),
                static_cast<long long>(result.stats.routing_steps));
    for (const auto& [id, d] : result.results) {
      std::printf("  #%-6d GED %.0f\n", id, d);
    }
    if (trace_out != nullptr) {
      trace.WriteJsonLines(*trace_out, static_cast<int64_t>(i));
    }
  }
  if (trace_out != nullptr) {
    if (CloseOut(trace_out.get(), flags.Get("trace-out", "")) != 0) return 1;
    std::printf("trace written to %s\n", flags.Get("trace-out", "").c_str());
  }
  AppendInsertMetrics(loaded->index.insert_stats(), 0, &registry);
  if (ResultCache* cache = loaded->index.result_cache()) {
    cache->AppendMetrics(&registry);
    const ResultCacheStats per_store = cache->StoreStats();
    const ShardCacheStats stats = per_store.Total();
    const int64_t lookups = stats.hits + stats.misses;
    std::printf("ged cache: %lld/%lld hits (%.0f%%), %lld entries;",
                static_cast<long long>(stats.hits),
                static_cast<long long>(lookups),
                lookups > 0 ? 100.0 * static_cast<double>(stats.hits) /
                                  static_cast<double>(lookups)
                            : 0.0,
                static_cast<long long>(stats.entries));
    for (int s = 0; s < kNumCacheStores; ++s) {
      const ShardCacheStats& store = per_store.stores[s];
      std::printf(" %s %lld/%lld", CacheStoreName(static_cast<CacheStore>(s)),
                  static_cast<long long>(store.hits),
                  static_cast<long long>(store.hits + store.misses));
    }
    std::printf("\n");
  }
  if (metrics_out != nullptr) {
    *metrics_out << registry.Snapshot().ToJson() << "\n";
    if (CloseOut(metrics_out.get(), flags.Get("metrics-out", "")) != 0) {
      return 1;
    }
    std::printf("metrics written to %s\n",
                flags.Get("metrics-out", "").c_str());
  }
  return 0;
}

int Diagnose(const Flags& flags) {
  auto loaded = LoadIndex(flags);
  if (loaded == nullptr) return 1;
  const LanIndex& index = loaded->index;
  std::printf("simd: detected %s, active %s\n",
              SimdLevelName(DetectedSimdLevel()),
              SimdLevelName(ActiveSimdLevel()));
  std::printf("database: %d graphs, avg |V| %.1f, avg |E| %.1f\n",
              loaded->db.size(), loaded->db.AverageNodes(),
              loaded->db.AverageEdges());
  std::printf("PG: %lld edges, avg degree %.1f, connected: %s\n",
              static_cast<long long>(index.pg().NumEdges()),
              index.pg().AverageDegree(),
              index.pg().IsConnected() ? "yes" : "NO");
  std::printf("HNSW: %d layers, entry point #%d\n", index.hnsw().NumLayers(),
              index.hnsw().EntryPoint());
  std::printf("gamma* = %.2f; M_nh threshold = %.2f\n", index.gamma_star(),
              index.neighborhood_model()->calibrated_threshold());
  const EmbeddingMatrix& embeddings = index.embeddings();
  std::printf("embeddings: %lld x %d, storage %s (f32 %zu bytes",
              static_cast<long long>(embeddings.rows()), embeddings.dim(),
              embeddings.has_quantized() ? "f32+int8" : "f32",
              embeddings.f32_bytes());
  if (embeddings.has_quantized()) {
    std::printf(", int8 codes+scales %zu bytes", embeddings.quantized_bytes());
  }
  std::printf(")\n");
  std::printf("clusters: %zu (largest %zu, smallest %zu members)\n",
              static_cast<size_t>(index.clusters().centroids.rows()),
              [&] {
                size_t largest = 0;
                for (const auto& m : index.clusters().members) {
                  largest = std::max(largest, m.size());
                }
                return largest;
              }(),
              [&] {
                size_t smallest = static_cast<size_t>(-1);
                for (const auto& m : index.clusters().members) {
                  smallest = std::min(smallest, m.size());
                }
                return smallest;
              }());
  // Neighborhood-size distribution over a few probe queries.
  WorkloadOptions wopts;
  wopts.num_queries = 6;
  QueryWorkload probes = SampleWorkload(loaded->db, wopts, 777);
  GedComputer ged(ToolConfig(flags).query_ged);
  std::printf("|N_Q| over %zu probe queries:", probes.train.size());
  for (const Graph& q : probes.train) {
    int64_t in_neighborhood = 0;
    for (GraphId id = 0; id < loaded->db.size(); ++id) {
      if (ged.Distance(q, loaded->db.Get(id)) <= index.gamma_star()) {
        ++in_neighborhood;
      }
    }
    std::printf(" %lld", static_cast<long long>(in_neighborhood));
  }
  std::printf(" (of %d)\n", loaded->db.size());
  return 0;
}

int Eval(const Flags& flags) {
  auto loaded = LoadIndex(flags);
  if (loaded == nullptr) return 1;
  const int k = static_cast<int>(flags.GetInt("k", 10));
  WorkloadOptions wopts;
  wopts.num_queries = flags.GetInt("queries", 6) * 5;  // 1/5 become test
  QueryWorkload workload = SampleWorkload(
      loaded->db, wopts, static_cast<uint64_t>(flags.GetInt("seed", 321)));
  GedComputer ged(ToolConfig(flags).query_ged);
  std::vector<KnnList> truths =
      BuildTruths(loaded->db, workload.test, k, ged);
  MetricsRegistry registry;
  auto stats_server = StartStatsServer(flags, &registry);
  PrintCurveHeader(k);
  PrintCurve(SweepIndex(loaded->index, RoutingMethod::kLanRoute,
                        InitMethod::kLanIs, workload.test, truths, k,
                        {8, 16, 32}, "LAN", &registry),
             k);
  PrintCurve(SweepIndex(loaded->index, RoutingMethod::kBaselineRoute,
                        InitMethod::kHnswIs, workload.test, truths, k,
                        {8, 16, 32}, "HNSW", &registry),
             k);
  if (flags.Has("metrics-out")) {
    auto out = OpenOut(flags.Get("metrics-out", ""));
    if (out == nullptr) return 1;
    if (ResultCache* cache = loaded->index.result_cache()) {
      cache->AppendMetrics(&registry);
    }
    AppendInsertMetrics(loaded->index.insert_stats(), 0, &registry);
    *out << registry.Snapshot().ToJson() << "\n";
    if (CloseOut(out.get(), flags.Get("metrics-out", "")) != 0) return 1;
    std::printf("metrics written to %s\n",
                flags.Get("metrics-out", "").c_str());
  }
  if (flags.Has("trace-out")) {
    auto out = OpenOut(flags.Get("trace-out", ""));
    if (out == nullptr) return 1;
    // One parallel batch over the test queries, one private sink per query
    // (a shared sink would interleave events across workers).
    std::vector<QueryTrace> traces(workload.test.size());
    SearchOptions options;
    options.k = k;
    options.trace_factory = [&traces](size_t i) { return &traces[i]; };
    BatchSearchResult batch =
        loaded->index.SearchBatch(workload.test, options);
    for (size_t i = 0; i < batch.results.size(); ++i) {
      if (!batch.results[i].status.ok()) {
        std::fprintf(stderr, "query %zu failed: %s\n", i,
                     batch.results[i].status.ToString().c_str());
        return 1;
      }
      traces[i].WriteJsonLines(*out, static_cast<int64_t>(i));
    }
    if (CloseOut(out.get(), flags.Get("trace-out", "")) != 0) return 1;
    std::printf("trace (%zu queries) written to %s\n", traces.size(),
                flags.Get("trace-out", "").c_str());
  }
  return 0;
}

int SnapshotSave(const Flags& flags) {
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "snapshot save: --out is required\n");
    return 2;
  }
  auto db = LoadDb(flags);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  LanIndex index(ToolConfig(flags));
  LAN_CHECK_OK(index.Build(&*db));
  const int64_t num_queries = flags.GetInt("queries", 30);
  if (num_queries > 0) {
    WorkloadOptions wopts;
    wopts.num_queries = num_queries;
    QueryWorkload workload = SampleWorkload(
        *db, wopts, static_cast<uint64_t>(flags.GetInt("seed", 9)));
    LAN_CHECK_OK(index.Train(workload.train));
  }
  if (Status s = index.SaveSnapshot(out); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("snapshot (%d graphs%s) written to %s\n", db->size(),
              index.trained() ? ", trained models" : ", untrained",
              out.c_str());
  return 0;
}

int SnapshotLoad(const Flags& flags) {
  const std::string path = flags.Get("snapshot", "");
  if (path.empty()) {
    std::fprintf(stderr, "snapshot load: --snapshot is required\n");
    return 2;
  }
  LanIndex index(ToolConfig(flags));
  Timer timer;
  if (Status s = index.OpenSnapshot(path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("opened %s in %.3fs: %d graphs (%d live), epoch %llu, %s\n",
              path.c_str(), timer.ElapsedSeconds(), index.db().size(),
              index.live_size(),
              static_cast<unsigned long long>(index.epoch()),
              index.trained() ? "trained" : "untrained");
  // A few sanity queries straight off the mapped index — the snapshot is
  // self-contained, so no --db is needed. Untrained snapshots fall back
  // to the baseline (non-learned) routing.
  const int k = static_cast<int>(flags.GetInt("k", 10));
  WorkloadOptions wopts;
  wopts.num_queries = flags.GetInt("queries", 3);
  QueryWorkload workload = SampleWorkload(
      index.db(), wopts, static_cast<uint64_t>(flags.GetInt("seed", 123)));
  std::vector<Graph> queries = workload.train;
  queries.insert(queries.end(), workload.validation.begin(),
                 workload.validation.end());
  queries.insert(queries.end(), workload.test.begin(), workload.test.end());
  for (size_t i = 0; i < queries.size(); ++i) {
    SearchOptions options;
    options.k = k;
    if (!index.trained()) {
      options.routing = RoutingMethod::kBaselineRoute;
      options.init = InitMethod::kHnswIs;
    }
    SearchResult result = index.Search(queries[i], options);
    if (!result.status.ok()) {
      std::fprintf(stderr, "query %zu failed: %s\n", i,
                   result.status.ToString().c_str());
      return 1;
    }
    std::printf("query %zu: NDC %lld, top GED %.0f (%zu results)\n", i,
                static_cast<long long>(result.stats.ndc),
                result.results.empty() ? -1.0 : result.results.front().second,
                result.results.size());
  }
  return 0;
}

int SnapshotInspect(const Flags& flags) {
  const std::string path = flags.Get("snapshot", "");
  if (path.empty()) {
    std::fprintf(stderr, "snapshot inspect: --snapshot is required\n");
    return 2;
  }
  auto snapshot = Snapshot::Open(path);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "%s\n", snapshot.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: %zu bytes, format v%u\n%s", path.c_str(),
              snapshot->size(), snapshot->version(),
              snapshot->Describe().c_str());
  std::printf("embedding storage: %s\n",
              snapshot->Has(SectionKind::kQuantizedEmbeddings)
                  ? "f32+int8 (serves int8 zero-copy)"
                  : "f32 only (int8 derived lazily if configured)");
  return 0;
}

/// SIGTERM/SIGINT latch for `serve`: the handler only sets a flag; the
/// query loop notices it between queries and shuts down cleanly (stats
/// server joined, summary printed).
volatile std::sig_atomic_t g_stop = 0;
void HandleStopSignal(int) { g_stop = 1; }

/// `serve`: opens a snapshot and runs a self-generated query loop with the
/// embedded stats server attached until SIGTERM/SIGINT (or --max-queries).
/// Every query runs with the stage profiler on; 1-in-`--trace-sample`
/// queries carry a full trace, and the slowest land in the /slowz ring
/// with their trace and per-stage breakdown.
int Serve(const Flags& flags) {
  const std::string path = flags.Get("snapshot", "");
  if (path.empty()) {
    std::fprintf(stderr, "serve: --snapshot is required\n");
    return 2;
  }
  LanIndex index(ToolConfig(flags));
  Timer open_timer;
  if (Status s = index.OpenSnapshot(path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("opened %s in %.3fs: %d graphs (%d live), epoch %llu, %s\n",
              path.c_str(), open_timer.ElapsedSeconds(), index.db().size(),
              index.live_size(),
              static_cast<unsigned long long>(index.epoch()),
              index.trained() ? "trained" : "untrained");

  // The query pool: sampled perturbations of database graphs, cycled
  // forever. Self-contained like `snapshot load` — no --db needed.
  WorkloadOptions wopts;
  wopts.num_queries = flags.GetInt("queries", 8);
  QueryWorkload workload = SampleWorkload(
      index.db(), wopts, static_cast<uint64_t>(flags.GetInt("seed", 123)));
  std::vector<Graph> queries = workload.train;
  queries.insert(queries.end(), workload.validation.begin(),
                 workload.validation.end());
  queries.insert(queries.end(), workload.test.begin(), workload.test.end());
  if (queries.empty()) {
    std::fprintf(stderr, "serve: empty query pool\n");
    return 1;
  }

  const int k = static_cast<int>(flags.GetInt("k", 10));
  const int64_t max_queries = flags.GetInt("max-queries", 0);
  const int64_t slow_inject_every = flags.GetInt("slow-inject-every", 0);
  const int64_t throttle_ms = flags.GetInt("throttle-ms", 0);
  SearchOptions base_options;
  base_options.k = k;
  base_options.profile = true;
  if (!index.trained()) {
    base_options.routing = RoutingMethod::kBaselineRoute;
    base_options.init = InitMethod::kHnswIs;
  }

  MetricsRegistry registry;
  const CounterId queries_counter = registry.Counter("queries");
  const CounterId errors_counter = registry.Counter("query_errors");
  const HistogramId latency_hist = registry.Histogram(
      "query_latency_seconds", MetricsRegistry::LatencyBounds());
  const HistogramId ndc_hist =
      registry.Histogram("query_ndc", MetricsRegistry::CountBounds());
  StageHistograms stage_hists;
  stage_hists.Register(&registry);
  registry.SetGauge(registry.Gauge("index_live_size"),
                    static_cast<double>(index.live_size()));
  registry.SetGauge(registry.Gauge("index_tombstones"),
                    static_cast<double>(index.tombstones()));
  registry.SetGauge(registry.Gauge("index_epoch"),
                    static_cast<double>(index.epoch()));

  SamplingTraceSink sampler(flags.GetInt("trace-sample", 1));
  SlowQueryRing slow_ring(static_cast<size_t>(
      std::max<int64_t>(1, flags.GetInt("slow-queries", 16))));
  std::atomic<int64_t> served{0};
  Timer uptime;

  // Repeated /metrics scrapes must export cache and insert counter
  // deltas, not re-add lifetime totals (the Append*Metrics helpers
  // increment), so the scrape keeps moving baselines under its own mutex.
  std::mutex scrape_mu;
  ResultCacheStats cache_baseline;
  uint64_t insert_calls_baseline = 0;

  StatsServer::Options server_options;
  server_options.port = static_cast<int>(flags.GetInt("stats-port", 0));
  StatsServer server(server_options);
  server.Handle("/metrics", [&](const HttpRequest&) {
    std::lock_guard<std::mutex> lock(scrape_mu);
    if (ResultCache* cache = index.result_cache()) {
      const ResultCacheStats now = cache->StoreStats();
      AppendCacheMetrics(SubtractCacheCounters(now, cache_baseline),
                         cache->capacity_bytes(), &registry);
      cache_baseline = now;
    }
    const InsertStats writes = index.insert_stats();
    AppendInsertMetrics(writes, insert_calls_baseline, &registry);
    insert_calls_baseline = writes.pair_distance_calls;
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = RenderPrometheus(registry.Snapshot());
    return response;
  });
  server.Handle("/healthz", [&](const HttpRequest&) {
    HttpResponse response;
    if (const Status ready = index.Ready(base_options); ready.ok()) {
      response.body = "ok\n";
    } else {
      response.status = 503;
      response.body = ready.ToString() + "\n";
    }
    return response;
  });
  server.Handle("/statusz", [&](const HttpRequest&) {
    const ResultCache* cache = index.result_cache();
    std::ostringstream body;
    body << "{\"uptime_seconds\":" << uptime.ElapsedSeconds()
         << ",\"snapshot\":\"" << path << "\""
         << ",\"queries_served\":" << served.load()
         << ",\"epoch\":" << index.epoch()
         << ",\"live_graphs\":" << index.live_size()
         << ",\"tombstones\":" << index.tombstones()
         << ",\"trained\":" << (index.trained() ? "true" : "false")
         << ",\"trace_sample\":" << sampler.every()
         << ",\"slow_ring_capacity\":" << slow_ring.capacity()
         << ",\"simd\":{\"detected\":\"" << SimdLevelName(DetectedSimdLevel())
         << "\",\"active\":\"" << SimdLevelName(ActiveSimdLevel()) << "\"}"
         << ",\"cache_bytes\":" << (cache != nullptr ? cache->Stats().bytes : 0)
         << ",\"build\":{\"compiler\":\"" << __VERSION__ << "\"}"
         << ",\"metrics\":" << registry.Snapshot().ToJson() << "}\n";
    HttpResponse response;
    response.content_type = "application/json";
    response.body = body.str();
    return response;
  });
  server.Handle("/slowz", [&](const HttpRequest&) {
    // Drain-on-read, like a counter delta: each fetch returns the slowest
    // queries since the previous fetch and resets the ring.
    std::ostringstream body;
    WriteSlowQueryJsonLines(slow_ring.Drain(), body);
    HttpResponse response;
    response.content_type = "application/x-ndjson";
    response.body = body.str();
    return response;
  });

  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (WritePortFile(flags, server.port()) != 0) return 1;
  std::printf(
      "stats server on http://%s:%d (/metrics /statusz /slowz /healthz)\n",
      server_options.bind_address.c_str(), server.port());
  std::fflush(stdout);
  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGINT, HandleStopSignal);

  int64_t errors = 0;
  while (g_stop == 0 && (max_queries == 0 || served.load() < max_queries)) {
    const int64_t qid = served.load(std::memory_order_relaxed);
    const Graph& query = queries[static_cast<size_t>(qid) % queries.size()];
    SearchOptions options = base_options;
    // An injected slow query: widen the beam far past the default so the
    // query is genuinely slower and lands in the /slowz ring with a full
    // breakdown — the acceptance probe for slow-query capture.
    if (slow_inject_every > 0 &&
        qid % slow_inject_every == slow_inject_every - 1) {
      options.beam = static_cast<int>(flags.GetInt("slow-beam", 64));
    }
    QueryTrace* trace = sampler.Begin(qid);
    options.trace = trace;
    Timer timer;
    SearchResult result = index.Search(query, options);
    const double latency = timer.ElapsedSeconds();
    registry.Increment(queries_counter);
    registry.Observe(latency_hist, latency);
    registry.Observe(ndc_hist, static_cast<double>(result.stats.ndc));
    stage_hists.Observe(result.stats.stages);
    if (!result.status.ok()) {
      ++errors;
      registry.Increment(errors_counter);
      if (errors == 1) {
        std::fprintf(stderr, "query %lld failed: %s\n",
                     static_cast<long long>(qid),
                     result.status.ToString().c_str());
      }
      if (qid == 0) {  // immediate config error, not a transient
        server.Stop();
        return 1;
      }
    }
    SlowQueryRecord record;
    record.query_id = qid;
    record.latency_seconds = latency;
    record.epoch = result.epoch;
    record.stats = result.stats;
    if (trace != nullptr) record.trace = std::move(*trace);
    slow_ring.Offer(std::move(record));
    sampler.End(trace);
    served.fetch_add(1, std::memory_order_relaxed);
    if (throttle_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(throttle_ms));
    }
  }

  server.Stop();
  std::printf("served %lld queries (%lld errors) in %.1fs; shutting down\n",
              static_cast<long long>(served.load()),
              static_cast<long long>(errors), uptime.ElapsedSeconds());
  return errors == 0 ? 0 : 1;
}

int SnapshotCmd(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string verb = argv[2];
  Flags flags(argc, argv, 3);
  if (verb == "save") return SnapshotSave(flags);
  if (verb == "load") return SnapshotLoad(flags);
  if (verb == "inspect") return SnapshotInspect(flags);
  return Usage();
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "snapshot") return SnapshotCmd(argc, argv);
  Flags flags(argc, argv, 2);
  // `--force-scalar 1` pins the scalar kernel table (same effect as
  // LAN_FORCE_SCALAR=1): bit-for-bit reproducible results across hosts.
  if (flags.GetInt("force-scalar", 0) != 0) {
    SetActiveSimdLevel(SimdLevel::kScalar);
  }
  if (command == "generate") return Generate(flags);
  if (command == "stats") return Stats(flags);
  if (command == "build") return Build(flags);
  if (command == "search") return SearchCmd(flags);
  if (command == "eval") return Eval(flags);
  if (command == "diagnose") return Diagnose(flags);
  if (command == "insert") return InsertCmd(flags);
  if (command == "remove") return RemoveCmd(flags);
  if (command == "serve") return Serve(flags);
  return Usage();
}

}  // namespace
}  // namespace tool
}  // namespace lan

int main(int argc, char** argv) { return lan::tool::Main(argc, argv); }
