// Shared types of the LAN end-to-end benchmark (lan_perfbench).
//
// The benchmark drives LanIndex only through its public API. A run is:
// generate inputs from the seed -> set the index up (timed, repeated) ->
// timed closed-loop phase -> untimed checks against computations made
// outside the index -> (traced runs) replay of recorded work through each
// layer's public functions -> one JSON line on stdout.
#ifndef LAN_PERFBENCH_BENCH_H_
#define LAN_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/trace.h"
#include "graph/graph_database.h"
#include "graph/graph_generator.h"
#include "lan/lan_index.h"

namespace perfbench {

using lan::Graph;
using lan::GraphDatabase;
using lan::GraphId;
using lan::LanConfig;
using lan::LanIndex;

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64 step: derives independent sub-seeds from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

// ---- Fixed benchmark configuration (README.md documents each value) ----
inline constexpr int kK = 10;
inline constexpr int kBeam = 16;
inline constexpr int kDbGraphs = 300;
/// Seed of the fixed dataset (database, training queries, query pools).
inline constexpr uint64_t kDatasetSeed = 20220;
/// Times the full setup is repeated per untraced run; setup_s is the median.
inline constexpr int kSetupRepeats = 3;
/// Upper bound on benchmark client threads (also the offline pool width).
inline constexpr int kMaxThreads = 4;

enum class WorkloadKind { kPaperProtocol, kHotRepeat, kChurn };

struct Args {
  WorkloadKind workload = WorkloadKind::kPaperProtocol;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
};

/// Everything a run generates from the seed before the program sees it.
struct Inputs {
  lan::DatasetSpec spec;
  GraphDatabase db;
  std::vector<Graph> train;
  /// Distinct queries the timed phase draws from (held-out pool).
  std::vector<Graph> queries;
  /// Indices into `queries`: the Zipf stream on hot_repeat, the serving
  /// order (cycled) elsewhere.
  std::vector<int32_t> stream;
};

/// One index ready to serve, plus what its setup cost.
struct Served {
  /// Database the index borrows (null when the index owns a mapped one).
  std::unique_ptr<GraphDatabase> db;
  std::unique_ptr<LanIndex> index;
  double setup_s = 0.0;
  /// Measured inside paper_protocol's setup; right after setup elsewhere.
  double save_s = 0.0;
  double open_s = 0.0;
  int64_t snapshot_bytes = 0;
};

/// One executed Search.
struct QueryRecord {
  int32_t query = -1;  // index into Inputs::queries
  bool traced = false;
  double latency_s = 0.0;
  lan::SearchResult result;
};

/// One executed Insert / Remove.
struct MutationRecord {
  bool insert = false;
  GraphId id = lan::kInvalidGraphId;  // inserted / removed id
  uint64_t epoch_after = 0;
  double latency_s = 0.0;
  lan::Status status;
};

/// Per-layer evidence gathered from traced queries (see layers.cc).
struct TraceTotals {
  int64_t queries = 0;
  lan::SearchStats stats;  // summed, stages included
  int64_t batches_opened = 0;
  int64_t gamma_pruned_batches = 0;
  int64_t ged_cache_hits = 0;
  int64_t model_passes = 0;
  int64_t model_rows = 0;
  double traced_seconds = 0.0;    // summed latency of traced executions
  double untraced_seconds = 0.0;  // summed latency of their untraced twins
  int64_t untraced_queries = 0;
};

/// A recorded GED call: query index, graph id, the query's final k-th
/// reported distance (for the lower-bound screen ratio).
struct GedCall {
  int32_t query = -1;
  GraphId id = lan::kInvalidGraphId;
  double kth = 0.0;
};

/// A recorded M_rk or M_nh forward pass.
struct ModelCall {
  enum Kind { kRank, kNeighborhood } kind = kRank;
  int32_t query = -1;
  GraphId node = lan::kInvalidGraphId;  // M_rk: routing node
  std::vector<int32_t> clusters;        // M_nh: clusters whose members ran
};

/// Thread-local collector of one traced query's events.
class BenchTraceSink final : public lan::TraceSink {
 public:
  void Record(const lan::TraceEvent& event) override {
    events_.push_back(event);
  }
  const std::vector<lan::TraceEvent>& events() const { return events_; }
  void Clear() { events_.clear(); }

 private:
  std::vector<lan::TraceEvent> events_;
};

/// Everything the timed phase produced.
struct PhaseOutput {
  std::vector<QueryRecord> queries;
  std::vector<MutationRecord> mutations;
  /// Wall time of the measured (untraced) work, and its query count.
  double query_wall_s = 0.0;
  int64_t measured_queries = 0;
  /// Throughput of each measured multi-query round (hot_repeat, churn);
  /// qps is their median, so one slow round (a cold first round, a burst
  /// of load from elsewhere on the host) does not move it.
  std::vector<double> round_qps;
  /// Latencies of the measured (untraced) queries / inserts.
  std::vector<double> query_latencies;
  std::vector<double> insert_latencies;
  double peak_rss_mb = 0.0;
  /// Graphs inserted during the run, by id (for truth tables).
  std::vector<std::pair<GraphId, Graph>> inserted;
  /// Cache counter deltas over the timed phase.
  int64_t cache_evictions = 0;
  int64_t cache_invalidations = 0;
  // Traced runs only.
  TraceTotals trace;
  std::vector<GedCall> ged_calls;
  std::vector<ModelCall> model_calls;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of the checks.
struct CheckResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  double recall_at_10 = 0.0;
  /// Returned pairs whose reported distance differs from the truth table.
  int64_t returned_pairs = 0;
  int64_t truth_mismatches = 0;
};

// ---- setup.cc ----
const char* WorkloadName(WorkloadKind kind);
LanConfig MakeConfig(WorkloadKind kind, int threads);
Inputs MakeInputs(WorkloadKind kind, uint64_t seed);
/// Full setup (Build + Train, plus SaveSnapshot + OpenSnapshot on
/// paper_protocol). Aborts the run on a setup failure.
Served SetUp(WorkloadKind kind, const Inputs& inputs, int threads,
             const std::string& workdir);
/// SaveSnapshot of `served` (save_s, snapshot_bytes), then OpenSnapshot of
/// the file into a scratch index (open_s).
void MeasureSnapshot(Served* served, const std::string& workdir);

// ---- workloads.cc ----
PhaseOutput RunPhase(const Args& args, const Inputs& inputs, Served* served,
                     int threads);

// ---- checks.cc ----
CheckResult RunChecks(const Args& args, const Inputs& inputs,
                      const Served& served, const PhaseOutput& phase,
                      int threads);

// ---- layers.cc ----
/// Folds one traced query's events into the run totals and the replay
/// samples (called on the driving thread once the query has finished).
void AbsorbTrace(int32_t query, const lan::SearchResult& result,
                 const BenchTraceSink& sink, PhaseOutput* out);
std::vector<Metric> LayerMetrics(const Inputs& inputs, const Served& served,
                                 const PhaseOutput& phase,
                                 const CheckResult& checks);

// ---- shared helpers ----
double Percentile(std::vector<double> values, double p);
double PeakRssMb();

}  // namespace perfbench

#endif  // LAN_PERFBENCH_BENCH_H_
