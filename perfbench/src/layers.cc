// Per-layer metrics of a traced run: stage self-times from
// SearchOptions::profile, event counts from the benchmark's TraceSink, and
// replays of recorded GED pairs and model batches through each layer's
// public functions (outside the timed loop).
#include <algorithm>
#include <cstring>
#include <map>
#include <sstream>

#include "bench.h"
#include "ged/ged_beam.h"
#include "ged/ged_bipartite.h"
#include "ged/ged_computer.h"
#include "ged/ged_exact.h"
#include "ged/ged_lower_bounds.h"
#include "gnn/embedding.h"
#include "lan/cluster_model.h"
#include "lan/result_cache.h"
#include "nn/serialization.h"

namespace perfbench {
namespace {

using lan::Stage;

/// Replay sample caps: enough calls for a stable mean, few enough that
/// the replay stays a small share of a run.
constexpr size_t kGedReplay = 240;
constexpr size_t kModelReplay = 96;

/// Every `stride`-th element so at most `cap` survive, in recorded order.
template <typename T>
std::vector<const T*> Sample(const std::vector<T>& all, size_t cap) {
  std::vector<const T*> out;
  if (all.empty()) return out;
  const size_t stride = (all.size() + cap - 1) / cap;
  for (size_t i = 0; i < all.size(); i += stride) out.push_back(&all[i]);
  return out;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// M_c is not exposed by LanIndex; rebuild it from the SaveModels stream
/// (layout: magic, gamma*, M_rk params, M_nh params, M_nh threshold, M_c
/// params), constructing each model exactly as LanIndex::LoadModels does.
std::unique_ptr<lan::ClusterModel> LoadClusterModel(const LanIndex& index) {
  std::stringstream buf;
  if (!index.SaveModels(buf).ok()) return nullptr;
  const LanConfig& c = index.config();
  char magic[8];
  double gamma = 0.0;
  float threshold = 0.0f;
  buf.read(magic, sizeof(magic));
  buf.read(reinterpret_cast<char*>(&gamma), sizeof(gamma));
  lan::RankModelOptions rank_opts = c.rank;
  rank_opts.batch_percent = c.batch_percent;
  rank_opts.scorer = c.scorer;
  lan::NeighborRankModel rank(index.db().num_labels(), rank_opts);
  if (!lan::ReadParamStoreInto(rank.mutable_scorer()->params(), buf).ok()) {
    return nullptr;
  }
  lan::NeighborhoodModelOptions nh_opts = c.nh;
  nh_opts.scorer = c.scorer;
  lan::NeighborhoodModel nh(index.db().num_labels(), nh_opts);
  if (!lan::ReadParamStoreInto(nh.mutable_scorer()->params(), buf).ok()) {
    return nullptr;
  }
  buf.read(reinterpret_cast<char*>(&threshold), sizeof(threshold));
  auto cluster = std::make_unique<lan::ClusterModel>(
      static_cast<int32_t>(2 * c.embedding.dim), c.cluster);
  if (!lan::ReadParamStoreInto(cluster->params(), buf).ok()) return nullptr;
  return cluster;
}

struct GedReplay {
  double lb_s = 0, vj_s = 0, hung_s = 0, beam_s = 0, exact_s = 0;
  int64_t calls = 0, certified = 0, screenable = 0;
  int64_t win_vj = 0, win_hung = 0, win_beam = 0;
};

/// Replays sampled GED calls through each algorithm. The exact attempt
/// runs under the workload's budget; approximate-only workloads never run
/// it, so there it runs under LanConfig{}'s default budget (what the
/// attempt would cost if switched on).
GedReplay ReplayGed(const Inputs& inputs, const LanIndex& index,
                    const PhaseOutput& phase) {
  GedReplay r;
  const lan::GedOptions& ged = index.config().query_ged;
  const lan::GedOptions budget =
      ged.approximate_only ? lan::GedOptions{} : ged;
  const int beam_width = ged.beam_width > 0 ? ged.beam_width
                                            : lan::GedOptions{}.beam_width;
  const lan::GedComputer computer(ged);
  for (const GedCall* call : Sample(phase.ged_calls, kGedReplay)) {
    const Graph& g1 = inputs.queries[static_cast<size_t>(call->query)];
    const Graph& g2 = index.db().Get(call->id);
    double t = Now();
    const double lb = lan::BestLowerBound(g1, g2);
    double u = Now();
    r.lb_s += u - t;
    const double vj = lan::BipartiteGedVj(g1, g2).distance;
    t = Now();
    r.vj_s += t - u;
    const double hung = lan::BipartiteGedHungarian(g1, g2).distance;
    u = Now();
    r.hung_s += u - t;
    const double beam = lan::BeamGed(g1, g2, beam_width).distance;
    t = Now();
    r.beam_s += t - u;
    lan::ExactGedOptions exact;
    exact.time_budget_seconds = budget.exact_time_budget_seconds;
    exact.max_expansions = budget.exact_max_expansions;
    exact.upper_bound = std::min({vj, hung, beam});
    exact.costs = budget.costs;
    const bool certified = lan::ExactGed(g1, g2, exact).ok();
    r.exact_s += Now() - t;
    r.certified += certified ? 1 : 0;
    switch (computer.Compute(g1, g2).method) {
      case lan::GedMethod::kVj:
        ++r.win_vj;
        break;
      case lan::GedMethod::kHungarian:
        ++r.win_hung;
        break;
      case lan::GedMethod::kBeam:
        ++r.win_beam;
        break;
      case lan::GedMethod::kExact:
        break;
    }
    if (lb > call->kth) ++r.screenable;
    ++r.calls;
  }
  return r;
}

struct ModelReplay {
  double rk_s = 0, nh_s = 0, c_s = 0, cg_s = 0;
  int64_t rk = 0, nh = 0, c = 0, cg = 0;
};

ModelReplay ReplayModels(const Inputs& inputs, const LanIndex& index,
                         const PhaseOutput& phase) {
  ModelReplay r;
  const lan::NeighborRankModel* rank = index.rank_model();
  const lan::NeighborhoodModel* nh = index.neighborhood_model();
  const std::unique_ptr<lan::ClusterModel> cluster = LoadClusterModel(index);
  const auto& cgs = index.db_cgs();
  std::map<int32_t, lan::CompressedGnnGraph> query_cgs;
  auto query_cg = [&](int32_t q) -> const lan::CompressedGnnGraph& {
    auto it = query_cgs.find(q);
    if (it == query_cgs.end()) {
      it = query_cgs
               .emplace(q, index.QueryCg(
                               inputs.queries[static_cast<size_t>(q)]))
               .first;
    }
    return it->second;
  };
  std::vector<ModelCall> by_kind[2];
  for (const ModelCall& m : phase.model_calls) by_kind[m.kind].push_back(m);
  for (const ModelCall* m : Sample(by_kind[ModelCall::kRank], kModelReplay)) {
    const lan::QueryEncodingCache enc =
        rank->scorer().EncodeQuery(query_cg(m->query));
    int64_t inferences = 0;
    const double t = Now();
    rank->PredictBatches(index.pg().NeighborSpan(m->node), cgs, m->node, enc,
                         &inferences);
    r.rk_s += Now() - t;
    ++r.rk;
  }
  for (const ModelCall* m :
       Sample(by_kind[ModelCall::kNeighborhood], kModelReplay)) {
    const lan::QueryEncodingCache enc =
        nh->scorer().EncodeQuery(query_cg(m->query));
    std::vector<const lan::CompressedGnnGraph*> gs;
    for (int32_t c : m->clusters) {
      for (int32_t member : index.clusters().members[static_cast<size_t>(c)]) {
        gs.push_back(&cgs[static_cast<size_t>(member)]);
      }
    }
    const double t = Now();
    nh->PredictProbsBatch(gs, enc);
    r.nh_s += Now() - t;
    ++r.nh;
  }
  // M_c and the query CG depend on the query alone, and M_c's output is
  // cached per query, so replay both once per distinct traced query rather
  // than per recorded pass.
  std::vector<int32_t> queries;
  for (const QueryRecord& q : phase.queries) {
    if (q.traced) queries.push_back(q.query);
  }
  std::sort(queries.begin(), queries.end());
  queries.erase(std::unique(queries.begin(), queries.end()), queries.end());
  for (size_t i = 0; i < queries.size() && i < kModelReplay; ++i) {
    const Graph& g = inputs.queries[static_cast<size_t>(queries[i])];
    if (cluster != nullptr) {
      const std::vector<float> embedding =
          lan::EmbedGraph(g, index.config().embedding);
      const double t = Now();
      cluster->PredictCounts(embedding, index.clusters().centroids);
      r.c_s += Now() - t;
      ++r.c;
    }
    const double t = Now();
    const lan::CompressedGnnGraph cg = index.QueryCg(g);
    r.cg_s += Now() - t;
    ++r.cg;
  }
  return r;
}

/// Mean seconds per probe of a standalone result cache fed the recorded
/// GED calls — the lookup cost on workloads that run with the cache off.
double ReplayCacheProbe(const Inputs& inputs, const LanIndex& index,
                        const PhaseOutput& phase) {
  lan::ResultCacheOptions opts;
  opts.enabled = true;
  opts.capacity_bytes = 8ull << 20;
  lan::ResultCache cache(opts, index.config().query_ged.Fingerprint());
  std::map<int32_t, uint64_t> hashes;
  for (const GedCall& c : phase.ged_calls) {
    if (!hashes.count(c.query)) {
      hashes[c.query] =
          inputs.queries[static_cast<size_t>(c.query)].ContentHash();
    }
  }
  for (const GedCall& c : phase.ged_calls) {
    cache.PutGed(hashes[c.query], c.id, lan::ResultKind::kExactGed, 0, 1.0);
  }
  double value = 0.0;
  const double t = Now();
  for (const GedCall& c : phase.ged_calls) {
    cache.FindGed(hashes[c.query], c.id, lan::ResultKind::kExactGed, 0,
                  &value);
  }
  return Ratio(Now() - t, static_cast<double>(phase.ged_calls.size()));
}

}  // namespace

void AbsorbTrace(int32_t query, const lan::SearchResult& result,
                 const BenchTraceSink& sink, PhaseOutput* out) {
  TraceTotals& t = out->trace;
  ++t.queries;
  t.stats.Merge(result.stats);
  const double kth = result.results.empty() ? 0.0 : result.results.back().second;
  const char* ged_kind = lan::ResultKindName(lan::ResultKind::kExactGed);
  std::vector<int32_t> kept_clusters;
  for (const lan::TraceEvent& e : sink.events()) {
    switch (e.type) {
      case lan::TraceEventType::kBatchOpen:
        ++t.batches_opened;
        break;
      case lan::TraceEventType::kGammaPrune:
        t.gamma_pruned_batches += static_cast<int64_t>(e.aux);
        break;
      case lan::TraceEventType::kCacheHit:
        if (e.detail != nullptr && std::strcmp(e.detail, ged_kind) == 0) {
          ++t.ged_cache_hits;
        }
        break;
      case lan::TraceEventType::kClusterScore:
        kept_clusters.push_back(static_cast<int32_t>(e.id));
        break;
      case lan::TraceEventType::kDistance:
        out->ged_calls.push_back({query, static_cast<GraphId>(e.id), kth});
        break;
      case lan::TraceEventType::kModelInference: {
        ++t.model_passes;
        t.model_rows += static_cast<int64_t>(e.aux);
        ModelCall m;
        m.query = query;
        if (e.detail != nullptr && std::strcmp(e.detail, "M_rk") == 0) {
          m.kind = ModelCall::kRank;
          m.node = static_cast<GraphId>(e.id);
        } else if (e.detail != nullptr && std::strcmp(e.detail, "M_nh") == 0) {
          m.kind = ModelCall::kNeighborhood;
          m.clusters = kept_clusters;
        } else {
          break;  // M_c: replayed per distinct query instead
        }
        out->model_calls.push_back(std::move(m));
        break;
      }
      default:
        break;
    }
  }
}

std::vector<Metric> LayerMetrics(const Inputs& inputs, const Served& served,
                                 const PhaseOutput& phase,
                                 const CheckResult& checks) {
  const LanIndex& index = *served.index;
  const TraceTotals& t = phase.trace;
  const lan::SearchStats& s = t.stats;
  const double q = static_cast<double>(std::max<int64_t>(1, t.queries));
  auto sec = [&](Stage stage) { return s.stages.SecondsOf(stage); };
  auto cnt = [&](Stage stage) {
    return static_cast<double>(s.stages.CountOf(stage));
  };
  const GedReplay ged = ReplayGed(inputs, index, phase);
  const ModelReplay nn = ReplayModels(inputs, index, phase);
  const double calls = static_cast<double>(ged.calls);
  const double lookup_s =
      cnt(Stage::kCacheLookup) > 0
          ? Ratio(sec(Stage::kCacheLookup), cnt(Stage::kCacheLookup))
          : ReplayCacheProbe(inputs, index, phase);
  const double traced_qps = Ratio(static_cast<double>(t.queries),
                                  t.traced_seconds);
  const double untraced_qps = Ratio(static_cast<double>(t.untraced_queries),
                                    t.untraced_seconds);
  return {
      {"ged.self_ms_per_query", sec(Stage::kGed) / q * 1e3, "ms"},
      {"ged.ms_per_call", Ratio(sec(Stage::kGed), cnt(Stage::kGed)) * 1e3,
       "ms"},
      {"ged.lb_us_per_call", Ratio(ged.lb_s, calls) * 1e6, "us"},
      {"ged.vj_us_per_call", Ratio(ged.vj_s, calls) * 1e6, "us"},
      {"ged.hungarian_us_per_call", Ratio(ged.hung_s, calls) * 1e6, "us"},
      {"ged.beam_us_per_call", Ratio(ged.beam_s, calls) * 1e6, "us"},
      {"ged.exact_ms_per_call", Ratio(ged.exact_s, calls) * 1e3, "ms"},
      {"ged.exact_certified_ratio", Ratio(ged.certified, calls), "ratio"},
      {"ged.winner_vj_ratio", Ratio(ged.win_vj, calls), "ratio"},
      {"ged.winner_hungarian_ratio", Ratio(ged.win_hung, calls), "ratio"},
      {"ged.winner_beam_ratio", Ratio(ged.win_beam, calls), "ratio"},
      {"ged.lb_screenable_ratio", Ratio(ged.screenable, calls), "ratio"},
      {"ged.truth_mismatch_ratio",
       Ratio(checks.truth_mismatches, checks.returned_pairs), "ratio"},
      {"nn.self_ms_per_query", sec(Stage::kModelInference) / q * 1e3, "ms"},
      {"nn.rk_us_per_batch", Ratio(nn.rk_s, nn.rk) * 1e6, "us"},
      {"nn.nh_us_per_call", Ratio(nn.nh_s, nn.nh) * 1e6, "us"},
      {"nn.c_us_per_call", Ratio(nn.c_s, nn.c) * 1e6, "us"},
      {"nn.rows_per_batch", Ratio(t.model_rows, t.model_passes),
       "rows/batch"},
      {"gnn.query_cg_us", Ratio(nn.cg_s, nn.cg) * 1e6, "us"},
      {"pg.routing_steps_per_query", s.routing_steps / q, "steps/query"},
      {"pg.ndc_per_step", Ratio(s.ndc, s.routing_steps), "calls/step"},
      {"pg.batches_opened_per_query", t.batches_opened / q, "batches/query"},
      {"pg.gamma_pruned_batches_per_query", t.gamma_pruned_batches / q,
       "batches/query"},
      {"pg.self_ms_per_query",
       (sec(Stage::kRouting) + sec(Stage::kBeamSearch) + sec(Stage::kRerank)) /
           q * 1e3,
       "ms"},
      {"lan.model_inferences_per_query", s.model_inferences / q,
       "rows/query"},
      {"lan.init_selection_ms_per_query",
       sec(Stage::kInitSelection) / q * 1e3, "ms"},
      {"lan.cache_hits_per_query", s.cache_hits / q, "hits/query"},
      {"lan.cache_hit_ratio",
       Ratio(t.ged_cache_hits, t.ged_cache_hits + s.ndc), "ratio"},
      {"lan.cache_lookup_us_per_probe", lookup_s * 1e6, "us"},
      {"lan.cache_evictions", static_cast<double>(phase.cache_evictions),
       "count"},
      {"lan.cache_invalidations",
       static_cast<double>(phase.cache_invalidations), "count"},
      {"lan.snapshot_pin_us_per_query", sec(Stage::kSnapshotPin) / q * 1e6,
       "us"},
      {"store.save_s", served.save_s, "s"},
      {"store.open_s", served.open_s, "s"},
      {"trace.qps_ratio", Ratio(traced_qps, untraced_qps), "ratio"},
  };
}

}  // namespace perfbench
