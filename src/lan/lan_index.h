#ifndef LAN_LAN_LAN_INDEX_H_
#define LAN_LAN_LAN_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "ged/ged_computer.h"
#include "gnn/embedding.h"
#include "lan/cluster_model.h"
#include "lan/ground_truth.h"
#include "lan/kmeans.h"
#include "lan/learned_init.h"
#include "lan/neighborhood_model.h"
#include "lan/rank_model.h"
#include "lan/result_cache.h"
#include "pg/hnsw.h"
#include "pg/np_route.h"

namespace lan {

/// \brief Which router executes the query.
enum class RoutingMethod : int {
  /// np_route with the learned M_rk ranker (LAN_Route).
  kLanRoute = 0,
  /// Algorithm 1, exhaustive neighbor exploration (HNSW_Route).
  kBaselineRoute = 1,
  /// np_route with the oracle ranker (the Theorem 1 skyline; ablation).
  kOracleRoute = 2,
};

/// \brief How the routing start node is chosen.
enum class InitMethod : int {
  kLanIs = 0,    // learned (M_nh + M_c)
  kHnswIs = 1,   // HNSW upper-layer descent
  kRandomIs = 2, // uniform random
};

const char* RoutingMethodName(RoutingMethod m);
const char* InitMethodName(InitMethod m);

/// \brief End-to-end configuration of a LanIndex.
struct LanConfig {
  // ---- Index construction ----
  HnswOptions hnsw;
  /// Distances used while building the PG (offline; default cheap).
  GedOptions build_ged = [] {
    GedOptions o;
    o.approximate_only = true;
    o.beam_width = 0;
    return o;
  }();
  /// Distances used at query time (the paper's ground-truth protocol).
  GedOptions query_ged;

  // ---- Routing ----
  int batch_percent = 20;  // y
  double step_size = 1.0;  // d_s
  int default_beam = 16;   // b

  // ---- Neighborhood calibration (Sec. VII: gamma* chosen so N_Q holds
  // the `neighborhood_knn`-NNs for `neighborhood_coverage` of training
  // queries; the paper uses 200-NNs at 90%). ----
  int neighborhood_knn = 50;
  double neighborhood_coverage = 0.9;

  // ---- Initial node selection ----
  LanInitOptions init;
  /// KMeans cluster count; 0 = sqrt(|D|).
  int num_clusters = 0;
  int kmeans_iterations = 20;

  // ---- Learned models ----
  PairScorerOptions scorer;  // backbone dims shared by M_rk / M_nh
  RankModelOptions rank;
  NeighborhoodModelOptions nh;
  ClusterModelOptions cluster;
  EmbeddingOptions embedding;
  size_t max_rank_examples = 4000;
  size_t max_nh_examples = 4000;

  /// Fig. 10 toggle: run model inference on compressed GNN-graphs
  /// (Definition 3) instead of raw graphs (Definition 1).
  bool use_compressed_gnn = true;

  /// Build an int8 plane (symmetric per-row quantization) over the corpus
  /// embeddings and the KMeans centroids, and serve embedding-space
  /// distances — KMeans assignment, online-insert cluster assignment, and
  /// LAN_IS's empty-neighborhood fallback — from int8 kernels. Trained
  /// models (M_c/M_nh/M_rk) always see f32 inputs; GED and Algorithms 1-4
  /// are untouched. Off by default: the f32 path stays bit-for-bit.
  bool quantized_embeddings = false;

  // ---- Cross-query result cache (docs/caching.md) ----
  /// Memoizes GED values and M_rk/M_c scores across queries, keyed by the
  /// query's canonical content hash; hits skip the whole GED/model
  /// pipeline. Off by default; results are identical either way (only
  /// stats.ndc / model_inferences vs stats.cache_hits accounting moves).
  ResultCacheOptions cache;

  uint64_t seed = 123;
  /// Worker threads for offline phases (0 = hardware concurrency). Sizes
  /// the index's resident pool; to also parallelize PG *insertion* (not
  /// just per-step distance evaluations), set hnsw.num_build_threads to 0
  /// ("follow this pool") or an explicit count — insertion stays serial by
  /// default to preserve the bit-for-bit build determinism contract.
  int num_threads = 0;

  /// Checks every knob is in range; called by LanIndex::Build.
  Status Validate() const;
};

/// \brief Per-query search controls. The one extensible entry point: new
/// per-query knobs are added here instead of growing positional overloads.
///
/// Defaults reproduce full LAN search; `beam <= 0` resolves to the index's
/// `LanConfig::default_beam` at search time.
struct SearchOptions {
  /// Number of answers.
  int k = 10;
  /// Beam size b of the candidate pool W (<= 0: LanConfig::default_beam).
  int beam = 0;
  RoutingMethod routing = RoutingMethod::kLanRoute;
  InitMethod init = InitMethod::kLanIs;
  /// Structured per-query trace (null: tracing disabled, zero cost). The
  /// sink is invoked synchronously on the search thread and must outlive
  /// the call. SearchBatch ignores it (a single sink cannot soundly
  /// receive interleaved events from parallel workers); batch callers
  /// that want traces set `trace_factory` instead.
  TraceSink* trace = nullptr;
  /// SearchBatch-only: called once per query (from the worker thread, so
  /// it must be thread-safe) to obtain that query's private sink; may
  /// return null to skip tracing a query. Each returned sink receives one
  /// query's events with no interleaving and must outlive the batch call.
  /// Ignored by single-query Search.
  std::function<TraceSink*(size_t query_index)> trace_factory;
  /// Per-stage latency profiling (see common/profile.h). When set, the
  /// query runs under a StageProfile and its exclusive per-stage times
  /// land in SearchResult::stats.stages; SearchBatch additionally fills
  /// `stage.<name>_seconds` histograms in the batch metrics. Off by
  /// default: the disabled path is a null-pointer check per span.
  bool profile = false;
};

/// \brief One query's answer.
struct SearchResult {
  KnnList results;
  SearchStats stats;
  /// Index epoch the query was served at (which snapshot of a mutable
  /// index answered it; 0 until the first Insert/Remove).
  uint64_t epoch = 0;
  /// Why the query failed (empty results) instead of silently degrading:
  /// searching before Build(), or a learned routing/init mode before
  /// Train()/LoadModels(). Always check when the index lifecycle is not
  /// statically known (serving, tools).
  Status status;
};

/// \brief Aggregate view of one SearchBatch call.
struct BatchStats {
  /// Element-wise sum of every per-query SearchStats.
  SearchStats totals;
  /// Latency/NDC/steps/inference distributions over the batch (scraped
  /// from a per-call MetricsRegistry whose shards the workers filled
  /// contention-free). Histogram names: query_latency_seconds, query_ndc,
  /// query_routing_steps, query_model_inferences; counters: queries,
  /// query_errors.
  MetricsSnapshot metrics;
};

/// \brief Counters of an index's write path, exported as the `insert.*`
/// metrics: the counter `insert.pair_distance_calls` and the gauges
/// `insert.pair_memo_entries` / `insert.pair_memo_bytes`.
struct InsertStats {
  /// Construction-GED evaluations made by Insert since Build (pairs the
  /// writer's memo did not hold).
  uint64_t pair_distance_calls = 0;
  /// Pairs in the writer's memo, and the bytes of its table.
  uint64_t pair_memo_entries = 0;
  uint64_t pair_memo_bytes = 0;
};

/// Emits `stats` as the `insert.*` metrics, incrementing the counter by
/// `stats.pair_distance_calls - baseline_calls` (a batch or scrape passes
/// the count it last reported, as the `cache.*` counters do).
void AppendInsertMetrics(const InsertStats& stats, uint64_t baseline_calls,
                         MetricsRegistry* registry);

/// \brief Per-query results plus the merged batch aggregate.
struct BatchSearchResult {
  std::vector<SearchResult> results;
  BatchStats stats;
};

/// \brief Immutable state of a LanIndex at one epoch. Readers pin one
/// snapshot for a whole query; the writer publishes a successor and never
/// mutates a published one, so searches proceed lock-free while the index
/// changes underneath them (RCU).
///
/// The components a mutation leaves untouched are shared with the previous
/// snapshot (Remove copies only the live bitmap), so publishing is cheap
/// relative to the GED work an Insert does anyway.
struct IndexSnapshot {
  /// Monotone version: 0 after Build, +1 per Insert/Remove.
  uint64_t epoch = 0;
  /// Nodes in the PG / rows in every derived table (includes tombstones).
  GraphId num_graphs = 0;
  /// Graphs that are still answers (`num_graphs` minus tombstones).
  GraphId live_count = 0;
  std::shared_ptr<const HnswIndex> hnsw;
  /// live[id] == 0 marks a tombstone: routed through, never returned.
  std::shared_ptr<const std::vector<uint8_t>> live;
  std::shared_ptr<const std::vector<CompressedGnnGraph>> cgs;
  /// One row-major matrix; row id is graph id's embedding.
  std::shared_ptr<const EmbeddingMatrix> embeddings;
  std::shared_ptr<const KMeansResult> clusters;
  /// Keep-alive handle for a mapped snapshot the components above view
  /// into (OpenSnapshot attach mode); null for fully owned state. Every
  /// successor snapshot copies it, so the mapping lives as long as any
  /// epoch whose views point into it.
  std::shared_ptr<const void> backing;
};

/// \brief The LAN index: proximity graph + M_rk + M_nh + M_c (Fig. 3).
///
/// Usage: Build() once over the database (offline), Train() once over a
/// query workload (offline), then Search() per query. SearchOptions
/// exposes every routing/init ablation the paper evaluates — over the same
/// PG — plus per-query observability (tracing).
///
/// Online updates: when Built over a *mutable* database, Insert()/Remove()
/// maintain the index without a rebuild or retrain — each mutation derives
/// the new graph's CG/embedding/cluster assignment, extends the PG with
/// the same per-node step batch construction uses, and publishes a new
/// epoch. One writer at a time (Insert/Remove serialize on an internal
/// mutex); Search/SearchBatch never block on the writer — every query pins
/// the snapshot current at its start (see IndexSnapshot). The learned
/// models are NOT retrained on mutation; see docs/index_lifecycle.md for
/// the staleness semantics.
class LanIndex {
 public:
  explicit LanIndex(LanConfig config);
  ~LanIndex();

  LanIndex(const LanIndex&) = delete;
  LanIndex& operator=(const LanIndex&) = delete;

  /// Builds the PG, the per-graph CGs, embeddings, and clusters.
  /// `db` must outlive the index. An index built over a const database is
  /// immutable: Insert/Remove fail.
  Status Build(const GraphDatabase* db);
  /// Mutable overload: also enables Insert()/Remove(), which append to /
  /// tombstone `db`. The caller must not mutate `db` directly afterwards.
  Status Build(GraphDatabase* db);

  /// Like Build(), but restores a previously saved PG (see SaveIndex)
  /// instead of reconstructing it — skipping the GED-heavy offline phase.
  /// The stream must come from an index built over the same database
  /// (including any online-inserted graphs; persist the database alongside
  /// the index). Restores the epoch and tombstones too.
  Status BuildFromSavedIndex(const GraphDatabase* db, std::istream& in);
  /// Mutable overload (see Build(GraphDatabase*)).
  Status BuildFromSavedIndex(GraphDatabase* db, std::istream& in);

  /// Online insert: appends `graph` to the database, derives its CG /
  /// embedding / nearest-centroid cluster assignment, extends the PG with
  /// the same insertion step batch construction uses, and publishes the
  /// next epoch. Concurrent searches are never blocked; they keep serving
  /// the previous epoch until the publish. Requires a mutable Build.
  /// The learned models are not retrained (the new graph is still
  /// rankable: M_rk computes its context embedding on the fly).
  Result<GraphId> Insert(Graph graph);

  /// Online remove: tombstones `id` from this epoch on. The graph keeps
  /// its PG node (still a navigation waypoint) and remains an answer for
  /// searches already pinned to an older epoch. Requires a mutable Build.
  Status Remove(GraphId id);

  /// Persists the PG structure (HNSW layers) plus the mutable-index state
  /// (epoch, tombstones); pair with SaveModels for a complete restartable
  /// checkpoint.
  Status SaveIndex(std::ostream& out) const;
  Status SaveIndexToFile(const std::string& path) const;
  Status BuildFromSavedIndexFile(const GraphDatabase* db,
                                 const std::string& path);
  /// Mutable overload (see Build(GraphDatabase*)).
  Status BuildFromSavedIndexFile(GraphDatabase* db, const std::string& path);

  /// Persists the COMPLETE index — database, PG, CGs, embeddings,
  /// clusters, tombstones, and (if trained) the model parameters — as one
  /// sectioned snapshot file (store/snapshot.h, docs/snapshot_format.md).
  /// Unlike SaveIndex + SaveModels, the result is self-contained:
  /// OpenSnapshot needs no database.
  Status SaveSnapshot(const std::string& path) const;

  /// Restores a SaveSnapshot file by mmapping it and attaching every
  /// component as a zero-copy view: graph arenas, CSR layers, embedding /
  /// centroid / context matrices, and CG arenas all point into the
  /// mapping, so time-to-ready is O(validate + O(1) allocations per
  /// section), not O(rebuild). The index owns its database (db() serves
  /// views into the mapping) and is immediately searchable — trained, if
  /// the snapshot carried models. Insert() works: the PG thaws on first
  /// mutation and the database appends owned graphs after the arena
  /// prefix. The mapping is released when the last epoch viewing it
  /// retires.
  Status OpenSnapshot(const std::string& path);

  /// Trains gamma*, M_rk, M_nh, and M_c from the training queries.
  Status Train(const std::vector<Graph>& train_queries);

  /// Checks that this index can execute a search with `options`: Build()
  /// has run, the knobs are in range, and — for routing/init modes that
  /// need the learned models — Train() or LoadModels() has run.
  Status Ready(const SearchOptions& options) const;

  /// The search entry point. Every routing/init ablation, tracing, and
  /// future per-query knobs route through SearchOptions. A not-Ready index
  /// returns an empty result carrying the error in SearchResult::status
  /// instead of crashing or silently degrading.
  SearchResult Search(const Graph& query, const SearchOptions& options) const;

  /// Allocation-free variant: writes into `out`, reusing its vectors'
  /// capacity (all fields are reset first). Per-query working state comes
  /// from the calling thread's SearchScratch, so a warmed-up thread serving
  /// baseline-routed queries performs zero heap allocations per query.
  void SearchInto(const Graph& query, const SearchOptions& options,
                  SearchResult* out) const;

  /// Throughput mode: answers independent queries in parallel across
  /// `num_threads` workers (0 = the index's resident pool, so batch calls
  /// pay no thread-creation latency; an explicit count spawns exactly
  /// that many transient workers). Results are
  /// index-aligned with `queries` and identical to sequential Search;
  /// BatchStats carries the summed SearchStats plus a metrics snapshot
  /// (latency/NDC distributions and index_live_size / index_tombstones /
  /// index_epoch gauges), so callers no longer hand-sum stats.
  /// `options.trace` is ignored; set `options.trace_factory` for one
  /// private sink per query.
  BatchSearchResult SearchBatch(const std::vector<Graph>& queries,
                                const SearchOptions& options,
                                int num_threads = 0) const;

  // ---- Introspection (benches, tests; setup-phase views — references
  // are into the snapshot current at the call and stay valid until two
  // further mutations retire it) ----
  const HnswIndex& hnsw() const { return *Snapshot()->hnsw; }
  const ProximityGraph& pg() const { return Snapshot()->hnsw->BaseLayer(); }
  const GraphDatabase& db() const { return *db_; }
  double gamma_star() const { return gamma_star_; }
  const NeighborhoodModel* neighborhood_model() const { return nh_model_.get(); }
  const NeighborRankModel* rank_model() const { return rank_model_.get(); }
  const std::vector<CompressedGnnGraph>& db_cgs() const {
    return *Snapshot()->cgs;
  }
  const KMeansResult& clusters() const { return *Snapshot()->clusters; }
  const EmbeddingMatrix& embeddings() const { return *Snapshot()->embeddings; }
  const LanConfig& config() const { return config_; }
  bool trained() const { return trained_; }
  /// The cross-query result cache, or null when `config.cache.enabled` is
  /// false. Stats()/AppendMetrics expose hit rates; tools surface them via
  /// --metrics-out.
  ResultCache* result_cache() const { return result_cache_.get(); }
  /// The write path's counters (`insert.*`); thread-safe, readable while
  /// a writer runs.
  InsertStats insert_stats() const;
  /// The provider the query path computes through (the caching decorator
  /// when enabled, the direct GED provider otherwise). Valid after Build.
  const DistanceProvider* distance_provider() const {
    return caching_provider_ != nullptr
               ? caching_provider_.get()
               : static_cast<const DistanceProvider*>(&base_provider_);
  }

  // ---- Mutable-index introspection ----
  /// The snapshot a search starting now would pin. Holding the returned
  /// shared_ptr keeps that epoch's whole state alive.
  std::shared_ptr<const IndexSnapshot> Snapshot() const;
  uint64_t epoch() const { return Snapshot()->epoch; }
  /// Graphs a search at the current epoch can return.
  GraphId live_size() const { return Snapshot()->live_count; }
  /// Tombstoned graphs still serving as navigation waypoints.
  GraphId tombstones() const {
    const auto snap = Snapshot();
    return snap->num_graphs - snap->live_count;
  }

  /// CG of an ad-hoc query graph under this index's GNN depth.
  CompressedGnnGraph QueryCg(const Graph& query) const;

  /// Persists the trained state (gamma*, M_rk / M_nh / M_c parameters,
  /// clusters) so a future process can skip Train(). The database and
  /// config are NOT saved; LoadModels requires an index Built over the
  /// same database (or a prefix of it: graphs inserted online after the
  /// checkpoint are assigned to their nearest frozen centroid, matching
  /// what Insert() would have done) with the same config.
  Status SaveModels(std::ostream& out) const;
  Status SaveModelsToFile(const std::string& path) const;
  /// Restores trained state into a Built index (see SaveModels).
  Status LoadModels(std::istream& in);
  Status LoadModelsFromFile(const std::string& path);

 private:
  /// Both Build overloads: `mutable_db` is `db` or null (immutable).
  Status BuildImpl(const GraphDatabase* db, GraphDatabase* mutable_db);
  /// Shared tail of Build / BuildFromSavedIndex: derives CGs, embeddings,
  /// and clusters over the database, then publishes the first snapshot at
  /// `epoch` with tombstones `live` (empty = everything live).
  Status FinishBuild(HnswIndex hnsw, std::vector<uint8_t> live,
                     uint64_t epoch);
  /// The provider stack and result cache over db_, shared by every
  /// build and restore path; resets the insert.* counters.
  void InitProviders();
  /// Copies the memo's size into the insert_stats() gauges.
  void PublishMemoStats();
  /// Installs `snap` as the current snapshot (release publish).
  void Publish(std::shared_ptr<const IndexSnapshot> snap);
  /// Legacy-stream shim: decodes a full LANSNAP1 image that arrived via
  /// BuildFromSavedIndex(db, in) — only the PG/meta sections are used (the
  /// caller supplied the database), and the PG is materialized to owned
  /// form because the buffer dies with this call (lan_snapshot.cc).
  Status BuildFromSnapshotBuffer(const GraphDatabase* db,
                                 std::string_view bytes,
                                 std::vector<uint8_t>* live_out,
                                 uint64_t* epoch_out, HnswIndex* hnsw_out);

  LanConfig config_;
  const GraphDatabase* db_ = nullptr;
  /// Non-null only after a mutable Build; gates Insert/Remove.
  GraphDatabase* mutable_db_ = nullptr;
  /// OpenSnapshot mode: the index owns its database (db_/mutable_db_
  /// point here) instead of borrowing the caller's.
  std::unique_ptr<GraphDatabase> owned_db_;
  /// OpenSnapshot mode: keeps the mapping alive for views held OUTSIDE
  /// the published snapshot (the rank model's context matrix, the owned
  /// database's graph arenas) for the lifetime of the index.
  std::shared_ptr<const void> snapshot_backing_;
  GedComputer build_ged_;
  GedComputer query_ged_;
  /// Leaf of the provider stack (set up in InitProviders): direct
  /// query-protocol GED computation.
  GedDistanceProvider base_provider_;
  /// Non-null iff config_.cache.enabled: the cross-query store and the
  /// decorator that layers it over base_provider_. shared_ptr because the
  /// cache may outlive a batch call that snapshots its stats.
  std::shared_ptr<ResultCache> result_cache_;
  std::unique_ptr<DistanceProvider> caching_provider_;
  std::unique_ptr<ThreadPool> pool_;

  /// Current epoch's state; accessed via atomic shared_ptr ops (readers
  /// pin it once per query, the writer swaps it under writer_mu_).
  std::shared_ptr<const IndexSnapshot> snapshot_;
  /// Serializes Insert/Remove (and setup-phase snapshot replacement).
  mutable std::mutex writer_mu_;
  /// Continues the level-draw stream for online PG inserts.
  Rng insert_rng_{0};
  /// Writer state under writer_mu_: every construction pair distance the
  /// mutable Build and the Inserts since computed, so each Insert pays
  /// GED only for pairs no earlier write needed. Lives outside the
  /// copy-on-write snapshots, which are copied on every epoch. Empty on an
  /// immutable index and after a restore (BuildFromSavedIndex,
  /// OpenSnapshot): the first writes refill it.
  PairDistanceMemo pair_memo_;
  /// insert_stats() sources: written by the writer, read by any thread.
  std::atomic<uint64_t> pair_distance_calls_{0};
  std::atomic<uint64_t> pair_memo_entries_{0};
  std::atomic<uint64_t> pair_memo_bytes_{0};

  double gamma_star_ = 0.0;
  std::unique_ptr<NeighborRankModel> rank_model_;
  std::unique_ptr<NeighborhoodModel> nh_model_;
  std::unique_ptr<ClusterModel> cluster_model_;
  bool built_ = false;
  bool trained_ = false;
};

}  // namespace lan

#endif  // LAN_LAN_LAN_INDEX_H_
