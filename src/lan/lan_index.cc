#include "lan/lan_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string_view>

#include "common/logging.h"
#include "nn/serialization.h"
#include "common/timer.h"
#include "lan/learned_ranker.h"
#include "pg/beam_search.h"
#include "pg/init_selector.h"
#include "store/snapshot.h"

namespace lan {

const char* RoutingMethodName(RoutingMethod m) {
  switch (m) {
    case RoutingMethod::kLanRoute:
      return "LAN_Route";
    case RoutingMethod::kBaselineRoute:
      return "HNSW_Route";
    case RoutingMethod::kOracleRoute:
      return "Oracle_Route";
  }
  return "?";
}

const char* InitMethodName(InitMethod m) {
  switch (m) {
    case InitMethod::kLanIs:
      return "LAN_IS";
    case InitMethod::kHnswIs:
      return "HNSW_IS";
    case InitMethod::kRandomIs:
      return "Rand_IS";
  }
  return "?";
}

LanIndex::LanIndex(LanConfig config)
    : config_(std::move(config)), build_ged_(config_.build_ged),
      query_ged_(config_.query_ged) {
  const size_t threads = config_.num_threads > 0
                             ? static_cast<size_t>(config_.num_threads)
                             : DefaultThreadCount();
  pool_ = std::make_unique<ThreadPool>(threads);
}

LanIndex::~LanIndex() = default;

Status LanConfig::Validate() const {
  if (hnsw.M <= 0) return Status::InvalidArgument("hnsw.M must be positive");
  if (hnsw.ef_construction <= 0) {
    return Status::InvalidArgument("hnsw.ef_construction must be positive");
  }
  if (batch_percent <= 0 || batch_percent > 100) {
    return Status::InvalidArgument("batch_percent must be in (0, 100]");
  }
  if (step_size <= 0.0) {
    return Status::InvalidArgument("step_size must be positive");
  }
  if (default_beam <= 0) {
    return Status::InvalidArgument("default_beam must be positive");
  }
  if (neighborhood_knn <= 0) {
    return Status::InvalidArgument("neighborhood_knn must be positive");
  }
  if (neighborhood_coverage <= 0.0 || neighborhood_coverage > 1.0) {
    return Status::InvalidArgument("neighborhood_coverage must be in (0, 1]");
  }
  if (init.samples <= 0) {
    return Status::InvalidArgument("init.samples must be positive");
  }
  if (scorer.gnn_dims.empty()) {
    return Status::InvalidArgument("scorer.gnn_dims must not be empty");
  }
  for (int32_t d : scorer.gnn_dims) {
    if (d <= 0) return Status::InvalidArgument("gnn dims must be positive");
  }
  if (scorer.mlp_hidden <= 0) {
    return Status::InvalidArgument("scorer.mlp_hidden must be positive");
  }
  if (embedding.dim <= 0) {
    return Status::InvalidArgument("embedding.dim must be positive");
  }
  LAN_RETURN_NOT_OK(cache.Validate());
  return Status::OK();
}

Status LanIndex::Build(const GraphDatabase* db) {
  return BuildImpl(db, nullptr);
}

Status LanIndex::Build(GraphDatabase* db) { return BuildImpl(db, db); }

Status LanIndex::BuildImpl(const GraphDatabase* db,
                           GraphDatabase* mutable_db) {
  LAN_RETURN_NOT_OK(config_.Validate());
  if (db == nullptr || db->empty()) {
    return Status::InvalidArgument("Build: empty database");
  }
  db_ = db;
  mutable_db_ = nullptr;
  LAN_LOG(Info) << "LanIndex::Build: " << db_->size() << " graphs ("
                << db_->name() << ")";

  // Only a mutable index keeps the build's pair distances: they exist for
  // later Inserts to reuse.
  pair_memo_.Clear();
  Timer timer;
  HnswIndex hnsw =
      HnswIndex::Build(*db_, build_ged_, config_.hnsw, pool_.get(),
                       mutable_db != nullptr ? &pair_memo_ : nullptr);
  LAN_LOG(Info) << "  PG built in " << timer.ElapsedSeconds() << "s, avg deg "
                << hnsw.BaseLayer().AverageDegree();
  LAN_RETURN_NOT_OK(FinishBuild(std::move(hnsw), {}, /*epoch=*/0));
  mutable_db_ = mutable_db;
  return Status::OK();
}

namespace {

/// Magic of the mutable-index wrapper around the HNSW stream. Legacy
/// index files start directly with the HNSW magic instead.
constexpr char kIndexMagic[8] = {'L', 'A', 'N', 'I', 'D', 'X', '0', '1'};

}  // namespace

Status LanIndex::BuildFromSavedIndex(const GraphDatabase* db,
                                     std::istream& in) {
  LAN_RETURN_NOT_OK(config_.Validate());
  if (db == nullptr || db->empty()) {
    return Status::InvalidArgument("BuildFromSavedIndex: empty database");
  }
  db_ = db;
  mutable_db_ = nullptr;
  // A restored PG comes without the pair distances that built it; the
  // first Inserts recompute what they need.
  pair_memo_.Clear();

  // Peek the leading magic: a LANSNAP1 sectioned snapshot, the LANIDX01
  // mutable-index wrapper, or (legacy) a bare HNSW stream.
  uint64_t epoch = 0;
  std::vector<uint8_t> live;
  char magic[8];
  in.read(magic, sizeof(magic));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(magic))) {
    return Status::IoError("index read truncated");
  }
  if (Snapshot::LooksLikeSnapshot(std::string_view(magic, sizeof(magic)))) {
    std::string bytes(magic, sizeof(magic));
    bytes.append(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    HnswIndex hnsw;
    LAN_RETURN_NOT_OK(
        BuildFromSnapshotBuffer(db, bytes, &live, &epoch, &hnsw));
    return FinishBuild(std::move(hnsw), std::move(live), epoch);
  }
  if (std::memcmp(magic, kIndexMagic, sizeof(magic)) == 0) {
    in.read(reinterpret_cast<char*>(&epoch), sizeof(epoch));
    int32_t num_graphs = 0;
    in.read(reinterpret_cast<char*>(&num_graphs), sizeof(num_graphs));
    if (!in.good() || num_graphs < 0) {
      return Status::IoError("bad index header");
    }
    live.resize(static_cast<size_t>(num_graphs));
    in.read(reinterpret_cast<char*>(live.data()),
            static_cast<std::streamsize>(live.size()));
    if (in.gcount() != static_cast<std::streamsize>(live.size())) {
      return Status::IoError("index read truncated");
    }
  } else {
    in.seekg(-static_cast<std::streamoff>(sizeof(magic)), std::ios::cur);
    if (!in.good()) return Status::IoError("cannot rewind index stream");
  }

  LAN_ASSIGN_OR_RETURN(HnswIndex hnsw, HnswIndex::Load(in));
  if (hnsw.BaseLayer().NumNodes() != db_->size()) {
    return Status::InvalidArgument(
        "saved index size does not match the database");
  }
  if (!live.empty() &&
      live.size() != static_cast<size_t>(db_->size())) {
    return Status::InvalidArgument(
        "saved tombstone bitmap does not match the database");
  }
  return FinishBuild(std::move(hnsw), std::move(live), epoch);
}

Status LanIndex::BuildFromSavedIndex(GraphDatabase* db, std::istream& in) {
  LAN_RETURN_NOT_OK(
      BuildFromSavedIndex(static_cast<const GraphDatabase*>(db), in));
  mutable_db_ = db;
  return Status::OK();
}

// SaveIndex lives in lan_snapshot.cc: it now writes a {kMeta, kHnsw}
// sectioned snapshot, which the LooksLikeSnapshot branch above reads
// back. kIndexMagic streams stay loadable (the branch below).

Status LanIndex::SaveIndexToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return ErrnoIoError("cannot open for writing", path);
  LAN_RETURN_NOT_OK(SaveIndex(out));
  out.flush();
  if (!out.good()) return ErrnoIoError("write failed", path);
  return Status::OK();
}

Status LanIndex::BuildFromSavedIndexFile(const GraphDatabase* db,
                                         const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return ErrnoIoError("cannot open", path);
  return BuildFromSavedIndex(db, in);
}

Status LanIndex::BuildFromSavedIndexFile(GraphDatabase* db,
                                         const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return ErrnoIoError("cannot open", path);
  return BuildFromSavedIndex(db, in);
}

Status LanIndex::FinishBuild(HnswIndex hnsw, std::vector<uint8_t> live,
                             uint64_t epoch) {
  // Precompute the compressed GNN-graph of every database graph (offline,
  // Sec. VI-C: a one-off cost amortized over all queries).
  const int layers = static_cast<int>(config_.scorer.gnn_dims.size());
  auto cgs = std::make_shared<std::vector<CompressedGnnGraph>>(
      static_cast<size_t>(db_->size()));
  pool_->ParallelFor(static_cast<size_t>(db_->size()), [&](size_t i) {
    (*cgs)[i] = BuildCompressedGnnGraph(
        db_->Get(static_cast<GraphId>(i)), layers);
  });

  // Whole-graph embeddings + KMeans clusters for the optimized M_nh.
  EmbeddingOptions embedding = config_.embedding;
  embedding.num_labels = db_->num_labels();
  config_.embedding = embedding;
  auto embeddings =
      std::make_shared<EmbeddingMatrix>(EmbedDatabase(*db_, embedding));
  if (config_.quantized_embeddings) embeddings->Quantize();
  const int num_clusters =
      config_.num_clusters > 0
          ? config_.num_clusters
          : std::max(1, static_cast<int>(std::sqrt(
                            static_cast<double>(db_->size()))));
  Rng rng(config_.seed);
  auto clusters = std::make_shared<KMeansResult>(
      KMeans(*embeddings, num_clusters, config_.kmeans_iterations, &rng,
             config_.quantized_embeddings));

  if (live.empty()) live.assign(static_cast<size_t>(db_->size()), 1);
  auto snap = std::make_shared<IndexSnapshot>();
  snap->epoch = epoch;
  snap->num_graphs = db_->size();
  snap->live_count = snap->num_graphs;
  for (uint8_t l : live) {
    if (l == 0) --snap->live_count;
  }
  snap->hnsw = std::make_shared<const HnswIndex>(std::move(hnsw));
  snap->live = std::make_shared<const std::vector<uint8_t>>(std::move(live));
  snap->cgs = std::move(cgs);
  snap->embeddings = std::move(embeddings);
  snap->clusters = std::move(clusters);
  Publish(std::move(snap));

  // Online PG inserts continue a level-draw stream that is deterministic
  // given the built size, so a saved+reloaded index inserts identically.
  insert_rng_ = Rng(config_.hnsw.seed ^
                    (0x9e3779b97f4a7c15ULL +
                     static_cast<uint64_t>(db_->size())));

  InitProviders();
  built_ = true;
  return Status::OK();
}

void LanIndex::InitProviders() {
  // Provider stack: the query path computes through distance_provider(),
  // which is the caching decorator iff the cross-query cache is on. The
  // query protocol's fingerprint salts the cache keys.
  base_provider_ = GedDistanceProvider(db_, &query_ged_);
  if (config_.cache.enabled) {
    result_cache_ = std::make_shared<ResultCache>(
        config_.cache, config_.query_ged.Fingerprint());
    caching_provider_ = MakeCachingProvider(&base_provider_, result_cache_);
  }
  pair_distance_calls_.store(0);
  PublishMemoStats();
}

void LanIndex::PublishMemoStats() {
  pair_memo_entries_.store(pair_memo_.size());
  pair_memo_bytes_.store(pair_memo_.bytes());
}

InsertStats LanIndex::insert_stats() const {
  InsertStats stats;
  stats.pair_distance_calls = pair_distance_calls_.load();
  stats.pair_memo_entries = pair_memo_entries_.load();
  stats.pair_memo_bytes = pair_memo_bytes_.load();
  return stats;
}

void AppendInsertMetrics(const InsertStats& stats, uint64_t baseline_calls,
                         MetricsRegistry* registry) {
  registry->Increment(registry->Counter("insert.pair_distance_calls"),
                      stats.pair_distance_calls - baseline_calls);
  registry->SetGauge(registry->Gauge("insert.pair_memo_entries"),
                     static_cast<double>(stats.pair_memo_entries));
  registry->SetGauge(registry->Gauge("insert.pair_memo_bytes"),
                     static_cast<double>(stats.pair_memo_bytes));
}

void LanIndex::Publish(std::shared_ptr<const IndexSnapshot> snap) {
  std::atomic_store_explicit(&snapshot_, std::move(snap),
                             std::memory_order_release);
}

std::shared_ptr<const IndexSnapshot> LanIndex::Snapshot() const {
  return std::atomic_load_explicit(&snapshot_, std::memory_order_acquire);
}

Result<GraphId> LanIndex::Insert(Graph graph) {
  if (!built_) return Status::FailedPrecondition("Insert before Build");
  if (mutable_db_ == nullptr) {
    return Status::FailedPrecondition(
        "Insert needs a mutable database: Build(GraphDatabase*)");
  }
  std::lock_guard<std::mutex> lock(writer_mu_);
  const auto snap = Snapshot();

  LAN_ASSIGN_OR_RETURN(const GraphId id, mutable_db_->Add(std::move(graph)));
  const Graph& added = db_->Get(id);

  // Derived per-graph state; models stay fixed (see header).
  const int layers = static_cast<int>(config_.scorer.gnn_dims.size());
  auto cgs = std::make_shared<std::vector<CompressedGnnGraph>>(*snap->cgs);
  cgs->push_back(BuildCompressedGnnGraph(added, layers));
  auto embeddings = std::make_shared<EmbeddingMatrix>(*snap->embeddings);
  embeddings->AppendRow(EmbedGraph(added, config_.embedding));
  auto clusters = std::make_shared<KMeansResult>(*snap->clusters);
  int32_t c;
  if (embeddings->has_quantized() && clusters->centroids.has_quantized()) {
    const int64_t last = embeddings->rows() - 1;
    c = NearestCentroidQuantized(clusters->centroids,
                                 embeddings->QuantizedRow(last),
                                 embeddings->scale(last));
  } else {
    c = NearestCentroid(clusters->centroids,
                        embeddings->Row(embeddings->rows() - 1));
  }
  clusters->assignment.push_back(c);
  clusters->members[static_cast<size_t>(c)].push_back(id);

  // Copy-on-write PG extension: concurrent searches keep routing on the
  // previous epoch's topology. The writer's pair memo (under writer_mu_)
  // supplies every construction distance an earlier write computed; the
  // new node's own distances fan out on the index pool.
  auto hnsw = std::make_shared<HnswIndex>(*snap->hnsw);
  std::vector<GraphId> touched;
  const uint64_t next_epoch = snap->epoch + 1;
  const HnswIndex::PairDistanceFn pair_distance = [this](GraphId a,
                                                         GraphId b) {
    ++pair_distance_calls_;
    return build_ged_.Distance(db_->Get(a), db_->Get(b));
  };
  const Status inserted =
      hnsw->Insert(id, pair_distance, config_.hnsw, &insert_rng_,
                   &pair_memo_, pool_.get(),
                   result_cache_ != nullptr ? &touched : nullptr);
  PublishMemoStats();
  LAN_RETURN_NOT_OK(inserted);

  // Invalidate before Publish: queries pinning the new epoch must never
  // see a pre-mutation M_rk batch (the one topology-dependent kind) for a
  // graph whose base-layer neighborhood just changed. GED values and M_nh
  // blobs stay: the new graph only appends to its cluster's member list.
  if (result_cache_ != nullptr) {
    touched.push_back(id);
    result_cache_->InvalidateGraphs(touched, next_epoch);
  }

  auto live = std::make_shared<std::vector<uint8_t>>(*snap->live);
  live->push_back(1);

  auto next = std::make_shared<IndexSnapshot>();
  next->epoch = snap->epoch + 1;
  next->num_graphs = snap->num_graphs + 1;
  next->live_count = snap->live_count + 1;
  next->hnsw = std::move(hnsw);
  next->live = std::move(live);
  next->cgs = std::move(cgs);
  next->embeddings = std::move(embeddings);
  next->clusters = std::move(clusters);
  // The copied CG vector still views a mapped snapshot if this index was
  // opened from one; carry the mapping forward with the new epoch.
  next->backing = snap->backing;
  Publish(std::move(next));
  return id;
}

Status LanIndex::Remove(GraphId id) {
  if (!built_) return Status::FailedPrecondition("Remove before Build");
  if (mutable_db_ == nullptr) {
    return Status::FailedPrecondition(
        "Remove needs a mutable database: Build(GraphDatabase*)");
  }
  std::lock_guard<std::mutex> lock(writer_mu_);
  const auto snap = Snapshot();
  if (id < 0 || id >= snap->num_graphs) {
    return Status::OutOfRange("Remove: id outside the index");
  }
  LAN_RETURN_NOT_OK(mutable_db_->Remove(id));

  auto live = std::make_shared<std::vector<uint8_t>>(*snap->live);
  (*live)[static_cast<size_t>(id)] = 0;

  // Tombstoning keeps the node's graph content and PG edges (liveness is
  // filtered at result-harvest time), so no cached kind depends on it:
  // routing still passes through the tombstone, computes its distance and
  // ranks its neighbors, and those cached values stay exact.

  auto next = std::make_shared<IndexSnapshot>(*snap);
  next->epoch = snap->epoch + 1;
  next->live_count = snap->live_count - 1;
  next->live = std::move(live);
  Publish(std::move(next));
  return Status::OK();
}

Status LanIndex::Train(const std::vector<Graph>& train_queries) {
  if (!built_) return Status::FailedPrecondition("Train before Build");
  if (train_queries.empty()) {
    return Status::InvalidArgument("Train: no training queries");
  }
  // Offline phase: trains against the current epoch's state.
  const auto snap = Snapshot();
  const std::vector<CompressedGnnGraph>& db_cgs = *snap->cgs;
  const KMeansResult& clusters = *snap->clusters;
  Timer timer;

  // ---- 1) Ground-truth distance tables for every training query. ----
  std::vector<std::vector<double>> distances(train_queries.size());
  for (size_t qi = 0; qi < train_queries.size(); ++qi) {
    distances[qi] =
        ComputeAllDistances(*db_, train_queries[qi], query_ged_, pool_.get());
  }
  LAN_LOG(Info) << "LanIndex::Train: distance tables for "
                << train_queries.size() << " queries in "
                << timer.ElapsedSeconds() << "s";

  // ---- 2) Calibrate gamma*: N_Q must contain the knn-NNs of Q for
  // `coverage` of the training queries. ----
  const int knn = std::min<int>(config_.neighborhood_knn, db_->size());
  std::vector<double> kth_distances;
  kth_distances.reserve(train_queries.size());
  for (const auto& dist : distances) {
    std::vector<double> sorted = dist;
    std::nth_element(sorted.begin(), sorted.begin() + (knn - 1), sorted.end());
    kth_distances.push_back(sorted[static_cast<size_t>(knn - 1)]);
  }
  gamma_star_ =
      Percentile(kth_distances, 100.0 * config_.neighborhood_coverage);
  LAN_LOG(Info) << "  gamma* = " << gamma_star_ << " (knn=" << knn << ")";

  // ---- 3) Query CGs (shared by M_rk / M_nh training). ----
  const int layers = static_cast<int>(config_.scorer.gnn_dims.size());
  std::vector<CompressedGnnGraph> query_cgs(train_queries.size());
  pool_->ParallelFor(train_queries.size(), [&](size_t i) {
    query_cgs[i] = BuildCompressedGnnGraph(train_queries[i], layers);
  });

  Rng rng(config_.seed + 1);

  // ---- 4) M_rk. ----
  {
    RankModelOptions opts = config_.rank;
    opts.batch_percent = config_.batch_percent;
    opts.scorer = config_.scorer;
    std::vector<RankExample> examples =
        BuildRankExamples(snap->hnsw->BaseLayer(), distances, gamma_star_,
                          config_.batch_percent, config_.max_rank_examples,
                          &rng);
    // 80/20 train/validation split; best epoch on validation wins.
    const size_t valid_count = examples.size() / 5;
    std::vector<RankExample> validation(
        examples.end() - static_cast<ptrdiff_t>(valid_count), examples.end());
    examples.resize(examples.size() - valid_count);
    rank_model_ =
        std::make_unique<NeighborRankModel>(db_->num_labels(), opts);
    Timer t;
    rank_model_->Train(db_cgs, query_cgs, examples, validation);
    rank_model_->PrecomputeContexts(db_cgs);
    LAN_LOG(Info) << "  M_rk trained on " << examples.size() << " triples in "
                  << t.ElapsedSeconds() << "s";
  }

  // ---- 5) M_nh. ----
  {
    NeighborhoodModelOptions opts = config_.nh;
    opts.scorer = config_.scorer;
    std::vector<NeighborhoodExample> examples =
        BuildNeighborhoodExamples(distances, gamma_star_, opts.negative_ratio,
                                  config_.max_nh_examples, &rng);
    const size_t valid_count = examples.size() / 5;
    std::vector<NeighborhoodExample> validation(
        examples.end() - static_cast<ptrdiff_t>(valid_count), examples.end());
    examples.resize(examples.size() - valid_count);
    nh_model_ = std::make_unique<NeighborhoodModel>(db_->num_labels(), opts);
    Timer t;
    nh_model_->Train(db_cgs, query_cgs, examples, validation);
    LAN_LOG(Info) << "  M_nh trained on " << examples.size() << " pairs in "
                  << t.ElapsedSeconds() << "s";
  }

  // ---- 6) M_c over cluster intersection counts. ----
  {
    std::vector<std::vector<float>> query_embeddings;
    query_embeddings.reserve(train_queries.size());
    for (const Graph& q : train_queries) {
      query_embeddings.push_back(EmbedGraph(q, config_.embedding));
    }
    std::vector<std::vector<float>> counts(
        train_queries.size(),
        std::vector<float>(static_cast<size_t>(clusters.centroids.rows()),
                           0.0f));
    for (size_t qi = 0; qi < train_queries.size(); ++qi) {
      for (size_t g = 0; g < distances[qi].size(); ++g) {
        if (distances[qi][g] <= gamma_star_) {
          ++counts[qi][static_cast<size_t>(clusters.assignment[g])];
        }
      }
    }
    const int32_t feature_dim =
        static_cast<int32_t>(2 * config_.embedding.dim);
    cluster_model_ =
        std::make_unique<ClusterModel>(feature_dim, config_.cluster);
    cluster_model_->Train(query_embeddings, clusters.centroids, counts);
  }

  // New models invalidate every memoized model score (and the GED entries
  // are not worth keeping apart from them during an offline phase).
  if (result_cache_ != nullptr) result_cache_->Clear();

  trained_ = true;
  LAN_LOG(Info) << "LanIndex::Train done in " << timer.ElapsedSeconds() << "s";
  return Status::OK();
}

namespace {

constexpr char kModelMagic[8] = {'L', 'A', 'N', 'M', 'D', 'L', '0', '2'};

Status WritePod(std::ostream& out, const void* data, size_t bytes) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
  if (!out.good()) return Status::IoError("model write failed");
  return Status::OK();
}

Status ReadPod(std::istream& in, void* data, size_t bytes) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (in.gcount() != static_cast<std::streamsize>(bytes)) {
    return Status::IoError("model read truncated");
  }
  return Status::OK();
}

}  // namespace

Status LanIndex::SaveModels(std::ostream& out) const {
  if (!trained_) return Status::FailedPrecondition("SaveModels before Train");
  // The snapshot's clusters include every online-inserted graph, so a
  // reload over the grown database round-trips.
  const auto snap = Snapshot();
  const KMeansResult& clusters = *snap->clusters;
  LAN_RETURN_NOT_OK(WritePod(out, kModelMagic, sizeof(kModelMagic)));
  LAN_RETURN_NOT_OK(WritePod(out, &gamma_star_, sizeof(gamma_star_)));
  LAN_RETURN_NOT_OK(WriteParamStore(rank_model_->scorer().params(), out));
  LAN_RETURN_NOT_OK(WriteParamStore(nh_model_->scorer().params(), out));
  const float nh_threshold = nh_model_->calibrated_threshold();
  LAN_RETURN_NOT_OK(WritePod(out, &nh_threshold, sizeof(nh_threshold)));
  LAN_RETURN_NOT_OK(WriteParamStore(
      static_cast<const ClusterModel&>(*cluster_model_).params(), out));
  // Clusters: centroid matrix + per-graph assignment.
  const int32_t num_clusters = static_cast<int32_t>(clusters.centroids.rows());
  const int32_t dim = num_clusters > 0 ? clusters.centroids.dim() : 0;
  LAN_RETURN_NOT_OK(WritePod(out, &num_clusters, sizeof(num_clusters)));
  LAN_RETURN_NOT_OK(WritePod(out, &dim, sizeof(dim)));
  LAN_RETURN_NOT_OK(WritePod(out, clusters.centroids.data(),
                             clusters.centroids.size() * sizeof(float)));
  const int64_t assigned = static_cast<int64_t>(clusters.assignment.size());
  LAN_RETURN_NOT_OK(WritePod(out, &assigned, sizeof(assigned)));
  LAN_RETURN_NOT_OK(WritePod(out, clusters.assignment.data(),
                             clusters.assignment.size() * sizeof(int32_t)));
  return Status::OK();
}

Status LanIndex::SaveModelsToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return ErrnoIoError("cannot open for writing", path);
  LAN_RETURN_NOT_OK(SaveModels(out));
  out.flush();
  if (!out.good()) return ErrnoIoError("write failed", path);
  return Status::OK();
}

Status LanIndex::LoadModels(std::istream& in) {
  if (!built_) return Status::FailedPrecondition("LoadModels before Build");
  char magic[8];
  LAN_RETURN_NOT_OK(ReadPod(in, magic, sizeof(magic)));
  if (std::memcmp(magic, kModelMagic, sizeof(magic)) != 0) {
    return Status::IoError("bad model magic");
  }
  LAN_RETURN_NOT_OK(ReadPod(in, &gamma_star_, sizeof(gamma_star_)));

  // Reconstruct architectures from the config, then load parameters.
  RankModelOptions rank_opts = config_.rank;
  rank_opts.batch_percent = config_.batch_percent;
  rank_opts.scorer = config_.scorer;
  rank_model_ = std::make_unique<NeighborRankModel>(db_->num_labels(),
                                                    rank_opts);
  LAN_RETURN_NOT_OK(
      ReadParamStoreInto(rank_model_->mutable_scorer()->params(), in));

  NeighborhoodModelOptions nh_opts = config_.nh;
  nh_opts.scorer = config_.scorer;
  nh_model_ = std::make_unique<NeighborhoodModel>(db_->num_labels(), nh_opts);
  LAN_RETURN_NOT_OK(
      ReadParamStoreInto(nh_model_->mutable_scorer()->params(), in));
  float nh_threshold = 0.5f;
  LAN_RETURN_NOT_OK(ReadPod(in, &nh_threshold, sizeof(nh_threshold)));
  nh_model_->set_calibrated_threshold(nh_threshold);

  cluster_model_ = std::make_unique<ClusterModel>(
      static_cast<int32_t>(2 * config_.embedding.dim), config_.cluster);
  LAN_RETURN_NOT_OK(ReadParamStoreInto(cluster_model_->params(), in));

  int32_t num_clusters = 0, dim = 0;
  LAN_RETURN_NOT_OK(ReadPod(in, &num_clusters, sizeof(num_clusters)));
  LAN_RETURN_NOT_OK(ReadPod(in, &dim, sizeof(dim)));
  if (num_clusters < 0 || dim < 0) return Status::IoError("bad cluster header");
  KMeansResult clusters;
  clusters.centroids = EmbeddingMatrix(num_clusters, dim);
  if (num_clusters > 0) {
    LAN_RETURN_NOT_OK(ReadPod(in, clusters.centroids.MutableRow(0),
                              clusters.centroids.size() * sizeof(float)));
  }
  int64_t assigned = 0;
  LAN_RETURN_NOT_OK(ReadPod(in, &assigned, sizeof(assigned)));
  const auto snap = Snapshot();
  if (assigned > static_cast<int64_t>(snap->num_graphs)) {
    return Status::InvalidArgument(
        "cluster assignment covers more graphs than the database holds");
  }
  clusters.assignment.assign(static_cast<size_t>(assigned), 0);
  LAN_RETURN_NOT_OK(ReadPod(in, clusters.assignment.data(),
                            clusters.assignment.size() * sizeof(int32_t)));
  for (const int32_t c : clusters.assignment) {
    if (c < 0 || c >= num_clusters) return Status::IoError("bad assignment");
  }
  // The checkpoint stores f32 centroids only; re-derive the int8 plane so
  // the quantized fallback/assignment paths keep working after a load.
  if (config_.quantized_embeddings && num_clusters > 0) {
    clusters.centroids.Quantize();
  }
  // A checkpoint taken before online inserts covers a prefix of the
  // current database; extend it exactly the way Insert() would have —
  // nearest frozen centroid per uncovered graph.
  if (assigned < static_cast<int64_t>(snap->num_graphs) && num_clusters == 0) {
    return Status::IoError("no centroids to assign inserted graphs to");
  }
  const bool quantized_assign = clusters.centroids.has_quantized() &&
                                snap->embeddings->has_quantized();
  for (GraphId id = static_cast<GraphId>(assigned); id < snap->num_graphs;
       ++id) {
    clusters.assignment.push_back(
        quantized_assign
            ? NearestCentroidQuantized(clusters.centroids,
                                       snap->embeddings->QuantizedRow(id),
                                       snap->embeddings->scale(id))
            : NearestCentroid(clusters.centroids,
                              snap->embeddings->Row(id)));
  }
  clusters.RebuildMembers(num_clusters);

  // The trained clustering replaces the rebuild-time KMeans: publish a
  // snapshot carrying it (same epoch — the PG and tombstones are
  // untouched).
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    auto next = std::make_shared<IndexSnapshot>(*snap);
    next->clusters = std::make_shared<const KMeansResult>(std::move(clusters));
    Publish(std::move(next));
  }

  rank_model_->PrecomputeContexts(*snap->cgs);
  // Freshly loaded models invalidate every memoized model score.
  if (result_cache_ != nullptr) result_cache_->Clear();
  trained_ = true;
  return Status::OK();
}

Status LanIndex::LoadModelsFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return ErrnoIoError("cannot open", path);
  return LoadModels(in);
}

BatchSearchResult LanIndex::SearchBatch(const std::vector<Graph>& queries,
                                        const SearchOptions& options,
                                        int num_threads) const {
  BatchSearchResult out;
  out.results.resize(queries.size());
  const size_t threads = num_threads > 0 ? static_cast<size_t>(num_threads)
                                         : DefaultThreadCount();

  // Per-call registry: workers fill per-thread shards without contending,
  // merged once below.
  MetricsRegistry registry;
  const CounterId queries_counter = registry.Counter("queries");
  const CounterId errors_counter = registry.Counter("query_errors");
  const HistogramId latency_hist = registry.Histogram(
      "query_latency_seconds", MetricsRegistry::LatencyBounds());
  const HistogramId ndc_hist =
      registry.Histogram("query_ndc", MetricsRegistry::CountBounds());
  const HistogramId steps_hist = registry.Histogram(
      "query_routing_steps", MetricsRegistry::CountBounds());
  const HistogramId inference_hist = registry.Histogram(
      "query_model_inferences", MetricsRegistry::CountBounds());
  const GaugeId live_gauge = registry.Gauge("index_live_size");
  const GaugeId tombstone_gauge = registry.Gauge("index_tombstones");
  const GaugeId epoch_gauge = registry.Gauge("index_epoch");
  // stage.<name>_seconds histograms, filled only when profiling is on.
  StageHistograms stage_hists;
  if (options.profile) stage_hists.Register(&registry);
  // cache.* counters are scoped to this batch: delta against the cache's
  // lifetime totals captured now.
  const ResultCacheStats cache_before = result_cache_ != nullptr
                                            ? result_cache_->StoreStats()
                                            : ResultCacheStats{};
  const InsertStats insert_before = insert_stats();
  if (const auto snap = Snapshot(); snap != nullptr) {
    registry.SetGauge(live_gauge, static_cast<double>(snap->live_count));
    registry.SetGauge(tombstone_gauge,
                      static_cast<double>(snap->num_graphs - snap->live_count));
    registry.SetGauge(epoch_gauge, static_cast<double>(snap->epoch));
  }

  SearchOptions base_options = options;
  base_options.trace = nullptr;  // a shared sink would interleave workers
  base_options.trace_factory = nullptr;
  const auto run_query = [&](size_t i) {
    SearchOptions per_query = base_options;
    if (options.trace_factory) {
      per_query.trace = options.trace_factory(i);  // private per-query sink
    }
    Timer timer;
    out.results[i] = Search(queries[i], per_query);
    const SearchResult& r = out.results[i];
    registry.Increment(queries_counter);
    if (!r.status.ok()) registry.Increment(errors_counter);
    registry.Observe(latency_hist, timer.ElapsedSeconds());
    registry.Observe(ndc_hist, static_cast<double>(r.stats.ndc));
    registry.Observe(steps_hist, static_cast<double>(r.stats.routing_steps));
    registry.Observe(inference_hist,
                     static_cast<double>(r.stats.model_inferences));
    if (options.profile) stage_hists.Observe(r.stats.stages);
  };
  if (num_threads <= 0 || threads == pool_->num_threads()) {
    // Reuse the index's resident workers: no thread-creation latency per
    // batch call.
    pool_->ParallelFor(queries.size(), run_query);
  } else {
    // An explicit width different from the pool's keeps the documented
    // "run with exactly N threads" semantics via transient threads.
    ThreadPool::ParallelFor(queries.size(), threads, run_query);
  }

  for (const SearchResult& r : out.results) {
    out.stats.totals.Merge(r.stats);
  }
  if (result_cache_ != nullptr) {
    result_cache_->AppendMetrics(&registry, &cache_before);
  }
  AppendInsertMetrics(insert_stats(), insert_before.pair_distance_calls,
                      &registry);
  out.stats.metrics = registry.Snapshot();
  return out;
}

CompressedGnnGraph LanIndex::QueryCg(const Graph& query) const {
  return BuildCompressedGnnGraph(
      query, static_cast<int>(config_.scorer.gnn_dims.size()));
}

Status LanIndex::Ready(const SearchOptions& options) const {
  if (!built_) return Status::FailedPrecondition("Search before Build()");
  if (options.k <= 0) {
    return Status::InvalidArgument("SearchOptions.k must be positive");
  }
  const bool needs_models = (options.routing == RoutingMethod::kLanRoute) ||
                            (options.init == InitMethod::kLanIs);
  if (needs_models && !trained_) {
    return Status::FailedPrecondition(
        std::string(RoutingMethodName(options.routing)) + "/" +
        InitMethodName(options.init) +
        " needs the learned models: call Train() or LoadModels() first");
  }
  return Status::OK();
}

SearchResult LanIndex::Search(const Graph& query,
                              const SearchOptions& options) const {
  SearchResult out;
  SearchInto(query, options, &out);
  return out;
}

void LanIndex::SearchInto(const Graph& query, const SearchOptions& options,
                          SearchResult* out_ptr) const {
  SearchResult& out = *out_ptr;
  out.results.clear();
  out.stats = SearchStats{};
  out.epoch = 0;
  out.status = Ready(options);
  if (!out.status.ok()) return;

  // Per-query working state: dense visited/cache arrays, candidate pool
  // storage, and result buffers, reused across the thread's queries.
  ScratchLease lease(nullptr);
  SearchScratch* scratch = lease.get();

  // Stack-allocated stage clock; a null pointer (profiling off) makes
  // every StageSpan below a single never-taken branch, like TraceRecord.
  StageProfile profile_storage;
  StageProfile* const profile = options.profile ? &profile_storage : nullptr;

  // Pin this query's epoch: everything below reads `snap`, never the
  // index members, so a concurrent Insert/Remove publishing a successor
  // snapshot cannot be observed mid-query.
  std::shared_ptr<const IndexSnapshot> snap;
  {
    StageSpan span(profile, Stage::kSnapshotPin);
    snap = Snapshot();
  }
  out.epoch = snap->epoch;
  const std::vector<uint8_t>* live = snap->live.get();

  const int k = options.k;
  const int beam = options.beam > 0 ? options.beam : config_.default_beam;
  const RoutingMethod routing = options.routing;
  const InitMethod init = options.init;
  const bool needs_models = (routing == RoutingMethod::kLanRoute) ||
                            (init == InitMethod::kLanIs);
  TraceSink* sink = options.trace;
  if (sink != nullptr) {
    TraceEvent event;
    event.type = TraceEventType::kQueryBegin;
    event.value = static_cast<double>(k);
    event.aux = static_cast<double>(beam);
    event.detail = RoutingMethodName(routing);
    event.detail2 = InitMethodName(init);
    sink->Record(event);
    TraceEvent pinned;
    pinned.type = TraceEventType::kEpochPinned;
    pinned.value = static_cast<double>(snap->epoch);
    pinned.aux = static_cast<double>(snap->live_count);
    sink->Record(pinned);
  }

  Timer total_timer;
  // Cache identity: the canonical content hash keys this query's results
  // in the cross-query cache (0 = caching off, providers pass through).
  QueryContext ctx;
  ctx.epoch = snap->epoch;
  if (result_cache_ != nullptr) ctx.query_hash = query.ContentHash();
  DistanceOracle oracle(distance_provider(), db_, ctx, &query, &out.stats,
                        sink, scratch);
  oracle.set_profile(profile);

  // Deterministic per-query randomness.
  uint64_t qhash = config_.seed;
  qhash = qhash * 1000003 + static_cast<uint64_t>(query.NumNodes());
  qhash = qhash * 1000003 + static_cast<uint64_t>(query.NumEdges());
  for (Label l : query.labels()) {
    qhash = qhash * 31 + static_cast<uint64_t>(l) + 17;
  }
  Rng rng(qhash);

  // Query CG, needed by the learned components.
  CompressedGnnGraph query_cg;
  if (needs_models) {
    StageSpan span(profile, Stage::kModelInference);
    Timer t;
    query_cg = QueryCg(query);
    out.stats.learning_seconds += t.ElapsedSeconds();
  }

  // ---- Initial node. ----
  GraphId start = kInvalidGraphId;
  {
    StageSpan init_span(profile, Stage::kInitSelection);
    switch (init) {
      case InitMethod::kLanIs: {
        LanInitOptions init_options = config_.init;
        init_options.threshold = nh_model_->calibrated_threshold();
        LanInitialSelector selector(nh_model_.get(), cluster_model_.get(),
                                    snap->clusters.get(),
                                    snap->embeddings.get(), snap->cgs.get(),
                                    &query_cg, &config_.embedding,
                                    config_.use_compressed_gnn, init_options,
                                    config_.quantized_embeddings);
        selector.set_scratch(scratch);
        start = selector.Select(&oracle, &rng);
        break;
      }
      case InitMethod::kHnswIs:
        start = snap->hnsw->SelectInitialNode(&oracle);
        break;
      case InitMethod::kRandomIs:
        start = static_cast<GraphId>(
            rng.NextBounded(static_cast<uint64_t>(snap->num_graphs)));
        break;
    }
  }

  // ---- Routing. ----
  const ProximityGraph& base = snap->hnsw->BaseLayer();
  RoutingResult& routed = scratch->routing;
  switch (routing) {
    case RoutingMethod::kLanRoute: {
      LearnedNeighborRanker ranker(rank_model_.get(), snap->cgs.get(),
                                   &query_cg, &oracle, gamma_star_,
                                   config_.use_compressed_gnn);
      NpRouteOptions opts;
      opts.beam_size = beam;
      opts.k = k;
      opts.step_size = config_.step_size;
      opts.live = live;
      NpRouteInto(base, &oracle, &ranker, start, opts, scratch, &routed);
      break;
    }
    case RoutingMethod::kOracleRoute: {
      OracleRanker ranker(db_, &query_ged_, config_.batch_percent);
      NpRouteOptions opts;
      opts.beam_size = beam;
      opts.k = k;
      opts.step_size = config_.step_size;
      opts.live = live;
      NpRouteInto(base, &oracle, &ranker, start, opts, scratch, &routed);
      break;
    }
    case RoutingMethod::kBaselineRoute:
      BeamSearchRouteInto(base, &oracle, start, beam, k, live, scratch,
                          &routed);
      break;
  }

  out.results.assign(routed.results.begin(), routed.results.end());
  out.stats.other_seconds = std::max(
      0.0, total_timer.ElapsedSeconds() - out.stats.distance_seconds -
               out.stats.learning_seconds);
  if (profile != nullptr) out.stats.stages = profile->breakdown();
  if (sink != nullptr) {
    TraceEvent event;
    event.type = TraceEventType::kQueryEnd;
    event.id =
        out.results.empty() ? kInvalidGraphId : out.results.front().first;
    event.value = static_cast<double>(out.stats.ndc);
    event.aux = static_cast<double>(out.stats.routing_steps);
    sink->Record(event);
  }
}

}  // namespace lan
