#include "lan/result_cache.h"

#include <algorithm>
#include <string>

#include "common/string_util.h"

namespace lan {

namespace {

// Per-kind key perturbation so (query, graph) pairs of different kinds
// never collide even before mixing.
constexpr uint64_t kKindSalt = 0x9e3779b97f4a7c15ull;

// GED doubles dominate traffic and are tiny, so the GED store takes 3/4
// of the budget. The rank and score stores split the last quarter 3:1,
// the ratio of the bytes they fill on perfbench's churn and hot_repeat
// workloads (see docs/caching.md). Static shares keep any kind from
// starving the others.
size_t StoreShare(CacheStore store, size_t capacity) {
  switch (store) {
    case CacheStore::kGed:
      return capacity - capacity / 4;
    case CacheStore::kRank:
      return capacity / 4 - capacity / 16;
    case CacheStore::kScores:
      return capacity / 16;
  }
  return 0;
}

CacheStore StoreOf(ResultKind kind) {
  switch (DependencyOf(kind)) {
    case ResultDependency::kContent:
      return CacheStore::kGed;
    case ResultDependency::kTopology:
      return CacheStore::kRank;
    case ResultDependency::kModels:
      return CacheStore::kScores;
  }
  return CacheStore::kScores;
}

}  // namespace

const char* CacheStoreName(CacheStore store) {
  switch (store) {
    case CacheStore::kGed:
      return "ged";
    case CacheStore::kRank:
      return "rank";
    case CacheStore::kScores:
      return "scores";
  }
  return "unknown";
}

ShardCacheStats ResultCacheStats::Total() const {
  ShardCacheStats total;
  for (const ShardCacheStats& store : stores) total.Merge(store);
  return total;
}

void ResultCacheStats::Merge(const ResultCacheStats& other) {
  for (int i = 0; i < kNumCacheStores; ++i) stores[i].Merge(other.stores[i]);
}

Status ResultCacheOptions::Validate() const {
  if (!enabled) return Status::OK();
  if (capacity_bytes == 0) {
    return Status::InvalidArgument("cache.capacity_bytes must be > 0");
  }
  if (num_shards < 1) {
    return Status::InvalidArgument(
        StrFormat("cache.num_shards must be >= 1, got %d", num_shards));
  }
  return Status::OK();
}

ResultCache::ResultCache(const ResultCacheOptions& options, uint64_t key_salt)
    : options_(options),
      key_salt_(key_salt),
      ged_cache_(StoreShare(CacheStore::kGed, options.capacity_bytes),
                 options.num_shards, options.admission),
      rank_cache_(StoreShare(CacheStore::kRank, options.capacity_bytes),
                  options.num_shards, options.admission),
      score_cache_(StoreShare(CacheStore::kScores, options.capacity_bytes),
                   options.num_shards, options.admission) {}

CacheKey128 ResultCache::MakeKey(uint64_t query_hash, GraphId id,
                                 ResultKind kind) const {
  CacheKey128 key;
  key.hi = MixCacheHash(query_hash ^ key_salt_ ^
                        (static_cast<uint64_t>(kind) + 1) * kKindSalt);
  // The graph id rides in the clear so InvalidateGraphs can sweep one id
  // without knowing which queries cached against it.
  key.lo = static_cast<uint64_t>(static_cast<int64_t>(id));
  return key;
}

ShardedLruCache<CachedScore>& ResultCache::ScoreStore(ResultKind kind) {
  return StoreOf(kind) == CacheStore::kRank ? rank_cache_ : score_cache_;
}

uint64_t ResultCache::WatermarkOf(GraphId id) const {
  if (watermark_count_.load(std::memory_order_acquire) == 0) return 0;
  std::shared_lock<std::shared_mutex> lock(watermark_mu_);
  const auto it = watermarks_.find(id);
  return it != watermarks_.end() ? it->second : 0;
}

bool ResultCache::FindGed(uint64_t query_hash, GraphId id, ResultKind kind,
                          uint64_t query_epoch, double* out) {
  (void)query_epoch;  // content-keyed: valid at every epoch
  return ged_cache_.Find(MakeKey(query_hash, id, kind), out);
}

void ResultCache::PutGed(uint64_t query_hash, GraphId id, ResultKind kind,
                         uint64_t epoch, double value) {
  ged_cache_.Put(MakeKey(query_hash, id, kind), value, sizeof(double), epoch);
}

bool ResultCache::FindScore(uint64_t query_hash, GraphId id, ResultKind kind,
                            uint64_t query_epoch, CachedScore* out) {
  ShardedLruCache<CachedScore>& store = ScoreStore(kind);
  const CacheKey128 key = MakeKey(query_hash, id, kind);
  if (DependencyOf(kind) != ResultDependency::kTopology) {
    return store.Find(key, out);
  }
  const uint64_t watermark = WatermarkOf(id);
  return store.FindIf(key, out, [watermark, query_epoch](uint64_t entry_epoch) {
    return watermark <= entry_epoch && watermark <= query_epoch;
  });
}

void ResultCache::PutScore(uint64_t query_hash, GraphId id, ResultKind kind,
                           uint64_t epoch, const CachedScore& value) {
  if (DependencyOf(kind) == ResultDependency::kTopology &&
      epoch < WatermarkOf(id)) {
    return;  // computed against a dead topology
  }
  ScoreStore(kind).Put(MakeKey(query_hash, id, kind), value, value.ByteSize(),
                       epoch);
}

void ResultCache::InvalidateGraphs(const std::vector<GraphId>& ids,
                                   uint64_t epoch) {
  if (ids.empty()) return;
  std::vector<uint64_t> touched;
  touched.reserve(ids.size());
  {
    std::unique_lock<std::shared_mutex> lock(watermark_mu_);
    for (GraphId id : ids) {
      uint64_t& mark = watermarks_[id];
      mark = std::max(mark, epoch);
      touched.push_back(static_cast<uint64_t>(static_cast<int64_t>(id)));
    }
    watermark_count_.store(watermarks_.size(), std::memory_order_release);
  }
  std::sort(touched.begin(), touched.end());
  // Physical sweep of the one topology-dependent store: entries below the
  // new watermark can never be served again (FindIf would reject them),
  // so reclaim their bytes now.
  rank_cache_.EraseIf([&touched, epoch](const CacheKey128& key,
                                        uint64_t entry_epoch) {
    return entry_epoch < epoch &&
           std::binary_search(touched.begin(), touched.end(), key.lo);
  });
}

void ResultCache::Clear() {
  ged_cache_.Clear();
  rank_cache_.Clear();
  score_cache_.Clear();
}

ResultCacheStats ResultCache::StoreStats() const {
  ResultCacheStats stats;
  stats.stores[static_cast<int>(CacheStore::kGed)] = ged_cache_.Stats();
  stats.stores[static_cast<int>(CacheStore::kRank)] = rank_cache_.Stats();
  stats.stores[static_cast<int>(CacheStore::kScores)] = score_cache_.Stats();
  return stats;
}

ShardCacheStats ResultCache::Stats() const { return StoreStats().Total(); }

ShardCacheStats SubtractCacheCounters(ShardCacheStats stats,
                                      const ShardCacheStats& baseline) {
  stats.hits -= baseline.hits;
  stats.misses -= baseline.misses;
  stats.inserts -= baseline.inserts;
  stats.evictions -= baseline.evictions;
  stats.invalidations -= baseline.invalidations;
  stats.rejected -= baseline.rejected;
  // entries/bytes stay absolute: they are point-in-time gauges.
  return stats;
}

ResultCacheStats SubtractCacheCounters(ResultCacheStats stats,
                                       const ResultCacheStats& baseline) {
  for (int i = 0; i < kNumCacheStores; ++i) {
    stats.stores[i] = SubtractCacheCounters(stats.stores[i],
                                            baseline.stores[i]);
  }
  return stats;
}

void AppendCacheMetrics(const ShardCacheStats& stats, size_t capacity_bytes,
                        MetricsRegistry* registry) {
  registry->Increment(registry->Counter("cache.hits"), stats.hits);
  registry->Increment(registry->Counter("cache.misses"), stats.misses);
  registry->Increment(registry->Counter("cache.inserts"), stats.inserts);
  registry->Increment(registry->Counter("cache.evictions"), stats.evictions);
  registry->Increment(registry->Counter("cache.invalidations"),
                      stats.invalidations);
  registry->Increment(registry->Counter("cache.rejected"), stats.rejected);
  const int64_t lookups = stats.hits + stats.misses;
  registry->SetGauge(registry->Gauge("cache.hit_rate"),
                     lookups > 0 ? static_cast<double>(stats.hits) /
                                       static_cast<double>(lookups)
                                 : 0.0);
  registry->SetGauge(registry->Gauge("cache.entries"),
                     static_cast<double>(stats.entries));
  registry->SetGauge(registry->Gauge("cache.bytes"),
                     static_cast<double>(stats.bytes));
  registry->SetGauge(registry->Gauge("cache.capacity_bytes"),
                     static_cast<double>(capacity_bytes));
}

void AppendCacheMetrics(const ResultCacheStats& stats, size_t capacity_bytes,
                        MetricsRegistry* registry) {
  AppendCacheMetrics(stats.Total(), capacity_bytes, registry);
  for (int i = 0; i < kNumCacheStores; ++i) {
    const ShardCacheStats& s = stats.stores[i];
    const std::string prefix =
        std::string("cache.") + CacheStoreName(static_cast<CacheStore>(i));
    registry->Increment(registry->Counter(prefix + ".hits"), s.hits);
    registry->Increment(registry->Counter(prefix + ".misses"), s.misses);
    registry->Increment(registry->Counter(prefix + ".evictions"),
                        s.evictions);
    registry->Increment(registry->Counter(prefix + ".invalidations"),
                        s.invalidations);
    registry->SetGauge(registry->Gauge(prefix + ".entries"),
                       static_cast<double>(s.entries));
    registry->SetGauge(registry->Gauge(prefix + ".bytes"),
                       static_cast<double>(s.bytes));
  }
}

size_t ResultCache::capacity_bytes() const {
  return ged_cache_.capacity_bytes() + rank_cache_.capacity_bytes() +
         score_cache_.capacity_bytes();
}

void ResultCache::AppendMetrics(MetricsRegistry* registry,
                                const ResultCacheStats* baseline) const {
  ResultCacheStats stats = StoreStats();
  if (baseline != nullptr) stats = SubtractCacheCounters(stats, *baseline);
  AppendCacheMetrics(stats, capacity_bytes(), registry);
}

DistanceResult CachingDistanceProvider::CachedGed(const QueryContext& ctx,
                                                  const Graph& query,
                                                  GraphId id,
                                                  ResultKind kind) const {
  const bool exact = kind == ResultKind::kExactGed;
  if (ctx.query_hash == 0) {
    return exact ? base_->Exact(ctx, query, id) : base_->Approx(ctx, query, id);
  }
  double value = 0.0;
  if (cache_->FindGed(ctx.query_hash, id, kind, ctx.epoch, &value)) {
    return DistanceResult{value, false};
  }
  const DistanceResult result =
      exact ? base_->Exact(ctx, query, id) : base_->Approx(ctx, query, id);
  cache_->PutGed(ctx.query_hash, id, kind, ctx.epoch, result.value);
  return result;
}

DistanceResult CachingDistanceProvider::Exact(const QueryContext& ctx,
                                              const Graph& query,
                                              GraphId id) const {
  return CachedGed(ctx, query, id, ResultKind::kExactGed);
}

DistanceResult CachingDistanceProvider::Approx(const QueryContext& ctx,
                                               const Graph& query,
                                               GraphId id) const {
  return CachedGed(ctx, query, id, ResultKind::kApproxGed);
}

bool CachingDistanceProvider::FindScore(const QueryContext& ctx,
                                        ResultKind kind, GraphId id,
                                        CachedScore* out) const {
  if (ctx.query_hash == 0) return false;
  return cache_->FindScore(ctx.query_hash, id, kind, ctx.epoch, out);
}

void CachingDistanceProvider::StoreScore(const QueryContext& ctx,
                                         ResultKind kind, GraphId id,
                                         const CachedScore& value) const {
  if (ctx.query_hash == 0) return;
  cache_->PutScore(ctx.query_hash, id, kind, ctx.epoch, value);
}

std::unique_ptr<DistanceProvider> MakeCachingProvider(
    const DistanceProvider* base, std::shared_ptr<ResultCache> cache) {
  if (cache == nullptr) return nullptr;
  return std::make_unique<CachingDistanceProvider>(base, std::move(cache));
}

}  // namespace lan
