// Tests for the cross-query result cache: the ShardedLruCache store, the
// canonical keying inputs (Graph::ContentHash, GedOptions::Fingerprint),
// the ResultCache epoch/watermark invalidation contract, the
// CachingDistanceProvider decorator, and — the property the whole design
// exists to preserve — that cache-on searches are bitwise identical to
// cache-off searches across every routing/init combination, including
// across Insert/Remove epoch advances and under concurrent mutation
// (ResultCacheConcurrencyTest runs under the asan/tsan presets via
// `ctest -L concurrency`).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/shard_cache.h"
#include "graph/graph_generator.h"
#include "lan/lan_index.h"
#include "lan/result_cache.h"
#include "lan/workload.h"

namespace lan {
namespace {

// ---------------------------------------------------------------------------
// ShardedLruCache
// ---------------------------------------------------------------------------

CacheKey128 Key(uint64_t hi, uint64_t lo) { return CacheKey128{hi, lo}; }

TEST(ShardedLruCacheTest, FindAfterPutRoundTrips) {
  ShardedLruCache<double> cache(1 << 16, 4, CacheAdmission::kAdmitAll);
  cache.Put(Key(1, 7), 3.5, sizeof(double), /*epoch=*/2);
  double value = 0.0;
  ASSERT_TRUE(cache.Find(Key(1, 7), &value));
  EXPECT_DOUBLE_EQ(value, 3.5);
  EXPECT_FALSE(cache.Find(Key(1, 8), &value));
  EXPECT_FALSE(cache.Find(Key(2, 7), &value));
  const ShardCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.inserts, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GT(stats.bytes, 0);
}

TEST(ShardedLruCacheTest, EvictsLeastRecentlyUsedUnderBytePressure) {
  // One shard, room for exactly three (8 + 64)-byte entries.
  const size_t entry = sizeof(double) +
                       ShardedLruCache<double>::kEntryOverheadBytes;
  ShardedLruCache<double> cache(3 * entry, 1, CacheAdmission::kAdmitAll);
  cache.Put(Key(1, 0), 1.0, sizeof(double), 0);
  cache.Put(Key(2, 0), 2.0, sizeof(double), 0);
  cache.Put(Key(3, 0), 3.0, sizeof(double), 0);
  double value = 0.0;
  ASSERT_TRUE(cache.Find(Key(1, 0), &value));  // refresh 1: LRU is now 2
  cache.Put(Key(4, 0), 4.0, sizeof(double), 0);
  EXPECT_FALSE(cache.Find(Key(2, 0), &value));
  EXPECT_TRUE(cache.Find(Key(1, 0), &value));
  EXPECT_TRUE(cache.Find(Key(3, 0), &value));
  EXPECT_TRUE(cache.Find(Key(4, 0), &value));
  EXPECT_EQ(cache.Stats().evictions, 1);
  EXPECT_EQ(cache.Stats().entries, 3);
}

TEST(ShardedLruCacheTest, OversizedValueIsRejected) {
  ShardedLruCache<double> cache(128, 1, CacheAdmission::kAdmitAll);
  cache.Put(Key(1, 0), 1.0, /*value_bytes=*/4096, 0);
  double value = 0.0;
  EXPECT_FALSE(cache.Find(Key(1, 0), &value));
  EXPECT_EQ(cache.Stats().rejected, 1);
  EXPECT_EQ(cache.Stats().inserts, 0);
}

TEST(ShardedLruCacheTest, AdmitOnRepeatRequiresSecondPut) {
  ShardedLruCache<double> cache(1 << 16, 1, CacheAdmission::kAdmitOnRepeat);
  cache.Put(Key(9, 1), 5.0, sizeof(double), 0);  // first sighting: refused
  double value = 0.0;
  EXPECT_FALSE(cache.Find(Key(9, 1), &value));
  EXPECT_EQ(cache.Stats().rejected, 1);
  cache.Put(Key(9, 1), 5.0, sizeof(double), 0);  // second sighting: admitted
  ASSERT_TRUE(cache.Find(Key(9, 1), &value));
  EXPECT_DOUBLE_EQ(value, 5.0);
}

TEST(ShardedLruCacheTest, EraseIfSweepsMatchingKeys) {
  ShardedLruCache<double> cache(1 << 16, 4, CacheAdmission::kAdmitAll);
  for (uint64_t q = 0; q < 4; ++q) {
    cache.Put(Key(q, /*lo=*/q % 2), static_cast<double>(q), sizeof(double), q);
  }
  // Sweep everything with lo == 1 (two entries).
  const int64_t removed = cache.EraseIf(
      [](const CacheKey128& key, uint64_t) { return key.lo == 1; });
  EXPECT_EQ(removed, 2);
  double value = 0.0;
  EXPECT_TRUE(cache.Find(Key(0, 0), &value));
  EXPECT_FALSE(cache.Find(Key(1, 1), &value));
  EXPECT_TRUE(cache.Find(Key(2, 0), &value));
  EXPECT_FALSE(cache.Find(Key(3, 1), &value));
  EXPECT_EQ(cache.Stats().invalidations, 2);
}

TEST(ShardedLruCacheTest, FindIfErasesEntriesFailingThePredicate) {
  ShardedLruCache<double> cache(1 << 16, 1, CacheAdmission::kAdmitAll);
  cache.Put(Key(5, 5), 1.5, sizeof(double), /*epoch=*/3);
  double value = 0.0;
  EXPECT_FALSE(cache.FindIf(Key(5, 5), &value,
                            [](uint64_t epoch) { return epoch >= 4; }));
  EXPECT_EQ(cache.Stats().invalidations, 1);
  // The stale entry is physically gone, not just hidden.
  EXPECT_FALSE(cache.Find(Key(5, 5), &value));
  EXPECT_EQ(cache.Stats().entries, 0);
}

TEST(ShardedLruCacheTest, ClearDropsEntriesAndKeepsCounters) {
  ShardedLruCache<double> cache(1 << 16, 2, CacheAdmission::kAdmitAll);
  cache.Put(Key(1, 1), 1.0, sizeof(double), 0);
  cache.Put(Key(2, 2), 2.0, sizeof(double), 0);
  cache.Clear();
  double value = 0.0;
  EXPECT_FALSE(cache.Find(Key(1, 1), &value));
  const ShardCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.bytes, 0);
  EXPECT_EQ(stats.inserts, 2);  // history survives Clear
  EXPECT_EQ(stats.invalidations, 2);
}

// ---------------------------------------------------------------------------
// Canonical keying inputs
// ---------------------------------------------------------------------------

TEST(GraphContentHashTest, EqualGraphsShareHashAndPerturbationsChange) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(10), 11);
  for (GraphId id = 0; id < db.size(); ++id) {
    Graph copy = db.Get(id);
    EXPECT_EQ(copy.ContentHash(), db.Get(id).ContentHash());
  }
  Rng rng(12);
  int changed = 0;
  for (GraphId id = 0; id < db.size(); ++id) {
    Graph perturbed = PerturbGraph(db.Get(id), 1, db.num_labels(), &rng);
    if (!(perturbed == db.Get(id)) &&
        perturbed.ContentHash() != db.Get(id).ContentHash()) {
      ++changed;
    }
    if (perturbed == db.Get(id)) ++changed;  // no-op edit: hash must agree
  }
  EXPECT_EQ(changed, db.size());
}

TEST(GedFingerprintTest, DistinguishesProtocols) {
  GedOptions base;
  EXPECT_EQ(base.Fingerprint(), GedOptions().Fingerprint());
  GedOptions approximate = base;
  approximate.approximate_only = true;
  GedOptions beam = base;
  beam.beam_width = 32;
  GedOptions costs = base;
  costs.costs.node_relabel = 2.0;
  EXPECT_NE(base.Fingerprint(), approximate.Fingerprint());
  EXPECT_NE(base.Fingerprint(), beam.Fingerprint());
  EXPECT_NE(base.Fingerprint(), costs.Fingerprint());
  EXPECT_NE(approximate.Fingerprint(), beam.Fingerprint());
}

// ---------------------------------------------------------------------------
// ResultCache: keying and the epoch/watermark contract
// ---------------------------------------------------------------------------

ResultCacheOptions SmallCacheOptions() {
  ResultCacheOptions options;
  options.enabled = true;
  options.capacity_bytes = 1 << 20;
  options.num_shards = 2;
  return options;
}

TEST(ResultCacheTest, GedRoundTripAndKeySeparation) {
  ResultCache cache(SmallCacheOptions(), /*key_salt=*/0xabcd);
  cache.PutGed(/*query_hash=*/10, /*id=*/3, ResultKind::kExactGed,
               /*epoch=*/0, 7.5);
  double value = 0.0;
  ASSERT_TRUE(cache.FindGed(10, 3, ResultKind::kExactGed, 0, &value));
  EXPECT_DOUBLE_EQ(value, 7.5);
  // Different query or graph: distinct keys.
  EXPECT_FALSE(cache.FindGed(11, 3, ResultKind::kExactGed, 0, &value));
  EXPECT_FALSE(cache.FindGed(10, 4, ResultKind::kExactGed, 0, &value));
}

CachedScore RankBlob(GraphId first) {
  CachedScore score;
  score.ids = {first, first + 1};
  score.sizes = {2};
  return score;
}

TEST(ResultCacheTest, DependencyOfEveryKind) {
  EXPECT_EQ(DependencyOf(ResultKind::kExactGed), ResultDependency::kContent);
  EXPECT_EQ(DependencyOf(ResultKind::kClusterCounts),
            ResultDependency::kModels);
  EXPECT_EQ(DependencyOf(ResultKind::kNeighborhoodProbs),
            ResultDependency::kModels);
  EXPECT_EQ(DependencyOf(ResultKind::kRankBatches),
            ResultDependency::kTopology);
}

TEST(ResultCacheTest, WatermarkInvalidationContract) {
  ResultCache cache(SmallCacheOptions());
  cache.PutGed(10, 3, ResultKind::kExactGed, /*epoch=*/0, 7.5);
  cache.PutScore(10, 3, ResultKind::kRankBatches, /*epoch=*/0, RankBlob(30));
  cache.PutScore(10, 4, ResultKind::kRankBatches, /*epoch=*/0, RankBlob(40));

  // Graph 3's neighborhood changes at epoch 1.
  cache.InvalidateGraphs({3}, /*epoch=*/1);

  double value = 0.0;
  CachedScore out;
  // GED is content-keyed: it survives the rewiring and serves queries
  // pinned before and after it.
  ASSERT_TRUE(cache.FindGed(10, 3, ResultKind::kExactGed, 1, &value));
  EXPECT_DOUBLE_EQ(value, 7.5);
  ASSERT_TRUE(cache.FindGed(10, 3, ResultKind::kExactGed, 0, &value));
  // The pre-mutation rank batches are gone for everyone; the untouched
  // graph still serves.
  EXPECT_FALSE(cache.FindScore(10, 3, ResultKind::kRankBatches, 1, &out));
  ASSERT_TRUE(cache.FindScore(10, 4, ResultKind::kRankBatches, 1, &out));
  EXPECT_EQ(out.ids, RankBlob(40).ids);

  // A racing Put stamped below the watermark is refused.
  cache.PutScore(10, 3, ResultKind::kRankBatches, /*epoch=*/0, RankBlob(30));
  EXPECT_FALSE(cache.FindScore(10, 3, ResultKind::kRankBatches, 1, &out));

  // A post-mutation recomputation is accepted and served to queries at
  // the new epoch...
  cache.PutScore(10, 3, ResultKind::kRankBatches, /*epoch=*/1, RankBlob(31));
  ASSERT_TRUE(cache.FindScore(10, 3, ResultKind::kRankBatches, 1, &out));
  EXPECT_EQ(out.ids, RankBlob(31).ids);
  // ...but never to a query still pinned before the mutation.
  EXPECT_FALSE(cache.FindScore(10, 3, ResultKind::kRankBatches, 0, &out));
}

TEST(ResultCacheTest, InvalidateGraphsSweepsOnlyTouchedIds) {
  ResultCache cache(SmallCacheOptions());
  for (GraphId id = 0; id < 6; ++id) {
    cache.PutGed(77, id, ResultKind::kExactGed, 0, static_cast<double>(id));
    cache.PutScore(77, id, ResultKind::kRankBatches, 0, RankBlob(id));
  }
  // Model-dependent kinds carry no topology either.
  CachedScore probs;
  probs.floats = {0.25f, 0.75f};
  cache.PutScore(77, 1, ResultKind::kNeighborhoodProbs, 0, probs);
  cache.InvalidateGraphs({4, 1}, /*epoch=*/2);  // unsorted on purpose
  double value = 0.0;
  CachedScore out;
  for (GraphId id = 0; id < 6; ++id) {
    EXPECT_TRUE(cache.FindGed(77, id, ResultKind::kExactGed, 2, &value))
        << "graph " << id;
    const bool expect_live = (id != 1 && id != 4);
    EXPECT_EQ(cache.FindScore(77, id, ResultKind::kRankBatches, 2, &out),
              expect_live)
        << "graph " << id;
  }
  EXPECT_TRUE(cache.FindScore(77, 1, ResultKind::kNeighborhoodProbs, 2, &out));
  // The sweep removed exactly the two touched rank entries.
  const ResultCacheStats stats = cache.StoreStats();
  EXPECT_EQ(stats.of(CacheStore::kRank).invalidations, 2);
  EXPECT_EQ(stats.of(CacheStore::kGed).invalidations, 0);
  EXPECT_EQ(stats.of(CacheStore::kScores).invalidations, 0);
  EXPECT_EQ(cache.Stats().invalidations, 2);
}

TEST(ResultCacheTest, PerStoreStatsSumToTotals) {
  ResultCache cache(SmallCacheOptions());
  cache.PutGed(5, 1, ResultKind::kExactGed, 0, 1.0);
  cache.PutGed(6, 1, ResultKind::kExactGed, 0, 1.0);
  cache.PutScore(5, 1, ResultKind::kRankBatches, 0, RankBlob(1));
  CachedScore floats;
  floats.floats = {1.0f};
  cache.PutScore(5, 2, ResultKind::kNeighborhoodProbs, 0, floats);
  cache.PutScore(5, kInvalidGraphId, ResultKind::kClusterCounts, 0, floats);
  double value = 0.0;
  CachedScore out;
  EXPECT_TRUE(cache.FindGed(5, 1, ResultKind::kExactGed, 0, &value));
  EXPECT_FALSE(cache.FindGed(5, 2, ResultKind::kExactGed, 0, &value));
  EXPECT_TRUE(cache.FindGed(6, 1, ResultKind::kExactGed, 0, &value));
  EXPECT_TRUE(cache.FindScore(5, 1, ResultKind::kRankBatches, 0, &out));
  EXPECT_TRUE(cache.FindScore(5, 2, ResultKind::kNeighborhoodProbs, 0, &out));
  EXPECT_FALSE(cache.FindScore(5, 3, ResultKind::kNeighborhoodProbs, 0, &out));
  EXPECT_TRUE(cache.FindScore(5, kInvalidGraphId, ResultKind::kClusterCounts,
                              0, &out));

  // M_nh and M_c share the score store.
  const ResultCacheStats stats = cache.StoreStats();
  EXPECT_EQ(stats.of(CacheStore::kGed).hits, 2);
  EXPECT_EQ(stats.of(CacheStore::kGed).misses, 1);
  EXPECT_EQ(stats.of(CacheStore::kRank).hits, 1);
  EXPECT_EQ(stats.of(CacheStore::kRank).misses, 0);
  EXPECT_EQ(stats.of(CacheStore::kScores).hits, 2);
  EXPECT_EQ(stats.of(CacheStore::kScores).misses, 1);
  const ShardCacheStats total = cache.Stats();
  EXPECT_EQ(total.hits, 5);
  EXPECT_EQ(total.misses, 2);
  EXPECT_EQ(total.entries, 5);

  MetricsRegistry registry;
  cache.AppendMetrics(&registry);
  const MetricsSnapshot snapshot = registry.Snapshot();
  const struct {
    const char* name;
    int64_t hits;
    double entries;
  } expected[] = {{"ged", 2, 2.0}, {"rank", 1, 1.0}, {"scores", 2, 2.0}};
  for (const auto& e : expected) {
    const std::string prefix = std::string("cache.") + e.name;
    ASSERT_NE(snapshot.FindCounter(prefix + ".hits"), nullptr) << prefix;
    EXPECT_EQ(*snapshot.FindCounter(prefix + ".hits"), e.hits) << prefix;
    ASSERT_NE(snapshot.FindCounter(prefix + ".misses"), nullptr) << prefix;
    ASSERT_NE(snapshot.FindGauge(prefix + ".entries"), nullptr) << prefix;
    EXPECT_DOUBLE_EQ(*snapshot.FindGauge(prefix + ".entries"), e.entries)
        << prefix;
  }
  EXPECT_EQ(*snapshot.FindCounter("cache.hits"), 5);
}

TEST(ResultCacheTest, ScoreRoundTripAndClear) {
  ResultCache cache(SmallCacheOptions());
  CachedScore score;
  score.floats = {1.5f, 2.5f};
  score.ids = {4, 5, 6};
  score.sizes = {1, 2};
  cache.PutScore(42, 9, ResultKind::kRankBatches, 0, score);
  CachedScore out;
  ASSERT_TRUE(cache.FindScore(42, 9, ResultKind::kRankBatches, 0, &out));
  EXPECT_EQ(out.floats, score.floats);
  EXPECT_EQ(out.ids, score.ids);
  EXPECT_EQ(out.sizes, score.sizes);

  cache.PutGed(42, 9, ResultKind::kExactGed, 0, 1.0);
  cache.Clear();
  double value = 0.0;
  EXPECT_FALSE(cache.FindScore(42, 9, ResultKind::kRankBatches, 0, &out));
  EXPECT_FALSE(cache.FindGed(42, 9, ResultKind::kExactGed, 0, &value));
  EXPECT_EQ(cache.Stats().entries, 0);
}

TEST(ResultCacheTest, ValidateRejectsBadKnobs) {
  ResultCacheOptions options = SmallCacheOptions();
  EXPECT_TRUE(options.Validate().ok());
  options.capacity_bytes = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = SmallCacheOptions();
  options.num_shards = 0;
  EXPECT_FALSE(options.Validate().ok());
  // Disabled caches never validate their knobs (they are not constructed).
  options.enabled = false;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(CacheAdmissionTest, NamesRoundTrip) {
  CacheAdmission admission = CacheAdmission::kAdmitAll;
  EXPECT_TRUE(ParseCacheAdmission("admit_on_repeat", &admission));
  EXPECT_EQ(admission, CacheAdmission::kAdmitOnRepeat);
  EXPECT_STREQ(CacheAdmissionName(admission), "admit_on_repeat");
  EXPECT_TRUE(ParseCacheAdmission("admit_all", &admission));
  EXPECT_EQ(admission, CacheAdmission::kAdmitAll);
  EXPECT_FALSE(ParseCacheAdmission("bogus", &admission));
}

// ---------------------------------------------------------------------------
// CachingDistanceProvider
// ---------------------------------------------------------------------------

TEST(CachingDistanceProviderTest, SecondLookupIsServedFromCache) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(6), 13);
  GedOptions gopts;
  gopts.approximate_only = true;
  gopts.beam_width = 0;
  GedComputer ged(gopts);
  GedDistanceProvider base(&db, &ged);
  auto cache = std::make_shared<ResultCache>(SmallCacheOptions());
  CachingDistanceProvider provider(&base, cache);

  const Graph& query = db.Get(0);
  QueryContext ctx;
  ctx.query_hash = query.ContentHash();
  ctx.epoch = 0;

  const DistanceResult first = provider.Exact(ctx, query, 3);
  EXPECT_TRUE(first.computed);
  const DistanceResult second = provider.Exact(ctx, query, 3);
  EXPECT_FALSE(second.computed);
  EXPECT_DOUBLE_EQ(second.value, first.value);
  // Another query does not share the entry.
  const Graph& other = db.Get(1);
  QueryContext other_ctx;
  other_ctx.query_hash = other.ContentHash();
  EXPECT_TRUE(provider.Exact(other_ctx, other, 3).computed);
  EXPECT_EQ(cache->Stats().hits, 1);
}

TEST(CachingDistanceProviderTest, ZeroQueryHashBypassesTheCache) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(6), 14);
  GedOptions gopts;
  gopts.approximate_only = true;
  GedComputer ged(gopts);
  GedDistanceProvider base(&db, &ged);
  auto cache = std::make_shared<ResultCache>(SmallCacheOptions());
  CachingDistanceProvider provider(&base, cache);

  QueryContext anonymous;  // query_hash == 0
  const Graph& query = db.Get(1);
  EXPECT_TRUE(provider.Exact(anonymous, query, 2).computed);
  EXPECT_TRUE(provider.Exact(anonymous, query, 2).computed);
  EXPECT_EQ(cache->Stats().inserts, 0);

  CachedScore score;
  score.floats = {1.0f};
  provider.StoreScore(anonymous, ResultKind::kClusterCounts, kInvalidGraphId,
                      score);
  CachedScore out;
  EXPECT_FALSE(provider.FindScore(anonymous, ResultKind::kClusterCounts,
                                  kInvalidGraphId, &out));
}

// ---------------------------------------------------------------------------
// Index-level equivalence: cache-on == cache-off, bitwise
// ---------------------------------------------------------------------------

LanConfig TinyConfig(bool cache_enabled) {
  LanConfig config;
  config.hnsw.M = 4;
  config.hnsw.ef_construction = 12;
  // Approximate-only keeps the GED deterministic (the exact attempt's
  // time budget is wall-clock dependent), so cached and fresh values are
  // bit-identical by construction.
  config.query_ged.approximate_only = true;
  config.query_ged.beam_width = 0;
  config.scorer.gnn_dims = {8, 8};
  config.scorer.mlp_hidden = 8;
  config.rank.epochs = 3;
  config.nh.epochs = 3;
  config.cluster.epochs = 10;
  config.max_rank_examples = 300;
  config.max_nh_examples = 300;
  config.neighborhood_knn = 10;
  config.embedding.dim = 16;
  config.default_beam = 8;
  config.num_threads = 2;
  config.cache.enabled = cache_enabled;
  config.cache.capacity_bytes = 8 << 20;
  config.cache.num_shards = 4;
  return config;
}

/// Cache-on and cache-off indexes over the same database, trained on the
/// same workload. Build/Train are deterministic functions of (db, config
/// seed), so any divergence between the two is the cache's fault.
class CacheEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetSpec spec = DatasetSpec::SynLike(60);
    db_ = new GraphDatabase(GenerateDatabase(spec, 51));
    WorkloadOptions wopts;
    wopts.num_queries = 20;  // 20% test split -> 4 distinct test queries
    workload_ = new QueryWorkload(SampleWorkload(*db_, wopts, 52));
    cached_ = new LanIndex(TinyConfig(/*cache_enabled=*/true));
    plain_ = new LanIndex(TinyConfig(/*cache_enabled=*/false));
    ASSERT_TRUE(cached_->Build(db_).ok());
    ASSERT_TRUE(plain_->Build(db_).ok());
    ASSERT_TRUE(cached_->Train(workload_->train).ok());
    ASSERT_TRUE(plain_->Train(workload_->train).ok());
  }

  static void TearDownTestSuite() {
    delete cached_;
    delete plain_;
    delete workload_;
    delete db_;
    cached_ = nullptr;
    plain_ = nullptr;
    workload_ = nullptr;
    db_ = nullptr;
  }

  static GraphDatabase* db_;
  static QueryWorkload* workload_;
  static LanIndex* cached_;
  static LanIndex* plain_;
};

GraphDatabase* CacheEquivalenceTest::db_ = nullptr;
QueryWorkload* CacheEquivalenceTest::workload_ = nullptr;
LanIndex* CacheEquivalenceTest::cached_ = nullptr;
LanIndex* CacheEquivalenceTest::plain_ = nullptr;

TEST_F(CacheEquivalenceTest, BitwiseIdenticalAcrossAllCombos) {
  ASSERT_NE(cached_->result_cache(), nullptr);
  EXPECT_EQ(plain_->result_cache(), nullptr);
  for (RoutingMethod routing :
       {RoutingMethod::kLanRoute, RoutingMethod::kBaselineRoute,
        RoutingMethod::kOracleRoute}) {
    for (InitMethod init :
         {InitMethod::kLanIs, InitMethod::kHnswIs, InitMethod::kRandomIs}) {
      SearchOptions options;
      options.k = 4;
      options.beam = 8;
      options.routing = routing;
      options.init = init;
      for (int pass = 0; pass < 2; ++pass) {  // second pass hits the cache
        for (const Graph& query : workload_->test) {
          SearchResult with = cached_->Search(query, options);
          SearchResult without = plain_->Search(query, options);
          ASSERT_TRUE(with.status.ok());
          ASSERT_TRUE(without.status.ok());
          ASSERT_EQ(with.results.size(), without.results.size())
              << RoutingMethodName(routing) << "/" << InitMethodName(init);
          for (size_t i = 0; i < with.results.size(); ++i) {
            EXPECT_EQ(with.results[i].first, without.results[i].first);
            // Bitwise: EQ, not NEAR.
            EXPECT_EQ(with.results[i].second, without.results[i].second)
                << RoutingMethodName(routing) << "/" << InitMethodName(init);
          }
          // Control flow is value-driven, so the counters the cache must
          // not perturb stay equal; distance work only ever shifts from
          // ndc to cache_hits (score hits shift model inferences too, so
          // the sum is a lower bound rather than an equality).
          EXPECT_EQ(with.stats.routing_steps, without.stats.routing_steps);
          EXPECT_LE(with.stats.ndc, without.stats.ndc);
          EXPECT_GE(with.stats.ndc + with.stats.cache_hits,
                    without.stats.ndc);
        }
      }
    }
  }
  const ShardCacheStats stats = cached_->result_cache()->Stats();
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.inserts, 0);
}

TEST_F(CacheEquivalenceTest, RepeatedQueryShiftsNdcToCacheHits) {
  // A query content-identical to a previous one (fresh Graph object, same
  // canonical hash) reuses its GED results.
  const Graph& query = workload_->test[0];
  SearchOptions options;
  options.k = 4;
  SearchResult first = cached_->Search(query, options);
  Graph same = query;
  SearchResult second = cached_->Search(same, options);
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(first.results, second.results);
  EXPECT_GT(second.stats.cache_hits, 0);
  EXPECT_LT(second.stats.ndc, first.stats.ndc + first.stats.cache_hits);
}

TEST_F(CacheEquivalenceTest, TraceChargesHitsWithoutBreakingNdcInvariant) {
  const Graph& query = workload_->test[1];
  SearchOptions options;
  options.k = 4;
  (void)cached_->Search(query, options);  // warm the cache

  QueryTrace trace;
  SearchOptions traced = options;
  traced.trace = &trace;
  SearchResult result = cached_->Search(query, traced);
  ASSERT_TRUE(result.status.ok());
  // Exactly ndc kDistance events, exactly cache_hits kCacheHit events.
  EXPECT_EQ(trace.CountOf(TraceEventType::kDistance), result.stats.ndc);
  EXPECT_EQ(trace.CountOf(TraceEventType::kCacheHit),
            result.stats.cache_hits);
  EXPECT_GT(result.stats.cache_hits, 0);
}

TEST_F(CacheEquivalenceTest, SearchBatchExportsCacheMetrics) {
  // Duplicate queries inside one batch: the second occurrence hits.
  std::vector<Graph> queries;
  for (int i = 0; i < 2; ++i) {
    queries.push_back(workload_->test[2]);
    queries.push_back(workload_->test[3]);
  }
  SearchOptions options;
  options.k = 3;
  BatchSearchResult batch = cached_->SearchBatch(queries, options, 2);
  ASSERT_EQ(batch.results.size(), queries.size());
  const int64_t* hits = batch.stats.metrics.FindCounter("cache.hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_GT(*hits, 0);
  const double* capacity = batch.stats.metrics.FindGauge("cache.capacity_bytes");
  ASSERT_NE(capacity, nullptr);
  EXPECT_GT(*capacity, 0.0);
  EXPECT_EQ(batch.stats.totals.cache_hits, *hits);
}

// ---------------------------------------------------------------------------
// Mutation: epoch advance keeps cached results correct
// ---------------------------------------------------------------------------

LanConfig MutationConfig(bool cache_enabled) {
  LanConfig config = TinyConfig(cache_enabled);
  config.num_threads = 2;
  return config;
}

TEST(ResultCacheMutationTest, InsertRemoveKeepCachedSearchesIdentical) {
  GraphDatabase db_a = GenerateDatabase(DatasetSpec::SynLike(40), 61);
  GraphDatabase db_b = GenerateDatabase(DatasetSpec::SynLike(40), 61);
  LanIndex cached(MutationConfig(true));
  LanIndex plain(MutationConfig(false));
  ASSERT_TRUE(cached.Build(&db_a).ok());
  ASSERT_TRUE(plain.Build(&db_b).ok());

  SearchOptions options;
  options.k = 5;
  options.routing = RoutingMethod::kBaselineRoute;
  options.init = InitMethod::kHnswIs;

  Rng rng(62);
  std::vector<Graph> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(PerturbGraph(db_a.Get(static_cast<GraphId>(i)), 2,
                                   db_a.num_labels(), &rng));
  }

  auto expect_identical = [&](const char* when) {
    for (const Graph& query : queries) {
      SearchResult with = cached.Search(query, options);
      SearchResult without = plain.Search(query, options);
      ASSERT_TRUE(with.status.ok()) << when;
      ASSERT_TRUE(without.status.ok()) << when;
      EXPECT_EQ(with.results, without.results) << when;
    }
  };

  // Populate the cache pre-mutation.
  expect_identical("before mutation");
  ResultCache* cache = cached.result_cache();
  ASSERT_GT(cache->Stats().inserts, 0);

  // Rank batches are the one topology-dependent kind; plant one for every
  // graph (routing here is the baseline, which computes none) so each
  // mutation's sweep can be observed id by id.
  constexpr uint64_t kPlantedQuery = 0x5eed;
  auto plant_rank_batches = [&] {
    for (GraphId id = 0; id < cached.db().size(); ++id) {
      CachedScore blob;
      blob.ids = {id};
      blob.sizes = {1};
      cache->PutScore(kPlantedQuery, id, ResultKind::kRankBatches,
                      cached.epoch(), blob);
    }
  };
  auto has_rank_batch = [&](GraphId id) {
    CachedScore out;
    return cache->FindScore(kPlantedQuery, id, ResultKind::kRankBatches,
                            cached.epoch(), &out);
  };
  auto neighbor_lists = [&] {
    std::vector<std::vector<GraphId>> lists;
    const ProximityGraph& pg = cached.pg();
    for (GraphId id = 0; id < cached.db().size(); ++id) {
      const auto span = pg.NeighborSpan(id);
      lists.emplace_back(span.begin(), span.end());
    }
    return lists;
  };

  // Same mutation sequence on both indexes; their RNG streams are seeded
  // identically so they stay structurally identical.
  Rng mrng(63);
  for (int m = 0; m < 6; ++m) {
    plant_rank_batches();
    const std::vector<std::vector<GraphId>> before = neighbor_lists();
    const ResultCacheStats stores_before = cache->StoreStats();
    if (m % 3 == 2) {
      const GraphId victim = static_cast<GraphId>(m);  // distinct victims
      ASSERT_TRUE(cached.Remove(victim).ok());
      ASSERT_TRUE(plain.Remove(victim).ok());
      // A tombstone keeps its content and edges: nothing is swept.
      for (GraphId id = 0; id < cached.db().size(); ++id) {
        EXPECT_TRUE(has_rank_batch(id)) << "graph " << id;
      }
    } else {
      Graph graph = PerturbGraph(
          db_a.Get(static_cast<GraphId>(mrng.NextBounded(20))), 2,
          db_a.num_labels(), &mrng);
      auto a = cached.Insert(graph);
      auto b = plain.Insert(std::move(graph));
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      ASSERT_EQ(a.value(), b.value());
      // Exactly the rewired graphs lose their rank batches: those whose
      // neighbor list changed, plus the graphs the insert connected to
      // (the new node's list names them; one may end with its old list).
      // A graph only dropped from a rewired list keeps its batch while
      // its own edge to that list's owner survives.
      const std::vector<std::vector<GraphId>> after = neighbor_lists();
      std::vector<uint8_t> rewired(before.size(), 0);
      for (GraphId n : after[static_cast<size_t>(a.value())]) {
        rewired[static_cast<size_t>(n)] = 1;
      }
      int changed = 0;
      for (size_t id = 0; id < before.size(); ++id) {
        if (before[id] != after[id]) {
          ++changed;
          rewired[id] = 1;
        }
        EXPECT_EQ(has_rank_batch(static_cast<GraphId>(id)), rewired[id] == 0)
            << "graph " << id;
      }
      EXPECT_GT(changed, 0);
    }
    // GED values are content-keyed: every mutation keeps all of them,
    // readers' and the writer's alike.
    const ResultCacheStats stores_after = cache->StoreStats();
    EXPECT_EQ(stores_after.of(CacheStore::kGed).invalidations, 0);
    EXPECT_GE(stores_after.of(CacheStore::kGed).entries,
              stores_before.of(CacheStore::kGed).entries);
    // Queries whose results were cached at the previous epoch must not be
    // served stale entries for rewired graphs.
    expect_identical("after mutation");
  }
  EXPECT_GT(cached.epoch(), 0u);
  EXPECT_GT(cache->StoreStats().of(CacheStore::kRank).invalidations, 0);
}

/// Cache-on and cache-off twins over identical mutable databases, both
/// trained on the same workload, so they can take the same writes.
struct TrainedTwins {
  GraphDatabase db_a;
  GraphDatabase db_b;
  QueryWorkload workload;
  LanIndex cached{MutationConfig(true)};
  LanIndex plain{MutationConfig(false)};

  explicit TrainedTwins(uint64_t seed)
      : db_a(GenerateDatabase(DatasetSpec::SynLike(50), seed)),
        db_b(GenerateDatabase(DatasetSpec::SynLike(50), seed)) {
    WorkloadOptions wopts;
    wopts.num_queries = 20;
    workload = SampleWorkload(db_a, wopts, seed + 1);
    EXPECT_TRUE(cached.Build(&db_a).ok());
    EXPECT_TRUE(plain.Build(&db_b).ok());
    EXPECT_TRUE(cached.Train(workload.train).ok());
    EXPECT_TRUE(plain.Train(workload.train).ok());
  }

  /// Inserts a perturbed copy of `base` into both indexes.
  GraphId InsertNear(const Graph& base, Rng* rng) {
    Graph graph = PerturbGraph(base, 1, db_a.num_labels(), rng);
    auto a = cached.Insert(graph);
    auto b = plain.Insert(std::move(graph));
    EXPECT_TRUE(a.ok());
    EXPECT_TRUE(b.ok());
    EXPECT_EQ(a.value(), b.value());
    return a.ok() ? a.value() : kInvalidGraphId;
  }
};

/// Records the clusters M_c kept and the M_nh rows actually computed.
class InitTrace final : public TraceSink {
 public:
  void Record(const TraceEvent& event) override {
    if (event.type == TraceEventType::kClusterScore) {
      kept.push_back(static_cast<size_t>(event.id));
    } else if (event.type == TraceEventType::kModelInference &&
               event.detail != nullptr &&
               std::string(event.detail) == "M_nh") {
      nh_rows += static_cast<int64_t>(event.aux);
    }
  }

  std::vector<size_t> kept;
  int64_t nh_rows = 0;
};

TEST(ResultCacheMutationTest, TrainedCombosStayIdenticalAcrossEpochs) {
  TrainedTwins twins(81);
  Rng rng(82);
  auto expect_identical = [&](const char* when) {
    for (RoutingMethod routing :
         {RoutingMethod::kLanRoute, RoutingMethod::kBaselineRoute,
          RoutingMethod::kOracleRoute}) {
      for (InitMethod init :
           {InitMethod::kLanIs, InitMethod::kHnswIs, InitMethod::kRandomIs}) {
        SearchOptions options;
        options.k = 4;
        options.routing = routing;
        options.init = init;
        for (const Graph& query : twins.workload.test) {
          SearchResult with = twins.cached.Search(query, options);
          SearchResult without = twins.plain.Search(query, options);
          ASSERT_TRUE(with.status.ok());
          ASSERT_TRUE(without.status.ok());
          EXPECT_EQ(with.results, without.results)
              << when << " " << RoutingMethodName(routing) << "/"
              << InitMethodName(init);
          EXPECT_EQ(with.stats.routing_steps, without.stats.routing_steps);
        }
      }
    }
  };
  expect_identical("before mutation");
  for (int m = 0; m < 4; ++m) {
    // Copies of the test queries grow exactly the clusters LAN_IS scans.
    for (const Graph& query : twins.workload.test) {
      twins.InsertNear(query, &rng);
    }
    const GraphId victim = static_cast<GraphId>(3 * m + 1);
    ASSERT_TRUE(twins.cached.Remove(victim).ok());
    ASSERT_TRUE(twins.plain.Remove(victim).ok());
    // The cache never reaches the writer: both twins rewire alike.
    for (GraphId id = 0; id < twins.cached.db().size(); ++id) {
      const auto with = twins.cached.pg().NeighborSpan(id);
      const auto without = twins.plain.pg().NeighborSpan(id);
      ASSERT_TRUE(std::equal(with.begin(), with.end(), without.begin(),
                             without.end()))
          << "graph " << id << " after mutation " << m;
    }
    expect_identical("after mutation");
  }
  const ResultCacheStats stats = twins.cached.result_cache()->StoreStats();
  EXPECT_GT(stats.of(CacheStore::kScores).hits, 0);
  EXPECT_GT(stats.of(CacheStore::kRank).hits, 0);
  EXPECT_EQ(stats.of(CacheStore::kGed).invalidations, 0);
}

TEST(ResultCacheMutationTest, ExtendedNeighborhoodBlobEqualsFullBatch) {
  TrainedTwins twins(91);
  LanIndex& index = twins.cached;
  const Graph& query = twins.workload.test[0];
  SearchOptions options;
  options.k = 4;
  options.routing = RoutingMethod::kBaselineRoute;
  options.init = InitMethod::kLanIs;

  InitTrace first;
  options.trace = &first;
  ASSERT_TRUE(index.Search(query, options).status.ok());
  ASSERT_FALSE(first.kept.empty());
  std::vector<size_t> sizes_before;
  for (size_t c : first.kept) {
    sizes_before.push_back(index.clusters().members[c].size());
  }
  int64_t members_before = 0;
  for (size_t n : sizes_before) members_before += static_cast<int64_t>(n);
  EXPECT_EQ(first.nh_rows, members_before);  // cold: every row computed

  // Grow the scanned clusters with near copies of the query.
  Rng rng(92);
  int64_t grown = 0;
  for (int i = 0; i < 12 && grown == 0; ++i) {
    twins.InsertNear(query, &rng);
    grown = 0;
    for (size_t j = 0; j < first.kept.size(); ++j) {
      grown += static_cast<int64_t>(
          index.clusters().members[first.kept[j]].size() - sizes_before[j]);
    }
  }
  ASSERT_GT(grown, 0) << "no insert landed in a scanned cluster";

  // M_c is frozen, so the same clusters are scanned; only the new suffix
  // rows go through inference.
  InitTrace second;
  options.trace = &second;
  SearchResult cached = index.Search(query, options);
  options.trace = nullptr;
  SearchResult plain = twins.plain.Search(query, options);
  ASSERT_TRUE(cached.status.ok());
  EXPECT_EQ(second.kept, first.kept);
  EXPECT_EQ(second.nh_rows, grown);
  EXPECT_EQ(cached.results, plain.results);
  EXPECT_LT(cached.stats.model_inferences, plain.stats.model_inferences);

  // Each stored blob is bit-equal to one fresh pass over the whole list.
  const NeighborhoodModel& nh = *index.neighborhood_model();
  const QueryEncodingCache encoded =
      nh.scorer().EncodeQuery(index.QueryCg(query));
  for (size_t c : second.kept) {
    const std::vector<int32_t>& members = index.clusters().members[c];
    std::vector<const CompressedGnnGraph*> gs;
    for (int32_t id : members) {
      gs.push_back(&index.db_cgs()[static_cast<size_t>(id)]);
    }
    const std::vector<float> fresh = nh.PredictProbsBatch(gs, encoded);
    CachedScore blob;
    ASSERT_TRUE(index.result_cache()->FindScore(
        query.ContentHash(), static_cast<GraphId>(c),
        ResultKind::kNeighborhoodProbs, index.epoch(), &blob));
    ASSERT_EQ(blob.floats.size(), fresh.size()) << "cluster " << c;
    for (size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(blob.floats[i], fresh[i]) << "cluster " << c << " row " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrency (ctest -L concurrency; run under asan/tsan presets)
// ---------------------------------------------------------------------------

TEST(ResultCacheConcurrencyTest, ConcurrentSearchesServeTrueDistances) {
  constexpr GraphId kInitial = 50;
  constexpr int kMutations = 30;
  constexpr int kSearchers = 4;

  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(kInitial), 71);
  GraphDatabase mirror_db = GenerateDatabase(DatasetSpec::SynLike(kInitial), 71);
  LanIndex cached(MutationConfig(true));
  LanIndex plain(MutationConfig(false));
  ASSERT_TRUE(cached.Build(&db).ok());
  ASSERT_TRUE(plain.Build(&mirror_db).ok());

  std::vector<Graph> queries;
  Rng qgen(72);
  for (int i = 0; i < 6; ++i) {
    queries.push_back(PerturbGraph(
        db.Get(static_cast<GraphId>(qgen.NextBounded(kInitial))), 2,
        db.num_labels(), &qgen));
  }
  // Database graphs never change after insertion (removal only
  // tombstones), so d(Q, G_id) is time-invariant: every distance a search
  // returns — cached or fresh — must equal an independent recomputation.
  GedOptions gopts;
  gopts.approximate_only = true;
  gopts.beam_width = 0;

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::atomic<int> searches{0};

  std::vector<std::thread> searchers;
  searchers.reserve(kSearchers);
  for (int t = 0; t < kSearchers; ++t) {
    searchers.emplace_back([&, t] {
      GedComputer ged(gopts);
      SearchOptions options;
      options.k = 5;
      options.routing = t % 2 == 0 ? RoutingMethod::kBaselineRoute
                                   : RoutingMethod::kOracleRoute;
      options.init = t % 2 == 0 ? InitMethod::kHnswIs : InitMethod::kRandomIs;
      size_t next = static_cast<size_t>(t);
      while (!done.load(std::memory_order_acquire)) {
        const Graph& query = queries[next++ % queries.size()];
        SearchResult result = cached.Search(query, options);
        if (!result.status.ok()) {
          violations.fetch_add(1);
          continue;
        }
        for (const auto& [id, distance] : result.results) {
          const double truth = ged.Distance(query, cached.db().Get(id));
          if (distance != truth) violations.fetch_add(1);
        }
        searches.fetch_add(1);
      }
    });
  }

  Rng wrng(73);
  std::vector<GraphId> live;
  for (GraphId id = 0; id < kInitial; ++id) live.push_back(id);
  int writer_failures = 0;
  for (int m = 0; m < kMutations; ++m) {
    if (m % 2 == 0) {
      const GraphId base =
          live[static_cast<size_t>(wrng.NextBounded(live.size()))];
      Graph graph = PerturbGraph(db.Get(base), 2, db.num_labels(), &wrng);
      auto a = cached.Insert(graph);
      auto b = plain.Insert(std::move(graph));
      if (!a.ok() || !b.ok() || a.value() != b.value()) {
        ++writer_failures;
        break;
      }
      live.push_back(a.value());
    } else {
      const size_t pick = static_cast<size_t>(wrng.NextBounded(live.size()));
      const GraphId id = live[pick];
      if (!cached.Remove(id).ok() || !plain.Remove(id).ok()) {
        ++writer_failures;
        break;
      }
      live[pick] = live.back();
      live.pop_back();
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& thread : searchers) thread.join();

  ASSERT_EQ(writer_failures, 0);
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(searches.load(), 0);

  // Quiesced: the cache-on index (with a now well-populated cache) must
  // still agree exactly with its never-cached twin.
  SearchOptions options;
  options.k = 5;
  options.routing = RoutingMethod::kBaselineRoute;
  options.init = InitMethod::kHnswIs;
  for (const Graph& query : queries) {
    SearchResult with = cached.Search(query, options);
    SearchResult without = plain.Search(query, options);
    ASSERT_TRUE(with.status.ok());
    ASSERT_TRUE(without.status.ok());
    EXPECT_EQ(with.results, without.results);
  }
}

/// Parks its search right after the epoch pin until released, so the test
/// can publish newer epochs underneath a reader.
class PinningTrace final : public TraceSink {
 public:
  PinningTrace(std::atomic<int>* pinned, std::atomic<bool>* release)
      : pinned_(pinned), release_(release) {}

  void Record(const TraceEvent& event) override {
    if (event.type == TraceEventType::kEpochPinned) {
      epoch = static_cast<uint64_t>(event.value);
      pinned_->fetch_add(1);
      while (!release_->load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    } else if (event.type == TraceEventType::kModelInference &&
               event.detail != nullptr &&
               std::string(event.detail) == "M_nh") {
      nh_rows += static_cast<int64_t>(event.aux);
    }
  }

  uint64_t epoch = 0;
  int64_t nh_rows = 0;

 private:
  std::atomic<int>* pinned_;
  std::atomic<bool>* release_;
};

TEST(ResultCacheConcurrencyTest, PinnedReaderUsesOnlyItsPrefixOfExtendedBlob) {
  constexpr int kReaders = 3;
  TrainedTwins twins(101);
  LanIndex& index = twins.cached;
  SearchOptions options;
  options.k = 4;
  options.routing = RoutingMethod::kBaselineRoute;
  options.init = InitMethod::kLanIs;
  const std::vector<Graph>& queries = twins.workload.test;

  // Answers at the old epoch, from the never-cached twin; then warm the
  // cache so every scanned cluster holds a blob of the old length.
  const uint64_t old_epoch = index.epoch();
  std::vector<SearchResult> old_answers;
  for (const Graph& query : queries) {
    old_answers.push_back(twins.plain.Search(query, options));
    ASSERT_TRUE(index.Search(query, options).status.ok());
  }
  const auto old_snapshot = index.Snapshot();

  std::atomic<int> pinned{0};
  std::atomic<bool> release{false};
  std::vector<SearchResult> reads(kReaders);
  std::vector<std::unique_ptr<PinningTrace>> traces;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    traces.push_back(std::make_unique<PinningTrace>(&pinned, &release));
  }
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      SearchOptions pinned_options = options;
      pinned_options.trace = traces[static_cast<size_t>(r)].get();
      reads[static_cast<size_t>(r)] =
          index.Search(queries[static_cast<size_t>(r) % queries.size()],
                       pinned_options);
    });
  }
  while (pinned.load() < kReaders) std::this_thread::yield();

  // Newer epochs: near copies of the queries grow their scanned clusters,
  // and a reader at the newest epoch extends the blobs.
  Rng rng(102);
  for (int i = 0; i < 3; ++i) {
    for (const Graph& query : queries) twins.InsertNear(query, &rng);
  }
  ASSERT_GT(index.epoch(), old_epoch);
  for (const Graph& query : queries) {
    ASSERT_TRUE(index.Search(query, options).status.ok());
  }
  int extended = 0;
  for (const Graph& query : queries) {
    for (size_t c = 0; c < old_snapshot->clusters->members.size(); ++c) {
      CachedScore blob;
      if (index.result_cache()->FindScore(
              query.ContentHash(), static_cast<GraphId>(c),
              ResultKind::kNeighborhoodProbs, index.epoch(), &blob) &&
          blob.floats.size() > old_snapshot->clusters->members[c].size()) {
        ++extended;
      }
    }
  }
  ASSERT_GT(extended, 0) << "no blob outgrew the pinned readers' lists";

  // Released readers run beside fresh readers at the newest epoch.
  release.store(true, std::memory_order_release);
  std::thread fresh([&] {
    for (const Graph& query : queries) (void)index.Search(query, options);
  });
  for (std::thread& reader : readers) reader.join();
  fresh.join();

  for (int r = 0; r < kReaders; ++r) {
    const SearchResult& read = reads[static_cast<size_t>(r)];
    ASSERT_TRUE(read.status.ok());
    EXPECT_EQ(read.epoch, old_epoch);
    EXPECT_EQ(traces[static_cast<size_t>(r)]->epoch, old_epoch);
    // Served entirely from the old prefix of the longer blobs...
    EXPECT_EQ(traces[static_cast<size_t>(r)]->nh_rows, 0);
    // ...and exactly the old epoch's answer.
    EXPECT_EQ(read.results,
              old_answers[static_cast<size_t>(r) % queries.size()].results)
        << "reader " << r;
  }
  // Quiesced: the newest epoch agrees with the never-cached twin too.
  for (const Graph& query : queries) {
    EXPECT_EQ(index.Search(query, options).results,
              twins.plain.Search(query, options).results);
  }
}

}  // namespace
}  // namespace lan
