// End-to-end tests of the single-file zero-copy snapshot format:
// LanIndex::SaveSnapshot/OpenSnapshot round trips, corruption handling
// (the loader must return a Status for any malformed input, never crash),
// the committed golden fixture, the sharded directory layout, and the
// legacy SaveIndex checkpoint shim that now rides on the same container.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/random.h"
#include "graph/graph_generator.h"
#include "lan/lan_index.h"
#include "lan/sharded_index.h"
#include "lan/workload.h"
#include "store/snapshot.h"

namespace lan {
namespace {

LanConfig TinyConfig() {
  LanConfig config;
  config.hnsw.M = 4;
  config.hnsw.ef_construction = 12;
  config.query_ged.approximate_only = true;
  config.query_ged.beam_width = 0;
  config.scorer.gnn_dims = {8, 8};
  config.scorer.mlp_hidden = 8;
  config.rank.epochs = 2;
  config.nh.epochs = 2;
  config.cluster.epochs = 5;
  config.max_rank_examples = 150;
  config.max_nh_examples = 150;
  config.neighborhood_knn = 10;
  config.embedding.dim = 16;
  config.default_beam = 8;
  config.num_threads = 2;
  return config;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// Builds + trains a small index over `n` graphs and saves it to `path`.
/// Returns the workload so callers can replay identical queries.
QueryWorkload BuildAndSave(const std::string& path, int64_t n,
                           GraphDatabase* db, LanIndex* index) {
  *db = GenerateDatabase(DatasetSpec::SynLike(n), 171);
  WorkloadOptions wopts;
  wopts.num_queries = 15;
  QueryWorkload workload = SampleWorkload(*db, wopts, 172);
  EXPECT_TRUE(index->Build(db).ok());
  EXPECT_TRUE(index->Train(workload.train).ok());
  EXPECT_TRUE(index->SaveSnapshot(path).ok());
  return workload;
}

// ---------- Round trips ----------

TEST(SnapshotTest, RoundTripBitwiseIdenticalAcrossAllModes) {
  const std::string path = TempPath("roundtrip.lansnap");
  GraphDatabase db;
  LanIndex original(TinyConfig());
  QueryWorkload workload = BuildAndSave(path, 60, &db, &original);

  // The opened index is self-contained: no database is handed in.
  LanIndex opened(TinyConfig());
  ASSERT_TRUE(opened.OpenSnapshot(path).ok());
  EXPECT_TRUE(opened.trained());
  EXPECT_EQ(opened.db().size(), db.size());
  EXPECT_DOUBLE_EQ(opened.gamma_star(), original.gamma_star());

  const RoutingMethod routings[] = {RoutingMethod::kLanRoute,
                                    RoutingMethod::kBaselineRoute,
                                    RoutingMethod::kOracleRoute};
  const InitMethod inits[] = {InitMethod::kLanIs, InitMethod::kHnswIs,
                              InitMethod::kRandomIs};
  for (RoutingMethod routing : routings) {
    for (InitMethod init : inits) {
      for (size_t i = 0; i < 3; ++i) {
        SearchOptions sopts;
        sopts.k = 5;
        sopts.routing = routing;
        sopts.init = init;
        SearchResult a = original.Search(workload.test[i], sopts);
        SearchResult b = opened.Search(workload.test[i], sopts);
        ASSERT_TRUE(a.status.ok());
        ASSERT_TRUE(b.status.ok());
        EXPECT_EQ(a.results, b.results)
            << RoutingMethodName(routing) << "/" << InitMethodName(init)
            << " query " << i;
        EXPECT_EQ(a.stats.ndc, b.stats.ndc)
            << RoutingMethodName(routing) << "/" << InitMethodName(init)
            << " query " << i;
      }
    }
  }
}

TEST(SnapshotTest, UntrainedRoundTrip) {
  const std::string path = TempPath("untrained.lansnap");
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(40), 181);
  LanIndex original(TinyConfig());
  ASSERT_TRUE(original.Build(&db).ok());
  ASSERT_TRUE(original.SaveSnapshot(path).ok());

  LanIndex opened(TinyConfig());
  ASSERT_TRUE(opened.OpenSnapshot(path).ok());
  EXPECT_FALSE(opened.trained());

  WorkloadOptions wopts;
  wopts.num_queries = 6;
  QueryWorkload workload = SampleWorkload(db, wopts, 182);
  SearchOptions sopts;
  sopts.k = 4;
  sopts.routing = RoutingMethod::kBaselineRoute;
  sopts.init = InitMethod::kHnswIs;
  SearchResult a = original.Search(workload.train[0], sopts);
  SearchResult b = opened.Search(workload.train[0], sopts);
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.results, b.results);
}

TEST(SnapshotTest, TombstonesSurviveRoundTrip) {
  const std::string path = TempPath("tombstones.lansnap");
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(40), 183);
  LanIndex original(TinyConfig());
  ASSERT_TRUE(original.Build(&db).ok());
  ASSERT_TRUE(original.Remove(3).ok());
  ASSERT_TRUE(original.Remove(17).ok());
  ASSERT_TRUE(original.SaveSnapshot(path).ok());

  LanIndex opened(TinyConfig());
  ASSERT_TRUE(opened.OpenSnapshot(path).ok());
  EXPECT_EQ(opened.live_size(), original.live_size());
  EXPECT_EQ(opened.epoch(), original.epoch());
  // Tombstoned ids never surface in results.
  WorkloadOptions wopts;
  wopts.num_queries = 6;
  QueryWorkload workload = SampleWorkload(db, wopts, 184);
  SearchOptions sopts;
  sopts.k = 10;
  sopts.routing = RoutingMethod::kBaselineRoute;
  sopts.init = InitMethod::kHnswIs;
  SearchResult result = opened.Search(workload.train[0], sopts);
  ASSERT_TRUE(result.status.ok());
  for (const auto& [id, d] : result.results) {
    EXPECT_NE(id, 3);
    EXPECT_NE(id, 17);
  }
}

TEST(SnapshotTest, InsertAfterOpenKeepsServing) {
  const std::string path = TempPath("insert_after.lansnap");
  GraphDatabase db;
  LanIndex original(TinyConfig());
  QueryWorkload workload = BuildAndSave(path, 50, &db, &original);

  LanIndex opened(TinyConfig());
  ASSERT_TRUE(opened.OpenSnapshot(path).ok());
  const GraphId before = opened.db().size();
  // Insert thaws the frozen (mmap-backed) structures into owned form; the
  // index must keep serving and the new graph must be findable.
  Graph extra = opened.db().Get(0);
  auto inserted = opened.Insert(extra);
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(inserted.value(), before);
  EXPECT_EQ(opened.db().size(), before + 1);

  SearchOptions sopts;
  sopts.k = 5;
  SearchResult result = opened.Search(workload.test[0], sopts);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.results.size(), 5u);

  // An exact-duplicate query must see a copy at distance 0 (baseline
  // routing: exhaustive neighbor expansion, so a reachable distance-0
  // node is always found; the learned route may prune it).
  SearchOptions exhaustive;
  exhaustive.k = 5;
  exhaustive.routing = RoutingMethod::kBaselineRoute;
  exhaustive.init = InitMethod::kHnswIs;
  SearchResult dup = opened.Search(extra, exhaustive);
  ASSERT_TRUE(dup.status.ok());
  ASSERT_FALSE(dup.results.empty());
  EXPECT_EQ(dup.results.front().second, 0.0);
  bool has_inserted = false;
  for (const auto& [rid, d] : dup.results) has_inserted |= (rid == before);
  EXPECT_TRUE(has_inserted);
}

TEST(SnapshotTest, SaveAfterInsertReopensBitwiseIdentical) {
  // Online inserts after Train leave the M_rk context matrix covering only
  // the trained prefix; the saved file must still open and serve the same
  // answers as the index that wrote it.
  const std::string path = TempPath("save_after_insert.lansnap");
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(50), 185);
  WorkloadOptions wopts;
  wopts.num_queries = 15;
  QueryWorkload workload = SampleWorkload(db, wopts, 186);
  LanIndex original(TinyConfig());
  ASSERT_TRUE(original.Build(&db).ok());
  ASSERT_TRUE(original.Train(workload.train).ok());
  Rng rng(187);
  for (int i = 0; i < 3; ++i) {
    Graph graph = PerturbGraph(db.Get(static_cast<GraphId>(i * 7)), 2,
                               db.num_labels(), &rng);
    ASSERT_TRUE(original.Insert(std::move(graph)).ok());
  }
  ASSERT_TRUE(original.Remove(11).ok());
  ASSERT_TRUE(original.SaveSnapshot(path).ok());

  LanIndex opened(TinyConfig());
  const Status open = opened.OpenSnapshot(path);
  ASSERT_TRUE(open.ok()) << open.ToString();
  EXPECT_TRUE(opened.trained());
  EXPECT_EQ(opened.db().size(), 53);
  EXPECT_EQ(opened.live_size(), original.live_size());
  EXPECT_EQ(opened.epoch(), original.epoch());

  for (RoutingMethod routing :
       {RoutingMethod::kLanRoute, RoutingMethod::kBaselineRoute,
        RoutingMethod::kOracleRoute}) {
    for (InitMethod init :
         {InitMethod::kLanIs, InitMethod::kHnswIs, InitMethod::kRandomIs}) {
      for (size_t i = 0; i < 3; ++i) {
        SearchOptions sopts;
        sopts.k = 5;
        sopts.routing = routing;
        sopts.init = init;
        SearchResult a = original.Search(workload.test[i], sopts);
        SearchResult b = opened.Search(workload.test[i], sopts);
        ASSERT_TRUE(a.status.ok());
        ASSERT_TRUE(b.status.ok());
        EXPECT_EQ(a.results, b.results)
            << RoutingMethodName(routing) << "/" << InitMethodName(init)
            << " query " << i;
        EXPECT_EQ(a.stats.ndc, b.stats.ndc)
            << RoutingMethodName(routing) << "/" << InitMethodName(init)
            << " query " << i;
      }
    }
  }
}

TEST(SnapshotTest, InsertsAfterReopenRewireLikeTheOriginal) {
  // The original index inserts with the pair memo its build filled; the
  // reopened one starts with an empty memo. The memo must be a pure cache
  // (every pair evaluated in one fixed orientation), so both grow the
  // same proximity graph.
  const std::string path = TempPath("insert_twins.lansnap");
  GraphDatabase db;
  LanIndex original(TinyConfig());
  QueryWorkload workload = BuildAndSave(path, 60, &db, &original);
  LanIndex opened(TinyConfig());
  ASSERT_TRUE(opened.OpenSnapshot(path).ok());
  EXPECT_GT(original.insert_stats().pair_memo_entries, 0u);
  EXPECT_EQ(opened.insert_stats().pair_memo_entries, 0u);

  Rng rng(188);
  for (int i = 0; i < 16; ++i) {
    Graph graph = PerturbGraph(db.Get(static_cast<GraphId>((5 * i) % 60)), 2,
                               db.num_labels(), &rng);
    auto a = original.Insert(graph);
    auto b = opened.Insert(std::move(graph));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.value(), b.value());
  }
  const HnswIndex& x = original.hnsw();
  const HnswIndex& y = opened.hnsw();
  ASSERT_EQ(x.NumNodes(), y.NumNodes());
  ASSERT_EQ(x.NumCoreLayers(), y.NumCoreLayers());
  EXPECT_EQ(x.EntryPoint(), y.EntryPoint());
  for (GraphId id = 0; id < x.NumNodes(); ++id) {
    const auto base_x = x.BaseLayer().NeighborSpan(id);
    const auto base_y = y.BaseLayer().NeighborSpan(id);
    ASSERT_TRUE(std::equal(base_x.begin(), base_x.end(), base_y.begin(),
                           base_y.end()))
        << "base-layer list of graph " << id;
    for (int l = 0; l < x.NumCoreLayers(); ++l) {
      const auto row_x = x.CoreRow(l, id);
      const auto row_y = y.CoreRow(l, id);
      ASSERT_TRUE(std::equal(row_x.begin(), row_x.end(), row_y.begin(),
                             row_y.end()))
          << "layer " << l << " list of graph " << id;
    }
  }
  // The reopened index paid for the pairs the original already held.
  EXPECT_GT(opened.insert_stats().pair_distance_calls,
            original.insert_stats().pair_distance_calls);

  SearchOptions sopts;
  sopts.k = 5;
  for (size_t i = 0; i < 3; ++i) {
    SearchResult a = original.Search(workload.test[i], sopts);
    SearchResult b = opened.Search(workload.test[i], sopts);
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_EQ(a.results, b.results) << "query " << i;
  }
}

TEST(SnapshotTest, SaveBeforeBuildFails) {
  LanIndex index(TinyConfig());
  EXPECT_FALSE(index.SaveSnapshot(TempPath("nope.lansnap")).ok());
}

TEST(SnapshotTest, OpenOnBuiltIndexFails) {
  const std::string path = TempPath("built_then_open.lansnap");
  GraphDatabase db;
  LanIndex original(TinyConfig());
  BuildAndSave(path, 30, &db, &original);
  EXPECT_FALSE(original.OpenSnapshot(path).ok());
}

TEST(SnapshotTest, OpenMissingFileReportsPath) {
  LanIndex index(TinyConfig());
  const std::string path = TempPath("does_not_exist.lansnap");
  Status status = index.OpenSnapshot(path);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(path), std::string::npos)
      << status.ToString();
}

// ---------- Corruption matrix ----------

class SnapshotCorruptionTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    path_ = new std::string(TempPath("corruption_base.lansnap"));
    auto* db = new GraphDatabase;
    auto* index = new LanIndex(TinyConfig());
    BuildAndSave(*path_, 40, db, index);
    bytes_ = new std::string(ReadFileBytes(*path_));
    delete index;
    delete db;
  }

  /// Writes `bytes` to a scratch file and asserts the loader fails
  /// cleanly (a Status, not a crash).
  void ExpectRejected(const std::string& bytes, const std::string& what) {
    const std::string path = TempPath("corrupted.lansnap");
    WriteFileBytes(path, bytes);
    LanIndex index(TinyConfig());
    Status status = index.OpenSnapshot(path);
    EXPECT_FALSE(status.ok()) << what;
  }

  static std::string* path_;
  static std::string* bytes_;
};

std::string* SnapshotCorruptionTest::path_ = nullptr;
std::string* SnapshotCorruptionTest::bytes_ = nullptr;

TEST_F(SnapshotCorruptionTest, RejectsWrongMagic) {
  std::string bad = *bytes_;
  bad[0] ^= 0xff;
  ExpectRejected(bad, "flipped magic byte");
}

TEST_F(SnapshotCorruptionTest, RejectsWrongVersion) {
  std::string bad = *bytes_;
  // u32 version sits right after the 8-byte magic.
  bad[8] = 99;
  ExpectRejected(bad, "future version");
}

TEST_F(SnapshotCorruptionTest, RejectsTruncationAtEverySectionBoundary) {
  auto snapshot = Snapshot::Open(*path_);
  ASSERT_TRUE(snapshot.ok());
  for (const SectionInfo& info : snapshot->sections()) {
    // Cut exactly at the section start, and mid-payload.
    ExpectRejected(bytes_->substr(0, info.offset),
                   std::string("truncated before ") +
                       SectionKindName(info.kind));
    ExpectRejected(bytes_->substr(0, info.offset + info.size / 2),
                   std::string("truncated inside ") +
                       SectionKindName(info.kind));
  }
  // Degenerate prefixes of the header itself.
  ExpectRejected("", "empty file");
  ExpectRejected(bytes_->substr(0, 7), "partial magic");
  ExpectRejected(bytes_->substr(0, 63), "partial header");
}

TEST_F(SnapshotCorruptionTest, RejectsBitFlipInEverySection) {
  auto snapshot = Snapshot::Open(*path_);
  ASSERT_TRUE(snapshot.ok());
  for (const SectionInfo& info : snapshot->sections()) {
    std::string bad = *bytes_;
    bad[info.offset + info.size / 2] ^= 0x01;
    ExpectRejected(bad, std::string("bit flip in ") +
                            SectionKindName(info.kind));
  }
}

TEST_F(SnapshotCorruptionTest, RejectsTocTampering) {
  // The TOC starts at the 64-byte-aligned offset recorded in the header;
  // flipping any byte there must trip the TOC checksum.
  std::string bad = *bytes_;
  bad[64] ^= 0x01;
  ExpectRejected(bad, "TOC bit flip");
}

TEST_F(SnapshotCorruptionTest, RejectsTrailingGarbageSize) {
  // file_size in the header no longer matches the actual file.
  std::string bad = *bytes_ + std::string(128, 'x');
  ExpectRejected(bad, "appended garbage");
}

// ---------- Golden fixture ----------

#ifndef LAN_TESTDATA_DIR
#define LAN_TESTDATA_DIR "."
#endif

/// Config used to generate (and interpret) the committed fixture. Scalar
/// kernels + a serial build make regeneration reproducible across hosts.
LanConfig GoldenConfig() {
  LanConfig config = TinyConfig();
  config.num_threads = 1;
  config.hnsw.num_build_threads = 1;
  return config;
}

constexpr int64_t kGoldenGraphs = 40;

std::string GoldenPath() {
  return std::string(LAN_TESTDATA_DIR) + "/golden_index.lansnap";
}

TEST(SnapshotGoldenTest, OpensCommittedFixture) {
  SetActiveSimdLevel(SimdLevel::kScalar);
  LanIndex index(GoldenConfig());
  Status status = index.OpenSnapshot(GoldenPath());
  ASSERT_TRUE(status.ok()) << status.ToString()
                           << " (regenerate with --gtest_filter="
                              "*RegenerateGoldenFixture "
                              "--gtest_also_run_disabled_tests)";
  EXPECT_EQ(index.db().size(), kGoldenGraphs);
  EXPECT_TRUE(index.trained());

  // The stored models and graphs must produce working searches whose
  // distances agree with freshly recomputed GED (format compatibility,
  // robust to cross-compiler float differences in training).
  GedComputer exact_ged(GoldenConfig().query_ged);
  WorkloadOptions wopts;
  wopts.num_queries = 6;
  QueryWorkload workload = SampleWorkload(index.db(), wopts, 191);
  SearchOptions sopts;
  sopts.k = 5;
  for (size_t i = 0; i < 2; ++i) {
    SearchResult result = index.Search(workload.train[i], sopts);
    ASSERT_TRUE(result.status.ok());
    ASSERT_EQ(result.results.size(), 5u);
    double prev = -1.0;
    for (const auto& [id, d] : result.results) {
      ASSERT_GE(id, 0);
      ASSERT_LT(id, index.db().size());
      EXPECT_GE(d, prev);
      prev = d;
      EXPECT_NEAR(exact_ged.Distance(workload.train[i], index.db().Get(id)),
                  d, 1e-9);
    }
  }

  // The container itself: every expected section present.
  auto snapshot = Snapshot::Open(GoldenPath());
  ASSERT_TRUE(snapshot.ok());
  for (SectionKind kind :
       {SectionKind::kMeta, SectionKind::kGraphs, SectionKind::kEmbeddings,
        SectionKind::kClusters, SectionKind::kCgs, SectionKind::kHnsw,
        SectionKind::kModels}) {
    EXPECT_TRUE(snapshot->Has(kind)) << SectionKindName(kind);
  }
}

/// Manual fixture regeneration (run after an intentional format change):
///   snapshot_test --gtest_filter='*RegenerateGoldenFixture' \
///       --gtest_also_run_disabled_tests
TEST(SnapshotGoldenTest, DISABLED_RegenerateGoldenFixture) {
  SetActiveSimdLevel(SimdLevel::kScalar);
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(kGoldenGraphs), 7);
  WorkloadOptions wopts;
  wopts.num_queries = 10;
  QueryWorkload workload = SampleWorkload(db, wopts, 8);
  LanIndex index(GoldenConfig());
  ASSERT_TRUE(index.Build(&db).ok());
  ASSERT_TRUE(index.Train(workload.train).ok());
  Status status = index.SaveSnapshot(GoldenPath());
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::printf("golden fixture written to %s\n", GoldenPath().c_str());
}

// ---------- Sharded directory snapshots ----------

TEST(ShardedSnapshotTest, RoundTripMatchesSearches) {
  const std::string dir = TempPath("sharded_snap");
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(60), 201);
  WorkloadOptions wopts;
  wopts.num_queries = 12;
  QueryWorkload workload = SampleWorkload(db, wopts, 202);

  ShardedIndexOptions options;
  options.num_shards = 3;
  options.shard_config = TinyConfig();
  ShardedLanIndex original(options);
  ASSERT_TRUE(original.Build(db).ok());
  ASSERT_TRUE(original.Train(workload.train).ok());
  ASSERT_TRUE(original.SaveSnapshot(dir).ok());

  ShardedLanIndex opened(options);
  ASSERT_TRUE(opened.OpenSnapshot(dir).ok());
  EXPECT_EQ(opened.num_shards(), original.num_shards());
  EXPECT_EQ(opened.total_size(), original.total_size());
  for (int s = 0; s < opened.num_shards(); ++s) {
    ASSERT_EQ(opened.shard(s).db().size(), original.shard(s).db().size());
    for (GraphId local = 0; local < opened.shard(s).db().size(); ++local) {
      EXPECT_EQ(opened.GlobalId(s, local), original.GlobalId(s, local));
    }
  }
  for (size_t i = 0; i < 3; ++i) {
    SearchOptions sopts;
    sopts.k = 6;
    SearchResult a = original.Search(workload.test[i], sopts);
    SearchResult b = opened.Search(workload.test[i], sopts);
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_EQ(a.results, b.results) << "query " << i;
  }

  // The reopened index stays mutable: insert routes to the smallest
  // shard and gets the next global id.
  auto inserted = opened.Insert(db.Get(0));
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(inserted.value(), db.size());
}

TEST(ShardedSnapshotTest, SaveBeforeBuildFails) {
  ShardedIndexOptions options;
  options.shard_config = TinyConfig();
  ShardedLanIndex sharded(options);
  EXPECT_FALSE(sharded.SaveSnapshot(TempPath("sharded_nope")).ok());
}

/// Helpers to craft a hostile manifest over an otherwise valid shard
/// directory: each entry is (file name, global ids).
void WriteManifest(
    const std::string& dir, int32_t shards, int64_t total,
    const std::vector<std::pair<std::string, std::vector<GraphId>>>& entries) {
  SnapshotWriter writer;
  SectionBuilder* b = writer.AddSection(SectionKind::kShardManifest);
  b->Pod<int32_t>(shards);
  b->Pod<int64_t>(total);
  for (const auto& [file, ids] : entries) {
    b->Pod<int64_t>(static_cast<int64_t>(file.size()));
    b->Bytes(file.data(), file.size());
    b->Pod<int64_t>(static_cast<int64_t>(ids.size()));
    b->Array(ids.data(), ids.size());
  }
  ASSERT_TRUE(writer.WriteToFile(dir + "/manifest.lansnap").ok());
}

class ShardedManifestTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = TempPath("sharded_manifest");
    db_ = GenerateDatabase(DatasetSpec::SynLike(20), 211);
    ShardedIndexOptions options;
    options.num_shards = 2;
    options.shard_config = TinyConfig();
    ShardedLanIndex original(options);
    ASSERT_TRUE(original.Build(db_).ok());
    ASSERT_TRUE(original.SaveSnapshot(dir_).ok());
  }

  void ExpectOpenFails(const std::string& needle) {
    ShardedIndexOptions options;
    options.num_shards = 2;
    options.shard_config = TinyConfig();
    ShardedLanIndex opened(options);
    Status status = opened.OpenSnapshot(dir_);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find(needle), std::string::npos)
        << status.ToString();
  }

  /// Round-robin ids for shard `s` of 2 over 20 graphs.
  static std::vector<GraphId> ShardIds(int s) {
    std::vector<GraphId> ids;
    for (GraphId g = s; g < 20; g += 2) ids.push_back(g);
    return ids;
  }

  std::string dir_;
  GraphDatabase db_;
};

TEST_F(ShardedManifestTest, RejectsDuplicateGlobalIds) {
  auto shard0 = ShardIds(0);
  auto shard1 = ShardIds(1);
  shard1[0] = shard0[0];  // id 0 now claimed by both shards
  WriteManifest(dir_, 2, 20,
                {{"shard-000.lansnap", shard0}, {"shard-001.lansnap", shard1}});
  ExpectOpenFails("duplicate global id");
}

TEST_F(ShardedManifestTest, RejectsOutOfRangeGlobalIds) {
  auto shard1 = ShardIds(1);
  shard1.back() = 999;
  WriteManifest(dir_, 2, 20,
                {{"shard-000.lansnap", ShardIds(0)},
                 {"shard-001.lansnap", shard1}});
  ExpectOpenFails("outside");
}

TEST_F(ShardedManifestTest, RejectsIncompleteCoverage) {
  auto shard1 = ShardIds(1);
  shard1.pop_back();
  WriteManifest(dir_, 2, 20,
                {{"shard-000.lansnap", ShardIds(0)},
                 {"shard-001.lansnap", shard1}});
  // Either the coverage check or the shard-size cross-check must fire.
  ShardedIndexOptions options;
  options.num_shards = 2;
  options.shard_config = TinyConfig();
  ShardedLanIndex opened(options);
  EXPECT_FALSE(opened.OpenSnapshot(dir_).ok());
}

TEST_F(ShardedManifestTest, RejectsPathEscapeInShardFileName) {
  WriteManifest(dir_, 2, 20,
                {{"../shard-000.lansnap", ShardIds(0)},
                 {"shard-001.lansnap", ShardIds(1)}});
  ExpectOpenFails("invalid shard file name");
}

TEST_F(ShardedManifestTest, RejectsMissingManifest) {
  ASSERT_EQ(std::remove((dir_ + "/manifest.lansnap").c_str()), 0);
  ShardedIndexOptions options;
  options.num_shards = 2;
  options.shard_config = TinyConfig();
  ShardedLanIndex opened(options);
  EXPECT_FALSE(opened.OpenSnapshot(dir_).ok());
}

// ---------- Legacy checkpoint shim ----------

TEST(LegacyCheckpointTest, SaveIndexNowWritesSnapshotContainer) {
  const std::string path = TempPath("legacy_checkpoint.bin");
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(40), 221);
  LanIndex original(TinyConfig());
  ASSERT_TRUE(original.Build(&db).ok());
  ASSERT_TRUE(original.SaveIndexToFile(path).ok());

  // The legacy checkpoint rides on the snapshot container now...
  auto snapshot = Snapshot::Open(path);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot->Has(SectionKind::kMeta));
  EXPECT_TRUE(snapshot->Has(SectionKind::kHnsw));

  // ...and still round-trips through the legacy entry point against the
  // original database.
  LanIndex restored(TinyConfig());
  ASSERT_TRUE(restored.BuildFromSavedIndexFile(&db, path).ok());
  WorkloadOptions wopts;
  wopts.num_queries = 6;
  QueryWorkload workload = SampleWorkload(db, wopts, 222);
  SearchOptions sopts;
  sopts.k = 4;
  sopts.routing = RoutingMethod::kBaselineRoute;
  sopts.init = InitMethod::kHnswIs;
  SearchResult a = original.Search(workload.train[0], sopts);
  SearchResult b = restored.Search(workload.train[0], sopts);
  EXPECT_EQ(a.results, b.results);

  // A view-only checkpoint (meta + hnsw) is not a full snapshot: the
  // self-contained loader must refuse it rather than crash.
  LanIndex full(TinyConfig());
  EXPECT_FALSE(full.OpenSnapshot(path).ok());
}

}  // namespace
}  // namespace lan
