// Stress test for the epoch-versioned index's central concurrency claim:
// one writer mutating (Insert/Remove) while several searchers serve, with
// searches never observing a torn state. Every returned id must have been
// live at the search's pinned epoch, which the test checks against a
// mutation schedule the writer publishes through atomics that are ordered
// before the corresponding snapshot publication. Run under the asan and
// tsan presets (ctest -L concurrency); TSan sees real concurrent
// Search/Insert interleavings here, so a missing fence is a failure, not
// a flake.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/graph_generator.h"
#include "lan/ground_truth.h"
#include "lan/lan_index.h"

namespace lan {
namespace {

LanConfig StressConfig() {
  LanConfig config;
  config.hnsw.M = 4;
  config.hnsw.ef_construction = 12;
  config.query_ged.approximate_only = true;
  config.query_ged.beam_width = 0;
  config.scorer.gnn_dims = {8, 8};
  config.scorer.mlp_hidden = 8;
  config.cluster.epochs = 5;
  config.embedding.dim = 16;
  config.default_beam = 8;
  config.num_threads = 2;
  return config;
}

TEST(ConcurrencyStressTest, SearchersServeConsistentEpochsUnderMutation) {
  constexpr GraphId kInitial = 60;
  constexpr int kMutations = 60;  // alternating insert/remove
  constexpr int kSearchers = 4;
  constexpr GraphId kCapacity = kInitial + kMutations;  // upper bound on ids

  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(kInitial), 81);
  LanIndex index(StressConfig());
  ASSERT_TRUE(index.Build(&db).ok());

  // Mutation schedule, readable by searchers without locks. The writer
  // stores an id's epoch BEFORE performing the mutation, and the snapshot
  // publish/pin (release/acquire) orders that store before any search
  // that can observe the mutation — so a searcher holding epoch e reads
  // add_epoch[id] <= e for every id in its results, and a remove_epoch
  // either > e or not yet visible (both meaning "live at e").
  std::vector<std::atomic<uint64_t>> add_epoch(
      static_cast<size_t>(kCapacity));
  std::vector<std::atomic<uint64_t>> remove_epoch(
      static_cast<size_t>(kCapacity));
  for (size_t i = 0; i < add_epoch.size(); ++i) {
    add_epoch[i].store(i < static_cast<size_t>(kInitial)
                           ? 0
                           : std::numeric_limits<uint64_t>::max(),
                       std::memory_order_relaxed);
    remove_epoch[i].store(std::numeric_limits<uint64_t>::max(),
                          std::memory_order_relaxed);
  }

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::atomic<int> searches{0};

  std::vector<Graph> queries;
  Rng qgen(82);
  for (int i = 0; i < 8; ++i) {
    queries.push_back(PerturbGraph(
        db.Get(static_cast<GraphId>(qgen.NextBounded(kInitial))), 2,
        db.num_labels(), &qgen));
  }

  std::vector<std::thread> searchers;
  searchers.reserve(kSearchers);
  for (int t = 0; t < kSearchers; ++t) {
    searchers.emplace_back([&, t] {
      SearchOptions options;
      options.k = 5;
      options.routing = RoutingMethod::kBaselineRoute;
      options.init = InitMethod::kHnswIs;
      size_t next = static_cast<size_t>(t);
      while (!done.load(std::memory_order_acquire)) {
        const Graph& query = queries[next++ % queries.size()];
        SearchResult result = index.Search(query, options);
        if (!result.status.ok()) {
          violations.fetch_add(1);
          continue;
        }
        for (const auto& [id, distance] : result.results) {
          const bool in_range = id >= 0 && id < kCapacity;
          const bool added = in_range &&
                             add_epoch[static_cast<size_t>(id)].load(
                                 std::memory_order_acquire) <= result.epoch;
          const bool still_live =
              in_range && remove_epoch[static_cast<size_t>(id)].load(
                              std::memory_order_acquire) > result.epoch;
          if (!in_range || !added || !still_live) violations.fetch_add(1);
        }
        searches.fetch_add(1);
      }
    });
  }

  // Single writer: alternate insert and remove; epochs advance one per
  // mutation, so mutation m publishes epoch m+1. Failures break out
  // (instead of asserting mid-flight) so the searchers always get joined.
  Rng wrng(83);
  std::vector<GraphId> live;
  for (GraphId id = 0; id < kInitial; ++id) live.push_back(id);
  int writer_failures = 0;
  for (int m = 0; m < kMutations; ++m) {
    const uint64_t epoch = static_cast<uint64_t>(m) + 1;
    if (m % 2 == 0) {
      const GraphId base =
          live[static_cast<size_t>(wrng.NextBounded(live.size()))];
      Graph graph = PerturbGraph(db.Get(base), 2, db.num_labels(), &wrng);
      const GraphId id = db.size();
      add_epoch[static_cast<size_t>(id)].store(epoch,
                                               std::memory_order_release);
      auto inserted = index.Insert(std::move(graph));
      if (!inserted.ok() || inserted.value() != id) {
        ++writer_failures;
        break;
      }
      live.push_back(id);
    } else {
      const size_t pick = static_cast<size_t>(wrng.NextBounded(live.size()));
      const GraphId id = live[pick];
      remove_epoch[static_cast<size_t>(id)].store(epoch,
                                                  std::memory_order_release);
      if (!index.Remove(id).ok()) {
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
  EXPECT_EQ(index.epoch(), static_cast<uint64_t>(kMutations));
  EXPECT_EQ(index.live_size(), kInitial);  // equal inserts and removes

  // Frozen final state: searches must still track brute force over the
  // live survivors.
  GedComputer ged(StressConfig().query_ged);
  SearchOptions options;
  options.k = 5;
  options.beam = 16;
  options.routing = RoutingMethod::kBaselineRoute;
  options.init = InitMethod::kHnswIs;
  double recall = 0.0;
  const int kRecallQueries = 5;
  for (int q = 0; q < kRecallQueries; ++q) {
    const Graph& query = queries[static_cast<size_t>(q)];
    KnnList truth;
    for (GraphId id = 0; id < db.size(); ++id) {
      if (!db.IsLive(id)) continue;
      truth.emplace_back(id, ged.Distance(query, db.Get(id)));
    }
    std::sort(truth.begin(), truth.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second < b.second;
                return a.first < b.first;
              });
    SearchResult result = index.Search(query, options);
    ASSERT_TRUE(result.status.ok());
    recall += RecallAtK(result.results, truth, options.k);
  }
  EXPECT_GE(recall / kRecallQueries, 0.6);
}

TEST(ConcurrencyStressTest, InsertBesideSearchBatchOnTheSamePool) {
  // The writer's candidate distances and SearchBatch's queries share the
  // index pool. Each ParallelFor waits only for its own iterations, so
  // neither side waits on the other, and the insert's topology does not
  // depend on how the pool was shared: it matches a twin that inserts
  // the same graphs with no parallelism at all.
  constexpr GraphId kInitial = 50;
  constexpr int kInserts = 12;
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(kInitial), 84);
  GraphDatabase twin_db = db;
  LanConfig config = StressConfig();
  config.num_threads = 3;
  LanIndex index(config);
  ASSERT_TRUE(index.Build(&db).ok());
  LanConfig serial_config = StressConfig();
  serial_config.num_threads = 1;
  LanIndex twin(serial_config);
  ASSERT_TRUE(twin.Build(&twin_db).ok());

  std::vector<Graph> queries;
  std::vector<Graph> inserts;
  Rng gen(85);
  for (int i = 0; i < 6; ++i) {
    queries.push_back(PerturbGraph(db.Get(static_cast<GraphId>(3 * i)), 2,
                                   db.num_labels(), &gen));
  }
  for (int i = 0; i < kInserts; ++i) {
    inserts.push_back(PerturbGraph(db.Get(static_cast<GraphId>(4 * i)), 2,
                                   db.num_labels(), &gen));
  }

  std::atomic<bool> done{false};
  std::atomic<int> failed_queries{0};
  std::atomic<int> batches{0};
  std::thread searcher([&] {
    SearchOptions options;
    options.k = 5;
    options.routing = RoutingMethod::kBaselineRoute;
    options.init = InitMethod::kHnswIs;
    while (!done.load(std::memory_order_acquire) || batches.load() == 0) {
      BatchSearchResult batch = index.SearchBatch(queries, options);
      for (const SearchResult& r : batch.results) {
        if (!r.status.ok() || r.results.empty()) failed_queries.fetch_add(1);
      }
      batches.fetch_add(1);
    }
  });
  int writer_failures = 0;
  for (const Graph& graph : inserts) {
    if (!index.Insert(graph).ok()) ++writer_failures;
  }
  done.store(true, std::memory_order_release);
  searcher.join();

  for (const Graph& graph : inserts) ASSERT_TRUE(twin.Insert(graph).ok());
  EXPECT_EQ(writer_failures, 0);
  EXPECT_EQ(failed_queries.load(), 0);
  EXPECT_GT(batches.load(), 0);
  ASSERT_EQ(index.pg().NumNodes(), kInitial + kInserts);
  for (GraphId id = 0; id < index.pg().NumNodes(); ++id) {
    const auto a = index.pg().NeighborSpan(id);
    const auto b = twin.pg().NeighborSpan(id);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "graph " << id;
  }
  EXPECT_EQ(index.insert_stats().pair_distance_calls,
            twin.insert_stats().pair_distance_calls);
}

}  // namespace
}  // namespace lan
