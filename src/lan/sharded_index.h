#ifndef LAN_LAN_SHARDED_INDEX_H_
#define LAN_LAN_SHARDED_INDEX_H_

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "lan/lan_index.h"

namespace lan {

/// \brief Sharded LAN configuration.
struct ShardedIndexOptions {
  /// Number of equal-size sub-databases.
  int num_shards = 4;
  /// Configuration applied to every shard's LanIndex (seeds are offset
  /// per shard).
  LanConfig shard_config;
};

/// \brief Sharded k-ANN over large databases: the dataset is split into
/// equal-size sub-databases, each carrying its own LanIndex; a query runs
/// on every shard and the per-shard answers merge into a global top-k.
///
/// This is the protocol behind the paper's Fig. 9 scalability experiment
/// ("we randomly split the dataset into equal-size sub-datasets and
/// sequentially perform k-ANN search on each sub-dataset") and a building
/// block for the distributed search the paper names as future work —
/// shards are independent, so they can live on different machines.
///
/// Online updates mirror LanIndex: Insert() routes each new graph to the
/// shard with the fewest live graphs, Remove() tombstones it in its owning
/// shard, and Search never blocks on the writer (per-shard epoch pinning
/// plus an atomically published global-id map).
class ShardedLanIndex {
 public:
  explicit ShardedLanIndex(ShardedIndexOptions options);
  ~ShardedLanIndex();

  ShardedLanIndex(const ShardedLanIndex&) = delete;
  ShardedLanIndex& operator=(const ShardedLanIndex&) = delete;

  /// Round-robin partitions `db` into shards and builds each shard index.
  /// The source database may be discarded afterwards (shards own copies).
  Status Build(const GraphDatabase& db);

  /// Trains every shard's models from the (shared) training queries.
  Status Train(const std::vector<Graph>& train_queries);

  /// Persists the whole sharded index as a snapshot directory: one
  /// `shard-NNN.lansnap` per shard (see LanIndex::SaveSnapshot) plus a
  /// `manifest.lansnap` — itself a snapshot file whose single
  /// kShardManifest section records the shard count, total size, and each
  /// shard's file name + global-id map. The directory is created if
  /// missing. Serialized against Insert/Remove, so the manifest is
  /// consistent with every shard file.
  Status SaveSnapshot(const std::string& dir) const;

  /// Restores a sharded index written by SaveSnapshot on a fresh
  /// (un-Built) instance: opens every shard zero-copy via
  /// LanIndex::OpenSnapshot (per-shard configs re-derived from
  /// options_.shard_config exactly as Build derives them) and rebuilds
  /// the id maps from the manifest. Rejects manifests whose global ids
  /// are out of range, duplicated, or inconsistent with a shard's size.
  /// The manifest's shard count overrides options_.num_shards.
  Status OpenSnapshot(const std::string& dir);

  /// Online insert: the graph joins the shard with the fewest live graphs
  /// (keeps shards balanced as the database grows) and gets the next
  /// global id. Serialized against other mutations; concurrent searches
  /// are never blocked. Returns the global id.
  Result<GraphId> Insert(Graph graph);

  /// Online remove by global id: tombstones the graph in its owning shard
  /// (see LanIndex::Remove for the epoch semantics).
  Status Remove(GraphId global_id);

  /// The search entry point (matches LanIndex::Search): runs `options` on
  /// the first `max_shards` shards (<= 0: all shards) and merges the
  /// per-shard answers into a global top-k. Result ids are global ids of
  /// the original database; stats are summed across shards. A trace sink
  /// sees one kShard event before each shard's events; a failing shard
  /// stops the scan and its error lands in SearchResult::status.
  SearchResult Search(const Graph& query, const SearchOptions& options,
                      int max_shards = 0) const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const LanIndex& shard(int i) const { return *shards_[static_cast<size_t>(i)]; }

  /// Sum of every shard's result-cache lifetime stats, per store (all-zero
  /// when the shards run without a cache).
  ResultCacheStats CacheStats() const;
  /// Emits the aggregated `cache.*` metrics (including the cache.hit_rate
  /// gauge and the per-store series) across all shards on `registry` — the
  /// sharded analogue of ResultCache::AppendMetrics, so batch callers
  /// export hit rates instead of parsing per-shard stdout summaries. When
  /// `baseline` is non-null the counters report the delta since it was
  /// captured.
  void AppendCacheMetrics(MetricsRegistry* registry,
                          const ResultCacheStats* baseline = nullptr) const;
  GraphId total_size() const {
    const auto maps = Maps();
    return maps != nullptr ? maps->total_size : 0;
  }
  /// Live (non-tombstoned) graphs across all shards.
  GraphId live_size() const;
  /// Serving epoch of the sharded index: the max over shard epochs (each
  /// shard versions independently; the max advances on every mutation).
  uint64_t epoch() const;

  /// Global id of shard-local graph `local` in shard `shard_index`.
  GraphId GlobalId(int shard_index, GraphId local) const {
    return Maps()->global_ids[static_cast<size_t>(shard_index)]
                             [static_cast<size_t>(local)];
  }

 private:
  /// Append-only id translation, copy-on-write published so searches read
  /// it lock-free. A writer publishes the grown map BEFORE inserting into
  /// the shard, so any local id a search can observe in shard results is
  /// already mapped (the shard's snapshot publish orders the map publish
  /// before it).
  struct ShardMaps {
    /// global_ids[s][local] = id in the original database.
    std::vector<std::vector<GraphId>> global_ids;
    /// owner[global] = {shard, local id} (for Remove routing).
    std::vector<std::pair<int, GraphId>> owner;
    GraphId total_size = 0;
  };

  std::shared_ptr<const ShardMaps> Maps() const;
  void PublishMaps(std::shared_ptr<const ShardMaps> maps);

  /// Per-shard LanConfig derivation (seed offset, cache slice, thread
  /// split across `concurrent` simultaneous shard builds/opens). Shared
  /// by Build and OpenSnapshot so a reopened shard gets bit-identical
  /// configuration.
  LanConfig ShardConfig(int s, int shards, size_t concurrent) const;

  ShardedIndexOptions options_;
  std::vector<GraphDatabase> shard_dbs_;
  std::vector<std::unique_ptr<LanIndex>> shards_;
  std::shared_ptr<const ShardMaps> maps_;
  /// Serializes Insert/Remove across shards.
  mutable std::mutex writer_mu_;
};

}  // namespace lan

#endif  // LAN_LAN_SHARDED_INDEX_H_
