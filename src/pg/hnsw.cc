#include "pg/hnsw.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <cstring>
#include <sys/mman.h>
#include <istream>
#include <ostream>

#include "common/logging.h"
#include "common/prefetch.h"

namespace lan {
namespace {

/// Draws one construction level (the standard -ln(u)/ln(M) assignment).
/// Both batch Build and incremental Insert draw through this, one call per
/// node in id order, so a fixed seed yields a fixed level sequence.
int DrawLevel(Rng* rng, const HnswOptions& options) {
  const double level_mult = 1.0 / std::log(std::max(2, options.M));
  const double u = std::max(rng->NextDouble(), 1e-12);
  return static_cast<int>(-std::log(u) * level_mult);
}

/// The per-node insertion step over a construction-form HnswCore: greedy
/// upper-layer descent, ef-search per layer, diversity-heuristic neighbor
/// selection. One mutator instance serves a whole batch build; pair
/// distances go through a PairDistanceMemo, which the public Insert takes
/// from its caller so that it persists across writes.
class HnswMutator {
 public:
  HnswMutator(HnswCore* core, HnswIndex::PairDistanceFn distance,
              const HnswOptions& options, ThreadPool* pool,
              PairDistanceMemo* memo)
      : core_(core), distance_fn_(std::move(distance)), options_(options),
        pool_(pool), memo_(memo) {}

  /// d({a, b}), always evaluated as fn(max, min): which pairs the memo
  /// already holds must not change a value, and the distance may be
  /// asymmetric.
  double Distance(GraphId a, GraphId b) {
    if (a == b) return 0.0;
    double d;
    if (memo_->Find(a, b, &d)) return d;
    d = distance_fn_(std::max(a, b), std::min(a, b));
    memo_->Put(a, b, d);
    return d;
  }

  /// Distances from `target` to many distinct nodes, evaluated on the pool
  /// when there is one. Results land in the memo. ParallelFor waits only
  /// for these evaluations, never for other work sharing the pool, and
  /// runs inline when called from one of the pool's own workers.
  void BulkDistance(GraphId target, const std::vector<GraphId>& others) {
    missing_.clear();
    double unused;
    for (GraphId o : others) {
      if (o != target && !memo_->Find(target, o, &unused)) {
        missing_.push_back(o);
      }
    }
    if (missing_.size() < 2 || pool_ == nullptr) {
      for (GraphId o : missing_) Distance(target, o);
      return;
    }
    results_.resize(missing_.size());
    pool_->ParallelFor(missing_.size(), [this, target](size_t i) {
      const GraphId o = missing_[i];
      results_[i] = distance_fn_(std::max(target, o), std::min(target, o));
    });
    for (size_t i = 0; i < missing_.size(); ++i) {
      memo_->Put(target, missing_[i], results_[i]);
    }
  }

  /// Inserts node `id` (== current node count) at construction level
  /// `level`: grows the layered adjacency, descends greedily through the
  /// layers above `level`, then connects via ef-search at each layer from
  /// min(level, top) down to the base.
  void Insert(GraphId id, int level) {
    const int max_level = TopLevel();
    core_->num_nodes = id + 1;
    core_->node_level.resize(static_cast<size_t>(id) + 1, 0);
    core_->node_level[static_cast<size_t>(id)] = level;
    while (static_cast<int>(core_->adjacency.size()) <= level) {
      core_->adjacency.emplace_back();
    }
    for (auto& layer : core_->adjacency) {
      layer.resize(static_cast<size_t>(id) + 1);
    }
    if (core_->entry == kInvalidGraphId) {
      core_->entry = id;
      return;
    }

    GraphId curr = core_->entry;
    // Greedy descent through layers above the new node's level.
    for (int l = max_level; l > level; --l) {
      curr = GreedyStep(id, curr, l);
    }
    // Connect at each layer from min(level, max_level) down to 0.
    for (int l = std::min(level, max_level); l >= 0; --l) {
      std::vector<std::pair<double, GraphId>> candidates =
          SearchLayer(id, curr, options_.ef_construction, l);
      const int cap = (l == 0) ? 2 * options_.M : options_.M;
      const size_t keep =
          std::min(candidates.size(), static_cast<size_t>(cap));
      for (size_t i = 0; i < keep; ++i) {
        Connect(id, candidates[i].second, l, cap);
      }
      if (!candidates.empty()) curr = candidates[0].second;
    }
    if (level > max_level) core_->entry = id;
  }

  /// Collects the ids whose base-layer neighbors this mutator rewires
  /// (Connect endpoints, and ids that lost their only edge to one of them
  /// to Shrink). Duplicates are not filtered.
  void set_touched_collector(std::vector<GraphId>* touched) {
    touched_ = touched;
  }

 private:
  /// Level of the current entry layer (-1 on an empty core).
  int TopLevel() const {
    return static_cast<int>(core_->adjacency.size()) - 1;
  }

  std::vector<GraphId>& Neighbors(int layer, GraphId node) {
    return core_->adjacency[static_cast<size_t>(layer)]
                           [static_cast<size_t>(node)];
  }

  GraphId GreedyStep(GraphId target, GraphId start, int layer) {
    GraphId curr = start;
    double curr_d = Distance(target, curr);
    for (;;) {
      const auto& neighbors = Neighbors(layer, curr);
      BulkDistance(target, neighbors);
      GraphId best = curr;
      double best_d = curr_d;
      for (GraphId n : neighbors) {
        const double d = Distance(target, n);
        if (d < best_d) {
          best = n;
          best_d = d;
        }
      }
      if (best == curr) return curr;
      curr = best;
      curr_d = best_d;
    }
  }

  /// ef-search in one layer; returns (distance, id) ascending.
  std::vector<std::pair<double, GraphId>> SearchLayer(GraphId target,
                                                      GraphId start, int ef,
                                                      int layer) {
    using Item = std::pair<double, GraphId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> frontier;
    std::priority_queue<Item> best;  // max-heap, size <= ef
    std::unordered_set<GraphId> visited;

    const double d0 = Distance(target, start);
    frontier.emplace(d0, start);
    best.emplace(d0, start);
    visited.insert(start);

    while (!frontier.empty()) {
      const auto [d, node] = frontier.top();
      frontier.pop();
      if (d > best.top().first && best.size() >= static_cast<size_t>(ef)) {
        break;
      }
      std::vector<GraphId> todo;
      for (GraphId n : Neighbors(layer, node)) {
        if (visited.insert(n).second) todo.push_back(n);
      }
      BulkDistance(target, todo);
      for (GraphId n : todo) {
        const double dn = Distance(target, n);
        if (best.size() < static_cast<size_t>(ef) || dn < best.top().first) {
          frontier.emplace(dn, n);
          best.emplace(dn, n);
          if (best.size() > static_cast<size_t>(ef)) best.pop();
        }
      }
    }
    std::vector<Item> out;
    out.reserve(best.size());
    while (!best.empty()) {
      out.push_back(best.top());
      best.pop();
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  void Connect(GraphId a, GraphId b, int layer, int cap) {
    auto& la = Neighbors(layer, a);
    auto& lb = Neighbors(layer, b);
    if (std::find(la.begin(), la.end(), b) == la.end()) la.push_back(b);
    if (std::find(lb.begin(), lb.end(), a) == lb.end()) lb.push_back(a);
    if (layer != 0 || touched_ == nullptr) {
      Shrink(&la, a, cap);
      Shrink(&lb, b, cap);
      return;
    }
    // Base-layer rewiring is what invalidates cached routing state. The
    // endpoints gain an edge. The routing view (BaseLayer) is undirected,
    // so an id Shrink drops from x's list loses its edge to x only when
    // its own list does not hold x as well.
    touched_->push_back(a);
    touched_->push_back(b);
    for (GraphId x : {a, b}) {
      dropped_.clear();
      Shrink(&Neighbors(0, x), x, cap, &dropped_);
      for (GraphId g : dropped_) {
        const std::vector<GraphId>& lg = Neighbors(0, g);
        if (std::find(lg.begin(), lg.end(), x) == lg.end()) {
          touched_->push_back(g);
        }
      }
    }
  }

  /// Keeps only `cap` neighbors of `node`: the closest ones, or (with the
  /// heuristic) a diversity-filtered subset per Malkov & Yashunin — a
  /// candidate is kept only if it is closer to `node` than to every
  /// already-kept neighbor, so kept edges spread across clusters instead
  /// of all pointing into one. When `dropped` is non-null it receives the
  /// removed neighbors.
  void Shrink(std::vector<GraphId>* list, GraphId node, int cap,
              std::vector<GraphId>* dropped = nullptr) {
    if (list->size() <= static_cast<size_t>(cap)) return;
    std::sort(list->begin(), list->end(), [&](GraphId x, GraphId y) {
      const double dx = Distance(node, x);
      const double dy = Distance(node, y);
      if (dx != dy) return dx < dy;
      return x < y;
    });
    if (!options_.select_neighbors_heuristic) {
      if (dropped != nullptr) {
        dropped->assign(list->begin() + cap, list->end());
      }
      list->resize(static_cast<size_t>(cap));
      return;
    }
    std::vector<GraphId> kept;
    std::vector<GraphId> spilled;
    for (GraphId candidate : *list) {
      if (kept.size() >= static_cast<size_t>(cap)) break;
      const double d_node = Distance(node, candidate);
      bool diverse = true;
      for (GraphId existing : kept) {
        if (Distance(candidate, existing) < d_node) {
          diverse = false;
          break;
        }
      }
      if (diverse) {
        kept.push_back(candidate);
      } else {
        spilled.push_back(candidate);
      }
    }
    // Backfill with the nearest rejected candidates (keepPrunedConnections).
    for (GraphId candidate : spilled) {
      if (kept.size() >= static_cast<size_t>(cap)) break;
      kept.push_back(candidate);
    }
    if (dropped != nullptr) {
      for (GraphId g : *list) {
        if (std::find(kept.begin(), kept.end(), g) == kept.end()) {
          dropped->push_back(g);
        }
      }
    }
    *list = std::move(kept);
  }

  HnswCore* core_;
  HnswIndex::PairDistanceFn distance_fn_;
  const HnswOptions& options_;
  ThreadPool* pool_;
  PairDistanceMemo* memo_;
  std::vector<GraphId>* touched_ = nullptr;
  std::vector<GraphId> dropped_;  // Connect's per-Shrink scratch
  std::vector<GraphId> missing_;  // BulkDistance scratch
  std::vector<double> results_;
};

/// Concurrent batch construction over a pre-sized HnswCore, hnswlib/SVS
/// style: levels are pre-drawn (so the seed's level stream matches the
/// serial builder's), every node owns a mutex guarding its neighbor lists
/// at all layers, and insertions run in parallel, each locking at most one
/// node at a time (read-copy a list under its node's lock; connect/shrink
/// a and b under their own locks in turn) — so no lock ordering is needed
/// and no deadlock is possible. The entry point and its level live under
/// one extra mutex.
///
/// Run with one worker it performs the exact same distance comparisons in
/// the exact same order as HnswMutator, so the topology matches the serial
/// build bit-for-bit; with more workers insertions interleave and the
/// topology is only statistically equivalent (validated by recall parity).
class ParallelHnswBuilder {
 public:
  ParallelHnswBuilder(HnswCore* core,
                      const HnswIndex::PairDistanceFn& distance,
                      const HnswOptions& options)
      : core_(core), distance_fn_(distance), options_(options) {}

  /// Builds the whole core from pre-drawn per-id levels. `num_threads` is
  /// the parallelism; the pool's resident workers are reused only when its
  /// width matches, so an explicit `num_build_threads` request always wins
  /// over whatever pool the caller happens to hold.
  void Build(const std::vector<int>& levels, size_t num_threads,
             ThreadPool* pool) {
    const GraphId n = static_cast<GraphId>(levels.size());
    // Pre-size all shared arrays: workers index, never grow, so the only
    // mutable shared state is the neighbor lists the per-node locks guard.
    core_->num_nodes = n;
    core_->node_level = levels;
    const int top = *std::max_element(levels.begin(), levels.end());
    core_->adjacency.assign(static_cast<size_t>(top) + 1, {});
    for (auto& layer : core_->adjacency) {
      layer.resize(static_cast<size_t>(n));
    }
    locks_ = std::make_unique<std::mutex[]>(static_cast<size_t>(n));
    // Node 0 seeds the graph exactly as in the serial loop: it becomes the
    // entry with no connections (nothing to connect to yet).
    core_->entry = 0;
    entry_level_ = levels[0];
    const auto insert_one = [this](size_t i) {
      InsertOne(static_cast<GraphId>(i) + 1);
    };
    if (pool != nullptr && pool->num_threads() == num_threads) {
      pool->ParallelFor(static_cast<size_t>(n) - 1, insert_one);
    } else {
      ThreadPool::ParallelFor(static_cast<size_t>(n) - 1, num_threads,
                              insert_one);
    }
  }

  /// Hands every pair distance the build computed to `memo`.
  void FoldInto(PairDistanceMemo* memo) const {
    for (size_t i = 0; i < kCacheShards; ++i) {
      for (const auto& [key, d] : shards_[i].map) {
        memo->Put(static_cast<GraphId>(key >> 32),
                  static_cast<GraphId>(key & 0xffffffff), d);
      }
    }
  }

 private:
  using Item = std::pair<double, GraphId>;
  /// Thread-private per-insertion memo, layered over a build-wide sharded
  /// cache. The serial builder's batch-wide cache is what keeps GED-heavy
  /// builds affordable (neighbor sets overlap heavily across inserts), so
  /// the parallel builder needs one too: striping it over lock-protected
  /// shards keeps lookups nearly contention-free, and the local memo
  /// absorbs the repeated probes within a single insertion.
  using Cache = std::unordered_map<int64_t, double>;

  struct CacheShard {
    std::mutex mu;
    std::unordered_map<int64_t, double> map;
  };
  static constexpr size_t kCacheShards = 64;

  double Distance(GraphId a, GraphId b, Cache* cache) {
    if (a == b) return 0.0;
    const GraphId lo = std::min(a, b);
    const GraphId hi = std::max(a, b);
    const int64_t key = (static_cast<int64_t>(hi) << 32) | lo;
    auto it = cache->find(key);
    if (it != cache->end()) return it->second;
    CacheShard& shard = shards_[static_cast<size_t>(key) % kCacheShards];
    {
      std::lock_guard<std::mutex> guard(shard.mu);
      auto hit = shard.map.find(key);
      if (hit != shard.map.end()) {
        cache->emplace(key, hit->second);
        return hit->second;
      }
    }
    // Computed outside the shard lock: a racing duplicate evaluation is
    // benign (the distance is deterministic) and far cheaper than holding
    // the lock across a GED call. Shard mutexes are leaf locks — taken
    // with a node lock possibly held (Shrink), never the other way round.
    // Same orientation as HnswMutator::Distance.
    const double d = distance_fn_(hi, lo);
    {
      std::lock_guard<std::mutex> guard(shard.mu);
      shard.map.emplace(key, d);
    }
    cache->emplace(key, d);
    return d;
  }

  /// Snapshot of a node's neighbor list at `layer`. Copy-under-lock: the
  /// caller then searches over the copy without holding anything, so GED
  /// evaluations never serialize behind a neighbor's lock.
  std::vector<GraphId> CopyNeighbors(int layer, GraphId node) {
    std::lock_guard<std::mutex> guard(locks_[static_cast<size_t>(node)]);
    return core_->adjacency[static_cast<size_t>(layer)]
                           [static_cast<size_t>(node)];
  }

  void InsertOne(GraphId id) {
    const int level = core_->node_level[static_cast<size_t>(id)];
    Cache cache;
    GraphId curr;
    int top;
    {
      std::lock_guard<std::mutex> guard(entry_mu_);
      curr = core_->entry;
      top = entry_level_;
    }
    for (int l = top; l > level; --l) {
      curr = GreedyStep(id, curr, l, &cache);
    }
    for (int l = std::min(level, top); l >= 0; --l) {
      std::vector<Item> candidates =
          SearchLayer(id, curr, options_.ef_construction, l, &cache);
      const int cap = (l == 0) ? 2 * options_.M : options_.M;
      const size_t keep =
          std::min(candidates.size(), static_cast<size_t>(cap));
      for (size_t i = 0; i < keep; ++i) {
        Connect(id, candidates[i].second, l, cap, &cache);
      }
      if (!candidates.empty()) curr = candidates[0].second;
    }
    if (level > top) {
      std::lock_guard<std::mutex> guard(entry_mu_);
      // Re-check: another high node may have published meanwhile.
      if (level > entry_level_) {
        entry_level_ = level;
        core_->entry = id;
      }
    }
  }

  GraphId GreedyStep(GraphId target, GraphId start, int layer, Cache* cache) {
    GraphId curr = start;
    double curr_d = Distance(target, curr, cache);
    for (;;) {
      GraphId best = curr;
      double best_d = curr_d;
      for (GraphId n : CopyNeighbors(layer, curr)) {
        const double d = Distance(target, n, cache);
        if (d < best_d) {
          best = n;
          best_d = d;
        }
      }
      if (best == curr) return curr;
      curr = best;
      curr_d = best_d;
    }
  }

  std::vector<Item> SearchLayer(GraphId target, GraphId start, int ef,
                                int layer, Cache* cache) {
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> frontier;
    std::priority_queue<Item> best;  // max-heap, size <= ef
    std::unordered_set<GraphId> visited;

    const double d0 = Distance(target, start, cache);
    frontier.emplace(d0, start);
    best.emplace(d0, start);
    visited.insert(start);

    while (!frontier.empty()) {
      const auto [d, node] = frontier.top();
      frontier.pop();
      if (d > best.top().first && best.size() >= static_cast<size_t>(ef)) {
        break;
      }
      for (GraphId n : CopyNeighbors(layer, node)) {
        if (!visited.insert(n).second) continue;
        const double dn = Distance(target, n, cache);
        if (best.size() < static_cast<size_t>(ef) || dn < best.top().first) {
          frontier.emplace(dn, n);
          best.emplace(dn, n);
          if (best.size() > static_cast<size_t>(ef)) best.pop();
        }
      }
    }
    std::vector<Item> out;
    out.reserve(best.size());
    while (!best.empty()) {
      out.push_back(best.top());
      best.pop();
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Adds the edge {a, b} at `layer`, shrinking each endpoint's list under
  /// its own lock only. Distances inside Shrink are computed while holding
  /// that single lock; contention is per-node, never global.
  void Connect(GraphId a, GraphId b, int layer, int cap, Cache* cache) {
    for (const auto [node, other] : {std::pair{a, b}, std::pair{b, a}}) {
      std::lock_guard<std::mutex> guard(locks_[static_cast<size_t>(node)]);
      auto& list = core_->adjacency[static_cast<size_t>(layer)]
                                   [static_cast<size_t>(node)];
      if (std::find(list.begin(), list.end(), other) == list.end()) {
        list.push_back(other);
      }
      Shrink(&list, node, cap, cache);
    }
  }

  /// Same selection rule as HnswMutator::Shrink (closest-first sort,
  /// optional diversity heuristic, spilled backfill); must be called with
  /// `node`'s lock held.
  void Shrink(std::vector<GraphId>* list, GraphId node, int cap,
              Cache* cache) {
    if (list->size() <= static_cast<size_t>(cap)) return;
    std::sort(list->begin(), list->end(), [&](GraphId x, GraphId y) {
      const double dx = Distance(node, x, cache);
      const double dy = Distance(node, y, cache);
      if (dx != dy) return dx < dy;
      return x < y;
    });
    if (!options_.select_neighbors_heuristic) {
      list->resize(static_cast<size_t>(cap));
      return;
    }
    std::vector<GraphId> kept;
    std::vector<GraphId> spilled;
    for (GraphId candidate : *list) {
      if (kept.size() >= static_cast<size_t>(cap)) break;
      const double d_node = Distance(node, candidate, cache);
      bool diverse = true;
      for (GraphId existing : kept) {
        if (Distance(candidate, existing, cache) < d_node) {
          diverse = false;
          break;
        }
      }
      if (diverse) {
        kept.push_back(candidate);
      } else {
        spilled.push_back(candidate);
      }
    }
    for (GraphId candidate : spilled) {
      if (kept.size() >= static_cast<size_t>(cap)) break;
      kept.push_back(candidate);
    }
    *list = std::move(kept);
  }

  HnswCore* core_;
  const HnswIndex::PairDistanceFn& distance_fn_;
  const HnswOptions& options_;
  std::unique_ptr<std::mutex[]> locks_;
  std::unique_ptr<CacheShard[]> shards_ =
      std::make_unique<CacheShard[]>(kCacheShards);
  std::mutex entry_mu_;
  int entry_level_ = -1;
};

}  // namespace

HnswIndex HnswIndex::Build(const GraphDatabase& db, const GedComputer& ged,
                           const HnswOptions& options, ThreadPool* pool,
                           PairDistanceMemo* memo) {
  return BuildWithDistance(
      db.size(),
      [&db, &ged](GraphId a, GraphId b) {
        return ged.Distance(db.Get(a), db.Get(b));
      },
      options, pool, memo);
}

HnswIndex HnswIndex::BuildWithDistance(GraphId num_nodes,
                                       const PairDistanceFn& distance,
                                       const HnswOptions& options,
                                       ThreadPool* pool,
                                       PairDistanceMemo* memo) {
  LAN_CHECK_GT(num_nodes, 0);
  HnswIndex index;
  index.flat_search_view_ = options.flat_search_view;
  size_t threads = options.num_build_threads > 0
                       ? static_cast<size_t>(options.num_build_threads)
                       : (pool != nullptr ? pool->num_threads()
                                          : DefaultThreadCount());
  if (threads <= 1 || num_nodes < 2) {
    // Serial insert loop: the determinism contract. For a fixed seed this
    // path is bit-for-bit reproducible (golden-topology tests pin it).
    PairDistanceMemo local;
    HnswMutator mutator(&index.core_, distance, options, pool,
                        memo != nullptr ? memo : &local);
    Rng rng(options.seed);
    for (GraphId id = 0; id < num_nodes; ++id) {
      mutator.Insert(id, DrawLevel(&rng, options));
    }
  } else {
    // Pre-draw every level serially: level draws don't depend on graph
    // state, so this is the same seeded stream the serial loop consumes,
    // one draw per id in id order.
    Rng rng(options.seed);
    std::vector<int> levels(static_cast<size_t>(num_nodes));
    for (auto& level : levels) level = DrawLevel(&rng, options);
    ParallelHnswBuilder builder(&index.core_, distance, options);
    builder.Build(levels, threads, pool);
    if (memo != nullptr) builder.FoldInto(memo);
  }
  index.RebuildViewFromCore();
  return index;
}

Status HnswIndex::Insert(GraphId id, const PairDistanceFn& distance,
                         const HnswOptions& options, Rng* rng,
                         PairDistanceMemo* memo, ThreadPool* pool,
                         std::vector<GraphId>* touched) {
  if (id != core_.num_nodes) {
    return Status::InvalidArgument(
        "Insert: id must equal the current node count");
  }
  // A snapshot-attached index first materializes an owned core; the
  // mutation below then proceeds exactly as on a freshly built index.
  Thaw();
  const int level = DrawLevel(rng, options);
  PairDistanceMemo local;
  HnswMutator mutator(&core_, distance, options, pool,
                      memo != nullptr ? memo : &local);
  if (touched != nullptr) mutator.set_touched_collector(touched);
  mutator.Insert(id, level);
  if (touched != nullptr) {
    std::sort(touched->begin(), touched->end());
    touched->erase(std::unique(touched->begin(), touched->end()),
                   touched->end());
  }
  // flat_search_view_ deliberately not updated from `options`: the layout
  // chosen at build time is sticky across re-publishes (see hnsw.h).
  RebuildViewFromCore();
  return Status::OK();
}

uint64_t PairDistanceMemo::Key(GraphId a, GraphId b) {
  const uint64_t lo = static_cast<uint32_t>(std::min(a, b));
  const uint64_t hi = static_cast<uint32_t>(std::max(a, b));
  return (hi << 32) | lo;
}

namespace {

/// Zero-filled pages of a private anonymous mapping.
void* MapZeroed(size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  LAN_CHECK(p != MAP_FAILED) << "pair memo: mmap of " << bytes << " bytes";
  return p;
}

}  // namespace

PairDistanceMemo::~PairDistanceMemo() { Clear(); }

size_t PairDistanceMemo::Probe(uint64_t key) const {
  const size_t mask = capacity_ - 1;
  // Murmur3's finalizer spreads the (hi, lo) bit pattern over the table.
  uint64_t h = key ^ (key >> 33);
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  size_t i = static_cast<size_t>(h) & mask;
  while (slots_[i].key != 0 && slots_[i].key != key) i = (i + 1) & mask;
  return i;
}

bool PairDistanceMemo::Find(GraphId a, GraphId b, double* out) const {
  if (size_ == 0) return false;
  const Slot& slot = slots_[Probe(Key(a, b))];
  if (slot.key == 0) return false;
  *out = slot.value;
  return true;
}

void PairDistanceMemo::Put(GraphId a, GraphId b, double d) {
  if (4 * (size_ + 1) > 3 * capacity_) Grow();
  const uint64_t key = Key(a, b);
  Slot& slot = slots_[Probe(key)];
  if (slot.key != 0) return;
  slot.key = key;
  slot.value = d;
  ++size_;
}

void PairDistanceMemo::Grow() {
  Slot* const old = slots_;
  const size_t old_capacity = capacity_;
  capacity_ = std::max<size_t>(1024, 2 * capacity_);
  slots_ = static_cast<Slot*>(MapZeroed(capacity_ * sizeof(Slot)));
  for (size_t i = 0; i < old_capacity; ++i) {
    if (old[i].key != 0) slots_[Probe(old[i].key)] = old[i];
  }
  if (old != nullptr) munmap(old, old_capacity * sizeof(Slot));
}

void PairDistanceMemo::Clear() {
  if (slots_ != nullptr) munmap(slots_, capacity_ * sizeof(Slot));
  slots_ = nullptr;
  capacity_ = 0;
  size_ = 0;
}

void HnswIndex::UpperLayer::Compact() {
  if (ext_offsets != nullptr) return;  // attached CSR is already contiguous
  flat_offsets.assign(adjacency.size() + 1, 0);
  int64_t total = 0;
  for (size_t i = 0; i < adjacency.size(); ++i) {
    flat_offsets[i] = total;
    total += static_cast<int64_t>(adjacency[i].size());
  }
  flat_offsets[adjacency.size()] = total;
  flat_neighbors.clear();
  flat_neighbors.reserve(static_cast<size_t>(total));
  for (const auto& row : adjacency) {
    flat_neighbors.insert(flat_neighbors.end(), row.begin(), row.end());
  }
}

void HnswIndex::RebuildViewFromCore() {
  const GraphId num_nodes = core_.num_nodes;
  entry_point_ = core_.entry;
  base_layer_ = ProximityGraph(num_nodes);
  layers_.clear();
  if (num_nodes == 0) return;
  for (GraphId id = 0; id < num_nodes; ++id) {
    for (GraphId n : core_.adjacency[0][static_cast<size_t>(id)]) {
      LAN_CHECK_OK(base_layer_.AddEdge(id, n));
    }
  }
  for (size_t l = 1; l < core_.adjacency.size(); ++l) {
    UpperLayer layer;
    layer.adjacency.assign(static_cast<size_t>(num_nodes), {});
    for (GraphId id = 0; id < num_nodes; ++id) {
      const auto& neighbors = core_.adjacency[l][static_cast<size_t>(id)];
      if (!neighbors.empty()) {
        layer.adjacency[static_cast<size_t>(id)] = neighbors;
        layer.members.push_back(id);
      }
    }
    layers_.push_back(std::move(layer));
  }
  if (flat_search_view_) {
    // Epoch-publish compaction: search iterates contiguous CSR rows from
    // here on; the nested form above stays authoritative for the next
    // mutation and for serialization.
    base_layer_.Compact();
    for (UpperLayer& layer : layers_) layer.Compact();
  }
}

void HnswIndex::UpperLayer::Attach(GraphId num_nodes, const int64_t* offsets,
                                   const GraphId* neighbors) {
  adjacency.clear();
  flat_offsets.clear();
  flat_neighbors.clear();
  ext_offsets = offsets;
  ext_neighbors = neighbors;
  members.clear();
  for (GraphId id = 0; id < num_nodes; ++id) {
    if (offsets[static_cast<size_t>(id) + 1] >
        offsets[static_cast<size_t>(id)]) {
      members.push_back(id);
    }
  }
}

void HnswIndex::UpperLayer::PrefetchRow(GraphId id) const {
  if (ext_offsets != nullptr) {
    PrefetchRead(ext_neighbors + ext_offsets[static_cast<size_t>(id)]);
    return;
  }
  if (!flat_offsets.empty()) {
    PrefetchRead(flat_neighbors.data() + flat_offsets[static_cast<size_t>(id)]);
  }
}

std::span<const GraphId> HnswIndex::CoreRow(int layer, GraphId id) const {
  if (frozen()) {
    const auto& [offsets, neighbors] = core_csr_[static_cast<size_t>(layer)];
    const int64_t begin = offsets[static_cast<size_t>(id)];
    const int64_t end = offsets[static_cast<size_t>(id) + 1];
    return {neighbors + begin, static_cast<size_t>(end - begin)};
  }
  const auto& row =
      core_.adjacency[static_cast<size_t>(layer)][static_cast<size_t>(id)];
  return {row.data(), row.size()};
}

void HnswIndex::Thaw() {
  if (!frozen()) return;
  const GraphId num_nodes = core_.num_nodes;
  core_.adjacency.assign(core_csr_.size(), {});
  for (size_t l = 0; l < core_csr_.size(); ++l) {
    const auto& [offsets, neighbors] = core_csr_[l];
    auto& layer = core_.adjacency[l];
    layer.resize(static_cast<size_t>(num_nodes));
    for (GraphId id = 0; id < num_nodes; ++id) {
      const int64_t begin = offsets[static_cast<size_t>(id)];
      const int64_t end = offsets[static_cast<size_t>(id) + 1];
      layer[static_cast<size_t>(id)].assign(neighbors + begin,
                                            neighbors + end);
    }
  }
  core_csr_.clear();
  // The routing view (base_layer_/layers_) still points at the attached
  // CSRs; the caller's next RebuildViewFromCore replaces it with an owned
  // one. Until then the snapshot backing must stay alive — Insert, the
  // only caller, rebuilds before returning.
}

Result<HnswIndex> HnswIndex::FromSnapshotView(const HnswSnapshotView& view) {
  if (view.num_nodes <= 0) {
    return Status::IoError("hnsw snapshot: bad node count");
  }
  if (view.entry < 0 || view.entry >= view.num_nodes) {
    return Status::IoError("hnsw snapshot: bad entry point");
  }
  const size_t num_layers = view.core_layers.size();
  if (num_layers == 0 || num_layers > 64) {
    return Status::IoError("hnsw snapshot: bad layer count");
  }
  if (view.node_level == nullptr || view.base_offsets == nullptr ||
      view.base_neighbors == nullptr) {
    return Status::IoError("hnsw snapshot: missing arrays");
  }
  for (GraphId id = 0; id < view.num_nodes; ++id) {
    const int32_t level = view.node_level[static_cast<size_t>(id)];
    if (level < 0 || level >= static_cast<int32_t>(num_layers)) {
      return Status::IoError("hnsw snapshot: bad node level");
    }
  }
  // Structural validation of every CSR: monotone offsets starting at 0,
  // neighbor ids in range, no self loops. O(edges) scan, no allocation;
  // guarantees every later NeighborSpan stays in bounds even if the file
  // was corrupted in a way its checksum missed.
  auto validate_csr = [&view](const int64_t* offsets,
                              const GraphId* neighbors) -> Status {
    if (offsets == nullptr || offsets[0] != 0) {
      return Status::IoError("hnsw snapshot: bad csr offsets");
    }
    for (GraphId id = 0; id < view.num_nodes; ++id) {
      const int64_t begin = offsets[static_cast<size_t>(id)];
      const int64_t end = offsets[static_cast<size_t>(id) + 1];
      if (end < begin) return Status::IoError("hnsw snapshot: bad csr row");
      for (int64_t i = begin; i < end; ++i) {
        const GraphId n = neighbors[static_cast<size_t>(i)];
        if (n < 0 || n >= view.num_nodes) {
          return Status::IoError("hnsw snapshot: neighbor out of range");
        }
        if (n == id) return Status::IoError("hnsw snapshot: self loop");
      }
    }
    return Status::OK();
  };
  LAN_RETURN_NOT_OK(validate_csr(view.base_offsets, view.base_neighbors));
  for (const auto& [offsets, neighbors] : view.core_layers) {
    LAN_RETURN_NOT_OK(validate_csr(offsets, neighbors));
  }

  HnswIndex index;
  index.core_.num_nodes = view.num_nodes;
  index.core_.entry = view.entry;
  index.entry_point_ = view.entry;
  index.core_.node_level.assign(view.node_level,
                                view.node_level + view.num_nodes);
  index.base_layer_.AttachFlatView(view.num_nodes, view.base_offsets,
                                   view.base_neighbors);
  for (size_t l = 1; l < num_layers; ++l) {
    // Upper-layer view rows equal core rows (RebuildViewFromCore copies
    // them verbatim above the base), so the core CSR backs both.
    UpperLayer layer;
    layer.Attach(view.num_nodes, view.core_layers[l].first,
                 view.core_layers[l].second);
    index.layers_.push_back(std::move(layer));
  }
  index.core_csr_ = view.core_layers;
  index.flat_search_view_ = true;
  return index;
}

void HnswIndex::RebuildCoreFromView() {
  const GraphId num_nodes = base_layer_.NumNodes();
  core_ = HnswCore();
  core_.num_nodes = num_nodes;
  core_.entry = entry_point_;
  core_.node_level.assign(static_cast<size_t>(num_nodes), 0);
  core_.adjacency.assign(layers_.size() + 1, {});
  core_.adjacency[0].resize(static_cast<size_t>(num_nodes));
  for (GraphId id = 0; id < num_nodes; ++id) {
    core_.adjacency[0][static_cast<size_t>(id)] = base_layer_.Neighbors(id);
  }
  for (size_t l = 0; l < layers_.size(); ++l) {
    core_.adjacency[l + 1].resize(static_cast<size_t>(num_nodes));
    for (GraphId member : layers_[l].members) {
      core_.adjacency[l + 1][static_cast<size_t>(member)] =
          layers_[l].adjacency[static_cast<size_t>(member)];
      core_.node_level[static_cast<size_t>(member)] =
          static_cast<int>(l) + 1;
    }
  }
}

namespace {

constexpr char kHnswMagicV1[8] = {'L', 'A', 'N', 'H', 'N', 'S', 'W', '1'};
constexpr char kHnswMagicV2[8] = {'L', 'A', 'N', 'H', 'N', 'S', 'W', '2'};

Status WritePod(std::ostream& out, const void* data, size_t bytes) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
  if (!out.good()) return Status::IoError("hnsw write failed");
  return Status::OK();
}

Status ReadPod(std::istream& in, void* data, size_t bytes) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (in.gcount() != static_cast<std::streamsize>(bytes)) {
    return Status::IoError("hnsw read truncated");
  }
  return Status::OK();
}

Status WriteIdList(std::ostream& out, std::span<const GraphId> ids) {
  const int64_t count = static_cast<int64_t>(ids.size());
  LAN_RETURN_NOT_OK(WritePod(out, &count, sizeof(count)));
  if (count > 0) {
    LAN_RETURN_NOT_OK(WritePod(out, ids.data(), ids.size() * sizeof(GraphId)));
  }
  return Status::OK();
}

Result<std::vector<GraphId>> ReadIdList(std::istream& in, GraphId num_nodes) {
  int64_t count = 0;
  LAN_RETURN_NOT_OK(ReadPod(in, &count, sizeof(count)));
  if (count < 0 || count > num_nodes) {
    return Status::IoError("hnsw id list size out of range");
  }
  std::vector<GraphId> ids(static_cast<size_t>(count));
  if (count > 0) {
    LAN_RETURN_NOT_OK(ReadPod(in, ids.data(), ids.size() * sizeof(GraphId)));
  }
  for (GraphId id : ids) {
    if (id < 0 || id >= num_nodes) return Status::IoError("hnsw bad id");
  }
  return ids;
}

}  // namespace

Status HnswIndex::Save(std::ostream& out) const {
  // v2: the construction-form core. The view is re-derived on load, so a
  // restored index accepts Inserts exactly as if it had never been saved.
  LAN_RETURN_NOT_OK(WritePod(out, kHnswMagicV2, sizeof(kHnswMagicV2)));
  const GraphId num_nodes = core_.num_nodes;
  LAN_RETURN_NOT_OK(WritePod(out, &num_nodes, sizeof(num_nodes)));
  LAN_RETURN_NOT_OK(WritePod(out, &core_.entry, sizeof(core_.entry)));
  const int32_t num_layers = static_cast<int32_t>(NumCoreLayers());
  LAN_RETURN_NOT_OK(WritePod(out, &num_layers, sizeof(num_layers)));
  std::vector<int32_t> levels(core_.node_level.begin(),
                              core_.node_level.end());
  if (!levels.empty()) {
    LAN_RETURN_NOT_OK(
        WritePod(out, levels.data(), levels.size() * sizeof(int32_t)));
  }
  // CoreRow reads the nested adjacency or, on a frozen index, the
  // attached per-layer CSR — a snapshot-loaded index saves identically.
  for (int32_t l = 0; l < num_layers; ++l) {
    for (GraphId id = 0; id < num_nodes; ++id) {
      LAN_RETURN_NOT_OK(WriteIdList(out, CoreRow(l, id)));
    }
  }
  return Status::OK();
}

Result<HnswIndex> HnswIndex::Load(std::istream& in) {
  char magic[8];
  LAN_RETURN_NOT_OK(ReadPod(in, magic, sizeof(magic)));
  HnswIndex index;
  if (std::memcmp(magic, kHnswMagicV2, sizeof(magic)) == 0) {
    GraphId num_nodes = 0;
    LAN_RETURN_NOT_OK(ReadPod(in, &num_nodes, sizeof(num_nodes)));
    if (num_nodes <= 0) return Status::IoError("hnsw bad node count");
    LAN_RETURN_NOT_OK(
        ReadPod(in, &index.core_.entry, sizeof(index.core_.entry)));
    if (index.core_.entry < 0 || index.core_.entry >= num_nodes) {
      return Status::IoError("hnsw bad entry point");
    }
    int32_t num_layers = 0;
    LAN_RETURN_NOT_OK(ReadPod(in, &num_layers, sizeof(num_layers)));
    if (num_layers <= 0 || num_layers > 64) {
      return Status::IoError("hnsw bad layer count");
    }
    index.core_.num_nodes = num_nodes;
    std::vector<int32_t> levels(static_cast<size_t>(num_nodes));
    LAN_RETURN_NOT_OK(
        ReadPod(in, levels.data(), levels.size() * sizeof(int32_t)));
    index.core_.node_level.assign(levels.begin(), levels.end());
    for (int32_t level : levels) {
      if (level < 0 || level >= num_layers) {
        return Status::IoError("hnsw bad node level");
      }
    }
    index.core_.adjacency.assign(static_cast<size_t>(num_layers), {});
    for (auto& layer : index.core_.adjacency) {
      layer.resize(static_cast<size_t>(num_nodes));
      for (GraphId id = 0; id < num_nodes; ++id) {
        LAN_ASSIGN_OR_RETURN(layer[static_cast<size_t>(id)],
                             ReadIdList(in, num_nodes));
        for (GraphId n : layer[static_cast<size_t>(id)]) {
          if (n == id) return Status::IoError("hnsw self loop");
        }
      }
    }
    index.RebuildViewFromCore();
    return index;
  }
  if (std::memcmp(magic, kHnswMagicV1, sizeof(magic)) != 0) {
    return Status::IoError("bad hnsw magic");
  }
  // Legacy v1: view only; reconstruct an equivalent construction state.
  GraphId num_nodes = 0;
  LAN_RETURN_NOT_OK(ReadPod(in, &num_nodes, sizeof(num_nodes)));
  if (num_nodes <= 0) return Status::IoError("hnsw bad node count");
  LAN_RETURN_NOT_OK(
      ReadPod(in, &index.entry_point_, sizeof(index.entry_point_)));
  if (index.entry_point_ < 0 || index.entry_point_ >= num_nodes) {
    return Status::IoError("hnsw bad entry point");
  }
  index.base_layer_ = ProximityGraph(num_nodes);
  for (GraphId id = 0; id < num_nodes; ++id) {
    LAN_ASSIGN_OR_RETURN(std::vector<GraphId> neighbors,
                         ReadIdList(in, num_nodes));
    for (GraphId n : neighbors) {
      if (n == id) return Status::IoError("hnsw self loop");
      LAN_RETURN_NOT_OK(index.base_layer_.AddEdge(id, n));
    }
  }
  int32_t num_upper = 0;
  LAN_RETURN_NOT_OK(ReadPod(in, &num_upper, sizeof(num_upper)));
  if (num_upper < 0 || num_upper > 64) {
    return Status::IoError("hnsw bad layer count");
  }
  for (int32_t l = 0; l < num_upper; ++l) {
    UpperLayer layer;
    layer.adjacency.assign(static_cast<size_t>(num_nodes), {});
    LAN_ASSIGN_OR_RETURN(layer.members, ReadIdList(in, num_nodes));
    for (GraphId member : layer.members) {
      LAN_ASSIGN_OR_RETURN(std::vector<GraphId> neighbors,
                           ReadIdList(in, num_nodes));
      layer.adjacency[static_cast<size_t>(member)] = std::move(neighbors);
    }
    index.layers_.push_back(std::move(layer));
  }
  index.RebuildCoreFromView();
  return index;
}

GraphId HnswIndex::SelectInitialNode(DistanceOracle* oracle) const {
  return SelectInitialNodeFn(
      [oracle](GraphId id) { return oracle->Distance(id); });
}

GraphId HnswIndex::SelectInitialNodeFn(
    const std::function<double(GraphId)>& distance) const {
  GraphId curr = entry_point_;
  double curr_d = distance(curr);
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    for (;;) {
      GraphId best = curr;
      double best_d = curr_d;
      for (GraphId n : it->NeighborSpan(curr)) {
        const double d = distance(n);
        if (d < best_d) {
          best = n;
          best_d = d;
        }
      }
      if (best == curr) break;
      curr = best;
      curr_d = best_d;
      // Hint the next hop's row while the distance evaluations above are
      // still warm in flight.
      it->PrefetchRow(curr);
    }
  }
  return curr;
}

RoutingResult HnswIndex::Search(DistanceOracle* oracle, int ef, int k,
                                const std::vector<uint8_t>* live) const {
  const GraphId init = SelectInitialNode(oracle);
  return BeamSearchRoute(base_layer_, oracle, init, ef, k, live);
}

}  // namespace lan
