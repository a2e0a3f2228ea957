#ifndef LAN_PG_HNSW_H_
#define LAN_PG_HNSW_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "ged/ged_computer.h"
#include "pg/beam_search.h"
#include "pg/distance.h"
#include "pg/proximity_graph.h"

namespace lan {

/// \brief HNSW construction/search parameters.
struct HnswOptions {
  /// Max neighbors per node in upper layers; base layer allows 2*M.
  int M = 8;
  /// Candidate-list width during construction.
  int ef_construction = 32;
  /// RNG seed for the level assignment.
  uint64_t seed = 42;
  /// Use Malkov's diversity heuristic when selecting/shrinking neighbor
  /// lists (keep a candidate only if it is closer to the node than to any
  /// already-kept neighbor). Produces sparser, better-navigable graphs
  /// than plain nearest-M on clustered data.
  bool select_neighbors_heuristic = true;
  /// Batch-build insertion threads. 1 (default) runs the serial insert
  /// loop, bit-for-bit identical across releases for a fixed seed. >1
  /// partitions insertions across threads with per-node locking
  /// (hnswlib-style): same level sequence (levels are pre-drawn from the
  /// seed's stream), statistically equivalent topology, no bit-for-bit
  /// guarantee. 0 means "use the passed pool's width (or the hardware
  /// count when no pool)". Ignored by incremental Insert, which inserts
  /// one node (its candidate distances still fan out on the passed pool).
  int num_build_threads = 1;
  /// Compact the published view's adjacency into contiguous CSR rows that
  /// search iterates with software prefetch. Never changes results — the
  /// CSR rows hold the same ids in the same order as the nested lists —
  /// only locality. Off exists for A/B benchmarks and layout-equivalence
  /// tests.
  bool flat_search_view = true;
};

/// \brief Writer-side memo of construction pair distances, one value per
/// unordered pair {a, b}: d(max(a, b), min(a, b)). Batch build fills it and
/// every Insert extends it, so a write recomputes only the pairs no earlier
/// write needed. It is a pure cache: the builder evaluates every pair in
/// that one orientation whether or not the memo holds it, so an asymmetric
/// distance (the approximate GED) yields the same topology with a full, an
/// empty or no memo.
///
/// Open addressing with linear probing over 16-byte slots (key, value);
/// the table doubles at 3/4 load. Not thread-safe: its owner is the index's
/// single writer.
class PairDistanceMemo {
 public:
  PairDistanceMemo() = default;
  ~PairDistanceMemo();
  PairDistanceMemo(const PairDistanceMemo&) = delete;
  PairDistanceMemo& operator=(const PairDistanceMemo&) = delete;

  /// Looks up {a, b}; true and `*out` set on a hit. a != b.
  bool Find(GraphId a, GraphId b, double* out) const;
  /// Records d for {a, b} (a != b); an existing entry is kept.
  void Put(GraphId a, GraphId b, double d);

  /// Pairs held.
  size_t size() const { return size_; }
  /// Bytes of the slot table.
  size_t bytes() const { return capacity_ * sizeof(Slot); }
  void Clear();

 private:
  struct Slot {
    uint64_t key;  // 0 == empty: a real key has max(a, b) >= 1 on top
    double value;
  };
  static uint64_t Key(GraphId a, GraphId b);
  size_t Probe(uint64_t key) const;  // slot holding `key`, or its empty slot
  void Grow();

  /// The table is its own anonymous mapping, outside malloc: it lives as
  /// long as the index while the build's temporaries come and go, and on
  /// the heap it kept freed memory below it from being returned (on
  /// perfbench hot_repeat a heap table raised peak RSS by 1.8 MB, three
  /// times the memo's own size).
  Slot* slots_ = nullptr;
  size_t capacity_ = 0;  // slots, a power of two
  size_t size_ = 0;
};

/// \brief Construction-form state of an HNSW index: the directed layered
/// adjacency the per-node insertion step mutates. The public view
/// (symmetrized base layer, sparse upper layers) is derived from it.
///
/// Implementation detail of HnswIndex, exposed only so the insertion
/// machinery in hnsw.cc can operate on it; not part of the public API.
struct HnswCore {
  /// adjacency[l][node] = directed neighbor list at layer l (layer 0 is
  /// the base layer before symmetrization).
  std::vector<std::vector<std::vector<GraphId>>> adjacency;
  std::vector<int> node_level;
  GraphId entry = kInvalidGraphId;
  GraphId num_nodes = 0;
};

/// \brief Zero-copy view of a saved HNSW index: pointers into a mapped
/// snapshot section (store/snapshot.h). The base CSR is the symmetrized
/// search view with sorted rows; core_layers hold the directed
/// construction-form adjacency per layer 0..L (for upper layers the two
/// coincide — RebuildViewFromCore copies core rows verbatim above the
/// base). All arrays stay owned by the mapping, which must outlive any
/// index attached to it (and every copy of that index).
struct HnswSnapshotView {
  GraphId num_nodes = 0;
  GraphId entry = kInvalidGraphId;
  const int32_t* node_level = nullptr;    // [num_nodes]
  const int64_t* base_offsets = nullptr;  // [num_nodes + 1]
  const GraphId* base_neighbors = nullptr;
  /// (offsets, neighbors) CSR per core layer, layer 0 first.
  std::vector<std::pair<const int64_t*, const GraphId*>> core_layers;
};

/// \brief Hierarchical navigable small world index over a graph database
/// under GED (Malkov & Yashunin; the paper's main baseline).
///
/// The base layer doubles as the flat proximity graph that LAN routes on,
/// so every compared method shares the same PG topology. Construction
/// distances are computed with the provided GedComputer (typically in
/// approximate-only mode) and are an offline cost, not query NDC.
///
/// Batch Build is literally "insert N times" over the same per-node
/// insertion step that the public Insert uses, so an index grown
/// incrementally from a prefix behaves exactly like a batch build over
/// that prefix plus inserts.
class HnswIndex {
 public:
  /// Distance between two indexed items; need not be symmetric (the
  /// approximate GED is not). The builder only ever calls it as
  /// fn(max(a, b), min(a, b)). Must be thread-safe when a ThreadPool is
  /// passed to the builder.
  using PairDistanceFn = std::function<double(GraphId, GraphId)>;

  /// Builds the index. `pool` (optional) parallelizes the per-step
  /// neighbor distance evaluations. `memo` (optional) receives every pair
  /// distance the build computed, for later Inserts to reuse.
  static HnswIndex Build(const GraphDatabase& db, const GedComputer& ged,
                         const HnswOptions& options,
                         ThreadPool* pool = nullptr,
                         PairDistanceMemo* memo = nullptr);

  /// Metric-agnostic builder (used by the L2route baseline over graph
  /// embedding vectors).
  static HnswIndex BuildWithDistance(GraphId num_nodes,
                                     const PairDistanceFn& distance,
                                     const HnswOptions& options,
                                     ThreadPool* pool = nullptr,
                                     PairDistanceMemo* memo = nullptr);

  /// The layer-0 proximity graph (all database nodes).
  const ProximityGraph& BaseLayer() const { return base_layer_; }

  GraphId NumNodes() const { return core_.num_nodes; }
  int NumLayers() const { return static_cast<int>(layers_.size()) + 1; }
  GraphId EntryPoint() const { return entry_point_; }

  /// HNSW_IS: greedy descent through the upper layers; returns the
  /// base-layer start node. Distance computations go through `oracle` and
  /// therefore count toward the query's NDC.
  GraphId SelectInitialNode(DistanceOracle* oracle) const;

  /// Upper-layer descent with an arbitrary query-to-item distance.
  GraphId SelectInitialNodeFn(
      const std::function<double(GraphId)>& distance) const;

  /// Binary (de)serialization of the index structure. Construction is the
  /// GED-heavy offline phase, so persisting it makes restarts cheap. The
  /// construction-form state is saved too, so an index restored from disk
  /// accepts further Inserts exactly as if it had never been saved. Load
  /// also accepts the legacy view-only format (reconstructing an
  /// equivalent construction state).
  Status Save(std::ostream& out) const;
  static Result<HnswIndex> Load(std::istream& in);

  /// Builds a frozen index over a mapped snapshot section without copying
  /// the adjacency: the base layer and every upper layer route directly
  /// over the view's CSR arrays, and the construction-form core is kept
  /// as per-layer CSR pointers. Allocation count is O(num_layers), not
  /// O(num_nodes). Validates structure (monotone offsets, ids in range,
  /// no self loops) and returns a Status on malformed input. A frozen
  /// index serves Search/Save normally; the first Insert thaws it
  /// (materializes an owned core) and proceeds as usual.
  static Result<HnswIndex> FromSnapshotView(const HnswSnapshotView& view);

  /// True while the adjacency is backed by an attached snapshot view.
  bool frozen() const { return !core_csr_.empty(); }

  /// Frozen -> fully owned in one step: copies every attached array into
  /// owned storage so the snapshot backing may be released afterwards.
  /// No-op on an owned index.
  void Materialize() {
    if (frozen()) {
      Thaw();
      RebuildViewFromCore();
    }
  }

  /// Construction-form introspection for the snapshot codec; works in
  /// both frozen and owned modes.
  int NumCoreLayers() const {
    return frozen() ? static_cast<int>(core_csr_.size())
                    : static_cast<int>(core_.adjacency.size());
  }
  std::span<const GraphId> CoreRow(int layer, GraphId id) const;
  int NodeLevel(GraphId id) const {
    return core_.node_level[static_cast<size_t>(id)];
  }

  /// Incrementally inserts item `id` (which must equal the current node
  /// count) into the index — dynamic maintenance without a rebuild.
  /// `distance` must cover all ids up to and including the new one.
  /// Runs the same per-node insertion step as batch construction (level
  /// assignment, ef-search, diversity heuristic and backfill), with the
  /// level drawn from `rng`. `memo` (optional) is read and extended, so a
  /// writer that keeps one across builds and inserts computes each pair
  /// once; without it the insert memoizes only within itself. The
  /// topology does not depend on it. `pool` (optional) evaluates the new
  /// node's candidate distances in parallel. When `touched` is non-null it
  /// receives the ids (deduplicated, sorted) whose neighbors in the
  /// undirected BaseLayer() the insert may have changed — the new node,
  /// the neighbors it connected to, and each id the diversity shrink
  /// dropped from one of those lists whose own list does not point back
  /// (its edge is gone). Cache invalidation consumes this.
  Status Insert(GraphId id, const PairDistanceFn& distance,
                const HnswOptions& options, Rng* rng,
                PairDistanceMemo* memo = nullptr, ThreadPool* pool = nullptr,
                std::vector<GraphId>* touched = nullptr);

  /// Full HNSW k-ANN query: upper-layer descent, then Algorithm 1 on the
  /// base layer with beam size `ef`. `live` (optional) filters tombstoned
  /// ids out of the answers; dead nodes are still traversed.
  RoutingResult Search(DistanceOracle* oracle, int ef, int k,
                       const std::vector<uint8_t>* live = nullptr) const;

 private:
  /// adjacency of upper layer l (1-based in HNSW terms): node -> neighbors.
  /// Sparse: only nodes assigned to that layer appear. Like
  /// ProximityGraph, carries an optional CSR copy (flat_offsets /
  /// flat_neighbors) for the descent hot loop; empty offsets = nested
  /// form only.
  struct UpperLayer {
    std::vector<std::vector<GraphId>> adjacency;  // indexed by GraphId
    std::vector<GraphId> members;
    std::vector<int64_t> flat_offsets;
    std::vector<GraphId> flat_neighbors;
    /// External CSR (snapshot view mode): not owned; null == owned mode.
    const int64_t* ext_offsets = nullptr;
    const GraphId* ext_neighbors = nullptr;

    void Compact();
    /// Points the layer at an externally owned CSR and derives `members`
    /// (the nodes with non-empty rows). One allocation total.
    void Attach(GraphId num_nodes, const int64_t* offsets,
                const GraphId* neighbors);
    std::span<const GraphId> NeighborSpan(GraphId id) const {
      if (ext_offsets != nullptr) {
        const int64_t begin = ext_offsets[static_cast<size_t>(id)];
        const int64_t end = ext_offsets[static_cast<size_t>(id) + 1];
        return {ext_neighbors + begin, static_cast<size_t>(end - begin)};
      }
      if (!flat_offsets.empty()) {
        const auto begin = flat_offsets[static_cast<size_t>(id)];
        const auto end = flat_offsets[static_cast<size_t>(id) + 1];
        return {flat_neighbors.data() + begin,
                static_cast<size_t>(end - begin)};
      }
      const auto& nested = adjacency[static_cast<size_t>(id)];
      return {nested.data(), nested.size()};
    }
    /// Prefetch hint for `id`'s row; no-op in nested-only form.
    void PrefetchRow(GraphId id) const;
  };

  /// Re-derives the public view (symmetrized base layer, sparse upper
  /// layers, entry point) from `core_`; called after every mutation.
  void RebuildViewFromCore();
  /// Reconstructs an equivalent `core_` from a legacy view-only load.
  void RebuildCoreFromView();
  /// Frozen -> owned: materializes the nested core adjacency from the
  /// attached per-layer CSRs and drops the view pointers. The routing
  /// view still references the attached arrays until the next
  /// RebuildViewFromCore, so the backing must stay alive through it.
  void Thaw();

  HnswCore core_;
  ProximityGraph base_layer_;
  std::vector<UpperLayer> layers_;
  GraphId entry_point_ = kInvalidGraphId;
  /// Sticky copy of HnswOptions::flat_search_view, so every re-publish
  /// (Insert) keeps the layout the index was built with.
  bool flat_search_view_ = true;
  /// Frozen mode: construction-form adjacency as per-layer CSR pointers
  /// into the snapshot mapping (layer 0 first). Empty == owned mode.
  std::vector<std::pair<const int64_t*, const GraphId*>> core_csr_;
};

}  // namespace lan

#endif  // LAN_PG_HNSW_H_
