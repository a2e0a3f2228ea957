// Snapshot codec for LanIndex: SaveSnapshot/OpenSnapshot (the complete
// self-contained single-file checkpoint) plus the SaveIndex /
// BuildFromSavedIndex shim that round-trips the legacy PG-only stream
// through the same sectioned format. Per-section payload layouts are
// documented in docs/snapshot_format.md; the container (header, TOC,
// checksums, alignment) lives in store/snapshot.{h,cc}.

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/shard_cache.h"
#include "common/string_util.h"
#include "graph/graph_store.h"
#include "lan/lan_index.h"
#include "nn/serialization.h"
#include "store/snapshot.h"

namespace lan {

/// Inside LanIndex member definitions the name `Snapshot` resolves to the
/// LanIndex::Snapshot() accessor; this alias names the container class.
using SnapshotImage = Snapshot;

namespace {

/// Keeps everything the zero-copy views dangle from alive: the mapping
/// itself plus the store-wide CG view objects (ConstVecView /
/// SparseMatrix instances whose *addresses* inference holds through
/// `&cg.aggregation[l]`). Shared as IndexSnapshot::backing, so a mapping
/// outlives every epoch that still references it.
struct SnapshotBacking {
  Snapshot snapshot;
  /// Inner group-size rows, N*(L+1); cg g's outer view points at its
  /// (L+1)-slice starting at g*(L+1).
  std::vector<ConstVecView<int32_t>> gs_views;
  /// Aggregation then lift operators per graph, N*2L total.
  std::vector<SparseMatrix> matrix_views;
};

/// kCgs per-operator descriptor. On-disk POD; never reorder fields.
struct CgMatrixHeader {
  int32_t rows;
  int32_t cols;
  int64_t entry_offset;
  int64_t entry_count;
};
static_assert(sizeof(CgMatrixHeader) == 24);

// ---- kMeta ----

void EncodeMeta(SectionBuilder* b, const std::string& name,
                int32_t num_labels, const IndexSnapshot& snap) {
  const int64_t name_len = static_cast<int64_t>(name.size());
  b->Pod(name_len);
  b->Bytes(name.data(), name.size());
  b->Pod(num_labels);
  const int64_t num_graphs = static_cast<int64_t>(snap.num_graphs);
  b->Pod(num_graphs);
  b->Pod(snap.epoch);
  b->Array(snap.live->data(), snap.live->size());
}

struct MetaSection {
  std::string name;
  int32_t num_labels = 0;
  int64_t num_graphs = 0;
  uint64_t epoch = 0;
  std::span<const uint8_t> live;
};

Result<MetaSection> DecodeMeta(std::span<const uint8_t> payload) {
  SectionReader r(payload);
  MetaSection meta;
  int64_t name_len = 0;
  LAN_RETURN_NOT_OK(r.Pod(&name_len));
  if (name_len < 0 || static_cast<uint64_t>(name_len) > r.remaining()) {
    return Status::IoError("meta section: bad name length");
  }
  LAN_ASSIGN_OR_RETURN(std::span<const char> name_bytes,
                       r.Array<char>(static_cast<size_t>(name_len)));
  meta.name.assign(name_bytes.data(), name_bytes.size());
  LAN_RETURN_NOT_OK(r.Pod(&meta.num_labels));
  LAN_RETURN_NOT_OK(r.Pod(&meta.num_graphs));
  LAN_RETURN_NOT_OK(r.Pod(&meta.epoch));
  if (meta.num_labels < 0 || meta.num_graphs < 0) {
    return Status::IoError("meta section: negative counts");
  }
  LAN_ASSIGN_OR_RETURN(
      meta.live, r.Array<uint8_t>(static_cast<size_t>(meta.num_graphs)));
  return meta;
}

// ---- kGraphs ----

void EncodeGraphs(SectionBuilder* b, const ColumnarGraphSpans& s) {
  b->Pod(s.num_graphs);
  b->Array(s.node_start.data(), s.node_start.size());
  b->Array(s.neigh_start.data(), s.neigh_start.size());
  b->Array(s.labels.data(), s.labels.size());
  b->Array(s.row_offsets.data(), s.row_offsets.size());
  b->Array(s.neighbors.data(), s.neighbors.size());
}

Result<ColumnarGraphSpans> DecodeGraphs(std::span<const uint8_t> payload) {
  SectionReader r(payload);
  ColumnarGraphSpans s;
  LAN_RETURN_NOT_OK(r.Pod(&s.num_graphs));
  if (s.num_graphs < 0) {
    return Status::IoError("graphs section: negative graph count");
  }
  const size_t n = static_cast<size_t>(s.num_graphs);
  LAN_ASSIGN_OR_RETURN(s.node_start, r.Array<int64_t>(n + 1));
  LAN_ASSIGN_OR_RETURN(s.neigh_start, r.Array<int64_t>(n + 1));
  const int64_t total_nodes = s.node_start[n];
  const int64_t total_neighbors = s.neigh_start[n];
  if (total_nodes < 0 || total_neighbors < 0) {
    return Status::IoError("graphs section: negative arena sizes");
  }
  LAN_ASSIGN_OR_RETURN(s.labels,
                       r.Array<Label>(static_cast<size_t>(total_nodes)));
  // One CSR offset row per graph is n_g + 1 entries, hence the + N.
  LAN_ASSIGN_OR_RETURN(
      s.row_offsets,
      r.Array<int32_t>(static_cast<size_t>(total_nodes + s.num_graphs)));
  LAN_ASSIGN_OR_RETURN(
      s.neighbors, r.Array<NodeId>(static_cast<size_t>(total_neighbors)));
  return s;
}

// ---- embedding / centroid matrices (kEmbeddings + parts of others) ----

void EncodeMatrix(SectionBuilder* b, const EmbeddingMatrix& m) {
  const int64_t rows = m.rows();
  b->Pod(rows);
  b->Pod(m.dim());
  b->Array(m.data(), m.size());
}

Result<EmbeddingMatrix> DecodeMatrix(SectionReader* r) {
  int64_t rows = 0;
  int32_t dim = 0;
  LAN_RETURN_NOT_OK(r->Pod(&rows));
  LAN_RETURN_NOT_OK(r->Pod(&dim));
  if (rows < 0 || dim < 0) {
    return Status::IoError("matrix: negative shape");
  }
  const size_t count = static_cast<size_t>(rows) * static_cast<size_t>(dim);
  if (dim != 0 && count / static_cast<size_t>(dim) !=
                      static_cast<size_t>(rows)) {
    return Status::IoError("matrix: shape overflow");
  }
  LAN_ASSIGN_OR_RETURN(std::span<const float> data, r->Array<float>(count));
  return EmbeddingMatrix::FromView(rows, dim, data.data());
}

// ---- kClusters ----

void EncodeClusters(SectionBuilder* b, const KMeansResult& clusters) {
  EncodeMatrix(b, clusters.centroids);
  const int64_t assigned = static_cast<int64_t>(clusters.assignment.size());
  b->Pod(assigned);
  b->Array(clusters.assignment.data(), clusters.assignment.size());
}

Result<KMeansResult> DecodeClusters(std::span<const uint8_t> payload,
                                    int64_t expect_graphs) {
  SectionReader r(payload);
  KMeansResult clusters;
  LAN_ASSIGN_OR_RETURN(clusters.centroids, DecodeMatrix(&r));
  int64_t assigned = 0;
  LAN_RETURN_NOT_OK(r.Pod(&assigned));
  if (assigned != expect_graphs) {
    return Status::IoError("clusters section: assignment size mismatch");
  }
  LAN_ASSIGN_OR_RETURN(std::span<const int32_t> assignment,
                       r.Array<int32_t>(static_cast<size_t>(assigned)));
  const int32_t k = static_cast<int32_t>(clusters.centroids.rows());
  for (const int32_t c : assignment) {
    if (c < 0 || c >= k) {
      return Status::IoError("clusters section: assignment out of range");
    }
  }
  clusters.assignment.assign(assignment.begin(), assignment.end());
  clusters.RebuildMembers(k);
  return clusters;
}

// ---- kCgs ----

Status EncodeCgs(SectionBuilder* b,
                 const std::vector<CompressedGnnGraph>& cgs) {
  const int64_t n = static_cast<int64_t>(cgs.size());
  const int32_t num_layers = n > 0 ? cgs[0].num_layers : 0;
  b->Pod(num_layers);
  b->Pod(n);
  const size_t levels = static_cast<size_t>(num_layers) + 1;

  std::vector<int64_t> gs_ptr, lbl_ptr;
  gs_ptr.reserve(static_cast<size_t>(n) * levels + 1);
  lbl_ptr.reserve(static_cast<size_t>(n) + 1);
  gs_ptr.push_back(0);
  lbl_ptr.push_back(0);
  for (const CompressedGnnGraph& cg : cgs) {
    if (cg.num_layers != num_layers || cg.group_size.size() != levels ||
        cg.aggregation.size() != static_cast<size_t>(num_layers) ||
        cg.lift.size() != static_cast<size_t>(num_layers)) {
      return Status::InvalidArgument(
          "EncodeCgs: inconsistent CG layer counts");
    }
    for (size_t l = 0; l < levels; ++l) {
      gs_ptr.push_back(gs_ptr.back() +
                       static_cast<int64_t>(cg.group_size[l].size()));
    }
    lbl_ptr.push_back(lbl_ptr.back() +
                      static_cast<int64_t>(cg.level0_group_labels.size()));
  }
  b->Array(gs_ptr.data(), gs_ptr.size());
  // Rows pack contiguously: the buffer stays 4-aligned between Array
  // calls, so the reader pulls the whole arena back as one span.
  for (const CompressedGnnGraph& cg : cgs) {
    for (size_t l = 0; l < levels; ++l) {
      b->Array(cg.group_size[l].data(), cg.group_size[l].size());
    }
  }
  b->Array(lbl_ptr.data(), lbl_ptr.size());
  for (const CompressedGnnGraph& cg : cgs) {
    b->Array(cg.level0_group_labels.data(), cg.level0_group_labels.size());
  }

  std::vector<CgMatrixHeader> headers;
  headers.reserve(static_cast<size_t>(n) * 2 *
                  static_cast<size_t>(num_layers));
  int64_t entry_cursor = 0;
  const auto add_header = [&](const SparseMatrix& m) {
    const int64_t count = static_cast<int64_t>(m.Entries().size());
    headers.push_back({m.rows, m.cols, entry_cursor, count});
    entry_cursor += count;
  };
  for (const CompressedGnnGraph& cg : cgs) {
    for (size_t l = 0; l < static_cast<size_t>(num_layers); ++l) {
      add_header(cg.aggregation[l]);
    }
    for (size_t l = 0; l < static_cast<size_t>(num_layers); ++l) {
      add_header(cg.lift[l]);
    }
  }
  b->Array(headers.data(), headers.size());
  for (const CompressedGnnGraph& cg : cgs) {
    for (size_t l = 0; l < static_cast<size_t>(num_layers); ++l) {
      const auto entries = cg.aggregation[l].Entries();
      b->Array(entries.data(), entries.size());
    }
    for (size_t l = 0; l < static_cast<size_t>(num_layers); ++l) {
      const auto entries = cg.lift[l].Entries();
      b->Array(entries.data(), entries.size());
    }
  }
  return Status::OK();
}

/// Wires `cgs` (resized to N) as views into the section payload, with
/// the store-wide view objects appended to `backing`. Allocation count
/// is O(1) vectors, never O(N) allocations.
Status DecodeCgs(std::span<const uint8_t> payload, SnapshotBacking* backing,
                 std::vector<CompressedGnnGraph>* cgs, int64_t expect_graphs) {
  SectionReader r(payload);
  int32_t num_layers = 0;
  int64_t n = 0;
  LAN_RETURN_NOT_OK(r.Pod(&num_layers));
  LAN_RETURN_NOT_OK(r.Pod(&n));
  if (n != expect_graphs) {
    return Status::IoError("cgs section: graph count mismatch");
  }
  if (num_layers < 0 || num_layers > 1024) {
    return Status::IoError("cgs section: bad layer count");
  }
  const size_t levels = static_cast<size_t>(num_layers) + 1;
  const size_t rows = static_cast<size_t>(n) * levels;
  LAN_ASSIGN_OR_RETURN(std::span<const int64_t> gs_ptr,
                       r.Array<int64_t>(rows + 1));
  if (gs_ptr[0] != 0 || gs_ptr[rows] < 0) {
    return Status::IoError("cgs section: bad group-size offsets");
  }
  LAN_ASSIGN_OR_RETURN(
      std::span<const int32_t> gs_values,
      r.Array<int32_t>(static_cast<size_t>(gs_ptr[rows])));
  LAN_ASSIGN_OR_RETURN(std::span<const int64_t> lbl_ptr,
                       r.Array<int64_t>(static_cast<size_t>(n) + 1));
  if (lbl_ptr[0] != 0 || lbl_ptr[static_cast<size_t>(n)] < 0) {
    return Status::IoError("cgs section: bad label offsets");
  }
  LAN_ASSIGN_OR_RETURN(
      std::span<const Label> labels,
      r.Array<Label>(static_cast<size_t>(lbl_ptr[static_cast<size_t>(n)])));
  const size_t num_matrices =
      static_cast<size_t>(n) * 2 * static_cast<size_t>(num_layers);
  LAN_ASSIGN_OR_RETURN(std::span<const CgMatrixHeader> headers,
                       r.Array<CgMatrixHeader>(num_matrices));
  // Headers must tile the entry arena exactly; that both validates them
  // and yields the arena length.
  int64_t total_entries = 0;
  for (const CgMatrixHeader& h : headers) {
    if (h.rows < 0 || h.cols < 0 || h.entry_count < 0 ||
        h.entry_offset != total_entries) {
      return Status::IoError("cgs section: bad operator header");
    }
    total_entries += h.entry_count;
  }
  LAN_ASSIGN_OR_RETURN(
      std::span<const SparseMatrix::Entry> entries,
      r.Array<SparseMatrix::Entry>(static_cast<size_t>(total_entries)));

  backing->gs_views.resize(rows);
  backing->matrix_views.resize(num_matrices);
  for (size_t i = 0; i < rows; ++i) {
    const int64_t begin = gs_ptr[i], end = gs_ptr[i + 1];
    if (begin < 0 || begin > end || end > gs_ptr[rows]) {
      return Status::IoError("cgs section: bad group-size offsets");
    }
    backing->gs_views[i] = ConstVecView<int32_t>(
        gs_values.data() + begin, static_cast<size_t>(end - begin));
  }
  for (size_t i = 0; i < num_matrices; ++i) {
    SparseMatrix& m = backing->matrix_views[i];
    m.rows = headers[i].rows;
    m.cols = headers[i].cols;
    m.view = entries.subspan(static_cast<size_t>(headers[i].entry_offset),
                             static_cast<size_t>(headers[i].entry_count));
  }
  cgs->resize(static_cast<size_t>(n));
  for (size_t g = 0; g < static_cast<size_t>(n); ++g) {
    CompressedGnnGraph& cg = (*cgs)[g];
    cg.num_layers = num_layers;
    cg.group_size = ConstVecView<ConstVecView<int32_t>>(
        backing->gs_views.data() + g * levels, levels);
    const int64_t lbl_begin = lbl_ptr[g], lbl_end = lbl_ptr[g + 1];
    if (lbl_begin < 0 || lbl_begin > lbl_end ||
        lbl_end > lbl_ptr[static_cast<size_t>(n)]) {
      return Status::IoError("cgs section: bad label offsets");
    }
    cg.level0_group_labels = ConstVecView<Label>(
        labels.data() + lbl_begin, static_cast<size_t>(lbl_end - lbl_begin));
    const size_t m0 = g * 2 * static_cast<size_t>(num_layers);
    cg.aggregation = ConstVecView<SparseMatrix>(
        backing->matrix_views.data() + m0, static_cast<size_t>(num_layers));
    cg.lift = ConstVecView<SparseMatrix>(
        backing->matrix_views.data() + m0 + static_cast<size_t>(num_layers),
        static_cast<size_t>(num_layers));
  }
  return Status::OK();
}

// ---- kHnsw ----

void EncodeCsr(SectionBuilder* b, GraphId num_nodes,
               const std::function<std::span<const GraphId>(GraphId)>& row) {
  std::vector<int64_t> offsets(static_cast<size_t>(num_nodes) + 1, 0);
  for (GraphId id = 0; id < num_nodes; ++id) {
    offsets[static_cast<size_t>(id) + 1] =
        offsets[static_cast<size_t>(id)] +
        static_cast<int64_t>(row(id).size());
  }
  std::vector<GraphId> neighbors;
  neighbors.reserve(static_cast<size_t>(offsets.back()));
  for (GraphId id = 0; id < num_nodes; ++id) {
    const auto span = row(id);
    neighbors.insert(neighbors.end(), span.begin(), span.end());
  }
  b->Array(offsets.data(), offsets.size());
  b->Array(neighbors.data(), neighbors.size());
}

void EncodeHnsw(SectionBuilder* b, const HnswIndex& hnsw) {
  const GraphId num_nodes = hnsw.NumNodes();
  b->Pod(num_nodes);
  b->Pod(hnsw.EntryPoint());
  const int32_t core_layers = hnsw.NumCoreLayers();
  b->Pod(core_layers);
  std::vector<int32_t> node_level(static_cast<size_t>(num_nodes));
  for (GraphId id = 0; id < num_nodes; ++id) {
    node_level[static_cast<size_t>(id)] = hnsw.NodeLevel(id);
  }
  b->Array(node_level.data(), node_level.size());
  const ProximityGraph& base = hnsw.BaseLayer();
  EncodeCsr(b, num_nodes,
            [&base](GraphId id) { return base.NeighborSpan(id); });
  for (int32_t l = 0; l < core_layers; ++l) {
    EncodeCsr(b, num_nodes,
              [&hnsw, l](GraphId id) { return hnsw.CoreRow(l, id); });
  }
}

struct CsrSpans {
  std::span<const int64_t> offsets;
  std::span<const GraphId> neighbors;
};

Result<CsrSpans> DecodeCsr(SectionReader* r, GraphId num_nodes) {
  CsrSpans csr;
  LAN_ASSIGN_OR_RETURN(csr.offsets,
                       r->Array<int64_t>(static_cast<size_t>(num_nodes) + 1));
  const int64_t count = csr.offsets[static_cast<size_t>(num_nodes)];
  if (count < 0) return Status::IoError("hnsw section: negative CSR size");
  LAN_ASSIGN_OR_RETURN(csr.neighbors,
                       r->Array<GraphId>(static_cast<size_t>(count)));
  return csr;
}

/// The returned view points into `payload`; FromSnapshotView performs the
/// structural validation (monotone offsets, ids in range, no self loops).
Result<HnswSnapshotView> DecodeHnsw(std::span<const uint8_t> payload) {
  SectionReader r(payload);
  HnswSnapshotView view;
  LAN_RETURN_NOT_OK(r.Pod(&view.num_nodes));
  LAN_RETURN_NOT_OK(r.Pod(&view.entry));
  int32_t core_layers = 0;
  LAN_RETURN_NOT_OK(r.Pod(&core_layers));
  if (view.num_nodes < 0 || core_layers < 1 || core_layers > 64) {
    return Status::IoError("hnsw section: bad header");
  }
  LAN_ASSIGN_OR_RETURN(
      std::span<const int32_t> node_level,
      r.Array<int32_t>(static_cast<size_t>(view.num_nodes)));
  view.node_level = node_level.data();
  LAN_ASSIGN_OR_RETURN(CsrSpans base, DecodeCsr(&r, view.num_nodes));
  view.base_offsets = base.offsets.data();
  view.base_neighbors = base.neighbors.data();
  view.core_layers.reserve(static_cast<size_t>(core_layers));
  for (int32_t l = 0; l < core_layers; ++l) {
    LAN_ASSIGN_OR_RETURN(CsrSpans core, DecodeCsr(&r, view.num_nodes));
    view.core_layers.emplace_back(core.offsets.data(),
                                  core.neighbors.data());
  }
  return view;
}

// ---- kModels ----

Result<std::string> ParamBlob(const ParamStore& params) {
  std::ostringstream os;
  LAN_RETURN_NOT_OK(WriteParamStore(params, os));
  return os.str();
}

void EncodeBlob(SectionBuilder* b, const std::string& blob) {
  const int64_t len = static_cast<int64_t>(blob.size());
  b->Pod(len);
  b->Bytes(blob.data(), blob.size());
}

Result<std::string> DecodeBlob(SectionReader* r) {
  int64_t len = 0;
  LAN_RETURN_NOT_OK(r->Pod(&len));
  if (len < 0 || static_cast<uint64_t>(len) > r->remaining()) {
    return Status::IoError("models section: bad blob length");
  }
  LAN_ASSIGN_OR_RETURN(std::span<const char> bytes,
                       r->Array<char>(static_cast<size_t>(len)));
  return std::string(bytes.data(), bytes.size());
}

}  // namespace

// ---- Legacy stream format (SaveIndex / BuildFromSavedIndex) ----
//
// SaveIndex now emits a LANSNAP1 image holding just {kMeta, kHnsw}; the
// old LANIDX01 and bare-HNSW streams remain readable (lan_index.cc), so
// this is a forward migration, not a break.

Status LanIndex::SaveIndex(std::ostream& out) const {
  if (!built_) return Status::FailedPrecondition("SaveIndex before Build");
  const auto snap = Snapshot();
  SnapshotWriter writer;
  EncodeMeta(writer.AddSection(SectionKind::kMeta), db_->name(),
             db_->num_labels(), *snap);
  EncodeHnsw(writer.AddSection(SectionKind::kHnsw), *snap->hnsw);
  return writer.WriteTo(out);
}

Status LanIndex::BuildFromSnapshotBuffer(const GraphDatabase* db,
                                         std::string_view bytes,
                                         std::vector<uint8_t>* live_out,
                                         uint64_t* epoch_out,
                                         HnswIndex* hnsw_out) {
  LAN_ASSIGN_OR_RETURN(SnapshotImage image, SnapshotImage::FromBuffer(bytes));
  if (!image.Has(SectionKind::kMeta) || !image.Has(SectionKind::kHnsw)) {
    return Status::IoError("snapshot stream is missing the PG sections");
  }
  LAN_ASSIGN_OR_RETURN(MetaSection meta,
                       DecodeMeta(image.Section(SectionKind::kMeta)));
  if (meta.num_graphs != static_cast<int64_t>(db->size())) {
    return Status::InvalidArgument(
        "saved index size does not match the database");
  }
  LAN_ASSIGN_OR_RETURN(HnswSnapshotView view,
                       DecodeHnsw(image.Section(SectionKind::kHnsw)));
  LAN_ASSIGN_OR_RETURN(HnswIndex hnsw, HnswIndex::FromSnapshotView(view));
  // The decode buffer dies with this call: copy the adjacency out.
  hnsw.Materialize();
  live_out->assign(meta.live.begin(), meta.live.end());
  *epoch_out = meta.epoch;
  *hnsw_out = std::move(hnsw);
  return Status::OK();
}

// ---- Full snapshot (SaveSnapshot / OpenSnapshot) ----

Status LanIndex::SaveSnapshot(const std::string& path) const {
  if (!built_) {
    return Status::FailedPrecondition("SaveSnapshot before Build");
  }
  // Exclude writers so the database contents and the published snapshot
  // describe the same epoch.
  std::lock_guard<std::mutex> lock(writer_mu_);
  const auto snap = Snapshot();
  SnapshotWriter writer;
  EncodeMeta(writer.AddSection(SectionKind::kMeta), db_->name(),
             db_->num_labels(), *snap);

  // Reuse the database's columnar arenas when they cover every graph;
  // pack fresh ones otherwise (plain deque storage, or an owned tail
  // appended after the store was attached).
  GraphStore packed;
  ColumnarGraphSpans spans;
  if (db_->store() != nullptr && db_->store_size() == db_->size()) {
    spans = db_->store()->spans();
  } else {
    packed = GraphStore::Pack(*db_);
    spans = packed.spans();
  }
  EncodeGraphs(writer.AddSection(SectionKind::kGraphs), spans);
  EncodeMatrix(writer.AddSection(SectionKind::kEmbeddings),
               *snap->embeddings);
  if (snap->embeddings->has_quantized()) {
    // Codes + scales ride along so a reopened index serves int8 zero-copy.
    // Centroid planes are not persisted: they are k * dim and re-derived
    // from the decoded f32 centroids in O(k * dim) at open.
    SectionBuilder* b =
        writer.AddSection(SectionKind::kQuantizedEmbeddings);
    const EmbeddingMatrix& m = *snap->embeddings;
    b->Pod(m.rows());
    b->Pod(m.dim());
    b->Array(m.quantized_data(), m.size());
    b->Array(m.scales_data(), static_cast<size_t>(m.rows()));
  }
  EncodeClusters(writer.AddSection(SectionKind::kClusters), *snap->clusters);
  LAN_RETURN_NOT_OK(EncodeCgs(writer.AddSection(SectionKind::kCgs),
                              *snap->cgs));
  EncodeHnsw(writer.AddSection(SectionKind::kHnsw), *snap->hnsw);

  if (trained_) {
    SectionBuilder* b = writer.AddSection(SectionKind::kModels);
    b->Pod(gamma_star_);
    b->Pod(nh_model_->calibrated_threshold());
    LAN_ASSIGN_OR_RETURN(std::string rank_blob,
                         ParamBlob(rank_model_->scorer().params()));
    LAN_ASSIGN_OR_RETURN(std::string nh_blob,
                         ParamBlob(nh_model_->scorer().params()));
    LAN_ASSIGN_OR_RETURN(
        std::string cluster_blob,
        ParamBlob(static_cast<const ClusterModel&>(*cluster_model_).params()));
    EncodeBlob(b, rank_blob);
    EncodeBlob(b, nh_blob);
    EncodeBlob(b, cluster_blob);
    EncodeMatrix(b, rank_model_->contexts());
  }
  return writer.WriteToFile(path);
}

Status LanIndex::OpenSnapshot(const std::string& path) {
  LAN_RETURN_NOT_OK(config_.Validate());
  if (built_) {
    return Status::FailedPrecondition(
        "OpenSnapshot on an already-built index");
  }
  LAN_ASSIGN_OR_RETURN(SnapshotImage file, SnapshotImage::Open(path));
  for (const SectionKind kind :
       {SectionKind::kMeta, SectionKind::kGraphs, SectionKind::kEmbeddings,
        SectionKind::kClusters, SectionKind::kCgs, SectionKind::kHnsw}) {
    if (!file.Has(kind)) {
      return Status::IoError(StrFormat("snapshot %s is missing the %s section",
                                       path.c_str(),
                                       SectionKindName(kind)));
    }
  }
  auto backing = std::make_shared<SnapshotBacking>();
  backing->snapshot = std::move(file);
  const SnapshotImage& image = backing->snapshot;

  LAN_ASSIGN_OR_RETURN(MetaSection meta,
                       DecodeMeta(image.Section(SectionKind::kMeta)));
  const int64_t n = meta.num_graphs;
  if (n <= 0) return Status::IoError("snapshot holds an empty database");

  // Database: attach the mapped arenas; the store validates offsets and
  // neighbor ids, the database seeds its tombstones from the bitmap.
  LAN_ASSIGN_OR_RETURN(ColumnarGraphSpans spans,
                       DecodeGraphs(image.Section(SectionKind::kGraphs)));
  if (spans.num_graphs != n) {
    return Status::IoError("graphs section: graph count mismatch");
  }
  LAN_ASSIGN_OR_RETURN(GraphStore store, GraphStore::Attach(spans, backing));
  auto store_ptr = std::make_shared<const GraphStore>(std::move(store));
  std::vector<uint8_t> live(meta.live.begin(), meta.live.end());
  owned_db_ = std::make_unique<GraphDatabase>(meta.num_labels);
  owned_db_->set_name(meta.name);
  LAN_RETURN_NOT_OK(owned_db_->AttachStore(store_ptr, live));
  db_ = owned_db_.get();
  mutable_db_ = owned_db_.get();
  // The memo starts empty here, as after BuildFromSavedIndex; a Build
  // that failed before this call may have left pairs of another database.
  pair_memo_.Clear();
  config_.embedding.num_labels = meta.num_labels;

  // PG: frozen index routing directly over the mapped CSR layers.
  LAN_ASSIGN_OR_RETURN(HnswSnapshotView view,
                       DecodeHnsw(image.Section(SectionKind::kHnsw)));
  if (static_cast<int64_t>(view.num_nodes) != n) {
    return Status::IoError("hnsw section: node count mismatch");
  }
  LAN_ASSIGN_OR_RETURN(HnswIndex hnsw, HnswIndex::FromSnapshotView(view));

  SectionReader embedding_reader(image.Section(SectionKind::kEmbeddings));
  LAN_ASSIGN_OR_RETURN(EmbeddingMatrix embeddings,
                       DecodeMatrix(&embedding_reader));
  if (embeddings.rows() != n) {
    return Status::IoError("embeddings section: row count mismatch");
  }
  if (image.Has(SectionKind::kQuantizedEmbeddings)) {
    // Attach the plane zero-copy whether or not the knob is on: present
    // but unused costs nothing, and a config flip needs no re-save.
    SectionReader qr(image.Section(SectionKind::kQuantizedEmbeddings));
    int64_t q_rows = 0;
    int32_t q_dim = 0;
    LAN_RETURN_NOT_OK(qr.Pod(&q_rows));
    LAN_RETURN_NOT_OK(qr.Pod(&q_dim));
    if (q_rows != n || q_dim != embeddings.dim()) {
      return Status::IoError(
          "quantized-embeddings section: shape mismatch");
    }
    LAN_ASSIGN_OR_RETURN(std::span<const int8_t> codes,
                         qr.Array<int8_t>(embeddings.size()));
    LAN_ASSIGN_OR_RETURN(std::span<const float> scales,
                         qr.Array<float>(static_cast<size_t>(n)));
    embeddings.AttachQuantizedView(codes.data(), scales.data());
  } else if (config_.quantized_embeddings) {
    // Legacy snapshot without the section: quantize on first use (open).
    embeddings.Quantize();
  }
  LAN_ASSIGN_OR_RETURN(
      KMeansResult clusters,
      DecodeClusters(image.Section(SectionKind::kClusters), n));
  if (config_.quantized_embeddings) {
    // Centroid planes are never persisted; re-derive from the decoded f32
    // centroids (the plane itself is owned even over a view matrix).
    clusters.centroids.Quantize();
  }
  auto cgs = std::make_shared<std::vector<CompressedGnnGraph>>();
  LAN_RETURN_NOT_OK(DecodeCgs(image.Section(SectionKind::kCgs),
                              backing.get(), cgs.get(), n));
  if (n > 0 &&
      (*cgs)[0].num_layers !=
          static_cast<int>(config_.scorer.gnn_dims.size())) {
    return Status::InvalidArgument(
        "snapshot CG depth does not match config.scorer.gnn_dims");
  }

  // Trained state, if the snapshot carries it: architectures come from
  // the config (as in LoadModels), parameters from the section, and the
  // rank context matrix attaches as a view.
  if (image.Has(SectionKind::kModels)) {
    SectionReader r(image.Section(SectionKind::kModels));
    LAN_RETURN_NOT_OK(r.Pod(&gamma_star_));
    float nh_threshold = 0.5f;
    LAN_RETURN_NOT_OK(r.Pod(&nh_threshold));
    LAN_ASSIGN_OR_RETURN(std::string rank_blob, DecodeBlob(&r));
    LAN_ASSIGN_OR_RETURN(std::string nh_blob, DecodeBlob(&r));
    LAN_ASSIGN_OR_RETURN(std::string cluster_blob, DecodeBlob(&r));

    RankModelOptions rank_opts = config_.rank;
    rank_opts.batch_percent = config_.batch_percent;
    rank_opts.scorer = config_.scorer;
    rank_model_ =
        std::make_unique<NeighborRankModel>(meta.num_labels, rank_opts);
    std::istringstream rank_in(rank_blob);
    LAN_RETURN_NOT_OK(
        ReadParamStoreInto(rank_model_->mutable_scorer()->params(), rank_in));

    NeighborhoodModelOptions nh_opts = config_.nh;
    nh_opts.scorer = config_.scorer;
    nh_model_ =
        std::make_unique<NeighborhoodModel>(meta.num_labels, nh_opts);
    std::istringstream nh_in(nh_blob);
    LAN_RETURN_NOT_OK(
        ReadParamStoreInto(nh_model_->mutable_scorer()->params(), nh_in));
    nh_model_->set_calibrated_threshold(nh_threshold);

    cluster_model_ = std::make_unique<ClusterModel>(
        static_cast<int32_t>(2 * config_.embedding.dim), config_.cluster);
    std::istringstream cluster_in(cluster_blob);
    LAN_RETURN_NOT_OK(ReadParamStoreInto(cluster_model_->params(),
                                         cluster_in));

    LAN_ASSIGN_OR_RETURN(EmbeddingMatrix contexts, DecodeMatrix(&r));
    // M_rk contexts cover the graphs present at Train time; graphs
    // inserted online afterwards have none (PredictBatches computes theirs
    // on the fly), so a prefix is valid and only an overlong matrix is not.
    if (!contexts.empty() && contexts.rows() > n) {
      return Status::IoError("models section: more context rows than graphs");
    }
    rank_model_->AttachContexts(std::move(contexts));
    trained_ = true;
  }

  auto next = std::make_shared<IndexSnapshot>();
  next->epoch = meta.epoch;
  next->num_graphs = static_cast<GraphId>(n);
  next->live_count = next->num_graphs;
  for (const uint8_t l : live) {
    if (l == 0) --next->live_count;
  }
  next->hnsw = std::make_shared<const HnswIndex>(std::move(hnsw));
  next->live =
      std::make_shared<const std::vector<uint8_t>>(std::move(live));
  next->cgs = std::move(cgs);
  next->embeddings =
      std::make_shared<const EmbeddingMatrix>(std::move(embeddings));
  next->clusters =
      std::make_shared<const KMeansResult>(std::move(clusters));
  next->backing = backing;
  snapshot_backing_ = backing;
  Publish(std::move(next));

  // Same tail as FinishBuild: the level-draw stream, the provider stack,
  // and the cache are functions of (config, database size) only, so an
  // opened index inserts and caches exactly like the one that saved it
  // (its empty pair memo changes which distances an Insert computes, not
  // their values).
  insert_rng_ = Rng(config_.hnsw.seed ^
                    (0x9e3779b97f4a7c15ULL +
                     static_cast<uint64_t>(db_->size())));
  InitProviders();
  built_ = true;
  LAN_LOG(Info) << "LanIndex::OpenSnapshot: " << n << " graphs ("
                << meta.name << "), epoch " << meta.epoch
                << (trained_ ? ", trained" : ", untrained");
  return Status::OK();
}

}  // namespace lan
