// Input generation and index setup.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "bench.h"
#include "common/random.h"
#include "graph/graph_generator.h"
#include "lan/workload.h"

namespace perfbench {
namespace {

[[noreturn]] void Die(const std::string& what, const lan::Status& status) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(3);
}

/// Training queries come from the 6:2:2 train split of this many samples
/// (18 / 12 queries). paper_protocol's Train computes its distance tables
/// under the exact-attempt protocol, so it trains on fewer.
int TrainSamples(WorkloadKind kind) {
  return kind == WorkloadKind::kPaperProtocol ? 20 : 30;
}

/// Distinct queries the timed phase draws from.
int QueryPool(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kPaperProtocol:
      return 24;  // one pass takes about 5 s
    case WorkloadKind::kHotRepeat:
      return 64;
    case WorkloadKind::kChurn:
      return 32;
  }
  return 32;
}

}  // namespace

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kPaperProtocol:
      return "paper_protocol";
    case WorkloadKind::kHotRepeat:
      return "hot_repeat";
    case WorkloadKind::kChurn:
      return "churn";
  }
  return "?";
}

LanConfig MakeConfig(WorkloadKind kind, int threads) {
  LanConfig c;
  // Serial PG insertion (the default): the index, and so every count it
  // produces, is the same in every run. M = 6 keeps the serial build about
  // as cheap as a 4-thread parallel build at M = 8, at the same NDC and
  // recall; setup runs kSetupRepeats times per run.
  c.hnsw.M = 6;
  c.hnsw.ef_construction = 8;
  c.scorer.gnn_dims = {16, 16};
  c.scorer.mlp_hidden = 32;
  c.rank.epochs = 4;
  c.nh.epochs = 4;
  c.cluster.epochs = 40;
  c.max_rank_examples = 1000;
  c.max_nh_examples = 800;
  c.neighborhood_knn = 2 * kK;
  c.embedding.dim = 32;
  c.default_beam = kBeam;
  c.seed = 999;
  c.num_threads = threads;
  if (kind == WorkloadKind::kPaperProtocol) {
    // LanConfig{}'s query protocol: VJ/Hungarian/Beam, then an A* attempt
    // under the wall-clock budget. Result cache off.
    c.query_ged = lan::GedOptions{};
  } else {
    c.query_ged.approximate_only = true;
    c.cache.enabled = true;
    // The hot pool's GED values and model scores take well under 2 MiB;
    // 8 MiB holds them with room to spare, so nothing hot is evicted.
    c.cache.capacity_bytes = 8ull << 20;
  }
  return c;
}

Inputs MakeInputs(WorkloadKind kind, uint64_t seed) {
  Inputs in;
  // The database, the training queries and each workload's query pool are
  // a fixed dataset, the same in every run. The run seed draws the traffic
  // over it: the serving order, which pool queries are hot, the mutation
  // schedule and the graphs written.
  in.spec = lan::DatasetSpec::AidsLike(kDbGraphs);
  in.db = lan::GenerateDatabase(in.spec, kDatasetSeed);
  lan::WorkloadOptions train_opts;
  train_opts.num_queries = TrainSamples(kind);
  in.train = lan::SampleWorkload(in.db, train_opts, kDatasetSeed + 1).train;

  // Held-out queries: an independent sample, all three splits used.
  lan::WorkloadOptions query_opts;
  query_opts.num_queries = QueryPool(kind);
  lan::QueryWorkload held =
      lan::SampleWorkload(in.db, query_opts, kDatasetSeed + 2);
  for (auto* split : {&held.train, &held.validation, &held.test}) {
    for (Graph& g : *split) in.queries.push_back(std::move(g));
  }

  lan::Rng rng(SubSeed(seed, 1));
  std::vector<int32_t> perm(in.queries.size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int32_t>(i);
  rng.Shuffle(&perm);
  if (kind != WorkloadKind::kHotRepeat) {
    in.stream = std::move(perm);  // serving order, cycled
    return in;
  }
  // hot_repeat: Zipf(s = 1) over a seeded ranking of the pool. The query
  // at rank r appears max(1, round(kStreamTarget * w_r / sum(w))) times,
  // w_r = 1 / (r + 1), in a seeded order. Every pool query appears, so the
  // first sightings (cache misses) are the same set in every run.
  constexpr double kStreamTarget = 256.0;
  double total = 0.0;
  for (size_t r = 0; r < perm.size(); ++r) total += 1.0 / (r + 1.0);
  for (size_t r = 0; r < perm.size(); ++r) {
    const double expected = kStreamTarget / (r + 1.0) / total;
    const int count = std::max(1, static_cast<int>(std::lround(expected)));
    in.stream.insert(in.stream.end(), count, perm[r]);
  }
  rng.Shuffle(&in.stream);
  return in;
}

Served SetUp(WorkloadKind kind, const Inputs& inputs, int threads,
             const std::string& workdir) {
  Served s;
  const double t0 = Now();
  s.db = std::make_unique<GraphDatabase>(inputs.db);
  auto index = std::make_unique<LanIndex>(MakeConfig(kind, threads));
  // Mutable builds everywhere: every workload inserts (churn during the
  // timed phase, the others in the write probe after it).
  lan::Status st = index->Build(s.db.get());
  if (!st.ok()) Die("Build", st);
  st = index->Train(inputs.train);
  if (!st.ok()) Die("Train", st);
  if (kind != WorkloadKind::kPaperProtocol) {
    s.index = std::move(index);
    s.setup_s = Now() - t0;
    return s;
  }
  // paper_protocol serves the mmap'd frozen-CSR snapshot, as
  // `lan_tool serve` does.
  const std::string path = workdir + "/paper_protocol.lansnap";
  const double t_save = Now();
  st = index->SaveSnapshot(path);
  if (!st.ok()) Die("SaveSnapshot", st);
  s.save_s = Now() - t_save;
  index.reset();
  s.db.reset();
  const double t_open = Now();
  s.index = std::make_unique<LanIndex>(MakeConfig(kind, threads));
  st = s.index->OpenSnapshot(path);
  if (!st.ok()) Die("OpenSnapshot", st);
  s.open_s = Now() - t_open;
  s.setup_s = Now() - t0;
  s.snapshot_bytes =
      static_cast<int64_t>(std::filesystem::file_size(path));
  return s;
}

void MeasureSnapshot(Served* served, const std::string& workdir) {
  const std::string path = workdir + "/measured.lansnap";
  const double t_save = Now();
  lan::Status st = served->index->SaveSnapshot(path);
  if (!st.ok()) Die("SaveSnapshot", st);
  served->save_s = Now() - t_save;
  served->snapshot_bytes =
      static_cast<int64_t>(std::filesystem::file_size(path));
  const double t_open = Now();
  {
    LanIndex reopened(served->index->config());
    st = reopened.OpenSnapshot(path);
    if (!st.ok()) Die("OpenSnapshot", st);
  }
  served->open_s = Now() - t_open;
  std::filesystem::remove(path);
}

}  // namespace perfbench
