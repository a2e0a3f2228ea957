#include "pg/distance.h"

namespace lan {

const char* ResultKindName(ResultKind kind) {
  switch (kind) {
    case ResultKind::kExactGed:
      return "exact_ged";
    case ResultKind::kApproxGed:
      return "approx_ged";
    case ResultKind::kRankBatches:
      return "rank_batches";
    case ResultKind::kClusterCounts:
      return "cluster_counts";
    case ResultKind::kNeighborhoodProbs:
      return "neighborhood_probs";
  }
  return "unknown";
}

ResultDependency DependencyOf(ResultKind kind) {
  switch (kind) {
    case ResultKind::kExactGed:
    case ResultKind::kApproxGed:
      return ResultDependency::kContent;
    case ResultKind::kClusterCounts:
    case ResultKind::kNeighborhoodProbs:
      return ResultDependency::kModels;
    case ResultKind::kRankBatches:
      return ResultDependency::kTopology;
  }
  return ResultDependency::kTopology;
}

DistanceProvider::~DistanceProvider() = default;

bool DistanceProvider::FindScore(const QueryContext& ctx, ResultKind kind,
                                 GraphId id, CachedScore* out) const {
  (void)ctx;
  (void)kind;
  (void)id;
  (void)out;
  return false;
}

void DistanceProvider::StoreScore(const QueryContext& ctx, ResultKind kind,
                                  GraphId id, const CachedScore& value) const {
  (void)ctx;
  (void)kind;
  (void)id;
  (void)value;
}

}  // namespace lan
