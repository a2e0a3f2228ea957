#ifndef LAN_LAN_BRUTE_FORCE_H_
#define LAN_LAN_BRUTE_FORCE_H_

#include "lan/ground_truth.h"
#include "lan/lan_index.h"

namespace lan {

/// \brief The trivially correct reference: a linear scan computing d(Q, G)
/// for every database graph. O(|D|) NDC per query — the "10 hours for one
/// exact 20-NN query" regime the paper's introduction motivates against.
/// Used as ground truth in benches and as the simplest possible index for
/// API parity tests.
///
/// Also a DistanceProvider: brute-force comparisons and cache layering
/// (wrap it in a CachingDistanceProvider to memoize a ground-truth sweep)
/// go through the same interface as the learned index.
class BruteForceIndex : public DistanceProvider {
 public:
  explicit BruteForceIndex(const GraphDatabase* db, GedOptions ged_options = {})
      : db_(db), ged_(ged_options) {}

  /// Exhaustive k-NN with full stats accounting.
  SearchResult Search(const Graph& query, int k) const;

  DistanceResult Exact(const QueryContext& ctx, const Graph& query,
                       GraphId id) const override {
    (void)ctx;
    return DistanceResult{ged_.Distance(query, db_->Get(id)), true};
  }

  const GraphDatabase& db() const { return *db_; }

 private:
  const GraphDatabase* db_;
  GedComputer ged_;
};

/// \brief Post-search refinement: recomputes the distances of the top
/// answers under a (typically larger) exact-GED budget and re-sorts.
/// Useful when routing ran with cheap approximate distances but the final
/// ranking should be as exact as affordable. The refined distances are
/// never below the originals' true values; count of recomputations is
/// added to stats->ndc when stats is non-null.
KnnList RefineTopK(const GraphDatabase& db, const Graph& query,
                   const KnnList& results, const GedOptions& refine_options,
                   SearchStats* stats = nullptr);

}  // namespace lan

#endif  // LAN_LAN_BRUTE_FORCE_H_
