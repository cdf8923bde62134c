#ifndef VDB_EXEC_OPTIMIZER_H_
#define VDB_EXEC_OPTIMIZER_H_

#include <vector>

#include "exec/executor.h"
#include "exec/plan.h"
#include "exec/predicate.h"

namespace vdb {

/// Enumerates the plans worth choosing for a predicated query against
/// `view` (paper §2.3 "Plan Enumeration": index availability determines
/// the space, AnalyticDB-V style). Graph segments get no pre-filter plan:
/// block-first disconnects their traversal.
std::vector<HybridPlan> EnumeratePlans(const CollectionView& view,
                                       const Predicate& pred);

/// Plan selection interface (paper §2.3 "Plan Selection"). A choice
/// estimates the predicate's selectivity at most once; when
/// `est_selectivity` is non-null it receives that estimate (and is left
/// untouched when the choice needed none).
class PlanOptimizer {
 public:
  virtual ~PlanOptimizer() = default;
  virtual Result<HybridPlan> Choose(
      const Predicate& pred, const CollectionView& view,
      const SearchParams& params, double* est_selectivity = nullptr) const = 0;
};

/// Rule-based selection on selectivity thresholds (the Qdrant/Vespa
/// heuristic): very selective predicates brute-force the matching rows;
/// permissive predicates post-filter; the middle band pre-filters through
/// the index, or filters while visiting when the index is a graph.
struct RuleBasedOptions {
  double brute_force_below = 0.02;  ///< s < this: scan matches exactly
  double post_filter_above = 0.50;  ///< s > this: filter barely bites
};

class RuleBasedOptimizer final : public PlanOptimizer {
 public:
  explicit RuleBasedOptimizer(const RuleBasedOptions& opts = {})
      : opts_(opts) {}
  Result<HybridPlan> Choose(const Predicate& pred, const CollectionView& view,
                            const SearchParams& params,
                            double* est_selectivity = nullptr) const override;

 private:
  RuleBasedOptions opts_;
};

/// Abstract per-operator costs aggregated linearly into a plan cost (the
/// AnalyticDB-V / Milvus linear cost model). Units are arbitrary but
/// consistent; defaults approximate one float32 distance evaluation = 1.
struct CostModel {
  double dist_comp = 1.0;        ///< one full-precision distance
  double bitmask_row = 0.02;     ///< one row of bitmask construction
  double filter_check = 0.05;    ///< one per-row predicate probe
  /// Distance evaluations per unit of graph beam width (ef): covers
  /// neighbor expansion fan-out. Calibrated empirically for HNSW-like
  /// graphs (ndis ~ ef * fanout).
  double graph_fanout = 8.0;
};

class CostBasedOptimizer final : public PlanOptimizer {
 public:
  explicit CostBasedOptimizer(const CostModel& model = {}) : model_(model) {}

  Result<HybridPlan> Choose(const Predicate& pred, const CollectionView& view,
                            const SearchParams& params,
                            double* est_selectivity = nullptr) const override;

  /// Estimated cost of one plan at selectivity `s` over `n` rows; exposed
  /// for tests and the E5 benchmark. Plans expected to return fewer than k
  /// results are penalized by the deficit.
  double EstimateCost(const HybridPlan& plan, double s, std::size_t n,
                      const SearchParams& params) const;

 private:
  CostModel model_;
};

}  // namespace vdb

#endif  // VDB_EXEC_OPTIMIZER_H_
