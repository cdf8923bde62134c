#include "exec/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vdb {

std::vector<HybridPlan> EnumeratePlans(const CollectionView& view,
                                       const Predicate& pred) {
  std::vector<HybridPlan> plans;
  plans.push_back({PlanKind::kBruteForceHybrid, 3.0f});
  if (view.segments.empty()) return plans;
  // Every segment is built by one factory.
  if (!view.segments.front().index->IsGraph()) {
    plans.push_back({PlanKind::kPreFilterIndexScan, 3.0f});
  }
  plans.push_back({PlanKind::kPostFilterIndexScan, 3.0f});
  plans.push_back({PlanKind::kVisitFirstIndexScan, 3.0f});
  std::int64_t key = 0;
  if (PrunedKey(view, pred, &key)) {
    plans.push_back({PlanKind::kPartitionPruned, 3.0f});
  }
  return plans;
}

Result<HybridPlan> RuleBasedOptimizer::Choose(const Predicate& pred,
                                              const CollectionView& view,
                                              const SearchParams& params,
                                              double* est_selectivity) const {
  (void)params;
  if (view.segments.empty()) {
    return HybridPlan{PlanKind::kBruteForceHybrid, 3.0f};
  }
  VDB_ASSIGN_OR_RETURN(double s, pred.EstimateSelectivity(*view.attrs));
  if (est_selectivity != nullptr) *est_selectivity = s;
  if (s < opts_.brute_force_below) {
    // Few matches: score them all exactly; no index needed.
    return HybridPlan{PlanKind::kBruteForceHybrid, 3.0f};
  }
  if (s > opts_.post_filter_above) {
    // Filter barely bites: unfiltered scan plus a cheap post-check.
    // Amplification sized to the expected pass rate.
    float amp = static_cast<float>(std::min(10.0, 2.0 / std::max(s, 0.01)));
    return HybridPlan{PlanKind::kPostFilterIndexScan, amp};
  }
  // Middle band: block through the index, except over a graph, whose
  // traversal blocking would disconnect.
  return HybridPlan{view.segments.front().index->IsGraph()
                        ? PlanKind::kVisitFirstIndexScan
                        : PlanKind::kPreFilterIndexScan,
                    3.0f};
}

double CostBasedOptimizer::EstimateCost(const HybridPlan& plan, double s,
                                        std::size_t n,
                                        const SearchParams& params) const {
  const double nn = static_cast<double>(n);
  const double k = static_cast<double>(params.k);
  const double ef =
      params.ef > 0 ? static_cast<double>(params.ef) : std::max(32.0, k);
  const double eps = 1e-4;
  switch (plan.kind) {
    case PlanKind::kBruteForceHybrid:
      return nn * model_.bitmask_row + s * nn * model_.dist_comp;

    case PlanKind::kPreFilterIndexScan: {
      // Bitmask plus a blocked graph scan; blocking shrinks the reachable
      // set, so expansion work scales with ef but each hop wades through
      // blocked neighbors (1/s retry factor, capped by the collection).
      double scan = std::min(nn, ef * model_.graph_fanout / std::max(s, 0.25));
      return nn * model_.bitmask_row + scan * model_.dist_comp;
    }

    case PlanKind::kPostFilterIndexScan: {
      double a = std::max(1.0f, plan.amplification);
      double scan = std::min(nn, std::max(ef, a * k) * model_.graph_fanout);
      double cost = scan * model_.dist_comp + a * k * model_.filter_check;
      // Expected deficit penalty: fewer than k results is a correctness
      // hazard (§2.6(3)); price each missing slot as a full re-run.
      double expected = std::min(k, a * k * s);
      double deficit = (k - expected) / k;
      return cost * (1.0 + 4.0 * deficit);
    }

    case PlanKind::kVisitFirstIndexScan: {
      // Must traverse ~ef/s nodes to gather ef admissible candidates.
      double visited = std::min(nn, ef * model_.graph_fanout / std::max(s, eps));
      return visited * (model_.dist_comp + model_.filter_check);
    }

    case PlanKind::kPartitionPruned: {
      // Search the segments of one key, s*n rows expected, with their
      // indexes.
      double scan = std::min(s * nn, ef * model_.graph_fanout);
      return scan * model_.dist_comp;
    }
  }
  return std::numeric_limits<double>::max();
}

Result<HybridPlan> CostBasedOptimizer::Choose(const Predicate& pred,
                                              const CollectionView& view,
                                              const SearchParams& params,
                                              double* est_selectivity) const {
  VDB_ASSIGN_OR_RETURN(double s, pred.EstimateSelectivity(*view.attrs));
  if (est_selectivity != nullptr) *est_selectivity = s;
  const std::size_t n = LiveRows(view);
  auto plans = EnumeratePlans(view, pred);
  double best_cost = std::numeric_limits<double>::max();
  HybridPlan best = plans.front();
  for (auto& plan : plans) {
    if (plan.kind == PlanKind::kPostFilterIndexScan) {
      // Size the amplification so the expected yield covers k (§2.6(3)'s
      // "retrieve a*k" with a = 2/s, clamped).
      plan.amplification =
          static_cast<float>(std::clamp(2.0 / std::max(s, 0.01), 1.0, 50.0));
    }
    double cost = EstimateCost(plan, s, n, params);
    if (cost < best_cost) {
      best_cost = cost;
      best = plan;
    }
  }
  return best;
}

}  // namespace vdb
