#ifndef VDB_EXEC_PLAN_H_
#define VDB_EXEC_PLAN_H_

#include <optional>
#include <string>

#include "core/types.h"

namespace vdb {

/// Physical hybrid-query plans (paper §2.3 "Plan Enumeration"): the four
/// AnalyticDB-V-style strategies plus offline attribute partitioning.
enum class PlanKind {
  /// Fused scan: build the bitmask, brute-force only matching rows.
  /// Exact; optimal at low selectivity or tiny collections.
  kBruteForceHybrid,
  /// Pre-filtering (block-first): bitmask, then a blocked index scan.
  kPreFilterIndexScan,
  /// Post-filtering: unfiltered index scan of a*k, filter afterwards. One
  /// pass may keep fewer than k results (the §2.6(3) deficit); the
  /// executor refills such a pass, so the plan returns min(k, matching).
  kPostFilterIndexScan,
  /// Single-stage (visit-first): predicate probed during index traversal.
  kVisitFirstIndexScan,
  /// Offline blocking: sealed segments are keyed by an attribute value;
  /// only the segments of the predicate's value are searched
  /// (Milvus-style pre-partitioning).
  kPartitionPruned,
};

struct HybridPlan {
  PlanKind kind = PlanKind::kBruteForceHybrid;
  /// Post-filter amplification `a` (retrieve a*k before filtering).
  float amplification = 3.0f;

  std::string ToString() const {
    switch (kind) {
      case PlanKind::kBruteForceHybrid: return "brute-force";
      case PlanKind::kPreFilterIndexScan: return "pre-filter";
      case PlanKind::kPostFilterIndexScan:
        return "post-filter(a=" + std::to_string(amplification) + ")";
      case PlanKind::kVisitFirstIndexScan: return "visit-first";
      case PlanKind::kPartitionPruned: return "partition-pruned";
    }
    return "?";
  }
};

/// Executor-level instrumentation: the operator costs the paper's cost
/// models aggregate (§2.3 "Cost Based").
struct ExecStats {
  SearchStats search;
  std::size_t bitmask_rows = 0;   ///< rows touched building a bitmask
  std::size_t matching_rows = 0;  ///< bitmask cardinality (when built)
  double est_selectivity = -1.0;  ///< optimizer's estimate (when consulted)
  /// Post-filter passes run after a short first pass, the exact
  /// brute-force fallback included.
  std::size_t refills = 0;
  std::optional<HybridPlan> plan;  ///< the plan Collection::Hybrid executed
};

}  // namespace vdb

#endif  // VDB_EXEC_PLAN_H_
