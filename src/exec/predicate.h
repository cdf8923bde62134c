#ifndef VDB_EXEC_PREDICATE_H_
#define VDB_EXEC_PREDICATE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/types.h"
#include "index/index.h"
#include "storage/attribute_store.h"

namespace vdb {

/// Comparison operators over attribute values.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Boolean predicate tree over structured attributes — the filter half of
/// a hybrid query (§2.1 "Query Variants"). Supports bitmask evaluation
/// (block-first filtering), per-row checks (visit-first / post-filter),
/// and statistics-based selectivity estimation (plan selection, §2.3).
class Predicate {
 public:
  /// The always-true predicate (selectivity 1; hybrid degenerates to k-NN).
  Predicate();

  static Predicate True() { return Predicate(); }
  static Predicate Cmp(std::string column, CmpOp op, AttrValue value);
  static Predicate In(std::string column, std::vector<AttrValue> values);
  static Predicate Between(std::string column, AttrValue lo, AttrValue hi);
  static Predicate And(Predicate a, Predicate b);
  static Predicate Or(Predicate a, Predicate b);
  static Predicate Not(Predicate a);

  bool IsTrue() const;

  /// Evaluates to a bitmask over rows [0, attrs.NumRows()) — the
  /// block-first technique of Milvus/AnalyticDB-V.
  Result<Bitset> Evaluate(const AttributeStore& attrs) const;

  /// Per-row check (single-stage / post-filter path).
  Result<bool> MatchesRow(const AttributeStore& attrs, VectorId id) const;

  /// Estimated fraction of rows matching, from column statistics:
  /// equality via distinct counts, ranges via equi-width histograms,
  /// conjunction/disjunction under independence.
  Result<double> EstimateSelectivity(const AttributeStore& attrs) const;

  std::string ToString() const;

  /// If this predicate is exactly `column = value`, fills the outputs and
  /// returns true (the shape offline attribute partitioning can serve).
  bool AsSingleEquality(std::string* column, AttrValue* value) const;

 private:
  enum class Kind { kTrue, kCmp, kIn, kBetween, kAnd, kOr, kNot };

  struct Node;
  explicit Predicate(std::shared_ptr<const Node> node)
      : node_(std::move(node)) {}

  /// Bitmask of a kCmp / kIn / kBetween leaf, one pass over its column.
  Result<Bitset> EvaluateLeaf(const AttributeStore& attrs) const;

  std::shared_ptr<const Node> node_;
};

/// Adapts a Predicate to the index-facing IdFilter interface, evaluating
/// per row on demand (the visit-first operator's probe).
class PredicateIdFilter final : public IdFilter {
 public:
  PredicateIdFilter(const Predicate* pred, const AttributeStore* attrs)
      : pred_(pred), attrs_(attrs) {}
  bool Matches(VectorId id) const override {
    auto result = pred_->MatchesRow(*attrs_, id);
    return result.ok() && *result;
  }

 private:
  const Predicate* pred_;
  const AttributeStore* attrs_;
};

}  // namespace vdb

#endif  // VDB_EXEC_PREDICATE_H_
