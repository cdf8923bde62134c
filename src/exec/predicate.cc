#include "exec/predicate.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <type_traits>
#include <variant>

namespace vdb {

struct Predicate::Node {
  Kind kind = Kind::kTrue;
  // kCmp / kIn / kBetween:
  std::string column;
  CmpOp op = CmpOp::kEq;
  std::vector<AttrValue> values;  ///< [v] / IN-list / [lo, hi]
  // kAnd / kOr / kNot:
  std::shared_ptr<const Node> left;
  std::shared_ptr<const Node> right;
};

Predicate::Predicate() : node_(std::make_shared<Node>()) {}

Predicate Predicate::Cmp(std::string column, CmpOp op, AttrValue value) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kCmp;
  node->column = std::move(column);
  node->op = op;
  node->values = {std::move(value)};
  return Predicate(node);
}

Predicate Predicate::In(std::string column, std::vector<AttrValue> values) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kIn;
  node->column = std::move(column);
  node->values = std::move(values);
  return Predicate(node);
}

Predicate Predicate::Between(std::string column, AttrValue lo, AttrValue hi) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kBetween;
  node->column = std::move(column);
  node->values = {std::move(lo), std::move(hi)};
  return Predicate(node);
}

Predicate Predicate::And(Predicate a, Predicate b) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kAnd;
  node->left = a.node_;
  node->right = b.node_;
  return Predicate(node);
}

Predicate Predicate::Or(Predicate a, Predicate b) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kOr;
  node->left = a.node_;
  node->right = b.node_;
  return Predicate(node);
}

Predicate Predicate::Not(Predicate a) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kNot;
  node->left = a.node_;
  return Predicate(node);
}

bool Predicate::IsTrue() const { return node_->kind == Kind::kTrue; }

bool Predicate::AsSingleEquality(std::string* column, AttrValue* value) const {
  if (node_->kind != Kind::kCmp || node_->op != CmpOp::kEq) return false;
  *column = node_->column;
  *value = node_->values[0];
  return true;
}

namespace {

// Three-way comparison shared by the per-row and column-at-a-time paths.
// Mixed int64/double operands compare as doubles (numeric promotion); a
// NaN operand compares equal to everything.
template <typename A, typename B>
int ThreeWay(const A& a, const B& b) {
  if constexpr (std::is_same_v<A, B>) {
    return a < b ? -1 : (a > b ? 1 : 0);
  } else {
    return ThreeWay(static_cast<double>(a), static_cast<double>(b));
  }
}

// Whether values of types A and B may be compared (string vs number may not).
template <typename A, typename B>
constexpr bool kComparable =
    std::is_same_v<A, std::string> == std::is_same_v<B, std::string>;

Status TypeMismatch() {
  return Status::InvalidArgument("type mismatch in predicate");
}

// Returns `fn(lit)` with `v` unwrapped to its alternative, or the
// type-mismatch error when `v` cannot compare against column values of T.
template <typename T, typename Fn>
Status VisitLiteral(const AttrValue& v, Fn&& fn) {
  return std::visit(
      [&](const auto& lit) -> Status {
        if constexpr (kComparable<T, std::decay_t<decltype(lit)>>) {
          return fn(lit);
        } else {
          return TypeMismatch();
        }
      },
      v);
}

// Three-way comparison of a stored value against a literal; returns
// InvalidArgument on type mismatch.
Result<int> CompareValues(const AttrValue& stored, const AttrValue& literal) {
  return std::visit(
      [](const auto& a, const auto& b) -> Result<int> {
        if constexpr (kComparable<std::decay_t<decltype(a)>,
                                  std::decay_t<decltype(b)>>) {
          return ThreeWay(a, b);
        } else {
          return TypeMismatch();
        }
      },
      stored, literal);
}

bool ApplyOp(CmpOp op, int cmp) {
  switch (op) {
    case CmpOp::kEq: return cmp == 0;
    case CmpOp::kNe: return cmp != 0;
    case CmpOp::kLt: return cmp < 0;
    case CmpOp::kLe: return cmp <= 0;
    case CmpOp::kGt: return cmp > 0;
    case CmpOp::kGe: return cmp >= 0;
  }
  return false;
}

// Selectivity guessed for a range comparison without a histogram.
constexpr double kStringRangeGuess = 0.33;

double AsDouble(const AttrValue& v) {
  switch (TypeOf(v)) {
    case AttrType::kInt64:
      return static_cast<double>(std::get<std::int64_t>(v));
    case AttrType::kDouble:
      return std::get<double>(v);
    case AttrType::kString:
      return 0.0;
  }
  return 0.0;
}

// Fraction of rows below `v` read from the equi-width histogram,
// interpolating linearly inside the bucket that holds `v`.
double FractionBelow(const ColumnStats& stats, double v) {
  double total = 0.0, below = 0.0;
  double width = (stats.max - stats.min) / 16.0;
  for (std::size_t b = 0; b < stats.histogram.size(); ++b) {
    total += static_cast<double>(stats.histogram[b]);
    double bucket_hi = stats.min + width * static_cast<double>(b + 1);
    if (bucket_hi <= v) {
      below += static_cast<double>(stats.histogram[b]);
    } else if (bucket_hi - width < v && width > 0.0) {
      below += static_cast<double>(stats.histogram[b]) *
               (v - (bucket_hi - width)) / width;
    }
  }
  return total > 0.0 ? below / total : 0.5;
}

}  // namespace

Result<bool> Predicate::MatchesRow(const AttributeStore& attrs,
                                   VectorId id) const {
  const Node& n = *node_;
  switch (n.kind) {
    case Kind::kTrue:
      return true;
    case Kind::kCmp: {
      VDB_ASSIGN_OR_RETURN(AttrValue stored, attrs.Get(id, n.column));
      VDB_ASSIGN_OR_RETURN(int cmp, CompareValues(stored, n.values[0]));
      return ApplyOp(n.op, cmp);
    }
    case Kind::kIn: {
      VDB_ASSIGN_OR_RETURN(AttrValue stored, attrs.Get(id, n.column));
      for (const auto& v : n.values) {
        auto cmp = CompareValues(stored, v);
        if (cmp.ok() && *cmp == 0) return true;
      }
      return false;
    }
    case Kind::kBetween: {
      VDB_ASSIGN_OR_RETURN(AttrValue stored, attrs.Get(id, n.column));
      VDB_ASSIGN_OR_RETURN(int lo, CompareValues(stored, n.values[0]));
      VDB_ASSIGN_OR_RETURN(int hi, CompareValues(stored, n.values[1]));
      return lo >= 0 && hi <= 0;
    }
    case Kind::kAnd: {
      VDB_ASSIGN_OR_RETURN(bool a, Predicate(n.left).MatchesRow(attrs, id));
      if (!a) return false;
      return Predicate(n.right).MatchesRow(attrs, id);
    }
    case Kind::kOr: {
      VDB_ASSIGN_OR_RETURN(bool a, Predicate(n.left).MatchesRow(attrs, id));
      if (a) return true;
      return Predicate(n.right).MatchesRow(attrs, id);
    }
    case Kind::kNot: {
      VDB_ASSIGN_OR_RETURN(bool a, Predicate(n.left).MatchesRow(attrs, id));
      return !a;
    }
  }
  return Status::Internal("bad predicate kind");
}

Result<Bitset> Predicate::Evaluate(const AttributeStore& attrs) const {
  // Leaf predicates evaluate column-at-a-time; boolean nodes combine
  // bitsets (the standard vectorized filtering pipeline).
  const Node& node = *node_;
  switch (node.kind) {
    case Kind::kTrue:
      return Bitset(attrs.NumRows(), true);
    case Kind::kAnd: {
      VDB_ASSIGN_OR_RETURN(Bitset a, Predicate(node.left).Evaluate(attrs));
      VDB_ASSIGN_OR_RETURN(Bitset b, Predicate(node.right).Evaluate(attrs));
      a.And(b);
      return a;
    }
    case Kind::kOr: {
      VDB_ASSIGN_OR_RETURN(Bitset a, Predicate(node.left).Evaluate(attrs));
      VDB_ASSIGN_OR_RETURN(Bitset b, Predicate(node.right).Evaluate(attrs));
      a.Or(b);
      return a;
    }
    case Kind::kNot: {
      VDB_ASSIGN_OR_RETURN(Bitset a, Predicate(node.left).Evaluate(attrs));
      a.Not();
      return a;
    }
    default:
      return EvaluateLeaf(attrs);
  }
}

Result<Bitset> Predicate::EvaluateLeaf(const AttributeStore& attrs) const {
  const Node& n = *node_;
  const std::size_t rows = attrs.NumRows();
  Bitset bits(rows);
  // With no rows MatchesRow never runs, so neither does its column lookup.
  if (rows == 0) return bits;
  VDB_ASSIGN_OR_RETURN(AttrType type, attrs.ColumnType(n.column));
  // Resolves the column once, then compares raw values with MatchesRow's
  // ThreeWay: same promotion, NaN and string order, same errors.
  auto scan = [&](const auto& col) -> Status {
    using T = typename std::decay_t<decltype(col)>::value_type;
    auto set_if = [&](auto keep) {
      for (std::size_t r = 0; r < rows; ++r) {
        if (keep(col[r])) bits.Set(r);
      }
      return Status::Ok();
    };
    switch (n.kind) {
      case Kind::kCmp:
        return VisitLiteral<T>(n.values[0], [&](const auto& v) {
          return set_if(
              [&](const T& x) { return ApplyOp(n.op, ThreeWay(x, v)); });
        });
      case Kind::kIn:
        for (const AttrValue& value : n.values) {
          // A literal of the wrong type matches nothing; not an error.
          (void)VisitLiteral<T>(value, [&](const auto& v) {
            return set_if([&](const T& x) { return ThreeWay(x, v) == 0; });
          });
        }
        return Status::Ok();
      case Kind::kBetween:
        return VisitLiteral<T>(n.values[0], [&](const auto& lo) {
          return VisitLiteral<T>(n.values[1], [&](const auto& hi) {
            return set_if([&](const T& x) {
              return ThreeWay(x, lo) >= 0 && ThreeWay(x, hi) <= 0;
            });
          });
        });
      default:
        return Status::Internal("not a leaf predicate");
    }
  };
  switch (type) {
    case AttrType::kInt64:
      VDB_RETURN_IF_ERROR(scan(*attrs.Int64Column(n.column)));
      break;
    case AttrType::kDouble:
      VDB_RETURN_IF_ERROR(scan(*attrs.DoubleColumn(n.column)));
      break;
    case AttrType::kString:
      VDB_RETURN_IF_ERROR(scan(*attrs.StringColumn(n.column)));
      break;
  }
  return bits;
}

Result<double> Predicate::EstimateSelectivity(
    const AttributeStore& attrs) const {
  const Node& n = *node_;
  switch (n.kind) {
    case Kind::kTrue:
      return 1.0;
    case Kind::kAnd: {
      VDB_ASSIGN_OR_RETURN(double a,
                           Predicate(n.left).EstimateSelectivity(attrs));
      VDB_ASSIGN_OR_RETURN(double b,
                           Predicate(n.right).EstimateSelectivity(attrs));
      return a * b;  // independence assumption
    }
    case Kind::kOr: {
      VDB_ASSIGN_OR_RETURN(double a,
                           Predicate(n.left).EstimateSelectivity(attrs));
      VDB_ASSIGN_OR_RETURN(double b,
                           Predicate(n.right).EstimateSelectivity(attrs));
      return a + b - a * b;
    }
    case Kind::kNot: {
      VDB_ASSIGN_OR_RETURN(double a,
                           Predicate(n.left).EstimateSelectivity(attrs));
      return 1.0 - a;
    }
    case Kind::kCmp: {
      VDB_ASSIGN_OR_RETURN(ColumnStats stats, attrs.ComputeStats(n.column));
      double ndv = std::max<double>(1.0, static_cast<double>(stats.approx_distinct));
      if (n.op == CmpOp::kEq) return 1.0 / ndv;
      if (n.op == CmpOp::kNe) return 1.0 - 1.0 / ndv;
      // Range ops via the histogram when numeric.
      if (stats.histogram.empty()) return kStringRangeGuess;
      double frac_below = FractionBelow(stats, AsDouble(n.values[0]));
      switch (n.op) {
        case CmpOp::kLt:
        case CmpOp::kLe:
          return std::clamp(frac_below, 0.0, 1.0);
        case CmpOp::kGt:
        case CmpOp::kGe:
          return std::clamp(1.0 - frac_below, 0.0, 1.0);
        default:
          return kStringRangeGuess;
      }
    }
    case Kind::kIn: {
      VDB_ASSIGN_OR_RETURN(ColumnStats stats, attrs.ComputeStats(n.column));
      double ndv = std::max<double>(1.0, static_cast<double>(stats.approx_distinct));
      return std::min(1.0, static_cast<double>(n.values.size()) / ndv);
    }
    case Kind::kBetween: {
      // lo/hi on the same column are perfectly correlated, so estimate as
      // (frac <= hi) - (frac < lo) rather than under independence.
      VDB_ASSIGN_OR_RETURN(ColumnStats stats, attrs.ComputeStats(n.column));
      if (stats.histogram.empty()) return 0.0;  // the two guesses cancel
      double below_hi =
          std::clamp(FractionBelow(stats, AsDouble(n.values[1])), 0.0, 1.0);
      double below_lo =
          std::clamp(FractionBelow(stats, AsDouble(n.values[0])), 0.0, 1.0);
      return std::clamp(below_hi - below_lo, 0.0, 1.0);
    }
  }
  return Status::Internal("bad predicate kind");
}

namespace {

std::string ValueToString(const AttrValue& v) {
  switch (TypeOf(v)) {
    case AttrType::kInt64: return std::to_string(std::get<std::int64_t>(v));
    case AttrType::kDouble: {
      std::ostringstream os;
      os << std::get<double>(v);
      return os.str();
    }
    case AttrType::kString: return "'" + std::get<std::string>(v) + "'";
  }
  return "?";
}

std::string OpToString(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

}  // namespace

std::string Predicate::ToString() const {
  const Node& n = *node_;
  switch (n.kind) {
    case Kind::kTrue:
      return "TRUE";
    case Kind::kCmp:
      return n.column + " " + OpToString(n.op) + " " +
             ValueToString(n.values[0]);
    case Kind::kIn: {
      std::string out = n.column + " IN (";
      for (std::size_t i = 0; i < n.values.size(); ++i) {
        if (i) out += ", ";
        out += ValueToString(n.values[i]);
      }
      return out + ")";
    }
    case Kind::kBetween:
      return n.column + " BETWEEN " + ValueToString(n.values[0]) + " AND " +
             ValueToString(n.values[1]);
    case Kind::kAnd:
      return "(" + Predicate(n.left).ToString() + " AND " +
             Predicate(n.right).ToString() + ")";
    case Kind::kOr:
      return "(" + Predicate(n.left).ToString() + " OR " +
             Predicate(n.right).ToString() + ")";
    case Kind::kNot:
      return "NOT (" + Predicate(n.left).ToString() + ")";
  }
  return "?";
}

}  // namespace vdb
