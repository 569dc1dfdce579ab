// Scalar expressions: selection predicates and projection functions.
//
// Expressions are immutable trees shared between plans. They evaluate against
// a (tuple, schema) pair and expose the attribute set they reference — the
// paper's attr() function used by rule preconditions (e.g., C3 requires
// T1, T2 ∉ attr(P)).
#ifndef TQP_ALGEBRA_EXPR_H_
#define TQP_ALGEBRA_EXPR_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/common.h"
#include "core/schema.h"
#include "core/tuple.h"
#include "core/value.h"

namespace tqp {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Expression node kinds.
enum class ExprKind {
  kAttr,     // attribute reference by name
  kConst,    // literal value
  kCompare,  // binary comparison
  kAnd,
  kOr,
  kNot,
  kArith,     // binary arithmetic
  kOverlaps,  // OVERLAPS(a_begin, a_end, b_begin, b_end): period predicate
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul, kDiv };

/// An immutable scalar expression node.
class Expr {
 public:
  static ExprPtr Attr(std::string name);
  static ExprPtr Const(Value v);
  static ExprPtr Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr And(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Not(ExprPtr operand);
  static ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
  /// True iff periods [a,b) and [c,d) share a time point.
  static ExprPtr Overlaps(ExprPtr a, ExprPtr b, ExprPtr c, ExprPtr d);

  ExprKind kind() const { return kind_; }
  const std::string& attr_name() const { return attr_name_; }
  const Value& constant() const { return constant_; }
  CompareOp compare_op() const { return compare_op_; }
  ArithOp arith_op() const { return arith_op_; }
  const std::vector<ExprPtr>& children() const { return children_; }

  /// Evaluates against a tuple; attribute lookups resolve via `schema`.
  Result<Value> Eval(const Tuple& tuple, const Schema& schema) const;

  /// Evaluates as a boolean predicate (NULL and non-bool => false).
  bool EvalPredicate(const Tuple& tuple, const Schema& schema) const;

  /// All attribute names referenced (the paper's attr() function).
  std::set<std::string> ReferencedAttrs() const;

  /// True iff neither T1 nor T2 is referenced (rule C3/C4 preconditions).
  bool IsTimeFree() const;

  /// Structural rendering; doubles as a canonical form for plan dedup.
  std::string ToString() const;

  /// Structural 64-bit hash, computed once at construction (bottom-up from
  /// the children's hashes). Equal expressions have equal hashes; the
  /// converse is confirmed with Equals() where it matters.
  uint64_t hash() const { return hash_; }

  /// Nesting depth in levels: an attribute or constant is 1, each operator
  /// one more than its deepest operand. Computed once at construction.
  int depth() const { return depth_; }

  /// Structural equality (pointer short-circuit, then hash, then recursion).
  static bool Equals(const ExprPtr& a, const ExprPtr& b);

  /// Rewrites attribute references according to the given old->new mapping.
  ExprPtr RenameAttrs(
      const std::vector<std::pair<std::string, std::string>>& mapping) const;

 private:
  Expr() = default;

  /// Seals the node: derives hash_ and depth_ from the payload and children.
  /// Must be the last step of every construction path.
  void ComputeHash();

  ExprKind kind_ = ExprKind::kConst;
  int depth_ = 1;
  std::string attr_name_;
  Value constant_;
  CompareOp compare_op_ = CompareOp::kEq;
  ArithOp arith_op_ = ArithOp::kAdd;
  std::vector<ExprPtr> children_;
  uint64_t hash_ = 0;
};

/// One item of a projection list: an expression and its output name.
struct ProjItem {
  ExprPtr expr;
  std::string name;

  /// Shorthand for a pass-through column.
  static ProjItem Pass(const std::string& attr) {
    return ProjItem{Expr::Attr(attr), attr};
  }
  /// Shorthand for a renamed pass-through column.
  static ProjItem Rename(const std::string& attr, const std::string& out) {
    return ProjItem{Expr::Attr(attr), out};
  }
};

/// Aggregate functions supported by ℵ and ℵT.
enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };

const char* AggFuncName(AggFunc f);

/// One aggregate computation: function, input attribute (ignored for COUNT),
/// and output attribute name.
struct AggSpec {
  AggFunc func = AggFunc::kCount;
  std::string attr;      // input attribute; empty for COUNT(*)
  std::string out_name;  // result attribute name
};

}  // namespace tqp

#endif  // TQP_ALGEBRA_EXPR_H_
