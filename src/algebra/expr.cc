#include "algebra/expr.h"

#include "core/hash.h"

#include <algorithm>

namespace tqp {

namespace {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

}  // namespace

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kAvg:
      return "AVG";
  }
  return "?";
}

ExprPtr Expr::Attr(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kAttr;
  e->attr_name_ = std::move(name);
  e->ComputeHash();
  return e;
}

ExprPtr Expr::Const(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kConst;
  e->constant_ = std::move(v);
  e->ComputeHash();
  return e;
}

ExprPtr Expr::Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kCompare;
  e->compare_op_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  e->ComputeHash();
  return e;
}

ExprPtr Expr::And(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kAnd;
  e->children_ = {std::move(lhs), std::move(rhs)};
  e->ComputeHash();
  return e;
}

ExprPtr Expr::Or(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kOr;
  e->children_ = {std::move(lhs), std::move(rhs)};
  e->ComputeHash();
  return e;
}

ExprPtr Expr::Not(ExprPtr operand) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kNot;
  e->children_ = {std::move(operand)};
  e->ComputeHash();
  return e;
}

ExprPtr Expr::Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kArith;
  e->arith_op_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  e->ComputeHash();
  return e;
}

ExprPtr Expr::Overlaps(ExprPtr a, ExprPtr b, ExprPtr c, ExprPtr d) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kOverlaps;
  e->children_ = {std::move(a), std::move(b), std::move(c), std::move(d)};
  e->ComputeHash();
  return e;
}

Result<Value> Expr::Eval(const Tuple& tuple, const Schema& schema) const {
  switch (kind_) {
    case ExprKind::kAttr: {
      int idx = schema.IndexOf(attr_name_);
      if (idx < 0) {
        return Status::InvalidArgument("unknown attribute '" + attr_name_ +
                                       "' in " + schema.ToString());
      }
      return tuple.at(static_cast<size_t>(idx));
    }
    case ExprKind::kConst:
      return constant_;
    case ExprKind::kCompare: {
      TQP_ASSIGN_OR_RETURN(lhs, children_[0]->Eval(tuple, schema));
      TQP_ASSIGN_OR_RETURN(rhs, children_[1]->Eval(tuple, schema));
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      int c = lhs.Compare(rhs);
      bool v = false;
      switch (compare_op_) {
        case CompareOp::kEq:
          v = c == 0;
          break;
        case CompareOp::kNe:
          v = c != 0;
          break;
        case CompareOp::kLt:
          v = c < 0;
          break;
        case CompareOp::kLe:
          v = c <= 0;
          break;
        case CompareOp::kGt:
          v = c > 0;
          break;
        case CompareOp::kGe:
          v = c >= 0;
          break;
      }
      return Value::Int(v ? 1 : 0);
    }
    case ExprKind::kAnd: {
      TQP_ASSIGN_OR_RETURN(lhs, children_[0]->Eval(tuple, schema));
      if (!lhs.is_null() && lhs.NumericValue() == 0) return Value::Int(0);
      TQP_ASSIGN_OR_RETURN(rhs, children_[1]->Eval(tuple, schema));
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      return Value::Int(rhs.NumericValue() != 0 ? 1 : 0);
    }
    case ExprKind::kOr: {
      TQP_ASSIGN_OR_RETURN(lhs, children_[0]->Eval(tuple, schema));
      if (!lhs.is_null() && lhs.NumericValue() != 0) return Value::Int(1);
      TQP_ASSIGN_OR_RETURN(rhs, children_[1]->Eval(tuple, schema));
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      return Value::Int(rhs.NumericValue() != 0 ? 1 : 0);
    }
    case ExprKind::kNot: {
      TQP_ASSIGN_OR_RETURN(v, children_[0]->Eval(tuple, schema));
      if (v.is_null()) return Value::Null();
      return Value::Int(v.NumericValue() == 0 ? 1 : 0);
    }
    case ExprKind::kArith: {
      TQP_ASSIGN_OR_RETURN(lhs, children_[0]->Eval(tuple, schema));
      TQP_ASSIGN_OR_RETURN(rhs, children_[1]->Eval(tuple, schema));
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      if (!lhs.IsNumeric() || !rhs.IsNumeric()) {
        return Status::InvalidArgument("arithmetic on non-numeric values");
      }
      // Result typing mirrors DeriveExprType: division is double; otherwise
      // double dominates, then time (duration/shift arithmetic), then int.
      bool integral = lhs.type() != ValueType::kDouble &&
                      rhs.type() != ValueType::kDouble;
      bool timey = lhs.type() == ValueType::kTime ||
                   rhs.type() == ValueType::kTime;
      double a = lhs.NumericValue();
      double b = rhs.NumericValue();
      double r = 0;
      switch (arith_op_) {
        case ArithOp::kAdd:
          r = a + b;
          break;
        case ArithOp::kSub:
          r = a - b;
          break;
        case ArithOp::kMul:
          r = a * b;
          break;
        case ArithOp::kDiv:
          if (b == 0) return Value::Null();
          r = a / b;
          integral = false;
          break;
      }
      if (integral && timey) return Value::Time(static_cast<TimePoint>(r));
      if (integral) return Value::Int(static_cast<int64_t>(r));
      return Value::Double(r);
    }
    case ExprKind::kOverlaps: {
      TQP_ASSIGN_OR_RETURN(a, children_[0]->Eval(tuple, schema));
      TQP_ASSIGN_OR_RETURN(b, children_[1]->Eval(tuple, schema));
      TQP_ASSIGN_OR_RETURN(c, children_[2]->Eval(tuple, schema));
      TQP_ASSIGN_OR_RETURN(d, children_[3]->Eval(tuple, schema));
      if (a.is_null() || b.is_null() || c.is_null() || d.is_null()) {
        return Value::Null();
      }
      bool v = a.NumericValue() < d.NumericValue() &&
               c.NumericValue() < b.NumericValue();
      return Value::Int(v ? 1 : 0);
    }
  }
  return Status::Error("unreachable expression kind");
}

bool Expr::EvalPredicate(const Tuple& tuple, const Schema& schema) const {
  Result<Value> r = Eval(tuple, schema);
  if (!r.ok() || r->is_null()) return false;
  return r->NumericValue() != 0;
}

std::set<std::string> Expr::ReferencedAttrs() const {
  std::set<std::string> out;
  if (kind_ == ExprKind::kAttr) out.insert(attr_name_);
  for (const ExprPtr& c : children_) {
    std::set<std::string> sub = c->ReferencedAttrs();
    out.insert(sub.begin(), sub.end());
  }
  return out;
}

bool Expr::IsTimeFree() const {
  std::set<std::string> attrs = ReferencedAttrs();
  return attrs.count(kT1) == 0 && attrs.count(kT2) == 0;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case ExprKind::kAttr:
      return attr_name_;
    case ExprKind::kConst:
      return constant_.type() == ValueType::kString
                 ? "'" + constant_.ToString() + "'"
                 : constant_.ToString();
    case ExprKind::kCompare:
      return "(" + children_[0]->ToString() + " " +
             CompareOpName(compare_op_) + " " + children_[1]->ToString() + ")";
    case ExprKind::kAnd:
      return "(" + children_[0]->ToString() + " AND " +
             children_[1]->ToString() + ")";
    case ExprKind::kOr:
      return "(" + children_[0]->ToString() + " OR " +
             children_[1]->ToString() + ")";
    case ExprKind::kNot:
      return "NOT " + children_[0]->ToString();
    case ExprKind::kArith:
      return "(" + children_[0]->ToString() + " " + ArithOpName(arith_op_) +
             " " + children_[1]->ToString() + ")";
    case ExprKind::kOverlaps:
      return "OVERLAPS(" + children_[0]->ToString() + "," +
             children_[1]->ToString() + "," + children_[2]->ToString() + "," +
             children_[3]->ToString() + ")";
  }
  return "?";
}

void Expr::ComputeHash() {
  uint64_t h = HashMix64(static_cast<uint64_t>(kind_) + 1);
  switch (kind_) {
    case ExprKind::kAttr:
      h = HashCombine(h, HashString(attr_name_));
      break;
    case ExprKind::kConst:
      h = HashCombine(h, static_cast<uint64_t>(constant_.Hash()));
      break;
    case ExprKind::kCompare:
      h = HashCombine(h, static_cast<uint64_t>(compare_op_));
      break;
    case ExprKind::kArith:
      h = HashCombine(h, static_cast<uint64_t>(arith_op_));
      break;
    default:
      break;
  }
  int below = 0;
  for (const ExprPtr& c : children_) {
    h = HashCombine(h, c->hash());
    below = std::max(below, c->depth());
  }
  hash_ = h;
  depth_ = below + 1;
}

bool Expr::Equals(const ExprPtr& a, const ExprPtr& b) {
  if (a.get() == b.get()) return true;
  if (a == nullptr || b == nullptr) return false;
  if (a->hash_ != b->hash_ || a->kind_ != b->kind_) return false;
  switch (a->kind_) {
    case ExprKind::kAttr:
      if (a->attr_name_ != b->attr_name_) return false;
      break;
    case ExprKind::kConst:
      if (a->constant_ != b->constant_) return false;
      break;
    case ExprKind::kCompare:
      if (a->compare_op_ != b->compare_op_) return false;
      break;
    case ExprKind::kArith:
      if (a->arith_op_ != b->arith_op_) return false;
      break;
    default:
      break;
  }
  if (a->children_.size() != b->children_.size()) return false;
  for (size_t i = 0; i < a->children_.size(); ++i) {
    if (!Equals(a->children_[i], b->children_[i])) return false;
  }
  return true;
}

ExprPtr Expr::RenameAttrs(
    const std::vector<std::pair<std::string, std::string>>& mapping) const {
  if (kind_ == ExprKind::kAttr) {
    for (const auto& [from, to] : mapping) {
      if (attr_name_ == from) return Attr(to);
    }
    return Attr(attr_name_);
  }
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = kind_;
  e->attr_name_ = attr_name_;
  e->constant_ = constant_;
  e->compare_op_ = compare_op_;
  e->arith_op_ = arith_op_;
  for (const ExprPtr& c : children_) {
    e->children_.push_back(c->RenameAttrs(mapping));
  }
  e->ComputeHash();
  return e;
}

}  // namespace tqp
