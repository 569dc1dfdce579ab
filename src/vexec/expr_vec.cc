// Vectorized expression evaluation over column batches.
//
// Mirrors Expr::Eval exactly, but column-at-a-time: every case below is the
// per-row transcription of the corresponding case in algebra/expr.cc, with
// Result<Value> replaced by (cell, per-row error) pairs so one traversal of
// the expression tree serves a whole batch.
//
// A comparison of two int64 operands of one declared type, neither with a
// per-row error or a null, runs as a typed loop over their ints() and
// writes an int64 0/1 column: such cells compare as int64 in
// CellRef::Compare too. Every other comparison, and AND/OR/NOT, runs the
// per-cell loop.
#include "vexec/vexec_internal.h"

namespace tqp {
namespace vexec {

namespace {

CellRef IntCell(int64_t v) {
  CellRef c;
  c.type = ValueType::kInt;
  c.i = v;
  return c;
}

bool Holds(CompareOp op, int c) {
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

// out[k] = Holds(op, Cmp(x[k], y[k])) for k in [0, n).
void CompareInts(CompareOp op, const int64_t* x, const int64_t* y, size_t n,
                 int64_t* out) {
  switch (op) {
    case CompareOp::kEq:
      for (size_t k = 0; k < n; ++k) out[k] = x[k] == y[k];
      return;
    case CompareOp::kNe:
      for (size_t k = 0; k < n; ++k) out[k] = x[k] != y[k];
      return;
    case CompareOp::kLt:
      for (size_t k = 0; k < n; ++k) out[k] = x[k] < y[k];
      return;
    case CompareOp::kLe:
      for (size_t k = 0; k < n; ++k) out[k] = x[k] <= y[k];
      return;
    case CompareOp::kGt:
      for (size_t k = 0; k < n; ++k) out[k] = x[k] > y[k];
      return;
    case CompareOp::kGe:
      for (size_t k = 0; k < n; ++k) out[k] = x[k] >= y[k];
      return;
  }
}

// The typed comparison of n rows of l and r into `out` (a fresh column);
// false when it does not apply and nothing was written.
bool CompareTyped(CompareOp op, const EvalColumn& l, const EvalColumn& r,
                  size_t n, ColumnVec* out) {
  const ColumnVec& a = l.col;
  const ColumnVec& b = r.col;
  if (n == 0 || !l.errs.empty() || !r.errs.empty() || a.MayHaveNulls() ||
      b.MayHaveNulls() || a.storage() != ColumnStorage::kInt64 ||
      b.storage() != ColumnStorage::kInt64 ||
      a.declared_type() != b.declared_type()) {
    return false;
  }
  *out = ColumnVec(ValueType::kInt);
  CompareInts(op, a.ints().data(), b.ints().data(), n, out->AppendInt64s(n));
  return true;
}

}  // namespace

EvalColumn VecEval(const ExprPtr& expr, const ColumnTable& in, size_t begin,
                   size_t end) {
  const size_t n = end - begin;
  EvalColumn out;
  switch (expr->kind()) {
    case ExprKind::kAttr: {
      int idx = in.schema().IndexOf(expr->attr_name());
      if (idx < 0) {
        // The reference fails per tuple; an unknown attribute errs every row
        // with the identical message (and none at all on an empty input).
        std::string msg = Status::InvalidArgument(
                              "unknown attribute '" + expr->attr_name() +
                              "' in " + in.schema().ToString())
                              .message();
        for (uint32_t k = 0; k < n; ++k) {
          out.col.AppendNull();
          out.errs.emplace(k, msg);
        }
        return out;
      }
      // Declared like its source, so the copy takes the bulk path.
      const ColumnVec& src = in.col(static_cast<size_t>(idx));
      out.col = ColumnVec(src.declared_type());
      out.col.AppendRangeFrom(src, begin, end);
      return out;
    }
    case ExprKind::kConst: {
      CellRef c = CellRef::Of(expr->constant());
      for (size_t k = 0; k < n; ++k) out.col.AppendCell(c);
      return out;
    }
    case ExprKind::kCompare: {
      EvalColumn l = VecEval(expr->children()[0], in, begin, end);
      EvalColumn r = VecEval(expr->children()[1], in, begin, end);
      if (CompareTyped(expr->compare_op(), l, r, n, &out.col)) return out;
      for (uint32_t k = 0; k < n; ++k) {
        if (const std::string* e = l.ErrAt(k)) {
          out.col.AppendNull();
          out.errs.emplace(k, *e);
          continue;
        }
        if (const std::string* e = r.ErrAt(k)) {
          out.col.AppendNull();
          out.errs.emplace(k, *e);
          continue;
        }
        CellRef lc = l.col.At(k), rc = r.col.At(k);
        if (lc.is_null() || rc.is_null()) {
          out.col.AppendNull();
          continue;
        }
        bool v = Holds(expr->compare_op(), CellRef::Compare(lc, rc));
        out.col.AppendCell(IntCell(v ? 1 : 0));
      }
      return out;
    }
    case ExprKind::kAnd: {
      EvalColumn l = VecEval(expr->children()[0], in, begin, end);
      EvalColumn r = VecEval(expr->children()[1], in, begin, end);
      for (uint32_t k = 0; k < n; ++k) {
        if (const std::string* e = l.ErrAt(k)) {
          out.col.AppendNull();
          out.errs.emplace(k, *e);
          continue;
        }
        CellRef lc = l.col.At(k);
        // Left short-circuit: a false left operand decides the row before
        // the right operand's outcome (including its errors) is consulted.
        if (!lc.is_null() && lc.Numeric() == 0) {
          out.col.AppendCell(IntCell(0));
          continue;
        }
        if (const std::string* e = r.ErrAt(k)) {
          out.col.AppendNull();
          out.errs.emplace(k, *e);
          continue;
        }
        CellRef rc = r.col.At(k);
        if (lc.is_null() || rc.is_null()) {
          out.col.AppendNull();
          continue;
        }
        out.col.AppendCell(IntCell(rc.Numeric() != 0 ? 1 : 0));
      }
      return out;
    }
    case ExprKind::kOr: {
      EvalColumn l = VecEval(expr->children()[0], in, begin, end);
      EvalColumn r = VecEval(expr->children()[1], in, begin, end);
      for (uint32_t k = 0; k < n; ++k) {
        if (const std::string* e = l.ErrAt(k)) {
          out.col.AppendNull();
          out.errs.emplace(k, *e);
          continue;
        }
        CellRef lc = l.col.At(k);
        if (!lc.is_null() && lc.Numeric() != 0) {
          out.col.AppendCell(IntCell(1));
          continue;
        }
        if (const std::string* e = r.ErrAt(k)) {
          out.col.AppendNull();
          out.errs.emplace(k, *e);
          continue;
        }
        CellRef rc = r.col.At(k);
        if (lc.is_null() || rc.is_null()) {
          out.col.AppendNull();
          continue;
        }
        out.col.AppendCell(IntCell(rc.Numeric() != 0 ? 1 : 0));
      }
      return out;
    }
    case ExprKind::kNot: {
      EvalColumn v = VecEval(expr->children()[0], in, begin, end);
      for (uint32_t k = 0; k < n; ++k) {
        if (const std::string* e = v.ErrAt(k)) {
          out.col.AppendNull();
          out.errs.emplace(k, *e);
          continue;
        }
        CellRef c = v.col.At(k);
        if (c.is_null()) {
          out.col.AppendNull();
          continue;
        }
        out.col.AppendCell(IntCell(c.Numeric() == 0 ? 1 : 0));
      }
      return out;
    }
    case ExprKind::kArith: {
      EvalColumn l = VecEval(expr->children()[0], in, begin, end);
      EvalColumn r = VecEval(expr->children()[1], in, begin, end);
      const std::string non_numeric =
          Status::InvalidArgument("arithmetic on non-numeric values")
              .message();
      for (uint32_t k = 0; k < n; ++k) {
        if (const std::string* e = l.ErrAt(k)) {
          out.col.AppendNull();
          out.errs.emplace(k, *e);
          continue;
        }
        if (const std::string* e = r.ErrAt(k)) {
          out.col.AppendNull();
          out.errs.emplace(k, *e);
          continue;
        }
        CellRef lc = l.col.At(k), rc = r.col.At(k);
        if (lc.is_null() || rc.is_null()) {
          out.col.AppendNull();
          continue;
        }
        if (!lc.IsNumeric() || !rc.IsNumeric()) {
          out.col.AppendNull();
          out.errs.emplace(k, non_numeric);
          continue;
        }
        bool integral = lc.type != ValueType::kDouble &&
                        rc.type != ValueType::kDouble;
        bool timey =
            lc.type == ValueType::kTime || rc.type == ValueType::kTime;
        double a = lc.Numeric();
        double b = rc.Numeric();
        double res = 0;
        bool div_null = false;
        switch (expr->arith_op()) {
          case ArithOp::kAdd:
            res = a + b;
            break;
          case ArithOp::kSub:
            res = a - b;
            break;
          case ArithOp::kMul:
            res = a * b;
            break;
          case ArithOp::kDiv:
            if (b == 0) {
              div_null = true;
            } else {
              res = a / b;
            }
            integral = false;
            break;
        }
        if (div_null) {
          out.col.AppendNull();
        } else if (integral && timey) {
          CellRef c;
          c.type = ValueType::kTime;
          c.i = static_cast<TimePoint>(res);
          out.col.AppendCell(c);
        } else if (integral) {
          out.col.AppendCell(IntCell(static_cast<int64_t>(res)));
        } else {
          CellRef c;
          c.type = ValueType::kDouble;
          c.d = res;
          out.col.AppendCell(c);
        }
      }
      return out;
    }
    case ExprKind::kOverlaps: {
      EvalColumn a = VecEval(expr->children()[0], in, begin, end);
      EvalColumn b = VecEval(expr->children()[1], in, begin, end);
      EvalColumn c = VecEval(expr->children()[2], in, begin, end);
      EvalColumn d = VecEval(expr->children()[3], in, begin, end);
      const EvalColumn* ops[4] = {&a, &b, &c, &d};
      for (uint32_t k = 0; k < n; ++k) {
        const std::string* err = nullptr;
        for (const EvalColumn* op : ops) {
          if ((err = op->ErrAt(k)) != nullptr) break;
        }
        if (err != nullptr) {
          out.col.AppendNull();
          out.errs.emplace(k, *err);
          continue;
        }
        CellRef ca = a.col.At(k), cb = b.col.At(k), cc = c.col.At(k),
                cd = d.col.At(k);
        if (ca.is_null() || cb.is_null() || cc.is_null() || cd.is_null()) {
          out.col.AppendNull();
          continue;
        }
        bool v = ca.Numeric() < cd.Numeric() && cc.Numeric() < cb.Numeric();
        out.col.AppendCell(IntCell(v ? 1 : 0));
      }
      return out;
    }
  }
  // Unreachable kinds mirror Eval's "unreachable expression kind" status.
  std::string msg = Status::Error("unreachable expression kind").message();
  for (uint32_t k = 0; k < n; ++k) {
    out.col.AppendNull();
    out.errs.emplace(k, msg);
  }
  return out;
}

}  // namespace vexec
}  // namespace tqp
