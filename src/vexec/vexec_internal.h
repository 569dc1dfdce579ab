// Internal pieces of the vectorized executor: the batch expression
// evaluator shared by the select/project kernels. Include only from
// src/vexec/*.cc.
#ifndef TQP_VEXEC_VEXEC_INTERNAL_H_
#define TQP_VEXEC_VEXEC_INTERNAL_H_

#include <string>
#include <unordered_map>

#include "algebra/expr.h"
#include "core/column_batch.h"

namespace tqp {
namespace vexec {

/// The result of evaluating one expression over a row range: one cell per
/// row plus the per-row evaluation errors. Errors stay per-row because the
/// reference evaluator's error behavior is per-tuple: a selection treats an
/// erroring row as "predicate false", while a projection fails the whole
/// query with the error of the first erroring (row, item) pair. Error cells
/// hold a null placeholder so the column stays row-aligned.
struct EvalColumn {
  ColumnVec col;
  /// row offset (0-based within the evaluated range) -> full Status message.
  std::unordered_map<uint32_t, std::string> errs;

  const std::string* ErrAt(uint32_t row) const {
    if (errs.empty()) return nullptr;  // the common case: no lookup
    auto it = errs.find(row);
    return it == errs.end() ? nullptr : &it->second;
  }
};

/// Evaluates `expr` over rows [begin, end) of `in`, reproducing
/// Expr::Eval's semantics cell-for-cell: the same null propagation, the
/// same short-circuit order of AND/OR (a row short-circuited by the left
/// operand ignores right-operand errors), the same arithmetic typing, and
/// the same error messages. A comparison of two int64 operands of one
/// declared type without errors or nulls runs as a typed loop over their
/// ints(); everything else runs per cell. Either way the cells are the
/// same, so consumers may read the result through its typed storage when
/// it has one (VecSelect scans an int64 result column directly).
EvalColumn VecEval(const ExprPtr& expr, const ColumnTable& in, size_t begin,
                   size_t end);

}  // namespace vexec
}  // namespace tqp

#endif  // TQP_VEXEC_VEXEC_INTERNAL_H_
