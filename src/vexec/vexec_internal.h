// Internal pieces of the vectorized executor: the batch expression
// evaluator shared by the select/project kernels, the row lineage through
// which the class kernels reuse a relation version's classes, and a
// test-only audit of those classes. Include only from src/vexec/*.cc and
// the tests.
#ifndef TQP_VEXEC_VEXEC_INTERNAL_H_
#define TQP_VEXEC_VEXEC_INTERNAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/expr.h"
#include "core/column_batch.h"

namespace tqp {

namespace vexec {
struct TwinClasses;
}  // namespace vexec

/// The row lineage of a vexec table (core/column_batch.h): in every column
/// c with cols[c] >= 0, row i holds the cell of twin row rows[i] (row i
/// itself when `rows` is null) in twin column cols[c]. Scans hand out the
/// twin with the identity lineage; σ, \, rdup, sort, the scramble, rdupT,
/// \T and coalT compose it with the rows they gather, π maps the columns it
/// passes through, and the transfers hand it on. Every other kernel returns
/// a table without one.
struct RowLineage {
  /// The class cache kept beside the twin the cells come from (vexec.cc).
  std::shared_ptr<vexec::TwinClasses> twin;
  /// The twin row of each row; null = the identity.
  std::shared_ptr<const std::vector<uint32_t>> rows;
  /// Per column, the twin column it copies, or -1.
  std::vector<int> cols;
};

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

/// Counts of the class indexes the class kernels (rdupT, coalT, \T, ∪T, ℵ,
/// ℵT) build while an audit is set.
struct ClassIndexAudit {
  /// Derived from a twin's cached classes through row lineage.
  std::atomic<int64_t> derived{0};
  /// Built by hashing and comparing key cells.
  std::atomic<int64_t> hashed{0};
  /// Derived indexes that differ from the one hashing the same rows' key
  /// cells builds (class numbers, or members and their order).
  std::atomic<int64_t> mismatched{0};
};

/// Test-only hook: while `audit` is set, every class index is counted, and
/// each derived one is checked against BuildClassIndex over the same rows'
/// key cells, which repeats the work derivation saves. Null ends the audit.
void SetClassIndexAudit(ClassIndexAudit* audit);

}  // namespace vexec
}  // namespace tqp

#endif  // TQP_VEXEC_VEXEC_INTERNAL_H_
