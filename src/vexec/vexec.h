// The vectorized batch execution engine.
//
// ExecuteVectorized compiles an AnnotatedPlan into a tree of vectorized
// physical operators over columnar data (core/column_batch.h) and runs it:
// scans share the columns of the catalog's columnar twin of each relation
// version (Catalog::Columns; the first vectorized scan of a version builds
// it), selections evaluate compiled expressions over column batches into
// selection vectors, projections share the input columns they pass
// through and evaluate the rest into fresh columns, joins run over flat
// period arrays, and the class operators (rdupT, coalT, \T, ∪T, ℵT, ℵ) run
// on one hash-partitioned class index, ℵT and \T as endpoint sweeps (see
// vexec.cc). When a class operator's key cells are copies of a twin's
// cells, its class index derives from the twin's classes on that key,
// built once per relation version beside the twin. Every operator runs in
// memory: it takes its whole input and returns its whole output as
// resident ColumnTables.
//
// The per-row loops read typed storage where they can: σ's comparisons of
// two int64 operands of one declared type without nulls or errors
// (vexec/expr_vec.cc), the attribute leaf and ⊎'s concatenation (bulk range
// copies), the row and class-key hashes of rdup, ∪, \, the class index and
// the fused join (folded column by column), their key equality (ColumnVec::
// CompareCells), and the T1/T2 extraction. Each keeps the per-cell CellRef
// path as its fallback inside the same function, for nulls, per-row errors,
// boxed columns and every other operand mix, so the cells are the same
// either way (core/column_batch.h gives the exactness rules).
//
// The list-semantics parity contract: for every plan, configuration (both
// dbms_scrambles_order modes), and catalog, the returned Relation is
// LIST-IDENTICAL to exec/evaluator.h's Evaluate — the same tuples, in the
// same order, with the same surviving occurrences under duplicate
// elimination, the same difference fragment order, the same rdupT in-place
// period replacement, and the same order annotation. This is enforced by the
// randomized A/B suite in tests/test_vexec.cc; the speedup is gated by
// bench/bench_vexec_pipeline.cc (>= 5x rows/s over the reference evaluator
// on a 1M-row coalesce + temporal-join + sort pipeline).
//
// Both executors run on one plan driver (exec/plan_driver.h): the cut-point
// decisions, the per-site work, transfer and operator counters, and the
// profile/trace shell are the same code; the vectorized path additionally
// fills the batch/materialization counters (ExecStats::vec_batches /
// vec_materializations / vec_rows).
#ifndef TQP_VEXEC_VEXEC_H_
#define TQP_VEXEC_VEXEC_H_

#include "exec/evaluator.h"

namespace tqp {

/// Tuning knobs of the vectorized executor. Semantics never depend on them:
/// any batch size, thread count or morsel size produces the same result
/// list, byte for byte (tests/test_vexec.cc locks this in).
struct VexecOptions {
  /// Rows per column batch processed at a time by the scan/filter/projection
  /// kernels. Also the granularity of ExecStats::vec_batches.
  size_t batch_size = 1024;
  /// Worker threads of the morsel scheduler (core/task_pool.h). 1 (default)
  /// runs every kernel inline on the calling thread — the exact
  /// pre-parallelism code path; N > 1 splits kernels into morsels whose
  /// results are stitched in deterministic input order, so the output is
  /// byte-identical to the serial run.
  size_t threads = 1;
  /// Rows per morsel when threads > 1. At 8192 an operator output of a
  /// few tens of thousands of rows still splits across four workers (the
  /// root conversion and the class-index chunks among them).
  size_t morsel_rows = 8192;
  /// Unread: every operator runs in memory. Each operator's input and
  /// output are resident tables and scans share the catalog's twin, so
  /// writing rows to disk would free nothing (ARCHITECTURE.md, "Memory").
  /// Kept only because the repository benchmark's harness still sets it;
  /// it goes once the harness stops.
  uint64_t memory_budget = 0;
};

/// Evaluates an annotated plan with the vectorized engine. Drop-in
/// equivalent of Evaluate(): same result list, same order annotation, same
/// error statuses, same simulated cost accounting — including the optional
/// per-plan-node `profile` tree (core/profile.h; batches filled here).
Result<Relation> ExecuteVectorized(const AnnotatedPlan& plan,
                                   const EngineConfig& config = {},
                                   ExecStats* stats = nullptr,
                                   const VexecOptions& options = {},
                                   ProfileNode* profile = nullptr);

/// Convenience twin of EvaluatePlan(): annotates a raw plan tree (multiset
/// contract) and executes it vectorized. Intended for tests.
Result<Relation> ExecuteVectorizedPlan(const PlanPtr& plan,
                                       const Catalog& catalog,
                                       const EngineConfig& config = {},
                                       ExecStats* stats = nullptr,
                                       const VexecOptions& options = {});

}  // namespace tqp

#endif  // TQP_VEXEC_VEXEC_H_
