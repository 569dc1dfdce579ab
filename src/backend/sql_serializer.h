// Serialization of maximal conventional subplans to SQL (the GProM/PUG
// sql_serializer idea applied to the paper's transfer cut).
//
// The serializer turns a conventional operator subtree into one SQL
// statement whose result is the *exact list* the reference evaluator would
// produce: every operator becomes a CTE carrying its value columns
// positionally (c0..cN-1) plus a scalar `ord` column encoding the list
// position, and the final SELECT orders by it. A DBMS's output order is
// outside SQL's contract, so the position must travel as data.
//
// The invariant: every CTE's `ord` is a unique positive integer per row,
// increasing in list order (gaps allowed). Each operator keeps it:
//   * scan: the mirror table's rowid, which is the list position (1-based);
//   * σ, π, \: the surviving input rows' ords (\ ranks per value with
//     ROW_NUMBER to pick which left occurrences survive);
//   * ⊎ and ∪: left rows keep theirs; right rows (all of them for ⊎, the
//     survivors of ∪'s per-value rank) add a bound no smaller than every
//     left ord, which puts them after every left row, in their own order,
//     without a sort. The bound is an integer the serializer computes from
//     the left subtree's shape alone (Bound in the .cc: 2^40 per scan, ×
//     or sort, summed over ⊎ and ∪);
//   * rdup and ℵ: MIN(ord) of each group, its first occurrence;
//   * × and sort: ROW_NUMBER over (left ord, right ord) and over (sort keys,
//     input ord), the only orders they cannot inherit.
// So duplicates and ordering semantics (Table 1) survive the round trip
// through the DBMS.
//
// A comparison is SQL's bare comparison, whose 1/0/NULL value is the
// stratum's. A σ predicate is emitted in its WHERE form, which also turns
// AND into SQL AND and keeps exactly the rows the stratum keeps; OR, NOT and
// OVERLAPS keep the CASE translations that reproduce the stratum's NULL
// logic (sql_serializer.cc, "Expression translation").
//
// Anything whose semantics SQL cannot reproduce byte-identically is
// *refused* (Check returns an error): temporal operators, transfers,
// division (NULL-on-zero + always-double), time↔string comparisons (the
// stratum's type-rank order disagrees with SQLite affinity order there),
// string-typed predicates, SUM/AVG over non-int columns, MIN/MAX over
// doubles, and duplicate-sensitive operators over double columns (equal
// -0.0/0.0 keys make the surviving representative ambiguous). Refused
// subtrees are evaluated in-engine — correctness never depends on the
// backend.
#ifndef TQP_BACKEND_SQL_SERIALIZER_H_
#define TQP_BACKEND_SQL_SERIALIZER_H_

#include <string>
#include <vector>

#include "algebra/derivation.h"
#include "algebra/plan.h"

namespace tqp {

/// One SQL statement plus its positional `?` parameters (constants are
/// always bound, never inlined).
struct SerializedSql {
  std::string sql;
  std::vector<Value> params;
};

class SqlSerializer {
 public:
  explicit SqlSerializer(const AnnotatedPlan& ann) : ann_(ann) {}

  /// OK iff the subtree can be serialized with exact list semantics; the
  /// error message names the first refusal reason (for diagnostics).
  Status Check(const PlanPtr& node) const;
  bool CanSerialize(const PlanPtr& node) const { return Check(node).ok(); }

  /// The SQL for the subtree. Columns are c0..cN-1 positionally matching
  /// the node's derived schema; rows arrive in exact reference list order.
  Result<SerializedSql> Serialize(const PlanPtr& node) const;

  /// Backend table mirroring the catalog relation `rel_name`: "rel_" and
  /// the name's bytes in lower-case hex. SQLite identifiers ignore case, so
  /// the encoding is what keeps relations `C` and `c` apart, and the result
  /// never needs escaping inside quotes.
  static std::string MirrorTable(const std::string& rel_name);

 private:
  const AnnotatedPlan& ann_;
};

}  // namespace tqp

#endif  // TQP_BACKEND_SQL_SERIALIZER_H_
