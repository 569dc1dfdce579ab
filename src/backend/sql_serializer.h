// Serialization of maximal conventional subplans to SQL (the GProM/PUG
// sql_serializer idea applied to the paper's transfer cut).
//
// The serializer turns a conventional operator subtree into one SQL
// statement whose result is the *exact list* the reference evaluator would
// produce: every operator becomes a CTE carrying its value columns
// positionally (c0..cN-1) plus a scalar `ord` column encoding the list
// position, and the final SELECT orders by it. List-sensitive operators
// (⊎, ∪, \, sort, rdup, ℵ) derive their output `ord` from their inputs'
// via window functions, so duplicates and ordering semantics (Table 1)
// survive the round trip through the DBMS.
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
