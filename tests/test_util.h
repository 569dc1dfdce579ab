// Shared test fixtures and helpers.
#ifndef TQP_TESTS_TEST_UTIL_H_
#define TQP_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "core/catalog.h"
#include "core/relation.h"
#include "workload/generator.h"
#include "workload/paper_example.h"

namespace tqp {
namespace testing_util {

/// Builds a temporal relation with schema (Name:string, Val:int, T1, T2).
inline Relation TemporalRel(
    const std::vector<std::tuple<std::string, int64_t, TimePoint, TimePoint>>&
        rows) {
  Schema s;
  s.Add(Attribute{"Name", ValueType::kString});
  s.Add(Attribute{"Val", ValueType::kInt});
  s.Add(Attribute{kT1, ValueType::kTime});
  s.Add(Attribute{kT2, ValueType::kTime});
  Relation r(s);
  for (const auto& [name, val, t1, t2] : rows) {
    Tuple t;
    t.push_back(Value::String(name));
    t.push_back(Value::Int(val));
    t.push_back(Value::Time(t1));
    t.push_back(Value::Time(t2));
    r.Append(std::move(t));
  }
  return r;
}

/// Builds a conventional relation with schema (Name:string, Val:int).
inline Relation ConventionalRel(
    const std::vector<std::pair<std::string, int64_t>>& rows) {
  Schema s;
  s.Add(Attribute{"Name", ValueType::kString});
  s.Add(Attribute{"Val", ValueType::kInt});
  Relation r(s);
  for (const auto& [name, val] : rows) {
    Tuple t;
    t.push_back(Value::String(name));
    t.push_back(Value::Int(val));
    r.Append(std::move(t));
  }
  return r;
}

/// A random temporal relation exercising duplicates, snapshot duplicates,
/// and adjacency, sized for fast property tests.
inline Relation RandomTemporal(uint64_t seed, size_t cardinality = 24) {
  RelationGenParams p;
  p.cardinality = cardinality;
  p.num_names = 5;
  p.num_categories = 3;
  p.time_horizon = 60;
  p.max_period_length = 12;
  p.duplicate_fraction = 0.2;
  p.adjacency_fraction = 0.25;
  p.overlap_fraction = 0.25;
  p.seed = seed;
  return GenerateRelation(p);
}

/// A random conventional relation with duplicates.
inline Relation RandomConventional(uint64_t seed, size_t cardinality = 24) {
  RelationGenParams p;
  p.cardinality = cardinality;
  p.num_names = 5;
  p.num_categories = 3;
  p.duplicate_fraction = 0.3;
  p.temporal = false;
  p.seed = seed;
  return GenerateRelation(p);
}

/// `unit` repeated `n` times.
inline std::string Repeat(const std::string& unit, size_t n) {
  std::string out;
  out.reserve(unit.size() * n);
  for (size_t i = 0; i < n; ++i) out += unit;
  return out;
}

/// The paper's EMPLOYEE and PROJECT scaled to `scale` employees, both at
/// the DBMS. At scale 16 000 every plan of the paper query is estimated to
/// cost far more than searching all 174 of them, so the payoff rule lets
/// best-first reach the whole Figure 5 closure.
inline Catalog ScaledPaperCatalog(size_t scale) {
  Catalog catalog;
  TQP_CHECK(catalog
                .RegisterWithInferredFlags("EMPLOYEE", ScaledEmployee(scale),
                                           Site::kDbms)
                .ok());
  TQP_CHECK(catalog
                .RegisterWithInferredFlags("PROJECT", ScaledProject(scale),
                                           Site::kDbms)
                .ok());
  return catalog;
}

/// `SELECT EmpName FROM EMPLOYEE` followed by `unions` times
/// ` UNION ALL SELECT EmpName FROM EMPLOYEE`: a plan one level deeper per
/// union. 20 000 unions make a 780 028-byte line, under the service's
/// 1 MiB cap and far past kMaxPlanDepth; 400 stay within it.
inline std::string UnionAllChain(size_t unions) {
  const std::string stmt = "SELECT EmpName FROM EMPLOYEE";
  return stmt + Repeat(" UNION ALL " + stmt, unions);
}

/// WHERE clauses over attribute `attr` that the TQL parser must refuse
/// with an error, neither throwing nor overflowing the stack: literals out
/// of the int64 and double ranges, and expressions far deeper than
/// kMaxExprDepth (10 000 parentheses, 20 000 NOTs, 20 001 ANDed
/// comparisons).
inline std::vector<std::string> HostileWhereClauses(const std::string& attr) {
  const std::string cmp = attr + " = 0";
  return {
      attr + " = 99999999999999999999999",
      attr + " = 1" + std::string(400, '0') + ".5",
      Repeat("(", 10000) + cmp + Repeat(")", 10000),
      Repeat("NOT ", 20000) + cmp,
      cmp + Repeat(" AND " + cmp, 20000),
  };
}

/// WHERE clauses over attribute `attr` exactly `depth` levels deep, by the
/// measure of kMaxExprDepth, one per shape the bound counts (depth >= 3):
/// parentheses, NOTs, a left-deep AND chain and an arithmetic chain, built
/// of `attr >= 0`. At an even depth each selects the rows `attr >= 0` does.
inline std::vector<std::string> WhereClausesOfDepth(const std::string& attr,
                                                    int depth) {
  const std::string cmp = attr + " >= 0";  // 2 levels
  const size_t more = static_cast<size_t>(depth - 2);
  return {
      Repeat("(", more) + cmp + Repeat(")", more),
      Repeat("NOT ", more) + cmp,
      cmp + Repeat(" AND " + cmp, more),
      attr + Repeat(" + 0", more) + " >= 0",
  };
}

}  // namespace testing_util
}  // namespace tqp

#endif  // TQP_TESTS_TEST_UTIL_H_
