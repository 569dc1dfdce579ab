// Randomized A/B parity suite for the vectorized batch executor.
//
// The contract under test (vexec/vexec.h): for every plan, catalog, and
// engine configuration — with the DBMS order scramble off and on — the
// vectorized executor's result is LIST-IDENTICAL to the reference
// evaluator's: same schema, same tuples in the same order (same surviving
// occurrences under rdup/rdupT, same difference fragment order, same
// coalescing positions), and the same order annotation. The simulated cost
// accounting (work by site, transfers, tuples produced, operator counts)
// must also agree, since both executors compute it from the same formulas.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "exec/evaluator.h"
#include "test_util.h"
#include "vexec/vexec.h"
#include "workload/generator.h"

namespace tqp {
namespace {

using testing_util::TemporalRel;

// ---- Helpers --------------------------------------------------------------

void ExpectListIdentical(const Relation& ref, const Relation& vec,
                         const std::string& label) {
  ASSERT_EQ(ref.schema().ToString(), vec.schema().ToString()) << label;
  ASSERT_EQ(ref.size(), vec.size()) << label;
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref.tuple(i), vec.tuple(i))
        << label << " row " << i << ": " << ref.tuple(i).ToString() << " vs "
        << vec.tuple(i).ToString();
    // Full-value identity, not just Compare-equality (0.0 vs -0.0 etc.).
    ASSERT_EQ(ref.tuple(i).ToString(), vec.tuple(i).ToString())
        << label << " row " << i;
  }
  EXPECT_EQ(SortSpecToString(ref.order()), SortSpecToString(vec.order()))
      << label;
}

void ExpectStatsAgree(const ExecStats& ref, const ExecStats& vec,
                      const std::string& label) {
  EXPECT_DOUBLE_EQ(ref.dbms_work, vec.dbms_work) << label;
  EXPECT_DOUBLE_EQ(ref.stratum_work, vec.stratum_work) << label;
  EXPECT_EQ(ref.tuples_transferred, vec.tuples_transferred) << label;
  EXPECT_EQ(ref.tuples_produced, vec.tuples_produced) << label;
  EXPECT_EQ(ref.op_counts, vec.op_counts) << label;
  // The batch counters exist only on the vectorized side.
  EXPECT_EQ(ref.vec_batches, 0) << label;
  EXPECT_EQ(ref.vec_materializations, 0) << label;
  EXPECT_GT(vec.vec_materializations, 0) << label;
  EXPECT_EQ(vec.vec_rows, vec.tuples_produced) << label;
}

/// Runs one plan through the vectorized executor and compares it with the
/// reference evaluator's run of the same plan, catalog and config.
void CheckAgainstReference(const Result<Relation>& ref,
                           const ExecStats& ref_stats, const PlanPtr& plan,
                           const Catalog& catalog, const EngineConfig& config,
                           const std::string& label,
                           const VexecOptions& vopts) {
  ExecStats vec_stats;
  Result<Relation> vec =
      ExecuteVectorizedPlan(plan, catalog, config, &vec_stats, vopts);
  ASSERT_EQ(ref.ok(), vec.ok()) << label << ": " << ref.status().ToString()
                                << " vs " << vec.status().ToString();
  if (!ref.ok()) {
    EXPECT_EQ(ref.status().message(), vec.status().message()) << label;
    return;
  }
  ExpectListIdentical(ref.value(), vec.value(), label);
  ExpectStatsAgree(ref_stats, vec_stats, label);
}

/// Runs one plan through both executors under one config and compares.
void CheckPlanWithOptions(const PlanPtr& plan, const Catalog& catalog,
                          const EngineConfig& config, const std::string& label,
                          const VexecOptions& vopts) {
  ExecStats ref_stats;
  Result<Relation> ref = EvaluatePlan(plan, catalog, config, &ref_stats);
  CheckAgainstReference(ref, ref_stats, plan, catalog, config, label, vopts);
}

void CheckPlan(const PlanPtr& plan, const Catalog& catalog,
               const EngineConfig& config, const std::string& label,
               size_t batch_size = 1024) {
  VexecOptions vopts;
  vopts.batch_size = batch_size;
  CheckPlanWithOptions(plan, catalog, config, label, vopts);
}

/// The three engine configurations every plan is checked under.
std::vector<std::pair<std::string, EngineConfig>> Configs() {
  EngineConfig plain;
  EngineConfig scrambled;
  scrambled.dbms_scrambles_order = true;
  EngineConfig scrambled2;
  scrambled2.dbms_scrambles_order = true;
  scrambled2.scramble_seed = 0xabcdef12;
  return {{"plain", plain},
          {"scrambled", scrambled},
          {"scrambled-seed2", scrambled2}};
}

/// A messy temporal relation exercising duplicates, snapshot duplicates,
/// and adjacency.
Relation Messy(uint64_t seed, size_t n) {
  RelationGenParams p;
  p.cardinality = n;
  p.num_names = 6;
  p.num_categories = 3;
  p.time_horizon = 80;
  p.max_period_length = 14;
  p.duplicate_fraction = 0.25;
  p.adjacency_fraction = 0.3;
  p.overlap_fraction = 0.3;
  p.seed = seed;
  return GenerateRelation(p);
}

Relation MessyConventional(uint64_t seed, size_t n) {
  RelationGenParams p;
  p.cardinality = n;
  p.num_names = 5;
  p.num_categories = 3;
  p.duplicate_fraction = 0.35;
  p.temporal = false;
  p.seed = seed;
  return GenerateRelation(p);
}

/// A conventional relation with NULLs in every non-key column.
Relation WithNulls() {
  Schema s;
  s.Add(Attribute{"Name", ValueType::kString});
  s.Add(Attribute{"Cat", ValueType::kInt});
  s.Add(Attribute{"Val", ValueType::kInt});
  Relation r(s);
  auto add = [&](Value name, Value cat, Value val) {
    Tuple t;
    t.push_back(std::move(name));
    t.push_back(std::move(cat));
    t.push_back(std::move(val));
    r.Append(std::move(t));
  };
  add(Value::String("a"), Value::Int(1), Value::Int(10));
  add(Value::Null(), Value::Int(1), Value::Int(20));
  add(Value::String("b"), Value::Null(), Value::Null());
  add(Value::String("a"), Value::Int(1), Value::Null());
  add(Value::Null(), Value::Int(1), Value::Int(20));
  add(Value::String("b"), Value::Int(2), Value::Int(30));
  return r;
}

/// A conventional relation whose Gap column is NULL in every row.
Relation WithNullColumn() {
  Schema s;
  s.Add(Attribute{"Name", ValueType::kString});
  s.Add(Attribute{"Gap", ValueType::kInt});
  s.Add(Attribute{"Val", ValueType::kInt});
  Relation r(s);
  for (int64_t i = 0; i < 7; ++i) {
    r.Append(Tuple({Value::String(i % 3 == 0 ? "a" : "b"), Value::Null(),
                    Value::Int(10 * (i % 4))}));
  }
  return r;
}

/// A skewed temporal relation: Zipf-drawn Name and Val over small domains
/// plus bursts of chained overlaps, so some value-equivalence classes and
/// Name groups hold hundreds of members with long overlap chains, and a
/// 4-thread run cuts the classes into chunks on different workers.
Relation Skewed(uint64_t seed) {
  RelationGenParams p;
  p.cardinality = 1200;
  p.num_names = 8;
  p.num_categories = 2;
  p.num_values = 4;
  p.value_zipf = 1.1;
  p.overlap_burst = 4;
  p.time_horizon = 1000;
  p.max_period_length = 50;
  p.duplicate_fraction = 0.1;
  p.adjacency_fraction = 0.2;
  p.overlap_fraction = 0.2;
  p.seed = seed;
  return GenerateRelation(p);
}

/// Hand-built temporal edge cases for the class sweeps, as (Name, M, X,
/// T1, T2); `right` selects the subtrahend side of the \T/∪T plans.
/// - Group "a" folds X = 1e16, -1e16, 1 over [5, 20): the float sum is 1 in
///   row order and 0 in begin-time order; M = Int 3 / Double 3.0 ties, so
///   MIN/MAX keep whichever the fold meets first.
/// - Empty (T1 = T2) and inverted (T1 > T2) periods, inside and outside
///   their class's coverage, and periods sharing endpoints.
/// - NULLs in the key and the aggregated columns; Int 1 and Double 1.0
///   share a class.
/// - On the right: a class covered entirely (two copies over both left
///   members), a class with no left match ("e"), a left class with no right
///   rows ("d", empty period included), partial cancellations, and an empty
///   right period that only adds cut points.
Relation EdgeCases(bool right) {
  Schema s;
  s.Add(Attribute{"Name", ValueType::kString});
  s.Add(Attribute{"M", ValueType::kDouble});
  s.Add(Attribute{"X", ValueType::kDouble});
  s.Add(Attribute{kT1, ValueType::kTime});
  s.Add(Attribute{kT2, ValueType::kTime});
  Relation r(s);
  auto add = [&](Value name, Value m, Value x, TimePoint a, TimePoint b) {
    Tuple t;
    t.push_back(std::move(name));
    t.push_back(std::move(m));
    t.push_back(std::move(x));
    t.push_back(Value::Time(a));
    t.push_back(Value::Time(b));
    r.Append(std::move(t));
  };
  const Value a = Value::String("a"), b = Value::String("b"),
             c = Value::String("c"), d = Value::String("d"),
             e = Value::String("e"), null = Value::Null();
  if (right) {
    add(c, Value::Int(7), Value::Double(0.5), 0, 100);
    add(c, Value::Int(7), Value::Double(0.5), 0, 100);
    add(a, Value::Int(3), Value::Double(1e16), 8, 12);
    add(e, Value::Int(9), Value::Double(9.0), 0, 10);
    add(null, Value::Int(1), null, 8, 9);
    add(b, null, Value::Double(2.5), 0, 0);
    add(a, Value::Double(3.0), Value::Double(1.0), 2, 4);
    return r;
  }
  add(a, Value::Int(3), Value::Double(1e16), 5, 20);
  add(a, Value::Double(3.0), Value::Double(-1e16), 3, 20);
  add(a, Value::Double(3.0), Value::Double(1.0), 0, 20);
  add(a, Value::Int(3), Value::Double(1e16), 20, 20);
  add(a, Value::Double(3.0), Value::Double(-1e16), 10, 10);
  add(a, Value::Int(3), Value::Double(1e16), 20, 30);
  add(a, Value::Int(3), Value::Double(1e16), 12, 8);
  add(null, Value::Int(1), null, 0, 10);
  add(null, Value::Double(1.0), null, 5, 15);
  add(b, null, Value::Double(2.5), 40, 50);
  add(b, null, Value::Double(2.5), 50, 40);
  add(b, null, Value::Double(2.5), 45, 45);
  add(c, Value::Int(7), Value::Double(0.5), 0, 100);
  add(c, Value::Int(7), Value::Double(0.5), 10, 20);
  add(d, Value::Int(1), Value::Double(1.0), 5, 5);
  add(d, Value::Int(1), Value::Double(1.0), 7, 9);
  add(a, Value::Double(3.0), Value::Double(1.0), 20, 25);
  return r;
}

/// The typed paths' edge cases, as (I, J, At, D, E, S, S2, Nl, B, T1, T2):
/// I and J are Int, At a non-period Time, D and E Double, S and S2 String,
/// Nl an Int column with NULLs, and B (declared Int) mixes Int 1, Double
/// 1.0, Time 1 and a string, so its storage is boxed.
/// - D holds NaN, -0.0, 0.0, ±inf and doubles beyond 2^53; I and At hold
///   2^53 + 1 against 2^53, which are equal as doubles (Int vs Time) but not
///   as int64s (Int vs Int), and INT64_MAX against D's 2^63.
/// - S holds the empty string; S and S2 share values, so equalities hold.
/// - Rows with equal S share ℵ/ℵT groups; periods overlap within a group.
Relation TypedEdges() {
  Schema s;
  for (const auto& [name, type] : std::vector<std::pair<std::string, ValueType>>{
           {"I", ValueType::kInt},     {"J", ValueType::kInt},
           {"At", ValueType::kTime},   {"D", ValueType::kDouble},
           {"E", ValueType::kDouble},  {"S", ValueType::kString},
           {"S2", ValueType::kString}, {"Nl", ValueType::kInt},
           {"B", ValueType::kInt},     {kT1, ValueType::kTime},
           {kT2, ValueType::kTime}}) {
    s.Add(Attribute{name, type});
  }
  Relation r(s);
  const int64_t big = int64_t{1} << 53;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto add = [&](int64_t i, int64_t j, int64_t at, double d, double e,
                 const std::string& str, const std::string& str2, Value nl,
                 Value b, TimePoint t1, TimePoint t2) {
    r.Append(Tuple({Value::Int(i), Value::Int(j), Value::Time(at),
                    Value::Double(d), Value::Double(e), Value::String(str),
                    Value::String(str2), std::move(nl), std::move(b),
                    Value::Time(t1), Value::Time(t2)}));
  };
  add(2, 2, 2, 2.0, nan, "a", "a", Value::Int(1), Value::Int(1), 0, 10);
  add(1, 3, 1, nan, 2.0, "", "", Value::Null(), Value::Double(1.0), 5, 15);
  add(0, 0, 0, -0.0, 0.0, "a", "b", Value::Int(0), Value::Time(1), 2, 8);
  add(-4, 5, 7, 0.0, -0.0, "b", "a", Value::Null(), Value::String("x"), 0, 4);
  add(big + 1, big, big, 9007199254740994.0, 9007199254740992.0, "", "z",
      Value::Int(5), Value::Int(1), 4, 12);
  add(INT64_MAX, INT64_MAX, 3, 9223372036854775808.0, inf, "b", "b",
      Value::Int(2), Value::Double(1.0), 10, 20);
  add(3, -4, 3, inf, -inf, "c", "c", Value::Null(), Value::Time(1), 1, 3);
  add(5, 1, 6, -inf, nan, "a", "", Value::Int(3), Value::String("x"), 8, 9);
  add(2, 2, 2, 1e300, 2.5, "c", "c", Value::Int(1), Value::Int(2), 3, 7);
  add(7, 7, 8, 2.5, 1e300, "", "", Value::Int(4), Value::Double(-0.0), 6, 6);
  return r;
}

Catalog MakeCatalog(uint64_t seed) {
  Catalog catalog;
  TQP_CHECK(
      catalog.RegisterWithInferredFlags("R", Messy(seed, 40), Site::kDbms)
          .ok());
  TQP_CHECK(
      catalog
          .RegisterWithInferredFlags("S", Messy(seed + 101, 28), Site::kDbms)
          .ok());
  TQP_CHECK(catalog
                .RegisterWithInferredFlags(
                    "C", MessyConventional(seed + 7, 30), Site::kDbms)
                .ok());
  TQP_CHECK(catalog
                .RegisterWithInferredFlags(
                    "D", MessyConventional(seed + 13, 12), Site::kDbms)
                .ok());
  TQP_CHECK(
      catalog.RegisterWithInferredFlags("N", WithNulls(), Site::kDbms).ok());
  TQP_CHECK(catalog
                .RegisterWithInferredFlags("K", Skewed(seed + 31), Site::kDbms)
                .ok());
  TQP_CHECK(catalog
                .RegisterWithInferredFlags("K2", Skewed(seed + 37), Site::kDbms)
                .ok());
  TQP_CHECK(catalog
                .RegisterWithInferredFlags("H", EdgeCases(false), Site::kDbms)
                .ok());
  TQP_CHECK(catalog
                .RegisterWithInferredFlags("H2", EdgeCases(true), Site::kDbms)
                .ok());
  TQP_CHECK(catalog
                .RegisterWithInferredFlags("G", WithNullColumn(), Site::kDbms)
                .ok());
  TQP_CHECK(
      catalog.RegisterWithInferredFlags("P", TypedEdges(), Site::kDbms).ok());
  return catalog;
}

/// σ, aggregate and rdup plans over P (TypedEdges): every CompareOp in the
/// forms attr-vs-const, const-vs-attr and attr-vs-attr over each operand
/// type pair CellRef::Compare distinguishes, AND/OR/NOT nests with and
/// without NULL operands, an unknown attribute, ℵ/ℵT with MIN/MAX beside
/// COUNT/SUM/AVG, and rdup over a double column with NaNs and zeros.
std::vector<std::pair<std::string, PlanPtr>> TypedEdgePlans() {
  auto P = [] { return PlanNode::Scan("P"); };
  auto attr = [](const char* a) { return Expr::Attr(a); };
  auto cnst = [](Value v) { return Expr::Const(std::move(v)); };
  struct Pair {
    const char* name;
    const char* left;   // attribute
    const char* right;  // attribute of the attr-vs-attr form
    Value constant;     // the other operand of the constant forms
  };
  const std::vector<Pair> pairs = {
      {"int-int", "I", "J", Value::Int(2)},
      {"int-time", "I", "At", Value::Time(2)},
      {"int-double", "I", "D", Value::Double(2.0)},
      {"double-double", "D", "E", Value::Double(2.0)},
      {"double-nan", "D", "E", Value::Double(
                                   std::numeric_limits<double>::quiet_NaN())},
      {"string-string", "S", "S2", Value::String("a")},
      {"string-int", "S", "I", Value::Int(1)},
      {"boxed-int", "B", "I", Value::Int(1)},
  };
  const std::vector<std::pair<const char*, CompareOp>> ops = {
      {"eq", CompareOp::kEq}, {"ne", CompareOp::kNe}, {"lt", CompareOp::kLt},
      {"le", CompareOp::kLe}, {"gt", CompareOp::kGt}, {"ge", CompareOp::kGe}};
  std::vector<std::pair<std::string, PlanPtr>> plans;
  auto select = [&](const std::string& name, ExprPtr pred) {
    plans.emplace_back("typed-" + name, PlanNode::Select(P(), std::move(pred)));
  };
  for (const Pair& p : pairs) {
    for (const auto& [op_name, op] : ops) {
      const std::string tag = std::string(p.name) + "-" + op_name;
      select(tag + "-attr-const",
             Expr::Compare(op, attr(p.left), cnst(p.constant)));
      select(tag + "-const-attr",
             Expr::Compare(op, cnst(p.constant), attr(p.left)));
      select(tag + "-attr-attr", Expr::Compare(op, attr(p.left), attr(p.right)));
    }
  }
  auto cmp = [&](CompareOp op, const char* a, Value v) {
    return Expr::Compare(op, attr(a), cnst(std::move(v)));
  };
  // Without NULL operands, then with Nl's NULLs.
  select("and", Expr::And(cmp(CompareOp::kGt, "I", Value::Int(0)),
                          cmp(CompareOp::kLt, "D", Value::Double(3.0))));
  select("or-not", Expr::Or(Expr::Not(cmp(CompareOp::kEq, "I", Value::Int(2))),
                            cmp(CompareOp::kEq, "S", Value::String("a"))));
  select("not-or-and",
         Expr::Not(Expr::Or(cmp(CompareOp::kLe, "E", Value::Double(0.0)),
                            Expr::And(cmp(CompareOp::kGe, "J", Value::Int(2)),
                                      cmp(CompareOp::kNe, "S2",
                                          Value::String(""))))));
  select("double-truths", Expr::And(attr("D"), Expr::Not(attr("E"))));
  select("and-null", Expr::And(cmp(CompareOp::kGt, "I", Value::Int(0)),
                               cmp(CompareOp::kGt, "Nl", Value::Int(1))));
  select("or-null", Expr::Or(cmp(CompareOp::kLt, "Nl", Value::Int(2)),
                             cmp(CompareOp::kEq, "D", Value::Double(2.0))));
  select("not-and-null",
         Expr::Not(Expr::And(cmp(CompareOp::kNe, "Nl", Value::Int(3)),
                             Expr::Or(attr("I"), cmp(CompareOp::kGe, "E",
                                                     Value::Double(0.0))))));
  select("not-null", Expr::Not(attr("Nl")));
  // Every row errs, so the result is empty.
  select("unknown-attr", cmp(CompareOp::kEq, "Nope", Value::Int(1)));
  std::vector<AggSpec> aggs = {
      AggSpec{AggFunc::kCount, "", "n"},  AggSpec{AggFunc::kSum, "D", "sd"},
      AggSpec{AggFunc::kAvg, "D", "ad"},  AggSpec{AggFunc::kMin, "D", "lo"},
      AggSpec{AggFunc::kMax, "D", "hi"},  AggSpec{AggFunc::kSum, "I", "si"},
      AggSpec{AggFunc::kMin, "S", "ls"},  AggSpec{AggFunc::kMax, "B", "hb"},
      AggSpec{AggFunc::kCount, "Nl", "nn"}, AggSpec{AggFunc::kMin, "Nl", "ln"},
  };
  plans.emplace_back("typed-aggregate", PlanNode::Aggregate(P(), {"S"}, aggs));
  plans.emplace_back("typed-aggregate-boxed-key",
                     PlanNode::Aggregate(P(), {"B"}, aggs));
  plans.emplace_back("typed-aggregate-t",
                     PlanNode::AggregateT(P(), {"S"}, aggs));
  // E holds two NaNs (one row, since NaN ties NaN) and both zeros: the
  // typed key equality of rdup must tie each pair as CellRef::Compare does.
  plans.emplace_back("typed-rdup-double",
                     PlanNode::Rdup(PlanNode::Project(
                         P(), {ProjItem::Pass("E")})));
  return plans;
}

/// Every operator of Table 1 (plus transfers), as plan builders.
std::vector<std::pair<std::string, PlanPtr>> AllOperatorPlans() {
  auto R = [] { return PlanNode::Scan("R"); };
  auto S = [] { return PlanNode::Scan("S"); };
  auto C = [] { return PlanNode::Scan("C"); };
  auto D = [] { return PlanNode::Scan("D"); };
  auto N = [] { return PlanNode::Scan("N"); };
  ExprPtr pred = Expr::And(
      Expr::Compare(CompareOp::kLt, Expr::Attr("Cat"), Expr::Const(Value::Int(2))),
      Expr::Compare(CompareOp::kGt, Expr::Attr("Val"), Expr::Const(Value::Int(100))));
  ExprPtr name_eq = Expr::Compare(CompareOp::kEq, Expr::Attr("Name"),
                                  Expr::Const(Value::String("n3")));
  std::vector<ProjItem> proj = {
      ProjItem::Pass("Name"),
      ProjItem{Expr::Arith(ArithOp::kMul, Expr::Attr("Val"),
                           Expr::Const(Value::Int(2))),
               "V2"},
      ProjItem{Expr::Arith(ArithOp::kDiv, Expr::Attr("Val"),
                           Expr::Attr("Cat")),
               "VD"},
  };
  std::vector<AggSpec> aggs = {
      AggSpec{AggFunc::kCount, "", "n"},
      AggSpec{AggFunc::kSum, "Val", "s"},
      AggSpec{AggFunc::kMin, "Val", "lo"},
      AggSpec{AggFunc::kMax, "Val", "hi"},
      AggSpec{AggFunc::kAvg, "Val", "avg"},
  };
  SortSpec by_name_val = {{"Name", true}, {"Val", false}};

  std::vector<std::pair<std::string, PlanPtr>> plans;
  plans.emplace_back("scan", R());
  plans.emplace_back("select", PlanNode::Select(R(), pred));
  plans.emplace_back("select-string", PlanNode::Select(R(), name_eq));
  plans.emplace_back("project-arith", PlanNode::Project(C(), proj));
  // Projections whose attribute items share their input column.
  auto G = [] { return PlanNode::Scan("G"); };
  plans.emplace_back(
      "project-rename",
      PlanNode::Project(C(), {ProjItem::Rename("Name", "Who"),
                              ProjItem::Pass("Val")}));
  plans.emplace_back(
      "project-twice",
      PlanNode::Sort(PlanNode::Project(C(), {ProjItem::Pass("Val"),
                                             ProjItem::Rename("Val", "V2")}),
                     {{"V2", false}}));
  plans.emplace_back(
      "project-mixed",
      PlanNode::Project(
          C(), {ProjItem::Pass("Cat"),
                ProjItem{Expr::Arith(ArithOp::kMul, Expr::Attr("Val"),
                                     Expr::Const(Value::Int(2))),
                         "V2"},
                ProjItem::Rename("Name", "Who"),
                ProjItem{Expr::Arith(ArithOp::kAdd, Expr::Attr("Val"),
                                     Expr::Attr("Cat")),
                         "VC"},
                ProjItem::Pass("Val")}));
  plans.emplace_back(
      "project-time",
      PlanNode::Project(R(), {ProjItem::Pass("Name"),
                              ProjItem::Rename(kT1, "Start"),
                              ProjItem::Pass(kT1), ProjItem::Pass(kT2)}));
  plans.emplace_back(
      "project-null-column",
      PlanNode::Project(
          G(), {ProjItem::Pass("Gap"), ProjItem::Pass("Name"),
                ProjItem{Expr::Arith(ArithOp::kAdd, Expr::Attr("Gap"),
                                     Expr::Attr("Val")),
                         "GV"}}));
  plans.emplace_back(
      "project-null-column-rdup",
      PlanNode::Rdup(PlanNode::Project(
          G(), {ProjItem::Pass("Gap"), ProjItem::Pass("Name")})));
  plans.emplace_back(
      "project-unknown",
      PlanNode::Project(C(), {ProjItem::Pass("Name"), ProjItem::Pass("Nope")}));
  plans.emplace_back("union-all", PlanNode::UnionAll(R(), S()));
  plans.emplace_back("union-max", PlanNode::Union(C(), D()));
  plans.emplace_back("difference", PlanNode::Difference(C(), D()));
  plans.emplace_back("product", PlanNode::Product(C(), D()));
  plans.emplace_back("aggregate",
                     PlanNode::Aggregate(C(), {"Name", "Cat"}, aggs));
  plans.emplace_back("aggregate-nulls",
                     PlanNode::Aggregate(N(), {"Name"}, aggs));
  plans.emplace_back("rdup", PlanNode::Rdup(C()));
  plans.emplace_back("rdup-temporal", PlanNode::Rdup(R()));
  plans.emplace_back("rdup-nulls", PlanNode::Rdup(N()));
  plans.emplace_back("sort", PlanNode::Sort(R(), by_name_val));
  plans.emplace_back("sort-nulls", PlanNode::Sort(N(), by_name_val));
  plans.emplace_back("product-t", PlanNode::ProductT(R(), S()));
  plans.emplace_back("difference-t", PlanNode::DifferenceT(R(), S()));
  plans.emplace_back("union-t", PlanNode::UnionT(R(), S()));
  plans.emplace_back("aggregate-t",
                     PlanNode::AggregateT(R(), {"Name"},
                                          {AggSpec{AggFunc::kCount, "", "n"},
                                           AggSpec{AggFunc::kSum, "Val", "s"}}));
  plans.emplace_back("rdup-t", PlanNode::RdupT(R()));
  plans.emplace_back("coalesce", PlanNode::Coalesce(R()));
  plans.emplace_back("transfer-pipeline",
                     PlanNode::Sort(PlanNode::Coalesce(PlanNode::TransferS(
                                        PlanNode::Select(R(), name_eq))),
                                    {{"Name", true}}));
  plans.emplace_back(
      "deep-pipeline",
      PlanNode::Sort(
          PlanNode::Coalesce(PlanNode::RdupT(PlanNode::Select(R(), pred))),
          by_name_val));
  plans.emplace_back(
      "join-pipeline",
      PlanNode::Sort(PlanNode::ProductT(PlanNode::Coalesce(R()),
                                        PlanNode::RdupT(S())),
                     {{"Name", true}}));
  // σ(equality ∧ residual)(C × D): the vectorized executor fuses this into a
  // partitioned hash join; the result must stay list-identical to the
  // unfused reference product + selection.
  ExprPtr equi = Expr::And(
      Expr::Compare(CompareOp::kEq, Expr::Attr("1.Name"), Expr::Attr("2.Name")),
      Expr::Compare(CompareOp::kLe, Expr::Attr("1.Val"), Expr::Attr("2.Val")));
  plans.emplace_back("equi-join",
                     PlanNode::Select(PlanNode::Product(C(), D()), equi));
  ExprPtr equi2 = Expr::And(
      Expr::Compare(CompareOp::kEq, Expr::Attr("1.Name"), Expr::Attr("2.Name")),
      Expr::Compare(CompareOp::kEq, Expr::Attr("1.Cat"), Expr::Attr("2.Cat")));
  plans.emplace_back(
      "equi-join-pipeline",
      PlanNode::Sort(PlanNode::Rdup(PlanNode::Select(
                         PlanNode::Product(PlanNode::Rdup(C()), D()), equi2)),
                     {{"1.Name", true}, {"1.Val", false}}));
  // The class kernels on heavy classes (K) and on hand-built edge cases
  // (H), with every aggregate function.
  auto K = [] { return PlanNode::Scan("K"); };
  auto K2 = [] { return PlanNode::Scan("K2"); };
  auto H = [] { return PlanNode::Scan("H"); };
  auto H2 = [] { return PlanNode::Scan("H2"); };
  std::vector<AggSpec> edge_aggs = {
      AggSpec{AggFunc::kCount, "", "n"},  AggSpec{AggFunc::kSum, "X", "s"},
      AggSpec{AggFunc::kAvg, "X", "avg"}, AggSpec{AggFunc::kMin, "M", "lo"},
      AggSpec{AggFunc::kMax, "M", "hi"},  AggSpec{AggFunc::kCount, "X", "nx"},
  };
  plans.emplace_back("rdup-t-skewed", PlanNode::RdupT(K()));
  plans.emplace_back("coalesce-skewed", PlanNode::Coalesce(K()));
  plans.emplace_back("difference-t-skewed", PlanNode::DifferenceT(K(), K2()));
  plans.emplace_back("union-t-skewed", PlanNode::UnionT(K(), K2()));
  plans.emplace_back("aggregate-t-skewed",
                     PlanNode::AggregateT(K(), {"Name", "Cat"}, aggs));
  plans.emplace_back("aggregate-skewed",
                     PlanNode::Aggregate(K(), {"Name", "Cat"}, aggs));
  plans.emplace_back("rdup-t-edges", PlanNode::RdupT(H()));
  plans.emplace_back("coalesce-edges", PlanNode::Coalesce(H()));
  plans.emplace_back("difference-t-edges", PlanNode::DifferenceT(H(), H2()));
  plans.emplace_back("difference-t-edges-flipped",
                     PlanNode::DifferenceT(H2(), H()));
  plans.emplace_back("union-t-edges", PlanNode::UnionT(H(), H2()));
  plans.emplace_back("aggregate-t-edges",
                     PlanNode::AggregateT(H(), {"Name"}, edge_aggs));
  plans.emplace_back("aggregate-edges",
                     PlanNode::Aggregate(H(), {"Name"}, edge_aggs));
  for (auto& plan : TypedEdgePlans()) plans.push_back(std::move(plan));
  return plans;
}

// ---- The randomized A/B property suite ------------------------------------

TEST(VexecParity, AllOperatorsAllConfigsRandomized) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Catalog catalog = MakeCatalog(seed);
    for (const auto& [cfg_name, config] : Configs()) {
      for (const auto& [plan_name, plan] : AllOperatorPlans()) {
        CheckPlan(plan, catalog, config,
                  "seed " + std::to_string(seed) + "/" + cfg_name + "/" +
                      plan_name);
      }
    }
  }
}

TEST(VexecParity, BatchSizeNeverChangesResults) {
  Catalog catalog = MakeCatalog(17);
  EngineConfig scrambled;
  scrambled.dbms_scrambles_order = true;
  for (size_t batch : {1u, 3u, 7u, 64u, 100000u}) {
    for (const auto& [plan_name, plan] : AllOperatorPlans()) {
      CheckPlan(plan, catalog, scrambled,
                "batch " + std::to_string(batch) + "/" + plan_name, batch);
    }
  }
}

// The morsel-parallel path obeys the same contract as the serial path: any
// thread count × batch size is list-identical to the reference evaluator,
// scramble on or off. The reference run does not depend on those options,
// so it runs once per plan.
TEST(VexecParity, ThreadsAndBatchSizesNeverChangeResults) {
  for (uint64_t seed : {11u, 12u}) {
    Catalog catalog = MakeCatalog(seed);
    for (const auto& [cfg_name, config] : Configs()) {
      for (const auto& [plan_name, plan] : AllOperatorPlans()) {
        ExecStats ref_stats;
        Result<Relation> ref = EvaluatePlan(plan, catalog, config, &ref_stats);
        for (size_t threads : {2u, 4u}) {
          for (size_t batch : {1u, 7u, 1024u}) {
            VexecOptions vopts;
            vopts.batch_size = batch;
            vopts.threads = threads;
            // Tiny morsels so 40-row inputs still split across workers.
            vopts.morsel_rows = 8;
            CheckAgainstReference(
                ref, ref_stats, plan, catalog, config,
                "seed " + std::to_string(seed) + "/" + cfg_name + "/t" +
                    std::to_string(threads) + "/batch" +
                    std::to_string(batch) + "/" + plan_name,
                vopts);
          }
        }
      }
    }
  }
}

// N-thread output is byte-identical to the serial vectorized run — the
// determinism contract is vexec-vs-vexec, not just vexec-vs-reference.
// The deterministic stats (everything but the morsel/steal telemetry) must
// agree too.
TEST(VexecParity, FourThreadOutputByteIdenticalToSerial) {
  Catalog catalog;
  TQP_CHECK(
      catalog.RegisterWithInferredFlags("R", Messy(41, 600), Site::kDbms)
          .ok());
  TQP_CHECK(
      catalog.RegisterWithInferredFlags("S", Messy(43, 400), Site::kDbms)
          .ok());
  EngineConfig config;
  config.dbms_scrambles_order = true;
  std::vector<std::pair<std::string, PlanPtr>> plans;
  plans.emplace_back(
      "deep",
      PlanNode::Sort(PlanNode::Coalesce(PlanNode::RdupT(PlanNode::Scan("R"))),
                     {{"Name", true}, {"Val", false}}));
  plans.emplace_back(
      "join",
      PlanNode::Sort(
          PlanNode::ProductT(PlanNode::Coalesce(PlanNode::Scan("R")),
                             PlanNode::RdupT(PlanNode::Scan("S"))),
          {{"1.Name", true}}));
  plans.emplace_back(
      "agg", PlanNode::AggregateT(PlanNode::Scan("R"), {"Name"},
                                  {AggSpec{AggFunc::kCount, "", "n"},
                                   AggSpec{AggFunc::kSum, "Val", "s"}}));
  for (const auto& [plan_name, plan] : plans) {
    VexecOptions serial;
    VexecOptions par = serial;
    par.threads = 4;
    par.morsel_rows = 64;
    ExecStats sstats, pstats;
    Result<Relation> s =
        ExecuteVectorizedPlan(plan, catalog, config, &sstats, serial);
    Result<Relation> p =
        ExecuteVectorizedPlan(plan, catalog, config, &pstats, par);
    ASSERT_TRUE(s.ok() && p.ok()) << plan_name;
    ExpectListIdentical(s.value(), p.value(), plan_name);
    EXPECT_DOUBLE_EQ(sstats.dbms_work, pstats.dbms_work) << plan_name;
    EXPECT_DOUBLE_EQ(sstats.stratum_work, pstats.stratum_work) << plan_name;
    EXPECT_EQ(sstats.tuples_produced, pstats.tuples_produced) << plan_name;
    EXPECT_EQ(sstats.op_counts, pstats.op_counts) << plan_name;
    EXPECT_EQ(sstats.vec_rows, pstats.vec_rows) << plan_name;
    // Morsel/steal counts are telemetry.
    EXPECT_EQ(sstats.morsels, 0) << plan_name;  // serial never morselizes
    EXPECT_GT(pstats.morsels, 0) << plan_name;
  }
}

TEST(VexecParity, EmptyInputs) {
  Catalog catalog;
  RelationGenParams p;
  p.cardinality = 0;
  TQP_CHECK(catalog
                .RegisterWithInferredFlags("R", GenerateRelation(p),
                                           Site::kDbms)
                .ok());
  p.temporal = false;
  TQP_CHECK(catalog
                .RegisterWithInferredFlags("C", GenerateRelation(p),
                                           Site::kDbms)
                .ok());
  EngineConfig config;
  CheckPlan(PlanNode::Coalesce(PlanNode::Scan("R")), catalog, config,
            "empty-coalesce");
  CheckPlan(PlanNode::Rdup(PlanNode::Scan("C")), catalog, config,
            "empty-rdup");
  CheckPlan(PlanNode::Aggregate(PlanNode::Scan("C"), {"Name"},
                                {AggSpec{AggFunc::kSum, "Val", "s"}}),
            catalog, config, "empty-aggregate");
  CheckPlan(PlanNode::ProductT(PlanNode::Scan("R"), PlanNode::Scan("R")),
            catalog, config, "empty-product-t");
}

// Value::Compare treats numerically equal int/double/time cells as EQUAL
// (Int(1) == Double(1.0)), and the reference keys value-equivalence classes
// and group tables on that comparison — so the vectorized hash tables must
// merge mixed-type numerically-equal keys exactly the same way.
TEST(VexecParity, MixedNumericTypesShareClassesAndGroups) {
  Schema s;
  s.Add(Attribute{"Name", ValueType::kString});
  s.Add(Attribute{"Cat", ValueType::kInt});
  s.Add(Attribute{kT1, ValueType::kTime});
  s.Add(Attribute{kT2, ValueType::kTime});
  Relation r(s);
  auto add = [&](const std::string& n, Value cat, TimePoint a, TimePoint b) {
    Tuple t;
    t.push_back(Value::String(n));
    t.push_back(std::move(cat));
    t.push_back(Value::Time(a));
    t.push_back(Value::Time(b));
    r.Append(std::move(t));
  };
  // Same class under Compare (Int(1) == Double(1.0)), adjacent periods:
  // coalT must merge across the type mix; rdupT/ℵT/\T must see one class.
  add("a", Value::Int(1), 1, 5);
  add("a", Value::Double(1.0), 5, 9);
  add("a", Value::Time(1), 9, 12);
  add("b", Value::Double(-0.0), 2, 6);
  add("b", Value::Int(0), 6, 8);
  add("b", Value::Double(0.0), 4, 7);
  Catalog catalog;
  TQP_CHECK(catalog.RegisterWithInferredFlags("M", r, Site::kDbms).ok());
  TQP_CHECK(
      catalog
          .RegisterWithInferredFlags("M2", Messy(3, 10), Site::kDbms)
          .ok());
  for (const auto& [cfg_name, config] : Configs()) {
    auto M = [] { return PlanNode::Scan("M"); };
    CheckPlan(PlanNode::Coalesce(M()), catalog, config,
              "mixed-coalesce/" + cfg_name);
    CheckPlan(PlanNode::RdupT(M()), catalog, config,
              "mixed-rdupt/" + cfg_name);
    CheckPlan(PlanNode::AggregateT(M(), {"Cat"},
                                   {AggSpec{AggFunc::kCount, "", "n"}}),
              catalog, config, "mixed-aggregate-t/" + cfg_name);
    CheckPlan(PlanNode::Aggregate(M(), {"Cat"},
                                  {AggSpec{AggFunc::kCount, "", "n"},
                                   AggSpec{AggFunc::kMin, "Cat", "lo"}}),
              catalog, config, "mixed-aggregate/" + cfg_name);
    CheckPlan(PlanNode::DifferenceT(M(), M()), catalog, config,
              "mixed-difference-t/" + cfg_name);
  }
}

// rdupT's in-place replacement discipline on the exact Figure 3 input.
TEST(VexecParity, FigureThreeRdupT) {
  Schema s;
  s.Add(Attribute{"EmpName", ValueType::kString});
  s.Add(Attribute{kT1, ValueType::kTime});
  s.Add(Attribute{kT2, ValueType::kTime});
  Relation r1(s);
  auto add = [&](const std::string& n, TimePoint a, TimePoint b) {
    Tuple t;
    t.push_back(Value::String(n));
    t.push_back(Value::Time(a));
    t.push_back(Value::Time(b));
    r1.Append(std::move(t));
  };
  add("John", 1, 8);
  add("John", 6, 11);
  add("Anna", 2, 6);
  add("Anna", 2, 6);
  add("Anna", 6, 12);
  Catalog catalog;
  TQP_CHECK(catalog.RegisterWithInferredFlags("R1", r1, Site::kDbms).ok());
  for (const auto& [cfg_name, config] : Configs()) {
    CheckPlan(PlanNode::RdupT(PlanNode::Scan("R1")), catalog, config,
              "fig3-rdupt/" + cfg_name);
    CheckPlan(PlanNode::Coalesce(PlanNode::Scan("R1")), catalog, config,
              "fig3-coalesce/" + cfg_name);
  }
}

// ---- Columnar twins ---------------------------------------------------------

/// Every operator plan on `catalog`, against the reference.
void CheckAllPlans(const Catalog& catalog, const std::string& step) {
  for (const auto& [plan_name, plan] : AllOperatorPlans()) {
    CheckPlan(plan, catalog, EngineConfig(), step + "/" + plan_name);
  }
}

// A twin belongs to one relation version: after Update, and after Drop plus
// re-Register, vectorized scans return the new contents.
TEST(VexecTwin, ScansFollowCatalogMutations) {
  Catalog catalog = MakeCatalog(61);
  CheckAllPlans(catalog, "before");  // builds every twin
  CatalogEntry r;
  r.data = Messy(62, 35);
  ASSERT_TRUE(catalog.Update("R", r).ok());
  CatalogEntry c;
  c.data = MessyConventional(63, 25);
  ASSERT_TRUE(catalog.Update("C", c).ok());
  CheckAllPlans(catalog, "updated");
  ASSERT_TRUE(catalog.Drop("S"));
  ASSERT_TRUE(
      catalog.RegisterWithInferredFlags("S", Messy(64, 20), Site::kDbms).ok());
  CheckAllPlans(catalog, "re-registered");
  for (const char* name : {"R", "C", "S"}) {
    Result<Relation> scan =
        ExecuteVectorizedPlan(PlanNode::Scan(name), catalog);
    ASSERT_TRUE(scan.ok()) << name;
    ExpectListIdentical(catalog.Find(name)->data, scan.value(), name);
  }
}

// A Catalog copy shares the twins built before it was taken; an update of
// the original replaces the original's twin and leaves the copy's alone.
TEST(VexecTwin, CatalogCopyKeepsScanningItsContents) {
  Catalog original = MakeCatalog(71);
  CheckAllPlans(original, "original");  // builds every twin
  Catalog copy = original;
  const Relation old_r = copy.Find("R")->data;
  CatalogEntry r;
  r.data = Messy(72, 33);
  ASSERT_TRUE(original.Update("R", r).ok());
  CheckAllPlans(copy, "copy");
  CheckAllPlans(original, "updated original");
  Result<Relation> from_copy = ExecuteVectorizedPlan(PlanNode::Scan("R"), copy);
  ASSERT_TRUE(from_copy.ok());
  ExpectListIdentical(old_r, from_copy.value(), "copy scan");
  Result<Relation> from_original =
      ExecuteVectorizedPlan(PlanNode::Scan("R"), original);
  ASSERT_TRUE(from_original.ok());
  ExpectListIdentical(r.data, from_original.value(), "original scan");
}

// Engine::MutateCatalog replaces the twin of the relation it updates.
TEST(VexecTwin, EngineMutationsReachVectorizedScans) {
  Catalog catalog = MakeCatalog(67);
  EngineOptions vec_opts;
  vec_opts.executor = ExecutorKind::kVectorized;
  vec_opts.vexec_threads = 4;
  Engine ref_engine(catalog, EngineOptions());
  Engine vec_engine(catalog, vec_opts);
  const std::vector<std::string> queries = {
      "SELECT Name, Val FROM C WHERE Val > 200 ORDER BY Val DESC",
      "VALIDTIME COALESCED SELECT DISTINCT Name FROM R",
  };
  auto check = [&](const std::string& step) {
    for (const std::string& q : queries) {
      Result<QueryResult> ref = ref_engine.Query(q);
      Result<QueryResult> vec = vec_engine.Query(q);
      ASSERT_TRUE(ref.ok() && vec.ok()) << step << ": " << q;
      ExpectListIdentical(ref->relation, vec->relation, step + ": " + q);
    }
  };
  check("before");
  auto update = [](Catalog& c) {
    CatalogEntry conventional;
    conventional.data = MessyConventional(68, 26);
    TQP_RETURN_IF_ERROR(c.Update("C", conventional));
    CatalogEntry temporal;
    temporal.data = Messy(69, 31);
    return c.Update("R", temporal);
  };
  ASSERT_TRUE(ref_engine.MutateCatalog(update).ok());
  ASSERT_TRUE(vec_engine.MutateCatalog(update).ok());
  check("after MutateCatalog");
}

// Four sessions run their first vectorized queries at once on a fresh
// engine: their scans of R and S race to build the twins, which are built
// once, and every session gets the reference result.
TEST(VexecTwin, ConcurrentFirstQueriesMatchTheReference) {
  const Catalog catalog = MakeCatalog(73);
  const std::vector<std::string> queries = {
      "VALIDTIME SELECT DISTINCT Name FROM R ORDER BY Name ASC",
      "SELECT Name FROM R UNION SELECT Name FROM S",
      "VALIDTIME COALESCED SELECT DISTINCT Name FROM R",
      "SELECT Cat, COUNT(*) AS n FROM R GROUP BY Cat ORDER BY Cat",
  };
  Engine ref_engine(catalog, EngineOptions());
  std::vector<Relation> want;
  for (const std::string& q : queries) {
    Result<QueryResult> ref = ref_engine.Query(q);
    ASSERT_TRUE(ref.ok()) << q;
    want.push_back(ref->relation);
  }
  EngineOptions vec_opts;
  vec_opts.executor = ExecutorKind::kVectorized;
  vec_opts.vexec_threads = 2;
  Engine vec_engine(catalog, vec_opts);
  std::vector<Relation> got(queries.size());
  std::vector<int> ok(queries.size(), 0);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> sessions;
  for (size_t t = 0; t < queries.size(); ++t) {
    sessions.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < queries.size()) std::this_thread::yield();
      Result<QueryResult> r = vec_engine.Query(queries[t]);
      if (!r.ok()) return;
      ok[t] = 1;
      got[t] = r->relation;
    });
  }
  for (std::thread& s : sessions) s.join();
  for (size_t t = 0; t < queries.size(); ++t) {
    ASSERT_TRUE(ok[t]) << queries[t];
    ExpectListIdentical(want[t], got[t], queries[t]);
  }
}

// ---- Engine wiring ---------------------------------------------------------

TEST(VexecEngine, VectorizedExecutorMatchesReferenceThroughEngine) {
  const std::vector<std::string> queries = {
      "VALIDTIME SELECT DISTINCT Name FROM R ORDER BY Name ASC",
      "VALIDTIME COALESCED SELECT DISTINCT Name FROM R",
      "SELECT Name FROM R UNION SELECT Name FROM S",
      "SELECT Cat, COUNT(*) AS n FROM R GROUP BY Cat ORDER BY Cat",
      "SELECT Name, Val FROM C WHERE Val > 200 ORDER BY Val DESC",
  };
  Catalog catalog = MakeCatalog(23);

  EngineOptions ref_opts;
  ASSERT_EQ(ref_opts.executor, ExecutorKind::kReference);  // the default
  EngineOptions vec_opts;
  vec_opts.executor = ExecutorKind::kVectorized;
  Engine ref_engine(catalog, ref_opts);
  Engine vec_engine(catalog, vec_opts);

  for (const std::string& q : queries) {
    Result<QueryResult> ref = ref_engine.Query(q);
    Result<QueryResult> vec = vec_engine.Query(q);
    ASSERT_TRUE(ref.ok()) << q << ": " << ref.status().ToString();
    ASSERT_TRUE(vec.ok()) << q << ": " << vec.status().ToString();
    ExpectListIdentical(ref->relation, vec->relation, q);
    EXPECT_EQ(ref->plan_fingerprint, vec->plan_fingerprint) << q;
    ExpectStatsAgree(ref->exec, vec->exec, q);
    // The execution stats are surfaced to the caller on both paths.
    EXPECT_GT(ref->exec.tuples_produced, 0) << q;
    EXPECT_GT(vec->exec.vec_batches, 0) << q;
  }
}

TEST(VexecEngine, ScrambledDbmsMatchesThroughEngineToo) {
  Catalog catalog = MakeCatalog(29);
  EngineOptions ref_opts;
  ref_opts.engine.dbms_scrambles_order = true;
  EngineOptions vec_opts = ref_opts;
  vec_opts.executor = ExecutorKind::kVectorized;
  vec_opts.vexec_batch_size = 33;
  Engine ref_engine(catalog, ref_opts);
  Engine vec_engine(catalog, vec_opts);
  const std::string q =
      "VALIDTIME SELECT DISTINCT Name FROM R ORDER BY Name ASC";
  Result<QueryResult> ref = ref_engine.Query(q);
  Result<QueryResult> vec = vec_engine.Query(q);
  ASSERT_TRUE(ref.ok() && vec.ok());
  ExpectListIdentical(ref->relation, vec->relation, q);
}

TEST(VexecEngine, ThreadsFlowThroughEngineOptions) {
  Catalog catalog = MakeCatalog(31);
  EngineOptions ref_opts;
  EngineOptions vec_opts;
  vec_opts.executor = ExecutorKind::kVectorized;
  vec_opts.vexec_threads = 4;
  Engine ref_engine(catalog, ref_opts);
  Engine vec_engine(catalog, vec_opts);
  const std::string q =
      "VALIDTIME SELECT DISTINCT Name FROM R ORDER BY Name ASC";
  Result<QueryResult> ref = ref_engine.Query(q);
  Result<QueryResult> vec = vec_engine.Query(q);
  ASSERT_TRUE(ref.ok() && vec.ok());
  ExpectListIdentical(ref->relation, vec->relation, q);
  // The threads reached the executor: only its pool runs morsels.
  EXPECT_GT(vec->exec.morsels, 0);
}

}  // namespace
}  // namespace tqp
