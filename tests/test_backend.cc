// Backend-layer suite: the stratum⇄DBMS split of Section 2.1/4.5 made
// pluggable.
//
// Contracts under test:
//  * the deterministic DBMS-order scramble moved into SimulatedBackend is
//    byte-identical to the historical in-evaluator implementation;
//  * SimulatedBackend::Calibrate reproduces the constant cost model exactly
//    (calibration never changes simulated costs), while synthetic slow/fast
//    profiles move DBMS-site costs the way the optimizer will see them;
//  * SQL pushdown parity: with SqliteBackend active, every pushable
//    conventional subplan under a transferS cut returns a result
//    LIST-IDENTICAL to the reference evaluator's — across scramble modes,
//    both executors, and vexec thread counts — and ExecStats records the
//    pushdowns. The cut plans cover each SQL shape the serializer emits:
//    ⊎'s offset ords nested and under every ord reader, and σ's WHERE form
//    over NULL operands beside the OR and NOT predicates that must keep
//    their CASE translations, and strings holding NUL bytes come back
//    whole;
//  * anything the serializer refuses (or that fails at runtime) falls back
//    to in-engine evaluation with identical results;
//  * Engine-level selection (EngineOptions::backend), stats surfacing, and
//    plan-cache snapshot staleness on backend/calibration mismatch;
//  * file-backed SQLite mirrors are reused across "restarts" (mirror_loads
//    stays 0 on reopen);
//  * the mirror is incremental per relation: an unchanged relation's table
//    is never written, an append inserts only the new rows, any other
//    change reloads or drops just that relation's table, and a damaged
//    mirror degrades to in-engine evaluation until the next sync repairs
//    it; mirror table names keep case-distinct relation names apart;
//  * a relation holding a NaN double (which SQLite would store as NULL)
//    stays out of the mirror and its cuts run in the stratum, and a NaN
//    constant is never bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "backend/backend.h"
#include "backend/simulated_backend.h"
#include "backend/sql_serializer.h"
#include "backend/sqlite_backend.h"
#include "core/profile.h"
#include "exec/cost_model.h"
#include "exec/evaluator.h"
#include "service/plan_store.h"
#include "test_util.h"
#include "vexec/vexec.h"
#include "workload/generator.h"

namespace tqp {
namespace {

// ---- Helpers (same idioms as test_vexec.cc) -------------------------------

void ExpectListIdentical(const Relation& ref, const Relation& got,
                         const std::string& label) {
  ASSERT_EQ(ref.schema().ToString(), got.schema().ToString()) << label;
  ASSERT_EQ(ref.size(), got.size()) << label;
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref.tuple(i), got.tuple(i))
        << label << " row " << i << ": " << ref.tuple(i).ToString() << " vs "
        << got.tuple(i).ToString();
    ASSERT_EQ(ref.tuple(i).ToString(), got.tuple(i).ToString())
        << label << " row " << i;
  }
  EXPECT_EQ(SortSpecToString(ref.order()), SortSpecToString(got.order()))
      << label;
}

/// Row-level identity only (no order annotation): ExecuteSubplan returns raw
/// backend rows whose annotation the stratum re-derives at the cut.
void ExpectSameRows(const Relation& ref, const Relation& got,
                    const std::string& label) {
  ASSERT_EQ(ref.schema().ToString(), got.schema().ToString()) << label;
  ASSERT_EQ(ref.size(), got.size()) << label;
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref.tuple(i).ToString(), got.tuple(i).ToString())
        << label << " row " << i;
  }
}

/// Every ExecStats counter both executors fill from the same formulas (the
/// vec_* and scheduler counters are vectorized-only).
void ExpectSameSharedCounters(const ExecStats& ref, const ExecStats& vec,
                              const std::string& label) {
  EXPECT_DOUBLE_EQ(ref.dbms_work, vec.dbms_work) << label;
  EXPECT_DOUBLE_EQ(ref.stratum_work, vec.stratum_work) << label;
  EXPECT_EQ(ref.tuples_transferred, vec.tuples_transferred) << label;
  EXPECT_EQ(ref.tuples_produced, vec.tuples_produced) << label;
  EXPECT_EQ(ref.op_counts, vec.op_counts) << label;
  EXPECT_EQ(ref.backend_pushdowns, vec.backend_pushdowns) << label;
  EXPECT_EQ(ref.backend_rows, vec.backend_rows) << label;
  EXPECT_EQ(ref.backend_fallbacks, vec.backend_fallbacks) << label;
  EXPECT_EQ(ref.backend_refusals, vec.backend_refusals) << label;
  EXPECT_EQ(ref.result_cache_hits, vec.result_cache_hits) << label;
  EXPECT_EQ(ref.result_cache_misses, vec.result_cache_misses) << label;
}

/// Profile trees of the two executors agree in shape, operator kinds, row
/// counts, and the cut-point flags. Timings and `batches` (filled by the
/// vectorized executor only) are not compared; a spliced or pushed cut ran
/// nothing below it here, so it records no input rows and no batches.
void ExpectSameProfileShape(const ProfileNode& ref, const ProfileNode& vec,
                            const std::string& label) {
  EXPECT_EQ(ref.kind, vec.kind) << label;
  EXPECT_EQ(ref.rows_in, vec.rows_in) << label << " at " << ref.kind;
  EXPECT_EQ(ref.rows_out, vec.rows_out) << label << " at " << ref.kind;
  EXPECT_EQ(ref.result_cache_hit, vec.result_cache_hit)
      << label << " at " << ref.kind;
  EXPECT_EQ(ref.backend_pushed, vec.backend_pushed)
      << label << " at " << ref.kind;
  if (ref.result_cache_hit || ref.backend_pushed) {
    EXPECT_EQ(ref.rows_in, 0) << label << " at " << ref.kind;
    EXPECT_EQ(vec.batches, 0) << label << " at " << ref.kind;
    EXPECT_TRUE(ref.children.empty()) << label << " at " << ref.kind;
  }
  ASSERT_EQ(ref.children.size(), vec.children.size())
      << label << " at " << ref.kind;
  for (size_t i = 0; i < ref.children.size(); ++i) {
    ExpectSameProfileShape(ref.children[i], vec.children[i], label);
  }
}

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

/// Strings holding NUL bytes: SQLite stores a bound string's full length,
/// and reading it back must too, not stop at the first NUL.
Relation WithNulBytes() {
  Schema s;
  s.Add(Attribute{"Name", ValueType::kString});
  s.Add(Attribute{"Val", ValueType::kInt});
  Relation r(s);
  for (const auto& [name, val] :
       std::vector<std::pair<std::string, int64_t>>{
           {std::string("a\0b", 3), 1},
           {"plain", 2},
           {std::string("\0", 1), 3},
           {std::string("x\0\0", 3), 9}}) {
    Tuple t;
    t.push_back(Value::String(name));
    t.push_back(Value::Int(val));
    r.Append(std::move(t));
  }
  return r;
}

Catalog MakeCatalog(uint64_t seed) {
  Catalog catalog;
  TQP_CHECK(
      catalog.RegisterWithInferredFlags("R", Messy(seed, 40), Site::kDbms)
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
  TQP_CHECK(
      catalog.RegisterWithInferredFlags("Z", WithNulBytes(), Site::kDbms)
          .ok());
  return catalog;
}

/// Conventional subplans (over C, D, N, Z) wrapped in the transferS cut the
/// backend intercepts. Everything the SQL serializer accepts must come back
/// list-identical; anything refused must fall back with identical results.
std::vector<std::pair<std::string, PlanPtr>> CutPlans() {
  auto C = [] { return PlanNode::Scan("C"); };
  auto D = [] { return PlanNode::Scan("D"); };
  auto N = [] { return PlanNode::Scan("N"); };
  ExprPtr pred = Expr::And(
      Expr::Compare(CompareOp::kLt, Expr::Attr("Cat"),
                    Expr::Const(Value::Int(2))),
      Expr::Compare(CompareOp::kGt, Expr::Attr("Val"),
                    Expr::Const(Value::Int(100))));
  ExprPtr name_eq = Expr::Compare(CompareOp::kEq, Expr::Attr("Name"),
                                  Expr::Const(Value::String("n3")));
  std::vector<ProjItem> proj = {
      ProjItem::Pass("Name"),
      ProjItem{Expr::Arith(ArithOp::kMul, Expr::Attr("Val"),
                           Expr::Const(Value::Int(2))),
               "V2"},
  };
  std::vector<AggSpec> aggs = {
      AggSpec{AggFunc::kCount, "", "n"},
      AggSpec{AggFunc::kSum, "Val", "s"},
      AggSpec{AggFunc::kMin, "Val", "lo"},
      AggSpec{AggFunc::kMax, "Val", "hi"},
  };
  SortSpec by_name_val = {{"Name", true}, {"Val", false}};

  std::vector<std::pair<std::string, PlanPtr>> plans;
  auto cut = [&](const std::string& name, PlanPtr sub) {
    plans.emplace_back(name, PlanNode::TransferS(std::move(sub)));
  };
  cut("scan", C());
  cut("select", PlanNode::Select(C(), pred));
  cut("select-nulls", PlanNode::Select(N(), pred));
  cut("project-arith", PlanNode::Project(C(), proj));
  cut("union-all", PlanNode::UnionAll(C(), D()));
  cut("union-max", PlanNode::Union(C(), D()));
  cut("difference", PlanNode::Difference(C(), D()));
  cut("product", PlanNode::Product(C(), D()));
  // σ over × with disjoint column names (D renamed): exercises the fused
  // join translation with a predicate touching both sides.
  std::vector<ProjItem> d_renamed = {ProjItem::Rename("Name", "DName"),
                                     ProjItem::Rename("Cat", "DCat"),
                                     ProjItem::Rename("Val", "DVal")};
  ExprPtr join_pred = Expr::And(
      Expr::Compare(CompareOp::kLt, Expr::Attr("Cat"),
                    Expr::Const(Value::Int(2))),
      Expr::Compare(CompareOp::kGt, Expr::Attr("DVal"),
                    Expr::Const(Value::Int(100))));
  cut("select-product",
      PlanNode::Select(
          PlanNode::Product(C(), PlanNode::Project(D(), d_renamed)),
          join_pred));
  cut("aggregate", PlanNode::Aggregate(C(), {"Name", "Cat"}, aggs));
  cut("aggregate-nulls", PlanNode::Aggregate(N(), {"Name"}, aggs));
  cut("rdup", PlanNode::Rdup(C()));
  cut("rdup-nulls", PlanNode::Rdup(N()));
  cut("sort", PlanNode::Sort(C(), by_name_val));
  cut("sort-over-select",
      PlanNode::Sort(PlanNode::Select(C(), pred), by_name_val));

  // ⊎ shifts its right rows' ords past every left ord. Nested three deep on
  // either side, with an empty side, and under every operator that reads
  // ords. last_n() keeps only N's last row (group b), whose ord is the
  // left side's largest, so a shift one short of it would tie N's first
  // row (group a) with it, and rdup and ℵ, which keep MIN(ord) per group,
  // would put a first.
  ExprPtr none = Expr::Compare(CompareOp::kGt, Expr::Attr("Val"),
                               Expr::Const(Value::Int(1000000)));
  auto last_n = [&] {
    return PlanNode::Select(N(), Expr::Compare(CompareOp::kEq,
                                               Expr::Attr("Cat"),
                                               Expr::Const(Value::Int(2))));
  };
  cut("union-all-left-deep",
      PlanNode::UnionAll(PlanNode::UnionAll(PlanNode::UnionAll(C(), D()), N()),
                         C()));
  cut("union-all-right-deep",
      PlanNode::UnionAll(C(), PlanNode::UnionAll(
                                  D(), PlanNode::UnionAll(N(), C()))));
  cut("union-all-empty-left",
      PlanNode::UnionAll(PlanNode::Select(C(), none), D()));
  cut("union-all-empty-right",
      PlanNode::UnionAll(C(), PlanNode::Select(D(), none)));
  cut("rdup-over-union-all",
      PlanNode::Rdup(PlanNode::UnionAll(last_n(), N())));
  cut("aggregate-over-union-all",
      PlanNode::Aggregate(PlanNode::UnionAll(last_n(), N()), {"Name"},
                          {AggSpec{AggFunc::kCount, "", "n"}}));
  cut("sort-over-union-all",
      PlanNode::Sort(PlanNode::UnionAll(D(), C()), {{"Cat", true}}));
  cut("union-max-over-union-all",
      PlanNode::Union(PlanNode::UnionAll(C(), N()),
                      PlanNode::UnionAll(N(), D())));
  cut("difference-over-union-all",
      PlanNode::Difference(PlanNode::UnionAll(C(), N()),
                           PlanNode::UnionAll(D(), N())));
  cut("union-max-empty-left",
      PlanNode::Union(PlanNode::Select(C(), none), N()));
  // ⊎ over ×, whose ords are its own ROW_NUMBER, 1..|C|·|D| = 360, above
  // every rowid of the relations it pairs.
  cut("union-all-over-product",
      PlanNode::UnionAll(
          PlanNode::Product(C(), PlanNode::Project(D(), d_renamed)),
          PlanNode::Product(N(), PlanNode::Project(D(), d_renamed))));

  // σ in WHERE form: compare and AND over NULL operands, and the OR and NOT
  // predicates whose SQL three-valued truth differs from the stratum's. On
  // N's row (a, 1, NULL), `Val > 5 OR Cat < 3` is NULL in the stratum (the
  // row is dropped) and true in SQL; `NOT (Val > 15 AND Cat = 2)` is NULL
  // in the stratum and true in SQL.
  auto cmp = [](CompareOp op, const char* attr, int64_t v) {
    return Expr::Compare(op, Expr::Attr(attr), Expr::Const(Value::Int(v)));
  };
  cut("select-and-nulls",
      PlanNode::Select(N(), Expr::And(cmp(CompareOp::kGt, "Val", 15),
                                      cmp(CompareOp::kEq, "Cat", 1))));
  cut("select-or-nulls",
      PlanNode::Select(N(), Expr::Or(cmp(CompareOp::kGt, "Val", 5),
                                     cmp(CompareOp::kLt, "Cat", 3))));
  cut("select-not-and-nulls",
      PlanNode::Select(
          N(), Expr::Not(Expr::And(cmp(CompareOp::kGt, "Val", 15),
                                   cmp(CompareOp::kEq, "Cat", 2)))));
  cut("select-and-over-or-nulls",
      PlanNode::Select(
          N(), Expr::And(cmp(CompareOp::kLt, "Cat", 3),
                         Expr::Or(cmp(CompareOp::kGt, "Val", 5),
                                  cmp(CompareOp::kLt, "Cat", 3)))));
  // The fused σ-over-× with NULL join keys on both sides.
  std::vector<ProjItem> n_renamed = {ProjItem::Rename("Name", "DName"),
                                     ProjItem::Rename("Cat", "DCat"),
                                     ProjItem::Rename("Val", "DVal")};
  cut("select-product-null-keys",
      PlanNode::Select(
          PlanNode::Product(N(), PlanNode::Project(N(), n_renamed)),
          Expr::And(Expr::Compare(CompareOp::kEq, Expr::Attr("Name"),
                                  Expr::Attr("DName")),
                    Expr::Compare(CompareOp::kEq, Expr::Attr("Val"),
                                  Expr::Attr("DVal")))));

  // Z's names hold NUL bytes.
  auto Z = [] { return PlanNode::Scan("Z"); };
  cut("nul-scan", Z());
  cut("nul-select", PlanNode::Select(Z(), cmp(CompareOp::kLt, "Val", 5)));
  cut("nul-union-all", PlanNode::UnionAll(Z(), Z()));
  return plans;
}

// ---- Scramble refactor regression -----------------------------------------

/// The evaluator's historical inline scramble, reproduced verbatim: the
/// refactor into SimulatedBackend must stay byte-identical to it.
Relation LegacyScrambleOrder(const Relation& in, uint64_t seed) {
  Relation out = in;
  auto mix = [&](const Tuple& t) {
    uint64_t h = t.Hash() ^ seed;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
  };
  std::stable_sort(out.mutable_tuples().begin(), out.mutable_tuples().end(),
                   [&](const Tuple& a, const Tuple& b) {
                     uint64_t ha = mix(a), hb = mix(b);
                     if (ha != hb) return ha < hb;
                     return a.Compare(b) < 0;
                   });
  return out;
}

TEST(BackendScrambleTest, MatchesLegacyEvaluatorScramble) {
  std::vector<std::pair<std::string, Relation>> inputs = {
      {"conventional", MessyConventional(7, 200)},
      {"temporal", Messy(3, 150)},
      {"nulls", WithNulls()},
  };
  for (uint64_t seed : {uint64_t{0x5eed}, uint64_t{0xabcdef12}}) {
    for (const auto& [name, rel] : inputs) {
      Relation expect = LegacyScrambleOrder(rel, seed);
      Relation got = rel;
      SimulatedBackend::ScrambleRelation(&got, seed);
      ExpectSameRows(expect, got,
                     name + " seed=" + std::to_string(seed));
    }
  }
}

TEST(BackendScrambleTest, PureFunctionOfMultiset) {
  // Any input permutation scrambles to the same list — the property
  // ExecuteCutPoint relies on to reproduce the reference order from a
  // backend result in arbitrary order.
  Relation rel = MessyConventional(21, 120);
  Relation expect = rel;
  SimulatedBackend::ScrambleRelation(&expect, 0x5eed);
  Relation permuted = LegacyScrambleOrder(rel, 0x1234);  // some other order
  SimulatedBackend::ScrambleRelation(&permuted, 0x5eed);
  ExpectSameRows(expect, permuted, "scramble(permutation)");
}

// ---- Calibration and the cost model ---------------------------------------

TEST(BackendCostTest, SimulatedCalibrationIsCostIdentical) {
  Catalog catalog = MakeCatalog(11);
  EngineConfig config;
  SimulatedBackend sim;
  BackendCostProfile profile = sim.Calibrate(config);
  ASSERT_TRUE(profile.calibrated);
  EXPECT_NE(profile.fingerprint, 0u);

  EngineConfig calibrated = config;
  calibrated.calibration = &profile;
  for (const auto& [name, plan] : CutPlans()) {
    Result<AnnotatedPlan> ann =
        AnnotatedPlan::Make(plan, &catalog, QueryContract::Multiset());
    ASSERT_TRUE(ann.ok()) << name;
    EXPECT_DOUBLE_EQ(EstimatePlanCost(ann.value(), config),
                     EstimatePlanCost(ann.value(), calibrated))
        << name;
  }
}

TEST(BackendCostTest, CalibratedProfileMovesDbmsCosts) {
  Catalog catalog = MakeCatalog(11);
  EngineConfig config;

  BackendCostProfile slow;
  slow.calibrated = true;
  slow.fingerprint = 1;
  slow.transfer_cost_per_tuple = config.transfer_cost_per_tuple;
  BackendCostProfile fast = slow;
  fast.fingerprint = 2;
  for (int k = 0; k < kOpKindCount; ++k) {
    slow.dbms_op_factor[k] = 64.0;
    fast.dbms_op_factor[k] = 1.0 / 16.0;
  }

  PlanPtr plan = PlanNode::TransferS(PlanNode::Select(
      PlanNode::Scan("C"),
      Expr::Compare(CompareOp::kGt, Expr::Attr("Val"),
                    Expr::Const(Value::Int(100)))));
  Result<AnnotatedPlan> ann =
      AnnotatedPlan::Make(plan, &catalog, QueryContract::Multiset());
  ASSERT_TRUE(ann.ok());

  double base = EstimatePlanCost(ann.value(), config);
  EngineConfig slow_cfg = config;
  slow_cfg.calibration = &slow;
  EngineConfig fast_cfg = config;
  fast_cfg.calibration = &fast;
  double slow_cost = EstimatePlanCost(ann.value(), slow_cfg);
  double fast_cost = EstimatePlanCost(ann.value(), fast_cfg);
  // A slow backend makes the DBMS-site subtree more expensive than the
  // constant model; a fast one makes it cheaper. This is the signal that
  // lets the optimizer move the transfer cut (bench_backend_pushdown gates
  // the resulting placement flip).
  EXPECT_GT(slow_cost, base);
  EXPECT_LT(fast_cost, base);
}

// ---- SQLite pushdown parity -----------------------------------------------

TEST(SqliteBackendTest, AvailableInCi) {
  // The CI image installs libsqlite3-dev; a silent fallback to the stub
  // would hollow out this whole suite, so availability itself is asserted.
  // Local builds without sqlite3 skip the backend tests instead.
  if (!SqliteBackend::Available()) {
    GTEST_SKIP() << "built without sqlite3";
  }
  SUCCEED();
}

TEST(SqliteBackendTest, PushdownParityAcrossExecutorsAndConfigs) {
  if (!SqliteBackend::Available()) GTEST_SKIP();
  Catalog catalog = MakeCatalog(42);
  Result<std::unique_ptr<Backend>> made = MakeBackend(BackendKind::kSqlite);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Backend* be = made.value().get();

  // Plus one cut the serializer refuses (a temporal operator below it), so
  // both executors are held to the same refusal accounting.
  std::vector<std::pair<std::string, PlanPtr>> plans = CutPlans();
  plans.emplace_back("refused-rdupT",
                     PlanNode::TransferS(PlanNode::RdupT(PlanNode::Scan("R"))));
  // And an equi-join in the stratum over two pushed cuts, which the
  // vectorized executor runs as its fused hash join.
  std::vector<ProjItem> d_renamed = {ProjItem::Rename("Name", "DName"),
                                     ProjItem::Rename("Cat", "DCat"),
                                     ProjItem::Rename("Val", "DVal")};
  plans.emplace_back(
      "stratum-equi-join",
      PlanNode::Select(
          PlanNode::Product(PlanNode::TransferS(PlanNode::Scan("C")),
                            PlanNode::TransferS(PlanNode::Project(
                                PlanNode::Scan("D"), d_renamed))),
          Expr::Compare(CompareOp::kEq, Expr::Attr("Name"),
                        Expr::Attr("DName"))));

  int pushed_plans = 0;
  for (const auto& [cfg_name, base_cfg] : Configs()) {
    for (const auto& [plan_name, plan] : plans) {
      const std::string label = plan_name + "/" + cfg_name;
      ExecStats ref_stats;
      Result<Relation> ref = EvaluatePlan(plan, catalog, base_cfg, &ref_stats);
      ASSERT_TRUE(ref.ok()) << label << ": " << ref.status().ToString();

      Result<AnnotatedPlan> ann =
          AnnotatedPlan::Make(plan, &catalog, QueryContract::Multiset());
      ASSERT_TRUE(ann.ok()) << label << ": " << ann.status().ToString();
      EngineConfig cfg = base_cfg;
      cfg.backend = be;
      ExecStats sq_stats;
      ProfileNode sq_prof;
      Result<Relation> sq = Evaluate(ann.value(), cfg, &sq_stats, &sq_prof);
      ASSERT_TRUE(sq.ok()) << label << ": " << sq.status().ToString();
      ExpectListIdentical(ref.value(), sq.value(), label + "/exec");
      EXPECT_EQ(sq_stats.backend_fallbacks, 0) << label;
      if (plan_name == "stratum-equi-join") {
        // Both cuts below the join fetch their relation whole.
        EXPECT_EQ(sq_stats.backend_pushdowns, 2) << label;
        EXPECT_EQ(sq_stats.backend_rows,
                  static_cast<int64_t>(catalog.Find("C")->data.size() +
                                       catalog.Find("D")->data.size()))
            << label;
      } else if (sq_stats.backend_pushdowns > 0) {
        ++pushed_plans;
        EXPECT_EQ(sq_stats.backend_rows,
                  static_cast<int64_t>(sq.value().size()))
            << label;
      }

      for (size_t threads : {size_t{1}, size_t{4}}) {
        VexecOptions vopts;
        vopts.batch_size = 64;
        vopts.threads = threads;
        ExecStats vec_stats;
        ProfileNode vec_prof;
        Result<Relation> vec =
            ExecuteVectorized(ann.value(), cfg, &vec_stats, vopts, &vec_prof);
        ASSERT_TRUE(vec.ok()) << label << ": " << vec.status().ToString();
        const std::string vlabel = label + "/vexec-t" + std::to_string(threads);
        ExpectListIdentical(ref.value(), vec.value(), vlabel);
        ExpectSameSharedCounters(sq_stats, vec_stats, vlabel);
        ExpectSameProfileShape(sq_prof, vec_prof, vlabel);
      }
      if (plan_name == "refused-rdupT") {
        EXPECT_EQ(sq_stats.backend_refusals, 1) << label;
        EXPECT_EQ(sq_stats.backend_pushdowns, 0) << label;
      }
    }
  }
  // The suite is pointless if nothing actually pushed down; every
  // conventional cut plan must serialize.
  EXPECT_EQ(pushed_plans,
            static_cast<int>(CutPlans().size() * Configs().size()))
      << "pushdown coverage collapsed";
}

TEST(SqliteBackendTest, SimpleSelectActuallyPushesDown) {
  if (!SqliteBackend::Available()) GTEST_SKIP();
  Catalog catalog = MakeCatalog(42);
  Result<std::unique_ptr<Backend>> made = MakeBackend(BackendKind::kSqlite);
  ASSERT_TRUE(made.ok());
  PlanPtr plan = PlanNode::TransferS(PlanNode::Select(
      PlanNode::Scan("C"),
      Expr::Compare(CompareOp::kGt, Expr::Attr("Val"),
                    Expr::Const(Value::Int(100)))));
  EngineConfig cfg;
  cfg.backend = made.value().get();
  ExecStats stats;
  Result<Relation> got = EvaluatePlan(plan, catalog, cfg, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(stats.backend_pushdowns, 1);
  EXPECT_EQ(stats.backend_fallbacks, 0);
  EXPECT_EQ(stats.backend_rows, static_cast<int64_t>(got.value().size()));
  EXPECT_GT(got.value().size(), 0u);
}

TEST(SqliteBackendTest, ExecuteSubplanReturnsExactReferenceList) {
  if (!SqliteBackend::Available()) GTEST_SKIP();
  Catalog catalog = MakeCatalog(42);
  Result<std::unique_ptr<Backend>> made = MakeBackend(BackendKind::kSqlite);
  ASSERT_TRUE(made.ok());
  Backend* be = made.value().get();
  ASSERT_TRUE(be->SyncCatalog(catalog).ok());

  EngineConfig plain;  // reference order = plain evaluation of the subtree
  for (const auto& [name, cut] : CutPlans()) {
    const PlanPtr& sub = cut->child(0);
    Result<AnnotatedPlan> ann =
        AnnotatedPlan::Make(cut, &catalog, QueryContract::Multiset());
    ASSERT_TRUE(ann.ok()) << name;
    if (!be->CanPush(sub, ann.value())) continue;
    Result<Relation> ref = EvaluatePlan(sub, catalog, plain, nullptr);
    ASSERT_TRUE(ref.ok()) << name;
    Result<Relation> got = be->ExecuteSubplan(sub, ann.value());
    ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
    ExpectSameRows(ref.value(), got.value(), name);
  }
}

TEST(SqliteBackendTest, RefusedSubplanFallsBackUpfront) {
  if (!SqliteBackend::Available()) GTEST_SKIP();
  Catalog catalog = MakeCatalog(42);
  Result<std::unique_ptr<Backend>> made = MakeBackend(BackendKind::kSqlite);
  ASSERT_TRUE(made.ok());
  Backend* be = made.value().get();

  // Integer division: stratum semantics (trunc toward zero, NULL on zero
  // divisor) don't match SQLite's, so the serializer must refuse — and the
  // refusal must be invisible in results.
  std::vector<ProjItem> proj = {
      ProjItem::Pass("Name"),
      ProjItem{Expr::Arith(ArithOp::kDiv, Expr::Attr("Val"),
                           Expr::Attr("Cat")),
               "VD"},
  };
  PlanPtr plan =
      PlanNode::TransferS(PlanNode::Project(PlanNode::Scan("C"), proj));
  Result<AnnotatedPlan> ann =
      AnnotatedPlan::Make(plan, &catalog, QueryContract::Multiset());
  ASSERT_TRUE(ann.ok());
  EXPECT_FALSE(CanPushCut(*be, plan->child(0), ann.value()));

  for (const auto& [cfg_name, base_cfg] : Configs()) {
    ExecStats ref_stats, sq_stats;
    Result<Relation> ref = EvaluatePlan(plan, catalog, base_cfg, &ref_stats);
    ASSERT_TRUE(ref.ok());
    EngineConfig cfg = base_cfg;
    cfg.backend = be;
    Result<Relation> sq = EvaluatePlan(plan, catalog, cfg, &sq_stats);
    ASSERT_TRUE(sq.ok());
    ExpectListIdentical(ref.value(), sq.value(), "refused/" + cfg_name);
    EXPECT_EQ(sq_stats.backend_pushdowns, 0) << cfg_name;
    // Refused by CanPush, not attempted: no runtime fallback either.
    EXPECT_EQ(sq_stats.backend_fallbacks, 0) << cfg_name;
  }
}

TEST(SqliteBackendTest, RuntimeErrorFallsBackWithCorrectResult) {
  if (!SqliteBackend::Available()) GTEST_SKIP();
  Catalog catalog = MakeCatalog(42);
  Result<std::unique_ptr<Backend>> made = MakeBackend(BackendKind::kSqlite);
  ASSERT_TRUE(made.ok());
  Backend* be = made.value().get();
  ASSERT_TRUE(be->SyncCatalog(catalog).ok());
  // Sabotage: drop one mirror table behind the backend's back. C's digest
  // is unchanged, so the next SyncCatalog no-ops and the SQL fails at
  // runtime — which must degrade to in-engine evaluation.
  ASSERT_TRUE(be->ExecuteSql("DROP TABLE " + SqlSerializer::MirrorTable("C"),
                             {}, Schema())
                  .ok());

  PlanPtr plan = PlanNode::TransferS(PlanNode::Select(
      PlanNode::Scan("C"),
      Expr::Compare(CompareOp::kGt, Expr::Attr("Val"),
                    Expr::Const(Value::Int(100)))));
  EngineConfig ref_cfg;
  Result<Relation> ref = EvaluatePlan(plan, catalog, ref_cfg, nullptr);
  ASSERT_TRUE(ref.ok());

  EngineConfig cfg;
  cfg.backend = be;
  ExecStats stats;
  Result<Relation> got = EvaluatePlan(plan, catalog, cfg, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectListIdentical(ref.value(), got.value(), "runtime-fallback");
  EXPECT_EQ(stats.backend_pushdowns, 0);
  EXPECT_GE(stats.backend_fallbacks, 1);
}

TEST(SqliteBackendTest, FileBackedMirrorReusedAcrossRestarts) {
  if (!SqliteBackend::Available()) GTEST_SKIP();
  const std::string path = ::testing::TempDir() + "tqp_backend_mirror.db";
  std::remove(path.c_str());
  Catalog catalog = MakeCatalog(42);
  PlanPtr plan = PlanNode::TransferS(PlanNode::Select(
      PlanNode::Scan("C"),
      Expr::Compare(CompareOp::kGt, Expr::Attr("Val"),
                    Expr::Const(Value::Int(100)))));
  EngineConfig plain;
  Result<Relation> ref = EvaluatePlan(plan, catalog, plain, nullptr);
  ASSERT_TRUE(ref.ok());

  {  // first process: mirrors the catalog into the file
    Result<std::unique_ptr<SqliteBackend>> a = SqliteBackend::Open(path);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(a.value()->SyncCatalog(catalog).ok());
    EXPECT_EQ(a.value()->mirror_loads(), 1);
  }
  {  // "restart": same file, same catalog — the mirror is reused, not rebuilt
    Result<std::unique_ptr<SqliteBackend>> b = SqliteBackend::Open(path);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EngineConfig cfg;
    cfg.backend = b.value().get();
    ExecStats stats;
    Result<Relation> got = EvaluatePlan(plan, catalog, cfg, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectListIdentical(ref.value(), got.value(), "reused-mirror");
    EXPECT_EQ(stats.backend_pushdowns, 1);
    EXPECT_EQ(b.value()->mirror_loads(), 0) << "mirror was rebuilt";
  }
  std::remove(path.c_str());
}

// ---- Engine integration ---------------------------------------------------

std::vector<std::string> EngineQueries() {
  return {
      "SELECT Name, Val FROM C WHERE Val > 10",
      "SELECT DISTINCT Name FROM C ORDER BY Name ASC",
      "SELECT Cat, COUNT(*) AS n FROM C GROUP BY Cat ORDER BY Cat",
      "SELECT Name FROM C UNION SELECT Name FROM D",
  };
}

TEST(EngineBackendTest, SqliteEngineMatchesSimulatedEngine) {
  if (!SqliteBackend::Available()) GTEST_SKIP();
  for (bool scramble : {false, true}) {
    for (ExecutorKind executor :
         {ExecutorKind::kReference, ExecutorKind::kVectorized}) {
      EngineOptions sim_opts;
      sim_opts.engine.dbms_scrambles_order = scramble;
      sim_opts.executor = executor;
      EngineOptions sq_opts = sim_opts;
      sq_opts.backend = BackendKind::kSqlite;

      Engine sim(MakeCatalog(42), sim_opts);
      Engine sq(MakeCatalog(42), sq_opts);
      ASSERT_STREQ(sim.backend()->name(), "simulated");
      ASSERT_STREQ(sq.backend()->name(), "sqlite");

      for (const std::string& q : EngineQueries()) {
        Result<QueryResult> a = sim.Query(q);
        Result<QueryResult> b = sq.Query(q);
        ASSERT_TRUE(a.ok()) << q << ": " << a.status().ToString();
        ASSERT_TRUE(b.ok()) << q << ": " << b.status().ToString();
        EXPECT_EQ(a->relation.ToTable(), b->relation.ToTable())
            << q << (scramble ? " scrambled" : " plain");
      }
      EXPECT_EQ(sim.stats().backend_name, "simulated");
      EXPECT_EQ(sim.stats().backend_pushdowns, 0u);
      EXPECT_EQ(sq.stats().backend_name, "sqlite");
      EXPECT_GE(sq.stats().backend_pushdowns, 1u)
          << "no query pushed a cut subplan down";
    }
  }
}

TEST(EngineBackendTest, ExecutorsAgreeOnCutPointsThroughCacheAndUpdate) {
  // Both executors decide the same things at every transfer/root cut: cache
  // probe outcome, pushdown or refusal, and the accounting around them.
  // Two incremental engines (reference; vectorized at 4 threads) get one
  // query stream with a catalog update between rounds, on each backend.
  const std::vector<std::string> queries = {
      "SELECT Name, Val FROM C WHERE Val > 10",
      "SELECT DISTINCT Name FROM C ORDER BY Name ASC",
      "SELECT Cat, COUNT(*) AS n FROM C GROUP BY Cat ORDER BY Cat",
      "SELECT Name FROM C UNION SELECT Name FROM D",
      "SELECT Name, Val / Cat AS VD FROM D",
      "VALIDTIME SELECT DISTINCT Name FROM R ORDER BY Name ASC",
      "VALIDTIME COALESCED SELECT DISTINCT Name FROM R",
  };
  std::vector<BackendKind> backends = {BackendKind::kSimulated};
  if (SqliteBackend::Available()) backends.push_back(BackendKind::kSqlite);
  for (BackendKind backend : backends) {
    EngineOptions ref_opts;
    ref_opts.enumeration.max_plans = 400;
    ref_opts.incremental_execution = true;
    ref_opts.backend = backend;
    EngineOptions vec_opts = ref_opts;
    vec_opts.executor = ExecutorKind::kVectorized;
    vec_opts.vexec_threads = 4;
    Engine ref(MakeCatalog(42), ref_opts);
    Engine vec(MakeCatalog(42), vec_opts);
    QueryRunOptions run;
    run.profile = true;

    ExecStats totals;
    for (int round = 0; round < 3; ++round) {
      if (round == 2) {
        auto update = [](Catalog& c) {
          CatalogEntry e;
          e.data = MessyConventional(99, 30);
          e.site = Site::kDbms;
          return c.Update("C", std::move(e));
        };
        ASSERT_TRUE(ref.MutateCatalog(update).ok());
        ASSERT_TRUE(vec.MutateCatalog(update).ok());
      }
      for (const std::string& q : queries) {
        const std::string label = std::string(ref.backend()->name()) +
                                  " round " + std::to_string(round) + ": " +
                                  q;
        Result<QueryResult> a = ref.Query(q, run);
        Result<QueryResult> b = vec.Query(q, run);
        ASSERT_TRUE(a.ok()) << label << ": " << a.status().ToString();
        ASSERT_TRUE(b.ok()) << label << ": " << b.status().ToString();
        EXPECT_EQ(a->relation.ToTable(), b->relation.ToTable()) << label;
        ExpectSameSharedCounters(a->exec, b->exec, label);
        ASSERT_TRUE(a->profile != nullptr && b->profile != nullptr);
        ExpectSameProfileShape(*a->profile, *b->profile, label);
        totals.result_cache_hits += a->exec.result_cache_hits;
        totals.result_cache_misses += a->exec.result_cache_misses;
        totals.backend_pushdowns += a->exec.backend_pushdowns;
        totals.backend_refusals += a->exec.backend_refusals;
      }
    }
    // The stream must exercise every cut-point outcome it claims to cover.
    EXPECT_GT(totals.result_cache_hits, 0) << ref.backend()->name();
    EXPECT_GT(totals.result_cache_misses, 0) << ref.backend()->name();
    if (backend == BackendKind::kSqlite) {
      EXPECT_GT(totals.backend_pushdowns, 0);
      EXPECT_GT(totals.backend_refusals, 0);
    }
  }
}

TEST(EngineBackendTest, UnavailableBackendFallsBackToSimulated) {
  // Asking for kSqlite must never break an Engine: without sqlite3 the
  // constructor falls back to the simulated backend.
  EngineOptions opts;
  opts.backend = BackendKind::kSqlite;
  Engine engine(MakeCatalog(42), opts);
  if (SqliteBackend::Available()) {
    EXPECT_STREQ(engine.backend()->name(), "sqlite");
  } else {
    EXPECT_STREQ(engine.backend()->name(), "simulated");
  }
  Result<QueryResult> r = engine.Query(EngineQueries()[0]);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

TEST(EngineBackendTest, CalibratedEngineReportsFingerprint) {
  if (!SqliteBackend::Available()) GTEST_SKIP();
  EngineOptions opts;
  opts.backend = BackendKind::kSqlite;
  opts.calibrate_backend = true;
  Engine engine(MakeCatalog(42), opts);
  ASSERT_TRUE(engine.calibration().calibrated);
  EXPECT_NE(engine.stats().calibration_fingerprint, 0u);
  // Calibration changes plan choice, never results.
  EngineOptions plain_opts;
  Engine plain(MakeCatalog(42), plain_opts);
  for (const std::string& q : EngineQueries()) {
    Result<QueryResult> a = plain.Query(q);
    Result<QueryResult> b = engine.Query(q);
    ASSERT_TRUE(a.ok() && b.ok()) << q;
    EXPECT_EQ(a->relation.ToTable(), b->relation.ToTable()) << q;
  }
}

// ---- Incremental mirror ---------------------------------------------------

/// Rows the connection has inserted, updated or deleted since it opened:
/// what the syncs wrote, read from SQLite itself.
int64_t TotalChanges(Backend& be) {
  Result<Relation> r =
      be.ExecuteSql("SELECT total_changes()", {},
                    Schema(std::vector<Attribute>{{"n", ValueType::kInt}}));
  TQP_CHECK(r.ok());
  return r->tuple(0).at(0).AsInt();
}

bool MirrorTableExists(Backend& be, const std::string& name) {
  Result<Relation> r = be.ExecuteSql(
      "SELECT name FROM sqlite_master WHERE type='table' AND name = ?",
      {Value::String(SqlSerializer::MirrorTable(name))},
      Schema(std::vector<Attribute>{{"name", ValueType::kString}}));
  TQP_CHECK(r.ok());
  return !r->empty();
}

/// Every DBMS-site relation of `catalog` is mirrored row for row, in list
/// (rowid) order.
void ExpectMirrors(Backend& be, const Catalog& catalog,
                   const std::string& label) {
  for (const std::string& name : catalog.Names()) {
    const CatalogEntry* e = catalog.Find(name);
    if (e->site != Site::kDbms) continue;
    std::string cols;
    for (size_t i = 0; i < e->data.schema().size(); ++i) {
      cols += (i ? ", c" : "c") + std::to_string(i);
    }
    Result<Relation> got = be.ExecuteSql(
        "SELECT " + cols + " FROM " + SqlSerializer::MirrorTable(name) +
            " ORDER BY rowid",
        {}, e->data.schema());
    ASSERT_TRUE(got.ok()) << label << " " << name << ": "
                          << got.status().ToString();
    ExpectSameRows(e->data, got.value(), label + " " + name);
  }
}

Relation Appended(Relation rel, const Relation& extra) {
  for (const Tuple& t : extra.tuples()) rel.Append(t);
  return rel;
}

Relation Prefix(const Relation& rel, size_t rows) {
  const auto begin = rel.tuples().begin();
  return Relation(rel.schema(), std::vector<Tuple>(begin, begin + rows));
}

/// Registers or replaces `name` with flags inferred from the data.
Status Put(Catalog* catalog, const std::string& name, Relation data,
           Site site = Site::kDbms) {
  catalog->Drop(name);
  return catalog->RegisterWithInferredFlags(name, std::move(data), site);
}

/// A relation holding a NaN double, as (K, D). SQLite would store the NaN
/// as NULL; the stratum keeps it, and Value::Compare ranks it equal to
/// every number, so σ D = 2 keeps its row. `with_nan` false puts 2.0 there.
Relation WithNaN(bool with_nan = true) {
  Schema s;
  s.Add(Attribute{"K", ValueType::kInt});
  s.Add(Attribute{"D", ValueType::kDouble});
  Relation r(s);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [k, d] : std::vector<std::pair<int64_t, double>>{
           {1, 1.5}, {2, with_nan ? nan : 2.0}, {3, 3.0}}) {
    r.Append(Tuple({Value::Int(k), Value::Double(d)}));
  }
  return r;
}

PlanPtr PushedSelect(const std::string& rel) {
  return PlanNode::TransferS(PlanNode::Select(
      PlanNode::Scan(rel), Expr::Compare(CompareOp::kGt, Expr::Attr("Val"),
                                         Expr::Const(Value::Int(100)))));
}

/// Evaluates `plan` through `be` and expects the reference list, pushed
/// down (or, with `pushed` false, fallen back).
void ExpectPushedResult(Backend* be, const Catalog& catalog,
                        const PlanPtr& plan, bool pushed,
                        const std::string& label) {
  Result<Relation> ref = EvaluatePlan(plan, catalog, EngineConfig{}, nullptr);
  ASSERT_TRUE(ref.ok()) << label;
  EngineConfig cfg;
  cfg.backend = be;
  ExecStats stats;
  Result<Relation> got = EvaluatePlan(plan, catalog, cfg, &stats);
  ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
  ExpectListIdentical(ref.value(), got.value(), label);
  EXPECT_EQ(stats.backend_pushdowns, pushed ? 1 : 0) << label;
  EXPECT_EQ(stats.backend_fallbacks, pushed ? 0 : 1) << label;
}

TEST(SqliteMirrorTest, CaseDistinctRelationsKeepTheirOwnTables) {
  if (!SqliteBackend::Available()) GTEST_SKIP();
  // SQLite identifiers ignore case: "rel_C" and "rel_c" would be one table,
  // and σ(C) would read c's rows.
  Catalog catalog;
  ASSERT_TRUE(
      catalog.RegisterWithInferredFlags("C", MessyConventional(1, 42)).ok());
  ASSERT_TRUE(
      catalog.RegisterWithInferredFlags("c", MessyConventional(2, 11)).ok());
  EXPECT_NE(SqlSerializer::MirrorTable("C"), SqlSerializer::MirrorTable("c"));
  Result<std::unique_ptr<Backend>> made = MakeBackend(BackendKind::kSqlite);
  ASSERT_TRUE(made.ok());
  for (const char* name : {"C", "c"}) {
    ExpectPushedResult(made.value().get(), catalog, PushedSelect(name), true,
                       name);
  }
}

TEST(SqliteMirrorTest, QuoteInRelationNameIsMirrored) {
  if (!SqliteBackend::Available()) GTEST_SKIP();
  // Quoted verbatim, this name would end the identifier early and break
  // the mirror of every relation beside it.
  const std::string name = "q\"uote\"; DROP TABLE x; --";
  Catalog catalog = MakeCatalog(42);
  ASSERT_TRUE(
      catalog.RegisterWithInferredFlags(name, MessyConventional(3, 20)).ok());
  const std::string table = SqlSerializer::MirrorTable(name);
  EXPECT_EQ(table.rfind("rel_", 0), 0u);
  EXPECT_TRUE(std::all_of(table.begin(), table.end(), [](char ch) {
    return (ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'z') || ch == '_';
  })) << table;
  Result<std::unique_ptr<Backend>> made = MakeBackend(BackendKind::kSqlite);
  ASSERT_TRUE(made.ok());
  ExpectPushedResult(made.value().get(), catalog, PushedSelect(name), true,
                     "quoted name");
  ExpectPushedResult(made.value().get(), catalog, PushedSelect("C"), true,
                     "beside the quoted name");
}

TEST(SqliteMirrorTest, ExecuteSqlRunsOneStatementOnly) {
  if (!SqliteBackend::Available()) GTEST_SKIP();
  Result<std::unique_ptr<SqliteBackend>> made = SqliteBackend::Open();
  ASSERT_TRUE(made.ok());
  SqliteBackend& be = *made.value();
  EXPECT_FALSE(
      be.ExecuteSql("CREATE TABLE t1 (c0); CREATE TABLE t2 (c0)", {}, Schema())
          .ok());
  Result<Relation> tables = be.ExecuteSql(
      "SELECT name FROM sqlite_master WHERE name IN ('t1', 't2')", {},
      Schema(std::vector<Attribute>{{"name", ValueType::kString}}));
  ASSERT_TRUE(tables.ok());
  EXPECT_TRUE(tables->empty()) << "a refused statement ran";
}

TEST(SqliteMirrorTest, AppendInsertsOnlyTheNewRows) {
  if (!SqliteBackend::Available()) GTEST_SKIP();
  Catalog catalog = MakeCatalog(42);
  Result<std::unique_ptr<SqliteBackend>> made = SqliteBackend::Open();
  ASSERT_TRUE(made.ok());
  SqliteBackend& be = *made.value();
  ASSERT_TRUE(be.SyncCatalog(catalog).ok());
  EXPECT_EQ(be.mirror_loads(), 1);
  ExpectMirrors(be, catalog, "initial");

  // Unchanged, or re-registered with the same contents (a new version, the
  // same digest): nothing is written.
  int64_t before = TotalChanges(be);
  ASSERT_TRUE(be.SyncCatalog(catalog).ok());
  ASSERT_TRUE(Put(&catalog, "D", catalog.Find("D")->data).ok());
  ASSERT_TRUE(be.SyncCatalog(catalog).ok());
  EXPECT_EQ(TotalChanges(be), before);
  EXPECT_EQ(be.mirror_loads(), 1);

  // An append to C writes its new rows and C's record, nothing of R, D, N,
  // Z.
  Relation extra = MessyConventional(77, 5);
  ASSERT_TRUE(
      Put(&catalog, "C", Appended(catalog.Find("C")->data, extra)).ok());
  before = TotalChanges(be);
  ASSERT_TRUE(be.SyncCatalog(catalog).ok());
  EXPECT_EQ(TotalChanges(be) - before,
            static_cast<int64_t>(extra.size()) + 1);
  EXPECT_EQ(be.mirror_loads(), 2);
  ExpectMirrors(be, catalog, "after append");
  ExpectPushedResult(&be, catalog, PushedSelect("C"), true, "appended C");
}

TEST(SqliteMirrorTest, OtherChangesReloadOrDropOnlyTheirTable) {
  if (!SqliteBackend::Available()) GTEST_SKIP();
  Catalog catalog = MakeCatalog(42);
  Result<std::unique_ptr<SqliteBackend>> made = SqliteBackend::Open();
  ASSERT_TRUE(made.ok());
  SqliteBackend& be = *made.value();
  ASSERT_TRUE(be.SyncCatalog(catalog).ok());

  // Each change is followed by one sync that writes exactly `rows` rows
  // (the reloaded relation's tuples plus its record's insert or delete).
  auto expect_sync_writes = [&](const std::string& label, size_t rows) {
    const int64_t before = TotalChanges(be);
    const int64_t loads = be.mirror_loads();
    ASSERT_TRUE(be.SyncCatalog(catalog).ok()) << label;
    EXPECT_EQ(TotalChanges(be) - before, static_cast<int64_t>(rows)) << label;
    EXPECT_EQ(be.mirror_loads(), loads + 1) << label;
    ExpectMirrors(be, catalog, label);
  };

  // Same size, one value changed: D is reloaded in full.
  Relation d = catalog.Find("D")->data;
  d.mutable_tuples()[0] = d.tuple(d.size() - 1);
  ASSERT_TRUE(Put(&catalog, "D", d).ok());
  expect_sync_writes("same-size change", d.size() + 1);

  // Schema change: C becomes temporal.
  Relation c = Messy(5, 20);
  ASSERT_TRUE(Put(&catalog, "C", c).ok());
  expect_sync_writes("schema change", c.size() + 1);

  // A shrink to a prefix is no append.
  ASSERT_TRUE(Put(&catalog, "C", Prefix(c, 8)).ok());
  expect_sync_writes("shrink", 8 + 1);

  // A drop removes D's table and record.
  ASSERT_TRUE(catalog.Drop("D"));
  expect_sync_writes("drop", 1);
  EXPECT_FALSE(MirrorTableExists(be, "D"));

  // N leaves the DBMS site (dropped), then returns (reloaded).
  Relation n = catalog.Find("N")->data;
  ASSERT_TRUE(Put(&catalog, "N", n, Site::kStratum).ok());
  expect_sync_writes("to stratum", 1);
  EXPECT_FALSE(MirrorTableExists(be, "N"));
  ASSERT_TRUE(Put(&catalog, "N", n).ok());
  expect_sync_writes("back to DBMS", n.size() + 1);
  EXPECT_TRUE(MirrorTableExists(be, "N"));
  EXPECT_TRUE(MirrorTableExists(be, "R"));
}

// A relation holding a NaN stays out of the mirror: scanned and filtered
// with σ D = 2 it equals the reference on both executors, its cuts run in
// the stratum (a refusal once a sync has seen the relation; the first cut,
// which runs before any sync, finds no table and falls back), a NaN
// constant is refused, and a cut over another relation of the same catalog
// is still pushed.
TEST(SqliteMirrorTest, NaNRelationRunsInTheStratumOnBothExecutors) {
  if (!SqliteBackend::Available()) GTEST_SKIP();
  Catalog catalog = MakeCatalog(42);
  ASSERT_TRUE(Put(&catalog, "F", WithNaN()).ok());
  Result<std::unique_ptr<SqliteBackend>> made = SqliteBackend::Open();
  ASSERT_TRUE(made.ok());
  SqliteBackend& be = *made.value();
  const std::vector<std::pair<std::string, PlanPtr>> cuts = {
      {"scan", PlanNode::TransferS(PlanNode::Scan("F"))},
      {"select", PlanNode::TransferS(PlanNode::Select(
                     PlanNode::Scan("F"),
                     Expr::Compare(CompareOp::kEq, Expr::Attr("D"),
                                   Expr::Const(Value::Double(2.0)))))},
      {"nan-constant",
       PlanNode::TransferS(PlanNode::Select(
           PlanNode::Scan("C"),
           Expr::Compare(CompareOp::kEq, Expr::Attr("Val"),
                         Expr::Const(Value::Double(
                             std::numeric_limits<double>::quiet_NaN())))))},
  };
  // The reference list: the scan returns the NaN, and σ keeps its row.
  Result<Relation> kept =
      EvaluatePlan(cuts[1].second, catalog, EngineConfig{}, nullptr);
  ASSERT_TRUE(kept.ok());
  ASSERT_EQ(kept->size(), 1u);
  EXPECT_EQ(kept->tuple(0).at(0), Value::Int(2));
  EXPECT_TRUE(std::isnan(kept->tuple(0).at(1).AsDouble()));

  for (const std::string round : {"first", "second"}) {
    for (const auto& [name, plan] : cuts) {
      const std::string label = round + "/" + name;
      Result<Relation> ref = EvaluatePlan(plan, catalog, EngineConfig{},
                                          nullptr);
      ASSERT_TRUE(ref.ok()) << label;
      Result<AnnotatedPlan> ann =
          AnnotatedPlan::Make(plan, &catalog, QueryContract::Multiset());
      ASSERT_TRUE(ann.ok()) << label;
      EngineConfig cfg;
      cfg.backend = &be;
      ExecStats stats;
      Result<Relation> got = Evaluate(ann.value(), cfg, &stats);
      ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
      ExpectListIdentical(ref.value(), got.value(), label);
      EXPECT_EQ(stats.backend_pushdowns, 0) << label;
      EXPECT_EQ(stats.backend_refusals + stats.backend_fallbacks, 1) << label;
      if (round == "second") EXPECT_EQ(stats.backend_refusals, 1) << label;
      for (size_t threads : {size_t{1}, size_t{4}}) {
        VexecOptions vopts;
        vopts.threads = threads;
        ExecStats vec_stats;
        Result<Relation> vec =
            ExecuteVectorized(ann.value(), cfg, &vec_stats, vopts);
        ASSERT_TRUE(vec.ok()) << label;
        ExpectListIdentical(ref.value(), vec.value(),
                            label + "/vexec-t" + std::to_string(threads));
        EXPECT_EQ(vec_stats.backend_pushdowns, 0) << label;
        EXPECT_EQ(vec_stats.backend_refusals, 1) << label;
      }
    }
    ExpectPushedResult(&be, catalog, PushedSelect("C"), true,
                       round + "/other relation");
  }
  EXPECT_FALSE(MirrorTableExists(be, "F"));
  EXPECT_TRUE(MirrorTableExists(be, "C"));
}

// Double arithmetic can make a NaN from finite-looking rows (inf - inf,
// inf * 0), which SQLite would return as NULL, so a π over it runs in the
// stratum on both executors: E - E and E * 0 over {+inf, -inf, 1.5} equal
// the reference, NaNs included, and count as refusals.
TEST(SqliteBackendTest, DoubleArithmeticRunsInTheStratum) {
  if (!SqliteBackend::Available()) GTEST_SKIP();
  Schema schema;
  schema.Add(Attribute{"K", ValueType::kInt});
  schema.Add(Attribute{"E", ValueType::kDouble});
  Relation e(schema);
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [k, v] : std::vector<std::pair<int64_t, double>>{
           {1, inf}, {2, -inf}, {3, 1.5}}) {
    e.Append(Tuple({Value::Int(k), Value::Double(v)}));
  }
  Catalog catalog = MakeCatalog(42);
  ASSERT_TRUE(Put(&catalog, "E", e).ok());
  Result<std::unique_ptr<SqliteBackend>> made = SqliteBackend::Open();
  ASSERT_TRUE(made.ok());
  SqliteBackend& be = *made.value();
  auto pi = [](ArithOp op, ExprPtr rhs) {
    return PlanNode::TransferS(PlanNode::Project(
        PlanNode::Scan("E"),
        {ProjItem::Pass("K"),
         ProjItem{Expr::Arith(op, Expr::Attr("E"), std::move(rhs)), "Z"}}));
  };
  const std::vector<std::pair<std::string, PlanPtr>> cuts = {
      {"e-minus-e", pi(ArithOp::kSub, Expr::Attr("E"))},
      {"e-times-0", pi(ArithOp::kMul, Expr::Const(Value::Int(0)))},
  };
  for (const auto& [name, plan] : cuts) {
    Result<Relation> ref = EvaluatePlan(plan, catalog, EngineConfig{}, nullptr);
    ASSERT_TRUE(ref.ok()) << name;
    ASSERT_EQ(ref->size(), 3u) << name;
    EXPECT_TRUE(std::isnan(ref->tuple(0).at(1).AsDouble())) << name;
    EXPECT_TRUE(std::isnan(ref->tuple(1).at(1).AsDouble())) << name;
    EXPECT_FALSE(std::isnan(ref->tuple(2).at(1).AsDouble())) << name;
    Result<AnnotatedPlan> ann =
        AnnotatedPlan::Make(plan, &catalog, QueryContract::Multiset());
    ASSERT_TRUE(ann.ok()) << name;
    EngineConfig cfg;
    cfg.backend = &be;
    ExecStats stats;
    Result<Relation> got = Evaluate(ann.value(), cfg, &stats);
    ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
    ExpectListIdentical(ref.value(), got.value(), name);
    EXPECT_EQ(stats.backend_pushdowns, 0) << name;
    EXPECT_EQ(stats.backend_refusals, 1) << name;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      VexecOptions vopts;
      vopts.threads = threads;
      ExecStats vec_stats;
      Result<Relation> vec =
          ExecuteVectorized(ann.value(), cfg, &vec_stats, vopts);
      ASSERT_TRUE(vec.ok()) << name;
      ExpectListIdentical(ref.value(), vec.value(),
                          name + "/vexec-t" + std::to_string(threads));
      EXPECT_EQ(vec_stats.backend_pushdowns, 0) << name;
      EXPECT_EQ(vec_stats.backend_refusals, 1) << name;
    }
  }
  // Integer arithmetic cannot make a NaN and is still pushed.
  ExpectPushedResult(
      &be, catalog,
      PlanNode::TransferS(PlanNode::Project(
          PlanNode::Scan("E"),
          {ProjItem{Expr::Arith(ArithOp::kSub, Expr::Attr("K"),
                                Expr::Attr("K")),
                    "Z"}})),
      true, "int arithmetic");
}

// A relation that gains a NaN, by reload or by append, loses its mirror
// table in the same sync that commits the other relations' changes; while
// it keeps the NaN, later syncs leave it alone.
TEST(SqliteMirrorTest, NaNDropsTheStaleTableAndTheOthersStillSync) {
  if (!SqliteBackend::Available()) GTEST_SKIP();
  Catalog catalog = MakeCatalog(42);
  ASSERT_TRUE(Put(&catalog, "F", WithNaN(false)).ok());
  Result<std::unique_ptr<SqliteBackend>> made = SqliteBackend::Open();
  ASSERT_TRUE(made.ok());
  SqliteBackend& be = *made.value();
  ASSERT_TRUE(be.SyncCatalog(catalog).ok());
  EXPECT_TRUE(MirrorTableExists(be, "F"));

  // One sync: F gains a NaN in place, and C changes.
  ASSERT_TRUE(Put(&catalog, "F", WithNaN()).ok());
  ASSERT_TRUE(Put(&catalog, "C", MessyConventional(9, 17)).ok());
  ASSERT_TRUE(be.SyncCatalog(catalog).ok());
  EXPECT_FALSE(MirrorTableExists(be, "F"));
  Catalog without_f = catalog;
  ASSERT_TRUE(without_f.Drop("F"));
  ExpectMirrors(be, without_f, "reload with NaN");

  // Nothing changed: the sync writes nothing and F stays out.
  const int64_t loads = be.mirror_loads();
  ASSERT_TRUE(be.SyncCatalog(catalog).ok());
  EXPECT_EQ(be.mirror_loads(), loads);
  EXPECT_FALSE(MirrorTableExists(be, "F"));

  // Without the NaN F is mirrored again; an append that brings one drops
  // it while D's change commits.
  ASSERT_TRUE(Put(&catalog, "F", WithNaN(false)).ok());
  ASSERT_TRUE(be.SyncCatalog(catalog).ok());
  EXPECT_TRUE(MirrorTableExists(be, "F"));
  ASSERT_TRUE(
      Put(&catalog, "F", Appended(WithNaN(false), Prefix(WithNaN(), 2))).ok());
  Relation d = catalog.Find("D")->data;
  d.mutable_tuples()[0] = d.tuple(d.size() - 1);
  ASSERT_TRUE(Put(&catalog, "D", d).ok());
  ASSERT_TRUE(be.SyncCatalog(catalog).ok());
  EXPECT_FALSE(MirrorTableExists(be, "F"));
  without_f = catalog;
  ASSERT_TRUE(without_f.Drop("F"));
  ExpectMirrors(be, without_f, "append with NaN");
}

// A file written while NaNs were still bound holds NULL in a NaN's place,
// under a record in the unversioned format whose digest is that of the
// NaN-holding relation. A restart does not adopt the record: the sync
// reloads the relation, finds the NaN and drops the table, so the scan
// runs in the stratum and returns the NaN, while another relation of the
// same file is still pushed.
TEST(SqliteMirrorTest, UnversionedRecordIsNotAdopted) {
  if (!SqliteBackend::Available()) GTEST_SKIP();
  const std::string path = ::testing::TempDir() + "tqp_backend_nan_record.db";
  std::remove(path.c_str());
  Catalog catalog = MakeCatalog(42);
  ASSERT_TRUE(Put(&catalog, "F", WithNaN(false)).ok());
  const std::string table = SqlSerializer::MirrorTable("F");
  {
    Result<std::unique_ptr<SqliteBackend>> a = SqliteBackend::Open(path);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    SqliteBackend& be = *a.value();
    ASSERT_TRUE(be.SyncCatalog(catalog).ok());
    ASSERT_TRUE(be.ExecuteSql("UPDATE \"" + table +
                                  "\" SET c1 = NULL WHERE c0 = 2",
                              {}, Schema())
                    .ok());
    ASSERT_TRUE(Put(&catalog, "F", WithNaN()).ok());
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(
                      catalog.relation_digest("F")));
    ASSERT_TRUE(
        be.ExecuteSql(
              "INSERT OR REPLACE INTO tqp_meta (key, value) VALUES (?, ?)",
              {Value::String("mirror:F"),
               Value::String(table + " " + digest + " 3")},
              Schema())
            .ok());
  }
  {
    Result<std::unique_ptr<SqliteBackend>> b = SqliteBackend::Open(path);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    SqliteBackend& be = *b.value();
    const PlanPtr scan = PlanNode::TransferS(PlanNode::Scan("F"));
    Result<Relation> ref = EvaluatePlan(scan, catalog, EngineConfig{}, nullptr);
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE(std::isnan(ref->tuple(1).at(1).AsDouble()));
    Result<AnnotatedPlan> ann =
        AnnotatedPlan::Make(scan, &catalog, QueryContract::Multiset());
    ASSERT_TRUE(ann.ok());
    EngineConfig cfg;
    cfg.backend = &be;
    ExecStats stats;
    Result<Relation> got = Evaluate(ann.value(), cfg, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectListIdentical(ref.value(), got.value(), "scan after restart");
    EXPECT_EQ(stats.backend_pushdowns, 0);
    EXPECT_FALSE(MirrorTableExists(be, "F"));
    ExpectPushedResult(&be, catalog, PushedSelect("C"), true,
                       "other relation after restart");
  }
  std::remove(path.c_str());
}

TEST(SqliteMirrorTest, DamagedMirrorFallsBackUntilASyncRepairsIt) {
  if (!SqliteBackend::Available()) GTEST_SKIP();
  Catalog catalog = MakeCatalog(42);
  Result<std::unique_ptr<SqliteBackend>> made = SqliteBackend::Open();
  ASSERT_TRUE(made.ok());
  SqliteBackend& be = *made.value();
  ASSERT_TRUE(be.SyncCatalog(catalog).ok());
  // C's table vanishes behind the backend's back, then C grows: the sync
  // before the pushdown tries to append to the missing table and fails.
  ASSERT_TRUE(be.ExecuteSql("DROP TABLE " + SqlSerializer::MirrorTable("C"),
                            {}, Schema())
                  .ok());
  ASSERT_TRUE(Put(&catalog, "C",
                  Appended(catalog.Find("C")->data, MessyConventional(78, 6)))
                  .ok());
  ExpectPushedResult(&be, catalog, PushedSelect("C"), false, "damaged");

  // The failed sync forgot C's record, so the next one reloads C in full.
  ASSERT_TRUE(be.SyncCatalog(catalog).ok());
  ExpectMirrors(be, catalog, "repaired");
  ExpectPushedResult(&be, catalog, PushedSelect("C"), true, "repaired");
}

TEST(SqliteMirrorTest, RestartReloadsOnlyTheChangedRelation) {
  if (!SqliteBackend::Available()) GTEST_SKIP();
  const std::string path = ::testing::TempDir() + "tqp_backend_restart.db";
  std::remove(path.c_str());
  Catalog catalog = MakeCatalog(42);
  {
    Result<std::unique_ptr<SqliteBackend>> a = SqliteBackend::Open(path);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(a.value()->SyncCatalog(catalog).ok());
  }
  // total_changes() counts from each new connection's open, so after a
  // restart it is exactly what the first sync wrote.
  Relation d = MessyConventional(99, 9);
  ASSERT_TRUE(Put(&catalog, "D", d).ok());
  {
    Result<std::unique_ptr<SqliteBackend>> b = SqliteBackend::Open(path);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_TRUE(b.value()->SyncCatalog(catalog).ok());
    EXPECT_EQ(TotalChanges(*b.value()), static_cast<int64_t>(d.size()) + 1);
    EXPECT_EQ(b.value()->mirror_loads(), 1);
    ExpectMirrors(*b.value(), catalog, "changed D");
  }
  // An append across a restart still inserts only the new rows.
  Relation extra = MessyConventional(100, 4);
  ASSERT_TRUE(
      Put(&catalog, "C", Appended(catalog.Find("C")->data, extra)).ok());
  {
    Result<std::unique_ptr<SqliteBackend>> c = SqliteBackend::Open(path);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    ASSERT_TRUE(c.value()->SyncCatalog(catalog).ok());
    EXPECT_EQ(TotalChanges(*c.value()),
              static_cast<int64_t>(extra.size()) + 1);
    ExpectMirrors(*c.value(), catalog, "appended C");
    ExpectPushedResult(c.value().get(), catalog, PushedSelect("C"), true,
                       "appended C after restart");
  }
  std::remove(path.c_str());
}

TEST(SqliteMirrorTest, EngineTracksMutationsLikeSimulatedTwin) {
  if (!SqliteBackend::Available()) GTEST_SKIP();
  EngineOptions sim_opts;
  sim_opts.incremental_execution = true;
  EngineOptions sq_opts = sim_opts;
  sq_opts.backend = BackendKind::kSqlite;
  Engine sim(MakeCatalog(42), sim_opts);
  Engine sq(MakeCatalog(42), sq_opts);

  auto compare = [&](const std::string& label) {
    for (const std::string& q : EngineQueries()) {
      Result<QueryResult> a = sim.Query(q);
      Result<QueryResult> b = sq.Query(q);
      ASSERT_EQ(a.ok(), b.ok()) << label << ": " << q;
      if (a.ok()) {
        ExpectListIdentical(a->relation, b->relation, label + ": " + q);
      }
    }
  };
  using Mutation = std::function<Status(Catalog&)>;
  auto append_c = [](uint64_t seed) -> Mutation {
    return [seed](Catalog& c) {
      return Put(&c, "C",
                 Appended(c.Find("C")->data, MessyConventional(seed, 6)));
    };
  };
  const std::vector<std::pair<std::string, Mutation>> steps = {
      {"append C", append_c(501)},
      {"replace D",
       [](Catalog& c) { return Put(&c, "D", MessyConventional(502, 15)); }},
      {"drop D",
       [](Catalog& c) {
         return c.Drop("D") ? Status::OK() : Status::Error("no D");
       }},
      {"append C again", append_c(503)},
      {"register D",
       [](Catalog& c) { return Put(&c, "D", MessyConventional(504, 10)); }},
      {"shrink C",
       [](Catalog& c) { return Put(&c, "C", Prefix(c.Find("C")->data, 10)); }},
      {"D to stratum",
       [](Catalog& c) {
         return Put(&c, "D", c.Find("D")->data, Site::kStratum);
       }},
      {"append C once more", append_c(505)},
  };
  compare("initial");
  for (const auto& [label, mutate] : steps) {
    // Two sessions keep querying C (never dropped) on the SQLite engine
    // while the mutation runs; every query sees one catalog version.
    std::atomic<bool> done{false};
    std::atomic<int> failures{0};
    std::vector<std::thread> readers;
    for (int i = 0; i < 2; ++i) {
      readers.emplace_back([&] {
        do {
          if (!sq.Query(EngineQueries()[0]).ok()) ++failures;
        } while (!done.load());
      });
    }
    ASSERT_TRUE(sq.MutateCatalog(mutate).ok()) << label;
    done = true;
    for (std::thread& t : readers) t.join();
    EXPECT_EQ(failures.load(), 0) << label;
    ASSERT_TRUE(sim.MutateCatalog(mutate).ok()) << label;
    compare(label);
  }
  // Two wholesale replacements, built by the same registrations over
  // different data: the mirror tells them apart by content digest.
  for (uint64_t seed : {43u, 44u}) {
    auto replace = [seed](Catalog& c) {
      c = MakeCatalog(seed);
      return Status::OK();
    };
    ASSERT_TRUE(sim.MutateCatalog(replace).ok());
    ASSERT_TRUE(sq.MutateCatalog(replace).ok());
    compare("replaced by seed " + std::to_string(seed));
  }
  EXPECT_GE(sq.stats().backend_pushdowns, 1u);
  EXPECT_EQ(sq.stats().backend_fallbacks, 0u);
}

// ---- Plan-cache snapshots -------------------------------------------------

TEST(BackendSnapshotTest, SnapshotRoundTripsBackendFields) {
  Engine engine(MakeCatalog(42));
  ASSERT_TRUE(engine.Query(EngineQueries()[0]).ok());
  PlanCacheSnapshot snap = engine.ExportPlanCache();
  EXPECT_EQ(snap.backend_kind, "simulated");
  ASSERT_GE(snap.entries.size(), 1u);

  Result<PlanCacheSnapshot> back =
      DeserializeSnapshot(SerializeSnapshot(snap));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->backend_kind, snap.backend_kind);
  EXPECT_EQ(back->calibration_fingerprint, snap.calibration_fingerprint);
  EXPECT_EQ(back->entries.size(), snap.entries.size());

  Engine other(MakeCatalog(42));
  EXPECT_EQ(other.ImportPlanCache(back.value()), snap.entries.size());
}

TEST(BackendSnapshotTest, ImportRejectsBackendMismatchWholesale) {
  if (!SqliteBackend::Available()) GTEST_SKIP();
  EngineOptions sq_opts;
  sq_opts.backend = BackendKind::kSqlite;
  Engine sq(MakeCatalog(42), sq_opts);
  ASSERT_TRUE(sq.Query(EngineQueries()[0]).ok());
  PlanCacheSnapshot snap = sq.ExportPlanCache();
  EXPECT_EQ(snap.backend_kind, "sqlite");
  ASSERT_GE(snap.entries.size(), 1u);

  // Plans chosen for the sqlite backend are stale for a simulated engine.
  Engine sim(MakeCatalog(42));
  EXPECT_EQ(sim.ImportPlanCache(snap), 0u);
  EXPECT_EQ(sim.stats().plan_cache_imports, 0u);

  // Same backend: accepted in full.
  Engine sq2(MakeCatalog(42), sq_opts);
  EXPECT_EQ(sq2.ImportPlanCache(snap), snap.entries.size());
}

TEST(BackendSnapshotTest, ImportRejectsCalibrationMismatchWholesale) {
  if (!SqliteBackend::Available()) GTEST_SKIP();
  EngineOptions uncal;
  uncal.backend = BackendKind::kSqlite;
  EngineOptions cal = uncal;
  cal.calibrate_backend = true;

  Engine a(MakeCatalog(42), uncal);
  ASSERT_TRUE(a.Query(EngineQueries()[0]).ok());
  PlanCacheSnapshot snap = a.ExportPlanCache();
  EXPECT_EQ(snap.calibration_fingerprint, 0u);
  ASSERT_GE(snap.entries.size(), 1u);

  // Uncalibrated plans into a calibrated engine: stale, rejected wholesale.
  Engine b(MakeCatalog(42), cal);
  EXPECT_EQ(b.ImportPlanCache(snap), 0u);

  // And the reverse direction.
  ASSERT_TRUE(b.Query(EngineQueries()[0]).ok());
  PlanCacheSnapshot cal_snap = b.ExportPlanCache();
  EXPECT_NE(cal_snap.calibration_fingerprint, 0u);
  Engine c(MakeCatalog(42), uncal);
  EXPECT_EQ(c.ImportPlanCache(cal_snap), 0u);
}

}  // namespace
}  // namespace tqp
