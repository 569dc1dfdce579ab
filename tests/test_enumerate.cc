// Tests for the Figure 5 enumeration algorithm: correctness (the empirical
// Theorem 6.1 — every enumerated plan computes an ≡SQL-equivalent result),
// determinism, gating behaviour, and the paper's Section 6 walkthrough
// (reaching the Figure 2(b)/6(b) plan from Figure 2(a)).
#include <gtest/gtest.h>

#include "algebra/printer.h"
#include "core/equivalence.h"
#include "exec/evaluator.h"
#include "opt/enumerate.h"
#include "test_util.h"
#include "tql/translator.h"
#include "workload/generator.h"
#include "workload/paper_example.h"

namespace tqp {
namespace {

using P = PlanNode;

EnumerationOptions SmallOptions(size_t max_plans = 600) {
  EnumerationOptions opts;
  opts.max_plans = max_plans;
  return opts;
}

TEST(EnumerateTest, InitialPlanAlwaysIncluded) {
  Catalog catalog = PaperCatalog();
  std::vector<Rule> rules = DefaultRuleSet();
  Result<EnumerationResult> res = EnumeratePlans(
      PaperInitialPlan(), catalog, PaperContract(), rules, SmallOptions());
  ASSERT_TRUE(res.ok()) << res.status().message();
  ASSERT_GE(res->plans.size(), 2u);
  EXPECT_EQ(res->plans[0].canonical, CanonicalString(PaperInitialPlan()));
  EXPECT_EQ(res->plans[0].parent, -1);
}

TEST(EnumerateTest, PlansAreDistinct) {
  Catalog catalog = PaperCatalog();
  std::vector<Rule> rules = DefaultRuleSet();
  Result<EnumerationResult> res = EnumeratePlans(
      PaperInitialPlan(), catalog, PaperContract(), rules, SmallOptions());
  ASSERT_TRUE(res.ok());
  std::set<std::string> canon;
  for (const EnumeratedPlan& p : res->plans) {
    EXPECT_TRUE(canon.insert(p.canonical).second) << "duplicate plan";
  }
}

TEST(EnumerateTest, Deterministic) {
  Catalog catalog = PaperCatalog();
  std::vector<Rule> rules = DefaultRuleSet();
  Result<EnumerationResult> a = EnumeratePlans(
      PaperInitialPlan(), catalog, PaperContract(), rules, SmallOptions());
  Result<EnumerationResult> b = EnumeratePlans(
      PaperInitialPlan(), catalog, PaperContract(), rules, SmallOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->plans.size(), b->plans.size());
  for (size_t i = 0; i < a->plans.size(); ++i) {
    EXPECT_EQ(a->plans[i].canonical, b->plans[i].canonical);
    EXPECT_EQ(a->plans[i].rule_id, b->plans[i].rule_id);
  }
}

// The empirical Theorem 6.1: every generated plan evaluates to a result
// related to the initial plan's result by the query's ≡SQL equivalence —
// with the DBMS order scrambling ON, so plans that incorrectly rely on
// DBMS-side order would fail.
TEST(EnumerateTest, AllPlansSatisfyTheContract) {
  Catalog catalog = PaperCatalog();
  std::vector<Rule> rules = DefaultRuleSet();
  Result<EnumerationResult> res = EnumeratePlans(
      PaperInitialPlan(), catalog, PaperContract(), rules, SmallOptions(400));
  ASSERT_TRUE(res.ok());
  ASSERT_GE(res->plans.size(), 50u) << "expected a non-trivial plan space";

  EngineConfig engine;
  engine.dbms_scrambles_order = true;

  Result<AnnotatedPlan> base_ann = AnnotatedPlan::Make(
      res->plans[0].plan, &catalog, PaperContract());
  ASSERT_TRUE(base_ann.ok());
  Result<Relation> base = Evaluate(base_ann.value(), engine);
  ASSERT_TRUE(base.ok());

  const SortSpec& order_by = PaperContract().order_by;
  for (size_t i = 1; i < res->plans.size(); ++i) {
    Result<AnnotatedPlan> ann =
        AnnotatedPlan::Make(res->plans[i].plan, &catalog, PaperContract());
    ASSERT_TRUE(ann.ok()) << "plan " << i;
    Result<Relation> out = Evaluate(ann.value(), engine);
    ASSERT_TRUE(out.ok()) << "plan " << i;
    // ≡SQL for an ORDER BY query: ≡L on the ORDER BY columns and ≡M overall.
    EXPECT_TRUE(EquivalentAsMultisets(base.value(), out.value()))
        << "plan " << i << " (derived via "
        << (res->DerivationOf(i).empty() ? "?" : res->DerivationOf(i).back())
        << "):\n"
        << PrintPlan(res->plans[i].plan);
    EXPECT_TRUE(EquivalentAsListsOn(order_by, base.value(), out.value()))
        << "plan " << i << ":\n" << PrintPlan(res->plans[i].plan);
  }
}

// The same theorem on a catalog the paper's example does not reach: a
// messy relation whose value-equivalent tuples overlap in time. coalT
// relaxes period preservation below its snapshot-duplicate-free child (the
// translated rdupT); a rewrite that drops that rdupT (D4, rdupT(r) ≡SS r)
// would leave coalT merging overlapping periods into a different result.
TEST(EnumerateTest, CoalescedDistinctPlansSatisfyTheContractOnMessyData) {
  RelationGenParams gen;
  gen.cardinality = 1800;
  gen.num_names = 60;
  gen.time_horizon = 1000;
  gen.max_period_length = 60;
  gen.duplicate_fraction = 0.1;
  gen.adjacency_fraction = 0.15;
  gen.overlap_fraction = 0.2;
  gen.seed = 7;
  Catalog catalog;
  ASSERT_TRUE(
      catalog.RegisterWithInferredFlags("R", GenerateRelation(gen)).ok());
  ASSERT_TRUE(catalog.Find("R")->data.HasSnapshotDuplicates());

  Result<TranslatedQuery> query = CompileQuery(
      "VALIDTIME COALESCED SELECT DISTINCT Name FROM R WHERE Cat = 3 AND "
      "Val > 200",
      catalog);
  ASSERT_TRUE(query.ok()) << query.status().message();
  const QueryContract& contract = query->contract;
  Result<EnumerationResult> res =
      EnumeratePlans(query->plan, catalog, contract, DefaultRuleSet(),
                     SmallOptions(4000));
  ASSERT_TRUE(res.ok());
  ASSERT_GE(res->plans.size(), 10u);

  EngineConfig engine;
  engine.dbms_scrambles_order = true;
  auto run = [&](const PlanPtr& plan) {
    Result<AnnotatedPlan> ann = AnnotatedPlan::Make(plan, &catalog, contract);
    TQP_CHECK(ann.ok());
    Result<Relation> out = Evaluate(ann.value(), engine);
    TQP_CHECK(out.ok());
    return out.value();
  };
  const Relation base = run(res->plans[0].plan);
  for (size_t i = 1; i < res->plans.size(); ++i) {
    const Relation out = run(res->plans[i].plan);
    bool ok = false;
    switch (contract.result_type) {
      case ResultType::kList:
        ok = EquivalentAsMultisets(base, out) &&
             EquivalentAsListsOn(contract.order_by, base, out);
        break;
      case ResultType::kMultiset:
        ok = EquivalentAsMultisets(base, out);
        break;
      case ResultType::kSet:
        ok = EquivalentAsSets(base, out);
        break;
    }
    std::string chain;
    for (const std::string& rule : res->DerivationOf(i)) chain += rule + " ";
    EXPECT_TRUE(ok) << "plan " << i << " (rule chain " << chain << "):\n"
                    << PrintPlan(res->plans[i].plan);
  }
}

TEST(EnumerateTest, WeakerEquivalenceTypesEnlargeThePlanSpace) {
  Catalog catalog = PaperCatalog();
  std::vector<Rule> rules = DefaultRuleSet();
  using ET = EquivalenceType;

  EnumerationOptions only_list = SmallOptions(4000);
  only_list.admitted = {ET::kList};
  EnumerationOptions with_multiset = SmallOptions(4000);
  with_multiset.admitted = {ET::kList, ET::kMultiset};
  EnumerationOptions all = SmallOptions(4000);

  Result<EnumerationResult> r1 = EnumeratePlans(
      PaperInitialPlan(), catalog, PaperContract(), rules, only_list);
  Result<EnumerationResult> r2 = EnumeratePlans(
      PaperInitialPlan(), catalog, PaperContract(), rules, with_multiset);
  Result<EnumerationResult> r3 =
      EnumeratePlans(PaperInitialPlan(), catalog, PaperContract(), rules, all);
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  EXPECT_LT(r1->plans.size(), r2->plans.size());
  EXPECT_LT(r2->plans.size(), r3->plans.size());
}

TEST(EnumerateTest, GatingBlocksUnsafeRewrites) {
  // sort_A(r) ≡M r (S2) must NOT be applied above the sort of an ORDER BY
  // query — OrderRequired holds there — but is admitted when the query is a
  // multiset query.
  Catalog catalog = PaperCatalog();
  std::vector<ProjItem> proj = {ProjItem::Pass("EmpName"),
                                ProjItem::Pass(kT1), ProjItem::Pass(kT2)};
  PlanPtr body = P::Project(P::Scan("EMPLOYEE"), proj);
  PlanPtr plan = P::TransferS(P::Sort(body, {SortKey{"EmpName", true}}));

  std::vector<Rule> rules = DefaultRuleSet();
  Result<EnumerationResult> ordered =
      EnumeratePlans(plan, catalog,
                     QueryContract::List({SortKey{"EmpName", true}}), rules,
                     SmallOptions());
  ASSERT_TRUE(ordered.ok());
  for (const EnumeratedPlan& p : ordered->plans) {
    // Every plan must still sort (no plan may drop the only sort).
    EXPECT_NE(p.canonical.find("sort"), std::string::npos) << p.canonical;
  }

  Result<EnumerationResult> multiset = EnumeratePlans(
      plan, catalog, QueryContract::Multiset(), rules, SmallOptions());
  ASSERT_TRUE(multiset.ok());
  bool some_plan_without_sort = false;
  for (const EnumeratedPlan& p : multiset->plans) {
    if (p.canonical.find("sort") == std::string::npos) {
      some_plan_without_sort = true;
    }
  }
  EXPECT_TRUE(some_plan_without_sort);
}

TEST(EnumerateTest, SetContractAdmitsDuplicateInsensitiveRewrites) {
  // rdup(r) ≡S r (D3) is admitted only under a set contract.
  Catalog catalog;
  TQP_CHECK(catalog
                .RegisterWithInferredFlags(
                    "C", testing_util::RandomConventional(9), Site::kStratum)
                .ok());
  PlanPtr plan = P::Rdup(P::Scan("C"));
  std::vector<Rule> rules = DefaultRuleSet();

  Result<EnumerationResult> set_res = EnumeratePlans(
      plan, catalog, QueryContract::Set(), rules, SmallOptions());
  ASSERT_TRUE(set_res.ok());
  bool dropped = false;
  for (const EnumeratedPlan& p : set_res->plans) {
    if (p.canonical == "scan C") dropped = true;
  }
  EXPECT_TRUE(dropped);

  Result<EnumerationResult> ms_res = EnumeratePlans(
      plan, catalog, QueryContract::Multiset(), rules, SmallOptions());
  ASSERT_TRUE(ms_res.ok());
  for (const EnumeratedPlan& p : ms_res->plans) {
    EXPECT_NE(p.canonical, "scan C");
  }
}

TEST(EnumerateTest, ReachesTheFigure2bPlan) {
  // Section 6's walkthrough result: transfers pushed to the leaves, the top
  // rdupT removed (D2), coalescing pushed below \T (C10) with the right-hand
  // coalescing removed (C2), and the sort pushed into the DBMS below T_S.
  Catalog catalog = PaperCatalog();
  std::vector<Rule> rules = DefaultRuleSet();
  Result<EnumerationResult> res =
      EnumeratePlans(PaperInitialPlan(), catalog, PaperContract(), rules,
                     SmallOptions(4000));
  ASSERT_TRUE(res.ok());

  std::vector<ProjItem> proj = {ProjItem::Pass("EmpName"),
                                ProjItem::Pass(kT1), ProjItem::Pass(kT2)};
  PlanPtr fig2b = P::DifferenceT(
      P::Coalesce(P::RdupT(P::TransferS(P::Sort(
          P::Project(P::Scan("EMPLOYEE"), proj), {SortKey{"EmpName", true}})))),
      P::TransferS(P::Project(P::Scan("PROJECT"), proj)));
  std::string target = CanonicalString(fig2b);

  bool found = false;
  for (const EnumeratedPlan& p : res->plans) {
    if (p.canonical == target) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found) << "the Figure 2(b) plan was not enumerated; target:\n"
                     << PrintPlan(fig2b);
}

TEST(EnumerateTest, ExpandingRulesRespectTheGrowthBound) {
  Catalog catalog = PaperCatalog();
  RuleSetOptions opts;
  opts.expanding_rules = true;
  std::vector<Rule> rules = DefaultRuleSet(opts);
  EnumerationOptions eopts = SmallOptions(300);
  eopts.max_plan_growth = 2;
  Result<EnumerationResult> res = EnumeratePlans(
      PaperInitialPlan(), catalog, PaperContract(), rules, eopts);
  ASSERT_TRUE(res.ok());
  size_t cap = PlanSize(PaperInitialPlan()) + 2;
  for (const EnumeratedPlan& p : res->plans) {
    EXPECT_LE(PlanSize(p.plan), cap);
  }
}

TEST(EnumerateTest, RuleAdmittedMatrix) {
  // Directly exercise the Figure 5 disjunction on a node with all
  // properties set / cleared.
  Catalog catalog = PaperCatalog();
  PlanPtr plan = PaperInitialPlan();
  Result<AnnotatedPlan> ann =
      AnnotatedPlan::Make(plan, &catalog, PaperContract());
  ASSERT_TRUE(ann.ok());

  const PlanNode* root = plan.get();  // [T T T]
  const PlanNode* diff =
      plan->child(0)->child(0)->child(0)->child(0).get();  // \T: [- - -]
  using ET = EquivalenceType;
  EXPECT_TRUE(RuleAdmitted(ET::kList, {root}, ann.value()));
  EXPECT_FALSE(RuleAdmitted(ET::kMultiset, {root}, ann.value()));
  EXPECT_FALSE(RuleAdmitted(ET::kSnapshotSet, {root}, ann.value()));
  EXPECT_TRUE(RuleAdmitted(ET::kMultiset, {diff}, ann.value()));
  EXPECT_TRUE(RuleAdmitted(ET::kSnapshotSet, {diff}, ann.value()));
  // A location spanning both is as strict as its strictest member.
  EXPECT_FALSE(RuleAdmitted(ET::kMultiset, {root, diff}, ann.value()));
}

}  // namespace
}  // namespace tqp
