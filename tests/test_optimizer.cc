// Tests for cost-based plan selection over the enumerated space, driven
// through the tqp::Engine facade (the Optimize free function stays covered
// as the facade's implementation and via test_paper_example.cc).
#include <gtest/gtest.h>

#include "algebra/printer.h"
#include "api/engine.h"
#include "core/equivalence.h"
#include "test_util.h"
#include "workload/paper_example.h"

namespace tqp {
namespace {

EngineOptions WithMaxPlans(size_t max_plans) {
  EngineOptions options;
  options.enumeration.max_plans = max_plans;
  return options;
}

/// The exhaustive Figure 5 choice: breadth-first to the closure. On the
/// paper's tiny relations the Engine's default payoff search stops after a
/// handful of plans, so the tests of the optimum itself pin this order.
EngineOptions Exhaustive() {
  EngineOptions options = WithMaxPlans(4000);
  options.enumeration.strategy = SearchStrategy::kBreadthFirst;
  return options;
}

TEST(OptimizerTest, ImprovesThePaperPlan) {
  Engine engine(PaperCatalog(), Exhaustive());
  Result<PreparedQuery> res =
      engine.Prepare(PaperInitialPlan(), PaperContract());
  ASSERT_TRUE(res.ok()) << res.status().message();
  EXPECT_LT(res->best_cost(), res->initial_cost());
  EXPECT_GE(res->plans_considered(), 100u);
  EXPECT_FALSE(res->derivation().empty());
}

TEST(OptimizerTest, BestPlanComputesTheCorrectResult) {
  EngineOptions options = WithMaxPlans(4000);
  options.engine.dbms_scrambles_order = true;
  Engine engine(PaperCatalog(), std::move(options));
  Result<PreparedQuery> res =
      engine.Prepare(PaperInitialPlan(), PaperContract());
  ASSERT_TRUE(res.ok());
  Result<QueryResult> out = res.value().Execute();
  ASSERT_TRUE(out.ok());

  Relation expected = PaperExpectedResult();
  EXPECT_TRUE(EquivalentAsMultisets(out->relation, expected))
      << "best plan:\n"
      << PrintPlan(res->best_plan()) << "result:\n"
      << out->relation.ToTable();
  EXPECT_TRUE(EquivalentAsListsOn(PaperContract().order_by, out->relation,
                                  expected));
}

TEST(OptimizerTest, BestPlanPushesWorkIntoTheStratum) {
  // The optimized plan should execute the temporal operations at the
  // stratum (the DBMS temporal penalty dominates) and keep the sort in the
  // DBMS ("the DBMS sorts faster than the stratum", Section 2.1).
  Engine engine(PaperCatalog(), Exhaustive());
  Result<PreparedQuery> res =
      engine.Prepare(PaperInitialPlan(), PaperContract());
  ASSERT_TRUE(res.ok());

  Result<AnnotatedPlan> ann = AnnotatedPlan::Make(
      res->best_plan(), &engine.catalog(), PaperContract());
  ASSERT_TRUE(ann.ok());
  std::vector<PlanPtr> nodes;
  CollectNodes(res->best_plan(), &nodes);
  bool sort_at_dbms = false;
  for (const PlanPtr& n : nodes) {
    if (IsTemporalOp(n->kind())) {
      EXPECT_EQ(ann->info(n.get()).site, Site::kStratum)
          << n->Describe() << " left at the DBMS:\n"
          << PrintPlan(res->best_plan());
    }
    if (n->kind() == OpKind::kSort &&
        ann->info(n.get()).site == Site::kDbms) {
      sort_at_dbms = true;
    }
  }
  EXPECT_TRUE(sort_at_dbms) << PrintPlan(res->best_plan());
}

TEST(OptimizerTest, MultisetContractDropsTheSort) {
  // Without ORDER BY the optimizer may (and should) discard the sort.
  Engine engine(PaperCatalog(), WithMaxPlans(4000));
  Result<PreparedQuery> res =
      engine.Prepare(PaperInitialPlan(), QueryContract::Multiset());
  ASSERT_TRUE(res.ok());
  std::vector<PlanPtr> nodes;
  CollectNodes(res->best_plan(), &nodes);
  for (const PlanPtr& n : nodes) {
    EXPECT_NE(n->kind(), OpKind::kSort) << PrintPlan(res->best_plan());
  }
}

TEST(OptimizerTest, ContractsShareOneSessionCache) {
  // Different contracts over the same initial plan are distinct plan-cache
  // entries (the key includes the contract) served by one session.
  Engine engine(PaperCatalog(), WithMaxPlans(4000));
  Result<PreparedQuery> list =
      engine.Prepare(PaperInitialPlan(), PaperContract());
  Result<PreparedQuery> multiset =
      engine.Prepare(PaperInitialPlan(), QueryContract::Multiset());
  ASSERT_TRUE(list.ok() && multiset.ok());
  EXPECT_FALSE(multiset->from_cache());
  EXPECT_NE(list->fingerprint(), multiset->fingerprint());
  EXPECT_TRUE(
      engine.Prepare(PaperInitialPlan(), PaperContract())->from_cache());
  EXPECT_EQ(engine.stats().prepares, 2u);
}

TEST(OptimizerTest, RestrictedGatingYieldsWorseOrEqualPlans) {
  using ET = EquivalenceType;

  EngineOptions strict_options = WithMaxPlans(4000);
  strict_options.enumeration.admitted = {ET::kList};
  Engine strict(PaperCatalog(), std::move(strict_options));
  Engine full(PaperCatalog(), WithMaxPlans(4000));

  Result<PreparedQuery> a = strict.Prepare(PaperInitialPlan(), PaperContract());
  Result<PreparedQuery> b = full.Prepare(PaperInitialPlan(), PaperContract());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GE(a->best_cost(), b->best_cost());
  EXPECT_LT(b->best_cost(), b->initial_cost());
}

TEST(OptimizerTest, TransferCostsShapePlacement) {
  // With an enormous transfer cost, shipping tuples to the stratum early is
  // avoided; with free transfers and a huge DBMS temporal penalty, pushing
  // the transfer down pays off. Costs must reflect that monotonically.
  EngineOptions cheap_options = WithMaxPlans(3000);
  cheap_options.engine.transfer_cost_per_tuple = 0.1;
  EngineOptions pricey_options = WithMaxPlans(3000);
  pricey_options.engine.transfer_cost_per_tuple = 500.0;

  Engine cheap(PaperCatalog(), std::move(cheap_options));
  Engine pricey(PaperCatalog(), std::move(pricey_options));
  Result<PreparedQuery> a = cheap.Prepare(PaperInitialPlan(), PaperContract());
  Result<PreparedQuery> b = pricey.Prepare(PaperInitialPlan(), PaperContract());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(a->best_cost(), b->best_cost());
}

}  // namespace
}  // namespace tqp
