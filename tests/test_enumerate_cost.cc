// Tests for the cost-directed side of the Figure 5 enumerator: cost-bounded
// pruning counters, the best-first frontier, exploration budgets, and the
// determinism guarantees the search strategies document
// (repeated runs and warm session caches never change the admitted plan
// set). No tier-1 test exercised cost_prune_factor > 0 before this file.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "algebra/intern.h"
#include "opt/enumerate.h"
#include "opt/optimizer.h"
#include "test_util.h"
#include "workload/paper_example.h"

namespace tqp {
namespace {

EnumerationOptions Options(SearchStrategy strategy, double prune_factor = 0.0,
                           size_t max_expansions = 0) {
  EnumerationOptions opts;
  opts.max_plans = 4000;
  opts.strategy = strategy;
  opts.cost_prune_factor = prune_factor;
  opts.max_expansions = max_expansions;
  return opts;
}

Result<EnumerationResult> RunSearch(const EnumerationOptions& opts) {
  Catalog catalog = PaperCatalog();
  return EnumeratePlans(PaperInitialPlan(), catalog, PaperContract(),
                        DefaultRuleSet(), opts);
}

std::set<uint64_t> Fingerprints(const EnumerationResult& res) {
  std::set<uint64_t> out;
  for (const EnumeratedPlan& p : res.plans) out.insert(p.fingerprint);
  return out;
}

void ExpectIdenticalOutcome(const EnumerationResult& a,
                            const EnumerationResult& b) {
  ASSERT_EQ(a.plans.size(), b.plans.size());
  for (size_t i = 0; i < a.plans.size(); ++i) {
    EXPECT_EQ(a.plans[i].fingerprint, b.plans[i].fingerprint) << i;
    EXPECT_EQ(a.plans[i].parent, b.plans[i].parent) << i;
    EXPECT_EQ(a.plans[i].rule_id, b.plans[i].rule_id) << i;
  }
  EXPECT_EQ(a.matches, b.matches);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.gated_out, b.gated_out);
  EXPECT_EQ(a.memo_hits, b.memo_hits);
  EXPECT_EQ(a.cost_pruned, b.cost_pruned);
  EXPECT_EQ(a.expanded, b.expanded);
  EXPECT_EQ(a.costs, b.costs);
}

TEST(EnumerateCostTest, PruningAdmitsButNeverExpands) {
  Result<EnumerationResult> exhaustive =
      RunSearch(Options(SearchStrategy::kBreadthFirst));
  Result<EnumerationResult> pruned =
      RunSearch(Options(SearchStrategy::kBreadthFirst, /*prune_factor=*/1.5));
  ASSERT_TRUE(exhaustive.ok() && pruned.ok());

  // An exhaustive run expands everything and costs nothing.
  EXPECT_EQ(exhaustive->expanded, exhaustive->plans.size());
  EXPECT_EQ(exhaustive->cost_pruned, 0u);
  EXPECT_TRUE(exhaustive->costs.empty());

  // Pruning leaves expensive plans admitted-but-unexpanded, and every
  // admitted plan is accounted for: popped-and-expanded or popped-and-pruned
  // (the frontier fully drains when no budget cuts the search short).
  EXPECT_GT(pruned->cost_pruned, 0u);
  EXPECT_LT(pruned->plans.size(), exhaustive->plans.size());
  EXPECT_EQ(pruned->expanded + pruned->cost_pruned, pruned->plans.size());

  // Pruning only shrinks the reachable set; it invents nothing.
  std::set<uint64_t> all = Fingerprints(exhaustive.value());
  for (uint64_t fp : Fingerprints(pruned.value())) {
    EXPECT_TRUE(all.count(fp)) << "pruned run produced an unknown plan";
  }
}

TEST(EnumerateCostTest, CostsAlignWithAnIndependentCosting) {
  Result<EnumerationResult> res =
      RunSearch(Options(SearchStrategy::kBestFirst, /*prune_factor=*/2.0));
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->costs.size(), res->plans.size());

  Catalog catalog = PaperCatalog();
  QueryContract contract = PaperContract();
  DerivationCache cache;
  PlanContext ctx(&cache, nullptr, &contract);
  for (size_t i = 0; i < res->plans.size(); ++i) {
    ASSERT_TRUE(cache.Derive(res->plans[i].plan, catalog, {}).ok());
    EXPECT_DOUBLE_EQ(res->costs[i],
                     EstimatePlanCost(res->plans[i].plan, ctx, EngineConfig{}))
        << "plan " << i;
  }
}

TEST(EnumerateCostTest, DeterministicAcrossRepeatedRuns) {
  for (SearchStrategy strategy :
       {SearchStrategy::kBreadthFirst, SearchStrategy::kBestFirst}) {
    Result<EnumerationResult> a = RunSearch(Options(strategy, 1.5));
    Result<EnumerationResult> b = RunSearch(Options(strategy, 1.5));
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectIdenticalOutcome(a.value(), b.value());
  }
}

TEST(EnumerateCostTest, WarmSessionCachesNeverChangeTheAdmittedSet) {
  // The determinism claim a caller that passes one interner/derivation pair
  // to several searches relies on: re-running a cost-directed search against
  // primed caches yields the identical outcome, including the pruning
  // counters.
  Catalog catalog = PaperCatalog();
  PlanInterner interner;
  DerivationCache derivation;
  EnumerationOptions opts = Options(SearchStrategy::kBestFirst, 1.5);
  Result<EnumerationResult> cold =
      EnumeratePlans(PaperInitialPlan(), catalog, PaperContract(),
                     DefaultRuleSet(), opts, &interner, &derivation);
  Result<EnumerationResult> warm =
      EnumeratePlans(PaperInitialPlan(), catalog, PaperContract(),
                     DefaultRuleSet(), opts, &interner, &derivation);
  ASSERT_TRUE(cold.ok() && warm.ok());
  ExpectIdenticalOutcome(cold.value(), warm.value());
}

TEST(EnumerateCostTest, BestFirstMatchesBreadthFirstWithUnlimitedBudgets) {
  // Frontier order cannot change the closure: with no pruning and no
  // expansion budget, both strategies reach exactly the same plan set and
  // the same per-plan totals (each plan contributes its matches wherever it
  // sits in the expansion order).
  Result<EnumerationResult> bf = RunSearch(Options(SearchStrategy::kBreadthFirst));
  Result<EnumerationResult> best = RunSearch(Options(SearchStrategy::kBestFirst));
  ASSERT_TRUE(bf.ok() && best.ok());
  ASSERT_FALSE(bf->truncated);
  ASSERT_FALSE(best->truncated);
  EXPECT_EQ(bf->plans.size(), best->plans.size());
  EXPECT_EQ(Fingerprints(bf.value()), Fingerprints(best.value()));
  EXPECT_EQ(bf->matches, best->matches);
  EXPECT_EQ(bf->admitted, best->admitted);
  EXPECT_EQ(bf->gated_out, best->gated_out);
  EXPECT_EQ(bf->memo_hits, best->memo_hits);
  EXPECT_EQ(best->expanded, best->plans.size());
}

TEST(EnumerateCostTest, BestFirstDominatesBreadthFirstAtEqualBudgets) {
  // The point of cost-directing the frontier: under the same expansion
  // budget, best-first reaches a cheaper (here: strictly cheaper) minimum
  // than breadth-first on the running example. A huge prune factor forces
  // costing on the breadth-first side without pruning anything. A
  // regression that stopped ordering the heap by cost would fail this.
  auto min_cost = [](const EnumerationResult& res) {
    return *std::min_element(res.costs.begin(), res.costs.end());
  };
  for (size_t budget : {10u, 20u, 40u}) {
    Result<EnumerationResult> bf =
        RunSearch(Options(SearchStrategy::kBreadthFirst, 1e9, budget));
    Result<EnumerationResult> best =
        RunSearch(Options(SearchStrategy::kBestFirst, 1e9, budget));
    ASSERT_TRUE(bf.ok() && best.ok());
    EXPECT_EQ(bf->expanded, budget);
    EXPECT_EQ(best->expanded, budget);
    EXPECT_LT(min_cost(best.value()), min_cost(bf.value())) << budget;
  }
}

TEST(EnumerateCostTest, MaxExpansionsBudgetIsRespected) {
  Result<EnumerationResult> res =
      RunSearch(Options(SearchStrategy::kBestFirst, 0.0, /*max_expansions=*/25));
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->expanded, 25u);
  // The budget stopped the search with admitted plans still pending.
  EXPECT_TRUE(res->truncated);
  EXPECT_GT(res->plans.size(), res->expanded);

  // A budget larger than the space changes nothing.
  Result<EnumerationResult> all =
      RunSearch(Options(SearchStrategy::kBestFirst, 0.0, /*max_expansions=*/100000));
  ASSERT_TRUE(all.ok());
  EXPECT_FALSE(all->truncated);
  EXPECT_EQ(all->expanded, all->plans.size());
}

// FNV-1a over every plan's (parent, rule id), in admission order. Written
// out here rather than taken from core/hash.h so that the pinned digests
// below cannot move with a library hash.
uint64_t DerivationDigest(const EnumerationResult& res) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](const std::string& bytes) {
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  for (const EnumeratedPlan& p : res.plans) {
    mix(std::to_string(p.parent) + ":" + p.rule_id + ";");
  }
  return h;
}

TEST(EnumerateCostTest, SearchesLegacyCannotRunMatchPinnedOutcomes) {
  // Best-first, pruning and expansion budgets have no legacy reference to
  // compare against, so their outcomes on the running example are pinned
  // as literals: the admitted sequence (plan count and a digest of every
  // derivation edge) and every search counter, including where a plan cap
  // stops the search in the middle of an expansion.
  struct Pinned {
    const char* name;
    EnumerationOptions options;
    size_t plans;
    uint64_t digest;
    size_t matches, admitted, gated_out, memo_hits, cost_pruned, expanded;
    bool truncated;
  };
  auto capped = [](size_t max_plans) {
    EnumerationOptions opts = Options(SearchStrategy::kBestFirst);
    opts.max_plans = max_plans;
    return opts;
  };
  // plans, digest, matches, admitted, gated_out, memo_hits, cost_pruned,
  // expanded, truncated.
  const Pinned cases[] = {
      {"best-first, prune 1.5", Options(SearchStrategy::kBestFirst, 1.5),
       103, 9252983382517759873ull, 522, 247, 275, 145, 34, 69, false},
      {"breadth-first, prune 1.3", Options(SearchStrategy::kBreadthFirst, 1.3),
       95, 3239595360042043921ull, 396, 191, 205, 97, 42, 53, false},
      {"best-first, 37 expansions",
       Options(SearchStrategy::kBestFirst, 0.0, 37),
       75, 1680380182252620176ull, 271, 132, 139, 58, 0, 37, true},
      {"breadth-first, 37 expansions",
       Options(SearchStrategy::kBreadthFirst, 0.0, 37),
       62, 7441959583271077899ull, 274, 136, 138, 75, 0, 37, true},
      {"best-first, 17 plans", capped(17),
       17, 7174160781263945250ull, 44, 19, 25, 3, 0, 6, true},
      {"best-first, 120 plans", capped(120),
       120, 14079442095459124294ull, 686, 325, 361, 206, 0, 90, true},
  };
  for (const Pinned& want : cases) {
    SCOPED_TRACE(want.name);
    Result<EnumerationResult> res = RunSearch(want.options);
    ASSERT_TRUE(res.ok()) << res.status().message();
    EXPECT_EQ(res->plans.size(), want.plans);
    EXPECT_EQ(DerivationDigest(res.value()), want.digest);
    EXPECT_EQ(res->matches, want.matches);
    EXPECT_EQ(res->admitted, want.admitted);
    EXPECT_EQ(res->gated_out, want.gated_out);
    EXPECT_EQ(res->memo_hits, want.memo_hits);
    EXPECT_EQ(res->cost_pruned, want.cost_pruned);
    EXPECT_EQ(res->expanded, want.expanded);
    EXPECT_EQ(res->truncated, want.truncated);
  }
}

TEST(EnumerateCostTest, LegacyPathRejectsBestFirst) {
  EnumerationOptions opts = Options(SearchStrategy::kBestFirst);
  opts.use_legacy_string_dedup = true;
  Result<EnumerationResult> res = RunSearch(opts);
  EXPECT_FALSE(res.ok());
}

TEST(EnumerateCostTest, OptimizeReusesEnumerationCosts) {
  // With a bound generous enough to keep the whole space, a cost-directed
  // Optimize must choose the same plan at the same cost as the exhaustive
  // one — and its costs come from the enumeration, not a re-costing loop.
  Catalog catalog = PaperCatalog();
  OptimizerOptions exhaustive;
  Result<OptimizeResult> base = Optimize(PaperInitialPlan(), catalog,
                                         PaperContract(), DefaultRuleSet(),
                                         exhaustive);
  ASSERT_TRUE(base.ok());

  OptimizerOptions directed;
  directed.enumeration.strategy = SearchStrategy::kBestFirst;
  directed.enumeration.cost_prune_factor = 16.0;
  Result<OptimizeResult> best = Optimize(PaperInitialPlan(), catalog,
                                         PaperContract(), DefaultRuleSet(),
                                         directed);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->best_plan->fingerprint(), base->best_plan->fingerprint());
  EXPECT_DOUBLE_EQ(best->best_cost, base->best_cost);
  EXPECT_DOUBLE_EQ(best->initial_cost, base->initial_cost);

  // A tight bound still finds the optimum on the running example (the bench
  // gates this at <= 50% of the expansions).
  OptimizerOptions tight;
  tight.enumeration.strategy = SearchStrategy::kBestFirst;
  tight.enumeration.cost_prune_factor = 1.5;
  Result<OptimizeResult> cheap = Optimize(PaperInitialPlan(), catalog,
                                          PaperContract(), DefaultRuleSet(),
                                          tight);
  ASSERT_TRUE(cheap.ok());
  EXPECT_DOUBLE_EQ(cheap->best_cost, base->best_cost);
  EXPECT_LT(cheap->plans_considered, base->plans_considered);
}

}  // namespace
}  // namespace tqp
