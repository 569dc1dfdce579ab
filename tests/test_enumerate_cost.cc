// Tests for the cost-directed side of the Figure 5 enumerator: the
// best-first frontier and its payoff rule (the search stops at the first
// admission where its work, in estimated cost units, exceeds the cheapest
// plan admitted so far), the determinism guarantees the search strategies
// document (repeated runs and warm session caches never change the
// admitted plan set), and the contract of the plans the Engine's default
// search chooses on the repository benchmark's adhoc catalog.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include "algebra/intern.h"
#include "algebra/printer.h"
#include "api/engine.h"
#include "core/hash.h"
#include "exec/evaluator.h"
#include "opt/enumerate.h"
#include "opt/optimizer.h"
#include "test_util.h"
#include "tql/translator.h"
#include "workload/paper_example.h"

namespace tqp {
namespace {

EnumerationOptions Options(SearchStrategy strategy, size_t max_plans = 4000) {
  EnumerationOptions opts;
  opts.max_plans = max_plans;
  opts.strategy = strategy;
  return opts;
}

/// The paper query over `catalog` (the paper's own data by default).
Result<EnumerationResult> RunSearch(const EnumerationOptions& opts,
                                    const Catalog& catalog = PaperCatalog()) {
  return EnumeratePlans(PaperInitialPlan(), catalog, PaperContract(),
                        DefaultRuleSet(), opts);
}

/// The paper's relations at scale 16 000, built once: there the payoff rule
/// never fires before the 174-plan closure is complete.
const Catalog& Scaled() {
  static const Catalog* catalog =
      new Catalog(testing_util::ScaledPaperCatalog(16000));
  return *catalog;
}

std::set<uint64_t> Fingerprints(const EnumerationResult& res) {
  std::set<uint64_t> out;
  for (const EnumeratedPlan& p : res.plans) out.insert(p.fingerprint);
  return out;
}

/// The cost of every plan of `res`, computed independently of the search.
std::vector<double> IndependentCosts(const EnumerationResult& res,
                                     const Catalog& catalog) {
  QueryContract contract = PaperContract();
  DerivationCache cache;
  PlanContext ctx(&cache, nullptr, &contract);
  std::vector<double> out;
  for (const EnumeratedPlan& p : res.plans) {
    TQP_CHECK(cache.Derive(p.plan, catalog, {}).ok());
    out.push_back(EstimatePlanCost(p.plan, ctx, EngineConfig{}));
  }
  return out;
}

double MinCost(const std::vector<double>& costs) {
  return *std::min_element(costs.begin(), costs.end());
}

/// The admission at which the payoff rule fires on `res`'s admitted
/// sequence, recomputed from the rule's definition: the first index whose
/// running node tally × kSearchCostPerNode exceeds the running cheapest
/// cost. plans.size() if it never fires.
size_t PayoffAdmission(const EnumerationResult& res) {
  size_t tally = 0;
  double cheapest = 0.0;
  for (size_t i = 0; i < res.plans.size(); ++i) {
    tally += res.plans[i].plan->subtree_size();
    cheapest = i == 0 ? res.costs[i] : std::min(cheapest, res.costs[i]);
    if (static_cast<double>(tally) * kSearchCostPerNode > cheapest) return i;
  }
  return res.plans.size();
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
  EXPECT_EQ(a.expanded, b.expanded);
  EXPECT_EQ(a.stop, b.stop);
  EXPECT_EQ(a.search_work, b.search_work);
  EXPECT_EQ(a.costs, b.costs);
}

TEST(EnumerateCostTest, PayoffStopsAtTheAdmissionTheRuleNames) {
  Result<EnumerationResult> exhaustive =
      RunSearch(Options(SearchStrategy::kBreadthFirst));
  Result<EnumerationResult> payoff =
      RunSearch(Options(SearchStrategy::kBestFirst));
  ASSERT_TRUE(exhaustive.ok() && payoff.ok());

  // An exhaustive breadth-first run drains the frontier, expands
  // everything and costs nothing.
  EXPECT_EQ(exhaustive->stop, SearchStop::kDrained);
  EXPECT_FALSE(exhaustive->truncated);
  EXPECT_EQ(exhaustive->expanded, exhaustive->plans.size());
  EXPECT_TRUE(exhaustive->costs.empty());

  // On the paper's tiny relations the cheapest plan is estimated to cost
  // less than searching the closure, so the payoff rule stops the search,
  // and it does so at exactly the admission the rule names: the last one.
  EXPECT_EQ(payoff->stop, SearchStop::kPayoff);
  EXPECT_TRUE(payoff->truncated);
  ASSERT_EQ(payoff->costs.size(), payoff->plans.size());
  EXPECT_LT(payoff->plans.size(), exhaustive->plans.size());
  EXPECT_EQ(PayoffAdmission(payoff.value()), payoff->plans.size() - 1);
  size_t tally = 0;
  for (const EnumeratedPlan& p : payoff->plans) tally += p.plan->subtree_size();
  EXPECT_EQ(payoff->search_work, tally);

  // The search only stops early; it invents nothing.
  std::set<uint64_t> all = Fingerprints(exhaustive.value());
  for (uint64_t fp : Fingerprints(payoff.value())) {
    EXPECT_TRUE(all.count(fp)) << "payoff run produced an unknown plan";
  }
}

TEST(EnumerateCostTest, SearchWorkTalliesEveryAdmittedNode) {
  // The memo and the legacy enumerators both keep the tally the rule reads.
  for (bool legacy : {false, true}) {
    EnumerationOptions opts = Options(SearchStrategy::kBreadthFirst);
    opts.use_legacy_string_dedup = legacy;
    Result<EnumerationResult> res = RunSearch(opts);
    ASSERT_TRUE(res.ok());
    size_t tally = 0;
    for (const EnumeratedPlan& p : res->plans) tally += PlanSize(p.plan);
    EXPECT_EQ(res->search_work, tally) << (legacy ? "legacy" : "memo");
  }
}

TEST(EnumerateCostTest, CostsAlignWithAnIndependentCosting) {
  const Catalog paper = PaperCatalog();
  for (const Catalog* catalog : {&paper, &Scaled()}) {
    Result<EnumerationResult> res =
        RunSearch(Options(SearchStrategy::kBestFirst), *catalog);
    ASSERT_TRUE(res.ok());
    ASSERT_EQ(res->costs.size(), res->plans.size());
    std::vector<double> independent = IndependentCosts(res.value(), *catalog);
    for (size_t i = 0; i < res->plans.size(); ++i) {
      EXPECT_DOUBLE_EQ(res->costs[i], independent[i]) << "plan " << i;
    }
  }
}

TEST(EnumerateCostTest, DeterministicAcrossRepeatedRuns) {
  for (SearchStrategy strategy :
       {SearchStrategy::kBreadthFirst, SearchStrategy::kBestFirst}) {
    Result<EnumerationResult> a = RunSearch(Options(strategy));
    Result<EnumerationResult> b = RunSearch(Options(strategy));
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectIdenticalOutcome(a.value(), b.value());
  }
}

TEST(EnumerateCostTest, WarmSessionCachesNeverChangeTheAdmittedSet) {
  // The determinism claim a caller that passes one interner/derivation pair
  // to several searches relies on: re-running a payoff search against
  // primed caches yields the identical outcome, including where it stops.
  Catalog catalog = PaperCatalog();
  PlanInterner interner;
  DerivationCache derivation;
  EnumerationOptions opts = Options(SearchStrategy::kBestFirst);
  Result<EnumerationResult> cold =
      EnumeratePlans(PaperInitialPlan(), catalog, PaperContract(),
                     DefaultRuleSet(), opts, &interner, &derivation);
  Result<EnumerationResult> warm =
      EnumeratePlans(PaperInitialPlan(), catalog, PaperContract(),
                     DefaultRuleSet(), opts, &interner, &derivation);
  ASSERT_TRUE(cold.ok() && warm.ok());
  EXPECT_EQ(cold->stop, SearchStop::kPayoff);
  ExpectIdenticalOutcome(cold.value(), warm.value());
}

TEST(EnumerateCostTest, PayoffSearchReachesTheClosureWhenPlansCostMore) {
  // Where every plan costs far more than the search, the payoff rule never
  // fires, and frontier order cannot change the closure: both strategies
  // reach exactly the same 174 plans and the same per-plan totals (each
  // plan contributes its matches wherever it sits in the expansion order).
  Result<EnumerationResult> bf =
      RunSearch(Options(SearchStrategy::kBreadthFirst), Scaled());
  Result<EnumerationResult> best =
      RunSearch(Options(SearchStrategy::kBestFirst), Scaled());
  ASSERT_TRUE(bf.ok() && best.ok());
  EXPECT_EQ(bf->stop, SearchStop::kDrained);
  EXPECT_EQ(best->stop, SearchStop::kDrained);
  EXPECT_FALSE(best->truncated);
  EXPECT_EQ(best->plans.size(), 174u);
  EXPECT_EQ(bf->plans.size(), best->plans.size());
  EXPECT_EQ(Fingerprints(bf.value()), Fingerprints(best.value()));
  EXPECT_EQ(bf->matches, best->matches);
  EXPECT_EQ(bf->admitted, best->admitted);
  EXPECT_EQ(bf->gated_out, best->gated_out);
  EXPECT_EQ(bf->memo_hits, best->memo_hits);
  EXPECT_EQ(bf->search_work, best->search_work);
  EXPECT_EQ(best->expanded, best->plans.size());
  EXPECT_EQ(PayoffAdmission(best.value()), best->plans.size());
}

TEST(EnumerateCostTest, BestFirstDominatesBreadthFirstAtEqualBudgets) {
  // The point of cost-directing the frontier: under the same plan cap,
  // best-first reaches a strictly cheaper minimum than breadth-first. On
  // the scaled relations the payoff rule stays silent, so the cap alone
  // stops both searches. A regression that stopped ordering the heap by
  // cost would fail this.
  for (size_t budget : {10u, 20u, 40u}) {
    Result<EnumerationResult> bf =
        RunSearch(Options(SearchStrategy::kBreadthFirst, budget), Scaled());
    Result<EnumerationResult> best =
        RunSearch(Options(SearchStrategy::kBestFirst, budget), Scaled());
    ASSERT_TRUE(bf.ok() && best.ok());
    EXPECT_EQ(bf->stop, SearchStop::kMaxPlans);
    EXPECT_EQ(best->stop, SearchStop::kMaxPlans);
    EXPECT_EQ(bf->plans.size(), budget);
    EXPECT_EQ(best->plans.size(), budget);
    EXPECT_LT(MinCost(best->costs),
              MinCost(IndependentCosts(bf.value(), Scaled())))
        << budget;
  }
}

TEST(EnumerateCostTest, MaxPlansStillCapsThePayoffSearch) {
  // The hard cap fires first when it is the tighter bound, and the capped
  // search admits a prefix of the payoff search's sequence.
  Result<EnumerationResult> payoff =
      RunSearch(Options(SearchStrategy::kBestFirst));
  ASSERT_TRUE(payoff.ok());
  ASSERT_GT(payoff->plans.size(), 3u);
  const size_t cap = payoff->plans.size() - 2;
  Result<EnumerationResult> capped =
      RunSearch(Options(SearchStrategy::kBestFirst, cap));
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped->stop, SearchStop::kMaxPlans);
  EXPECT_TRUE(capped->truncated);
  EXPECT_EQ(capped->plans.size(), cap);
  for (size_t i = 0; i < cap; ++i) {
    EXPECT_EQ(capped->plans[i].fingerprint, payoff->plans[i].fingerprint) << i;
  }
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
  // Best-first has no legacy reference to compare against, so its outcomes
  // are pinned as literals: the admitted sequence (plan count and a digest
  // of every derivation edge), every search counter, and where and why the
  // search stops — the payoff rule on the paper's data, the plan cap on
  // both catalogs, and the drained closure on the scaled data.
  struct Pinned {
    const char* name;
    EnumerationOptions options;
    const Catalog* catalog;  // nullptr = PaperCatalog()
    size_t plans;
    uint64_t digest;
    size_t matches, admitted, gated_out, memo_hits, expanded, search_work;
    SearchStop stop;
  };
  // plans, digest, matches, admitted, gated_out, memo_hits, expanded,
  // search_work, stop.
  const Pinned cases[] = {
      {"best-first, payoff", Options(SearchStrategy::kBestFirst), nullptr, 9,
       4878180830629699418ull, 27, 10, 17, 2, 4, 86, SearchStop::kPayoff},
      {"best-first, 6 plans", Options(SearchStrategy::kBestFirst, 6), nullptr,
       6, 8299248213886738413ull, 17, 5, 12, 0, 3, 58, SearchStop::kMaxPlans},
      {"best-first, scaled, 40 plans",
       Options(SearchStrategy::kBestFirst, 40), &Scaled(), 40,
       10014600733916125608ull, 112, 57, 55, 18, 15, 403,
       SearchStop::kMaxPlans},
      {"best-first, scaled, drained", Options(SearchStrategy::kBestFirst),
       &Scaled(), 174, 9246029618481638894ull, 1330, 641, 689, 468, 174, 1823,
       SearchStop::kDrained},
  };
  Catalog paper = PaperCatalog();
  for (const Pinned& want : cases) {
    SCOPED_TRACE(want.name);
    Result<EnumerationResult> res = RunSearch(
        want.options, want.catalog != nullptr ? *want.catalog : paper);
    ASSERT_TRUE(res.ok()) << res.status().message();
    EXPECT_EQ(res->plans.size(), want.plans);
    EXPECT_EQ(DerivationDigest(res.value()), want.digest);
    EXPECT_EQ(res->matches, want.matches);
    EXPECT_EQ(res->admitted, want.admitted);
    EXPECT_EQ(res->gated_out, want.gated_out);
    EXPECT_EQ(res->memo_hits, want.memo_hits);
    EXPECT_EQ(res->expanded, want.expanded);
    EXPECT_EQ(res->search_work, want.search_work);
    EXPECT_EQ(res->stop, want.stop);
    EXPECT_EQ(res->truncated, want.stop != SearchStop::kDrained);
  }
}

TEST(EnumerateCostTest, LegacyPathRejectsBestFirst) {
  EnumerationOptions opts = Options(SearchStrategy::kBestFirst);
  opts.use_legacy_string_dedup = true;
  Result<EnumerationResult> res = RunSearch(opts);
  EXPECT_FALSE(res.ok());
}

TEST(EnumerateCostTest, OptimizeReusesEnumerationCosts) {
  // Where the payoff rule lets best-first reach the closure, a best-first
  // Optimize chooses the same plan at the same cost as the exhaustive
  // breadth-first one — and its costs come from the enumeration, not a
  // re-costing loop.
  OptimizerOptions exhaustive;
  Result<OptimizeResult> base =
      Optimize(PaperInitialPlan(), Scaled(), PaperContract(),
               DefaultRuleSet(), exhaustive);
  ASSERT_TRUE(base.ok());

  OptimizerOptions directed;
  directed.enumeration.strategy = SearchStrategy::kBestFirst;
  Result<OptimizeResult> best =
      Optimize(PaperInitialPlan(), Scaled(), PaperContract(),
               DefaultRuleSet(), directed);
  ASSERT_TRUE(best.ok());
  EXPECT_FALSE(best->truncated);
  EXPECT_EQ(best->plans_considered, base->plans_considered);
  EXPECT_EQ(best->best_plan->fingerprint(), base->best_plan->fingerprint());
  EXPECT_DOUBLE_EQ(best->best_cost, base->best_cost);
  EXPECT_DOUBLE_EQ(best->initial_cost, base->initial_cost);

  // On the paper's tiny relations the payoff stop settles for fewer plans,
  // and for a plan no dearer than the initial one.
  Catalog catalog = PaperCatalog();
  Result<OptimizeResult> paper_base = Optimize(
      PaperInitialPlan(), catalog, PaperContract(), DefaultRuleSet());
  Result<OptimizeResult> cheap =
      Optimize(PaperInitialPlan(), catalog, PaperContract(), DefaultRuleSet(),
               directed);
  ASSERT_TRUE(paper_base.ok() && cheap.ok());
  EXPECT_TRUE(cheap->truncated);
  EXPECT_LT(cheap->plans_considered, paper_base->plans_considered);
  EXPECT_LE(cheap->best_cost, cheap->initial_cost);
  EXPECT_GE(cheap->best_cost, paper_base->best_cost);
}

// ---- The plans the Engine's default search chooses ------------------------

/// The repository benchmark's adhoc catalog shape: EMPLOYEE/PROJECT at
/// scale 8, and messy temporal R (1400 rows) and S (1050 rows) with exact
/// duplicates, adjacent and overlapping value-equivalent periods.
Catalog AdhocCatalog(uint64_t seed) {
  Catalog catalog;
  TQP_CHECK(catalog
                .RegisterWithInferredFlags(
                    "EMPLOYEE", ScaledEmployee(8, HashMix64(seed ^ 0xe1)))
                .ok());
  TQP_CHECK(catalog
                .RegisterWithInferredFlags(
                    "PROJECT", ScaledProject(8, HashMix64(seed ^ 0xe2)))
                .ok());
  RelationGenParams p;
  p.num_names = 60;
  p.num_categories = 8;
  p.time_horizon = 1000;
  p.max_period_length = 60;
  p.duplicate_fraction = 0.1;
  p.adjacency_fraction = 0.15;
  p.overlap_fraction = 0.2;
  p.cardinality = 1400;
  p.seed = HashMix64(seed ^ 0xa1);
  TQP_CHECK(catalog.RegisterWithInferredFlags("R", GenerateRelation(p)).ok());
  p.cardinality = 1050;
  p.seed = HashMix64(seed ^ 0xa2);
  TQP_CHECK(catalog.RegisterWithInferredFlags("S", GenerateRelation(p)).ok());
  return catalog;
}

/// `per_template` texts of each of the adhoc workload's seven templates,
/// with seeded constants: selection, DISTINCT + ORDER BY, VALIDTIME
/// COALESCED DISTINCT, UNION, GROUP BY, the paper query with filters, and
/// the two-relation VALIDTIME join.
std::vector<std::string> AdhocTexts(uint64_t seed, int per_template) {
  Rng rng(HashMix64(seed ^ 0xad0c));
  std::vector<std::string> out;
  char buf[512];
  for (int tmpl = 0; tmpl < 7; ++tmpl) {
    for (int i = 0; i < per_template; ++i) {
      const char* rel = rng.Below(2) == 0 ? "R" : "S";
      const int a = static_cast<int>(rng.Below(950));
      const int b = a + 1 + static_cast<int>(rng.Below(200));
      const int k = static_cast<int>(rng.Below(8));
      const int d = static_cast<int>(rng.Below(3));
      const int j = static_cast<int>(rng.Below(3));
      const int t = static_cast<int>(rng.Below(60));
      switch (tmpl) {
        case 0:
          std::snprintf(buf, sizeof(buf),
                        "SELECT Name, Val FROM %s WHERE Val > %d AND Val < %d",
                        rel, a, b);
          break;
        case 1:
          std::snprintf(buf, sizeof(buf),
                        "SELECT DISTINCT Name, Cat FROM %s WHERE Val < %d AND "
                        "Cat <> %d ORDER BY Name ASC",
                        rel, a, k);
          break;
        case 2:
          std::snprintf(buf, sizeof(buf),
                        "VALIDTIME COALESCED SELECT DISTINCT Name FROM %s "
                        "WHERE Cat = %d AND Val > %d",
                        rel, k, a);
          break;
        case 3:
          std::snprintf(buf, sizeof(buf),
                        "SELECT Name FROM R WHERE Val > %d UNION SELECT Name "
                        "FROM S WHERE Val < %d",
                        a, b);
          break;
        case 4:
          std::snprintf(buf, sizeof(buf),
                        "SELECT Cat, COUNT(*) AS n, SUM(Val) AS s FROM %s "
                        "WHERE Val > %d GROUP BY Cat ORDER BY Cat",
                        rel, a);
          break;
        case 5:
          std::snprintf(buf, sizeof(buf),
                        "VALIDTIME COALESCED SELECT DISTINCT EmpName FROM "
                        "EMPLOYEE WHERE Dept <> 'dept%d' AND T1 >= %d EXCEPT "
                        "SELECT EmpName FROM PROJECT WHERE Prj <> 'prj%d' "
                        "ORDER BY EmpName ASC",
                        d, t, j);
          break;
        default:
          std::snprintf(buf, sizeof(buf),
                        "VALIDTIME SELECT 1.EmpName AS EmpName, Dept, Prj FROM "
                        "EMPLOYEE, PROJECT WHERE 1.EmpName = 2.EmpName AND "
                        "Dept <> 'dept%d' AND Prj <> 'prj%d' AND 1.T1 >= %d",
                        d, j, t);
          break;
      }
      out.push_back(buf);
    }
  }
  return out;
}

/// ≡SQL for the contract's result type: ≡L on the ORDER BY columns and ≡M
/// overall for a list, ≡M for a multiset, ≡S for a set.
bool SatisfiesContract(const QueryContract& contract, const Relation& base,
                       const Relation& result) {
  switch (contract.result_type) {
    case ResultType::kList:
      return EquivalentAsMultisets(base, result) &&
             EquivalentAsListsOn(contract.order_by, base, result);
    case ResultType::kMultiset:
      return EquivalentAsMultisets(base, result);
    case ResultType::kSet:
      return EquivalentAsSets(base, result);
  }
  return false;
}

// The empirical Theorem 6.1 for the plans a payoff stop settles on: each
// plan a default Engine chooses for the adhoc templates evaluates to a
// result related to the initial plan's by the query's ≡SQL contract, with
// the DBMS order scrambled (at two seeds), so a plan that relied on DBMS
// order would fail.
TEST(EnumerateCostTest, AdhocPlansOfTheDefaultSearchKeepTheirContract) {
  const Catalog catalog = AdhocCatalog(7);
  Engine engine(catalog);
  size_t payoff_stops = 0;
  for (const std::string& text : AdhocTexts(7, 3)) {
    SCOPED_TRACE(text);
    Result<QueryResult> ran = engine.Query(text);
    ASSERT_TRUE(ran.ok()) << ran.status().message();
    payoff_stops += ran->truncated ? 1 : 0;
    Result<PreparedQuery> prepared = engine.Prepare(text);  // a cache hit
    ASSERT_TRUE(prepared.ok());
    Result<AnnotatedPlan> base_ann = AnnotatedPlan::Make(
        prepared->initial_plan(), &catalog, prepared->contract());
    Result<AnnotatedPlan> best_ann = AnnotatedPlan::Make(
        prepared->best_plan(), &catalog, prepared->contract());
    ASSERT_TRUE(base_ann.ok() && best_ann.ok());
    for (uint64_t scramble_seed : {0x5eedull, 0xc0ffeeull}) {
      EngineConfig config;
      config.dbms_scrambles_order = true;
      config.scramble_seed = scramble_seed;
      Result<Relation> base = Evaluate(base_ann.value(), config);
      Result<Relation> best = Evaluate(best_ann.value(), config);
      ASSERT_TRUE(base.ok() && best.ok());
      EXPECT_TRUE(SatisfiesContract(prepared->contract(), base.value(),
                                    best.value()))
          << "scramble seed " << scramble_seed << ", chosen plan:\n"
          << PrintPlan(prepared->best_plan());
    }
  }
  // The case covers plans the payoff rule settled on, not only closures.
  EXPECT_GT(payoff_stops, 0u);
}

// The traced replay of the repository benchmark prepares by hand: one
// interner and one derivation cache shared across every text, EnumeratePlans
// with the Engine's options, and the argmin over EnumerationResult::costs.
// Warm tables never change a payoff search, so the replay must choose the
// facade's plan for every text.
TEST(EnumerateCostTest, SharedTableReplayReproducesTheFacadeChoice) {
  Engine engine(AdhocCatalog(11));
  const EngineOptions& options = engine.options();
  EnumerationOptions eopts = options.enumeration;
  eopts.cardinality = options.cardinality;
  eopts.cost_engine = options.engine;
  PlanInterner interner;
  DerivationCache derivation;
  for (const std::string& text : AdhocTexts(11, 3)) {
    SCOPED_TRACE(text);
    Result<PreparedQuery> facade = engine.Prepare(text);
    ASSERT_TRUE(facade.ok()) << facade.status().message();
    Result<TranslatedQuery> compiled =
        CompileQuery(text, engine.catalog(), options.translator);
    ASSERT_TRUE(compiled.ok());
    Result<EnumerationResult> en = EnumeratePlans(
        interner.Intern(compiled->plan), engine.catalog(), compiled->contract,
        options.rules, eopts, &interner, &derivation);
    ASSERT_TRUE(en.ok());
    ASSERT_EQ(en->costs.size(), en->plans.size());
    size_t best = 0;
    for (size_t i = 1; i < en->costs.size(); ++i) {
      if (en->costs[i] < en->costs[best]) best = i;
    }
    EXPECT_EQ(en->plans[best].fingerprint, facade->fingerprint());
    EXPECT_EQ(en->plans.size(), facade->plans_considered());
  }
}

}  // namespace
}  // namespace tqp
