// Plan identity under hash-consing: structural fingerprints, the interning
// table, path-based rewrites, and the memo-based enumerator's equivalence
// with the seed (string-dedup) implementation — plan sets, derivation edges,
// and the truncated/gated_out counters must all be preserved.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "algebra/intern.h"
#include "opt/enumerate.h"
#include "tql/translator.h"
#include "workload/paper_example.h"

namespace tqp {
namespace {

using P = PlanNode;

EnumerationOptions Options(size_t max_plans, bool legacy = false) {
  EnumerationOptions opts;
  opts.max_plans = max_plans;
  opts.use_legacy_string_dedup = legacy;
  return opts;
}

EnumerationResult Enumerate(const EnumerationOptions& opts,
                            QueryContract contract = PaperContract()) {
  Catalog catalog = PaperCatalog();
  std::vector<Rule> rules = DefaultRuleSet();
  Result<EnumerationResult> res = EnumeratePlans(
      PaperInitialPlan(), catalog, contract, rules, opts);
  TQP_CHECK(res.ok());
  return std::move(res.value());
}

// ---- Fingerprints ---------------------------------------------------------

TEST(PlanIdentityTest, FingerprintMatchesCanonicalEqualityOnEnumeratedPlans) {
  // On the paper's running example: fingerprint equality must coincide with
  // canonical-serialization equality over every enumerated plan (guards
  // against hash-collision dedup bugs and against fingerprints that miss
  // payload differences).
  for (QueryContract contract :
       {PaperContract(), QueryContract::Multiset(), QueryContract::Set()}) {
    EnumerationResult res = Enumerate(Options(100000), contract);
    ASSERT_GE(res.plans.size(), 100u);
    std::map<uint64_t, std::string> by_fp;
    std::map<std::string, uint64_t> by_canon;
    for (const EnumeratedPlan& p : res.plans) {
      EXPECT_EQ(p.fingerprint, p.plan->fingerprint());
      auto [fit, f_fresh] = by_fp.emplace(p.fingerprint, p.canonical);
      EXPECT_TRUE(f_fresh ? true : fit->second == p.canonical)
          << "fingerprint collision across distinct canonical forms";
      auto [cit, c_fresh] = by_canon.emplace(p.canonical, p.fingerprint);
      EXPECT_TRUE(c_fresh ? true : cit->second == p.fingerprint)
          << "equal canonical forms with different fingerprints";
    }
    // All enumerated plans are distinct in both representations.
    EXPECT_EQ(by_fp.size(), res.plans.size());
    EXPECT_EQ(by_canon.size(), res.plans.size());
  }
}

TEST(PlanIdentityTest, FingerprintSeesPayloadAndShape) {
  PlanPtr scan = P::Scan("EMPLOYEE");
  EXPECT_EQ(P::Scan("EMPLOYEE")->fingerprint(), scan->fingerprint());
  EXPECT_NE(P::Scan("PROJECT")->fingerprint(), scan->fingerprint());
  EXPECT_NE(P::Rdup(scan)->fingerprint(), P::RdupT(scan)->fingerprint());
  EXPECT_NE(P::Sort(scan, {SortKey{"A", true}})->fingerprint(),
            P::Sort(scan, {SortKey{"A", false}})->fingerprint());
  EXPECT_NE(P::Product(scan, P::Scan("PROJECT"))->fingerprint(),
            P::Product(P::Scan("PROJECT"), scan)->fingerprint());
  EXPECT_EQ(P::Rdup(scan)->subtree_size(), 2u);
}

// ---- Interner -------------------------------------------------------------

TEST(PlanIdentityTest, InterningMakesIdentityAPointerComparison) {
  PlanInterner interner;
  PlanPtr a = interner.Intern(PaperInitialPlan());
  PlanPtr b = interner.Intern(PaperInitialPlan());
  EXPECT_EQ(a.get(), b.get());
  EXPECT_TRUE(interner.IsCanonical(a.get()));
  EXPECT_GT(interner.hits(), 0u);

  // Distinct plans intern to distinct canonical nodes.
  PlanPtr c = interner.Intern(P::Rdup(P::Scan("EMPLOYEE")));
  PlanPtr d = interner.Intern(P::RdupT(P::Scan("EMPLOYEE")));
  EXPECT_NE(c.get(), d.get());
  // ... but share the scan subtree.
  EXPECT_EQ(c->child(0).get(), d->child(0).get());
}

TEST(PlanIdentityTest, RewriteInternedEqualsReplaceAtPath) {
  PlanInterner interner;
  PlanPtr plan = interner.Intern(PaperInitialPlan());
  // Rewrite the node at path {0,0} (below T_S, sort) into rdupT(·).
  PlanPath path = {0, 0};
  const PlanPtr& target = NodeAtPath(plan, path);
  PlanPtr replacement = P::RdupT(target->child(0));

  PlanPtr by_path = ReplaceAtPath(plan, path, replacement);
  PlanPtr by_interner = interner.RewriteInterned(plan, path, replacement);
  EXPECT_TRUE(PlanNode::Equal(by_path, by_interner));
  EXPECT_EQ(CanonicalString(by_path), CanonicalString(by_interner));
  EXPECT_EQ(by_path->fingerprint(),
            FingerprintAtPath(plan, path, replacement->fingerprint()));
  EXPECT_TRUE(EqualsWithReplacement(by_interner, plan, path, replacement));
  // A sibling-preserving rewrite shares everything off the spine.
  EXPECT_EQ(by_interner->child(0)->child(0)->child(0).get(),
            replacement->child(0).get());
}

// ---- Memo enumeration vs the seed implementation --------------------------

TEST(PlanIdentityTest, MemoAndLegacyProduceTheIdenticalPlanSequence) {
  EnumerationResult legacy = Enumerate(Options(100000, /*legacy=*/true));
  EnumerationResult memo = Enumerate(Options(100000, /*legacy=*/false));
  ASSERT_EQ(legacy.plans.size(), memo.plans.size());
  for (size_t i = 0; i < legacy.plans.size(); ++i) {
    EXPECT_EQ(legacy.plans[i].canonical, memo.plans[i].canonical) << i;
    EXPECT_EQ(legacy.plans[i].fingerprint, memo.plans[i].fingerprint) << i;
    EXPECT_EQ(legacy.plans[i].parent, memo.plans[i].parent) << i;
    EXPECT_EQ(legacy.plans[i].rule_id, memo.plans[i].rule_id) << i;
  }
  EXPECT_EQ(legacy.matches, memo.matches);
  EXPECT_EQ(legacy.admitted, memo.admitted);
  EXPECT_EQ(legacy.gated_out, memo.gated_out);
  EXPECT_EQ(legacy.truncated, memo.truncated);
  EXPECT_FALSE(memo.truncated);
}

TEST(PlanIdentityTest, TruncatedAndGatedOutCountersSurviveTheMemoRefactor) {
  // Truncated runs: the cap must count distinct plans admitted to the memo,
  // not raw rule matches, and both implementations must agree on the
  // counters, which stop where the cap falls inside the last expansion.
  // Inputs: the running example capped at 60 plans, and a VALIDTIME
  // EMPLOYEE/PROJECT join with four predicates — the ad hoc join shape that
  // reaches the default cap of 4000.
  Catalog catalog = PaperCatalog();
  std::vector<Rule> rules = DefaultRuleSet();
  Result<TranslatedQuery> join = CompileQuery(
      "VALIDTIME SELECT 1.EmpName AS EmpName, Dept, Prj FROM EMPLOYEE, "
      "PROJECT WHERE 1.EmpName = 2.EmpName AND Dept <> 'dept1' AND "
      "Prj <> 'prj2' AND 1.T1 >= 30",
      catalog);
  ASSERT_TRUE(join.ok()) << join.status().message();
  struct Input {
    PlanPtr plan;
    QueryContract contract;
    size_t cap;
  };
  for (const Input& in : {Input{PaperInitialPlan(), PaperContract(), 60},
                          Input{join->plan, join->contract, 4000}}) {
    SCOPED_TRACE(in.cap);
    Result<EnumerationResult> legacy = EnumeratePlans(
        in.plan, catalog, in.contract, rules, Options(in.cap, /*legacy=*/true));
    Result<EnumerationResult> memo = EnumeratePlans(
        in.plan, catalog, in.contract, rules, Options(in.cap, /*legacy=*/false));
    ASSERT_TRUE(legacy.ok()) << legacy.status().message();
    ASSERT_TRUE(memo.ok()) << memo.status().message();
    EXPECT_EQ(memo->plans.size(), in.cap);
    EXPECT_TRUE(memo->truncated);
    EXPECT_TRUE(legacy->truncated);
    ASSERT_EQ(legacy->plans.size(), memo->plans.size());
    EXPECT_EQ(legacy->gated_out, memo->gated_out);
    EXPECT_EQ(legacy->matches, memo->matches);
    EXPECT_EQ(legacy->admitted, memo->admitted);
    EXPECT_EQ(legacy->expanded, memo->expanded);
    for (size_t i = 0; i < legacy->plans.size(); ++i) {
      EXPECT_EQ(legacy->plans[i].canonical, memo->plans[i].canonical) << i;
      EXPECT_EQ(legacy->plans[i].parent, memo->plans[i].parent) << i;
      EXPECT_EQ(legacy->plans[i].rule_id, memo->plans[i].rule_id) << i;
    }
  }
}

TEST(PlanIdentityTest, MaxPlansCountsDistinctPlansNotRuleMatches) {
  EnumerationResult res = Enumerate(Options(100000));
  // Far more rule matches (and admitted applications) than distinct plans.
  EXPECT_GT(res.matches, res.plans.size());
  EXPECT_GT(res.admitted, res.plans.size());
  // A cap far below the match count still yields exactly that many plans.
  EnumerationResult capped = Enumerate(Options(25));
  EXPECT_EQ(capped.plans.size(), 25u);
  EXPECT_TRUE(capped.truncated);
  std::set<std::string> canon;
  for (const EnumeratedPlan& p : capped.plans) canon.insert(p.canonical);
  EXPECT_EQ(canon.size(), capped.plans.size());
}

TEST(PlanIdentityTest, MemoReportsSearchStructureStatistics) {
  EnumerationResult res = Enumerate(Options(100000));
  EXPECT_GT(res.memo_hits, 0u);
  EXPECT_GT(res.interner_nodes, 0u);
  EXPECT_GT(res.interner_hits, 0u);
  EXPECT_EQ(res.cache_nodes, res.interner_nodes);
  // Hash-consing must compress far below the unfolded node count.
  size_t unfolded = 0;
  for (const EnumeratedPlan& p : res.plans) unfolded += PlanSize(p.plan);
  EXPECT_LT(res.interner_nodes, unfolded / 2);
}

// ---- DerivationOf ---------------------------------------------------------

TEST(PlanIdentityTest, DerivationOfHandlesOutOfWorklistOrderParents) {
  // Hand-build a result whose parent edges do not follow the expansion
  // order: plan 3 derives from plan 1, which derives from plan 2, which
  // derives from the initial plan 0.
  EnumerationResult res;
  res.plans.push_back(EnumeratedPlan{nullptr, "p0", 0, -1, ""});
  res.plans.push_back(EnumeratedPlan{nullptr, "p1", 1, 2, "R2"});
  res.plans.push_back(EnumeratedPlan{nullptr, "p2", 2, 0, "R1"});
  res.plans.push_back(EnumeratedPlan{nullptr, "p3", 3, 1, "R3"});
  EXPECT_EQ(res.DerivationOf(0), std::vector<std::string>{});
  EXPECT_EQ(res.DerivationOf(3),
            (std::vector<std::string>{"R1", "R2", "R3"}));
}

TEST(PlanIdentityTest, DerivationChainsReplayUnderThePayoffStop) {
  // Best-first expands plans out of admission order and the payoff rule
  // stops it with admitted plans still unexpanded, so parent indices can
  // skip around; every chain must still replay from the initial plan.
  EnumerationOptions opts = Options(100000);
  opts.strategy = SearchStrategy::kBestFirst;
  EnumerationResult res = Enumerate(opts);
  EXPECT_EQ(res.stop, SearchStop::kPayoff);
  EXPECT_LT(res.expanded, res.plans.size());
  for (size_t i = 0; i < res.plans.size(); ++i) {
    // Parents precede children and chains terminate.
    EXPECT_LT(res.plans[i].parent, static_cast<int>(i));
    std::vector<std::string> chain = res.DerivationOf(i);
    EXPECT_EQ(chain.size(),
              i == 0 ? 0u : res.DerivationOf(res.plans[i].parent).size() + 1);
  }
}

TEST(PlanIdentityTest, PayoffStopIsOffByDefaultAndSound) {
  // The default strategy is the exhaustive Figure 5 order: it drains.
  EnumerationOptions exhaustive = Options(100000);
  EXPECT_EQ(exhaustive.strategy, SearchStrategy::kBreadthFirst);
  EnumerationResult full = Enumerate(exhaustive);
  EXPECT_EQ(full.stop, SearchStop::kDrained);
  EXPECT_FALSE(full.truncated);

  EnumerationOptions payoff_opts = Options(100000);
  payoff_opts.strategy = SearchStrategy::kBestFirst;
  EnumerationResult payoff = Enumerate(payoff_opts);
  EXPECT_EQ(payoff.stop, SearchStop::kPayoff);
  // The payoff stop only shrinks the space, and every plan it keeps is one
  // the exhaustive run also found.
  EXPECT_LT(payoff.plans.size(), full.plans.size());
  std::set<std::string> all;
  for (const EnumeratedPlan& p : full.plans) all.insert(p.canonical);
  for (const EnumeratedPlan& p : payoff.plans) {
    EXPECT_TRUE(all.count(p.canonical) > 0) << p.canonical;
  }
}

// ---- Repeated subexpressions ----------------------------------------------

TEST(PlanIdentityTest, MemoMatchesLegacyOnPlansWithRepeatedSubexpressions) {
  // Two structurally identical subtrees built as distinct objects: a proper
  // tree for the legacy path, but interning merges them into one node in
  // the memo path. Per-occurrence property gating must keep the plan
  // sequences identical (regression: a per-pointer OR-merge once let the
  // unsorted occurrence's OrderRequired leak into the sorted one and
  // collapsed the space from hundreds of plans to two).
  Catalog catalog = PaperCatalog();
  std::vector<Rule> rules = DefaultRuleSet();
  auto make_x = [] {
    return P::Product(P::Scan("EMPLOYEE"), P::Scan("PROJECT"));
  };
  SortSpec by_dept = {SortKey{"Dept", true}};
  PlanPtr plan = P::UnionAll(P::Sort(make_x(), by_dept), make_x());
  QueryContract contract = QueryContract::List(by_dept);

  EnumerationOptions legacy_opts = Options(400, /*legacy=*/true);
  EnumerationOptions memo_opts = Options(400, /*legacy=*/false);
  Result<EnumerationResult> legacy =
      EnumeratePlans(plan, catalog, contract, rules, legacy_opts);
  Result<EnumerationResult> memo =
      EnumeratePlans(plan, catalog, contract, rules, memo_opts);
  ASSERT_TRUE(legacy.ok()) << legacy.status().message();
  ASSERT_TRUE(memo.ok()) << memo.status().message();
  ASSERT_GT(memo->plans.size(), 100u) << "space collapsed: gating leaked "
                                         "across shared occurrences";
  ASSERT_EQ(legacy->plans.size(), memo->plans.size());
  for (size_t i = 0; i < legacy->plans.size(); ++i) {
    EXPECT_EQ(legacy->plans[i].canonical, memo->plans[i].canonical) << i;
    EXPECT_EQ(legacy->plans[i].parent, memo->plans[i].parent) << i;
    EXPECT_EQ(legacy->plans[i].rule_id, memo->plans[i].rule_id) << i;
  }
  EXPECT_EQ(legacy->matches, memo->matches);
  EXPECT_EQ(legacy->admitted, memo->admitted);
  EXPECT_EQ(legacy->gated_out, memo->gated_out);
}

TEST(PlanIdentityTest, LegacyRejectsSharedSubtreeInputsMemoHandlesThem) {
  // The seed algorithm rewrites by node identity, which replaces every
  // occurrence — unsound on DAGs — so the legacy path refuses them. The
  // memo path rewrites at paths and must enumerate exactly what it would
  // for the equivalent proper tree.
  Catalog catalog = PaperCatalog();
  std::vector<Rule> rules = DefaultRuleSet();
  SortSpec by_dept = {SortKey{"Dept", true}};
  PlanPtr x = P::Product(P::Scan("EMPLOYEE"), P::Scan("PROJECT"));
  PlanPtr dag = P::UnionAll(P::Sort(x, by_dept), x);  // same object twice
  PlanPtr tree = P::UnionAll(
      P::Sort(P::Product(P::Scan("EMPLOYEE"), P::Scan("PROJECT")), by_dept),
      P::Product(P::Scan("EMPLOYEE"), P::Scan("PROJECT")));
  QueryContract contract = QueryContract::List(by_dept);

  Result<EnumerationResult> legacy = EnumeratePlans(
      dag, catalog, contract, rules, Options(400, /*legacy=*/true));
  EXPECT_FALSE(legacy.ok());

  Result<EnumerationResult> from_dag =
      EnumeratePlans(dag, catalog, contract, rules, Options(400));
  Result<EnumerationResult> from_tree =
      EnumeratePlans(tree, catalog, contract, rules, Options(400));
  ASSERT_TRUE(from_dag.ok() && from_tree.ok());
  ASSERT_EQ(from_dag->plans.size(), from_tree->plans.size());
  for (size_t i = 0; i < from_dag->plans.size(); ++i) {
    EXPECT_EQ(from_dag->plans[i].canonical, from_tree->plans[i].canonical);
  }
}

// ---- Hash-consed (DAG) plans through annotation ---------------------------

TEST(PlanIdentityTest, AnnotationAcceptsSharedSubtrees) {
  // With hash-consing the same node object may occur twice in one plan;
  // annotation must accept it and derive bottom-up facts once.
  Catalog catalog = PaperCatalog();
  std::vector<ProjItem> proj = {ProjItem::Pass("EmpName"), ProjItem::Pass(kT1),
                                ProjItem::Pass(kT2)};
  PlanPtr shared = P::Project(P::Scan("EMPLOYEE"), proj);
  PlanPtr dag = P::UnionAll(shared, shared);  // same object twice
  Result<AnnotatedPlan> ann =
      AnnotatedPlan::Make(dag, &catalog, QueryContract::Multiset());
  ASSERT_TRUE(ann.ok()) << ann.status().message();
  EXPECT_EQ(ann->info(shared.get()).schema.size(), 3u);
  // Conservative merge: the shared occurrence carries the OR of its edges'
  // properties; for ⊎ both edges agree here.
  EXPECT_FALSE(ann->info(shared.get()).order_required);
}

}  // namespace
}  // namespace tqp
