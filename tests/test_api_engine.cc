// Tests for the tqp::Engine facade: equivalence with the hand-wired
// pipeline, warm-vs-cold determinism, plan-cache behavior (including the
// LRU bound and what an evicted entry releases), relation-stamp
// invalidation (wholesale catalog replacement included), and the
// concurrent-session guarantees (M threads × K queries byte-identical to a
// fresh single-threaded engine, admission control, mid-flight catalog
// mutation never serving stale or torn state).
// CI runs this suite under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "api/engine.h"
#include "core/equivalence.h"
#include "test_util.h"
#include "tql/lexer.h"
#include "workload/paper_example.h"

namespace tqp {
namespace {

/// Byte-identical: same tuples, same order, same rendered table.
void ExpectIdentical(const Relation& a, const Relation& b) {
  EXPECT_TRUE(EquivalentAsLists(a, b)) << a.ToTable("a") << b.ToTable("b");
  EXPECT_EQ(a.ToTable(), b.ToTable());
}

/// EMPLOYEE/PROJECT plus two generated relations R (temporal) and S
/// (temporal, different seed) for the workload queries.
Catalog WorkloadCatalog() {
  Catalog catalog = PaperCatalog();
  TQP_CHECK(catalog
                .RegisterWithInferredFlags(
                    "R", testing_util::RandomTemporal(3, 20), Site::kDbms)
                .ok());
  TQP_CHECK(catalog
                .RegisterWithInferredFlags(
                    "S", testing_util::RandomTemporal(8, 16), Site::kDbms)
                .ok());
  return catalog;
}

/// The TQL suite the warm-vs-cold tests sweep: the paper's example plus
/// conventional/temporal queries over the generated relations.
std::vector<std::string> WorkloadQueries() {
  return {
      PaperQueryText(),
      "SELECT Name, Val FROM R WHERE Val > 10",
      "SELECT DISTINCT Name FROM R ORDER BY Name ASC",
      "VALIDTIME SELECT DISTINCT Name FROM R ORDER BY Name ASC",
      "VALIDTIME COALESCED SELECT DISTINCT Name FROM R",
      "SELECT Name FROM R UNION SELECT Name FROM S",
      "SELECT Cat, COUNT(*) AS n FROM R GROUP BY Cat ORDER BY Cat",
  };
}

TEST(ApiEngineTest, FacadeMatchesHandWiredPipeline) {
  // The A/B guarantee: Engine::Query is byte-identical to the hand-wired
  // CompileQuery + Optimize + AnnotatedPlan::Make + Evaluate pipeline with
  // the same (default) models and the Engine's search options — same
  // relation, fingerprint, costs, and derivation chain, even though the
  // facade skips canonical strings and passes its own search caches to
  // Optimize.
  Catalog catalog = PaperCatalog();

  Result<TranslatedQuery> q = CompileQuery(PaperQueryText(), catalog);
  ASSERT_TRUE(q.ok());
  OptimizerOptions hand_options;
  hand_options.enumeration = EngineOptions().enumeration;
  Result<OptimizeResult> opt = Optimize(q->plan, catalog, q->contract,
                                        DefaultRuleSet(), hand_options);
  ASSERT_TRUE(opt.ok());
  Result<AnnotatedPlan> ann =
      AnnotatedPlan::Make(opt->best_plan, &catalog, q->contract);
  ASSERT_TRUE(ann.ok());
  ExecStats hand_stats;
  Result<Relation> hand = Evaluate(ann.value(), EngineConfig{}, &hand_stats);
  ASSERT_TRUE(hand.ok());

  Engine engine(PaperCatalog());
  Result<QueryResult> facade = engine.Query(PaperQueryText());
  ASSERT_TRUE(facade.ok()) << facade.status().message();

  ExpectIdentical(facade->relation, hand.value());
  EXPECT_EQ(facade->plan_fingerprint, opt->best_plan->fingerprint());
  EXPECT_EQ(facade->best_cost, opt->best_cost);
  EXPECT_EQ(facade->initial_cost, opt->initial_cost);
  EXPECT_EQ(facade->plans_considered, opt->plans_considered);
  EXPECT_EQ(facade->derivation, opt->derivation);
  EXPECT_EQ(facade->exec.total_work(), hand_stats.total_work());
  EXPECT_FALSE(facade->plan_cache_hit);
}

TEST(ApiEngineTest, WarmRunsMatchColdAcrossWorkload) {
  // For every workload query: the warm engine's second run (plan-cache hit)
  // returns the identical relation, chosen fingerprint, and costs as its
  // first run AND as a fresh engine.
  EngineOptions options;
  options.enumeration.max_plans = 1500;
  Engine warm(WorkloadCatalog(), options);

  for (const std::string& text : WorkloadQueries()) {
    SCOPED_TRACE(text);
    Result<QueryResult> first = warm.Query(text);
    ASSERT_TRUE(first.ok()) << first.status().message();
    EXPECT_FALSE(first->plan_cache_hit);

    Result<QueryResult> second = warm.Query(text);
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(second->plan_cache_hit);

    EngineOptions cold_options;
    cold_options.enumeration.max_plans = 1500;
    Engine cold(WorkloadCatalog(), cold_options);
    Result<QueryResult> fresh = cold.Query(text);
    ASSERT_TRUE(fresh.ok());

    ExpectIdentical(second->relation, first->relation);
    ExpectIdentical(second->relation, fresh->relation);
    EXPECT_EQ(second->plan_fingerprint, first->plan_fingerprint);
    EXPECT_EQ(second->plan_fingerprint, fresh->plan_fingerprint);
    EXPECT_EQ(second->best_cost, fresh->best_cost);
    EXPECT_EQ(second->initial_cost, fresh->initial_cost);
    EXPECT_EQ(second->plans_considered, fresh->plans_considered);
    EXPECT_EQ(second->derivation, fresh->derivation);
  }

  EngineStats stats = warm.stats();
  EXPECT_EQ(stats.plan_cache_hits, WorkloadQueries().size());
  EXPECT_EQ(stats.plan_cache_misses, WorkloadQueries().size());
  EXPECT_EQ(stats.prepares, WorkloadQueries().size());
  EXPECT_EQ(stats.plan_cache_entries, WorkloadQueries().size());
  EXPECT_GT(stats.interner_nodes, 0u);
  EXPECT_GT(stats.derivation_nodes, 0u);
  EXPECT_EQ(stats.invalidations, 0u);
}

TEST(ApiEngineTest, PreparedQueryExecutesRepeatedly) {
  Engine engine(PaperCatalog());
  Result<PreparedQuery> prepared = engine.Prepare(PaperQueryText());
  ASSERT_TRUE(prepared.ok());
  EXPECT_FALSE(prepared->from_cache());
  EXPECT_FALSE(prepared->derivation().empty());
  EXPECT_LT(prepared->best_cost(), prepared->initial_cost());

  Result<QueryResult> first = prepared.value().Execute();
  Result<QueryResult> again = prepared.value().Execute();
  ASSERT_TRUE(first.ok() && again.ok());
  ExpectIdentical(first->relation, again->relation);
  EXPECT_EQ(first->plan_fingerprint, prepared->fingerprint());
  // One pipeline run serves any number of executions.
  EXPECT_EQ(engine.stats().prepares, 1u);

  // A later Prepare of the same text is a cache hit sharing the same plan.
  Result<PreparedQuery> reprepared = engine.Prepare(PaperQueryText());
  ASSERT_TRUE(reprepared.ok());
  EXPECT_TRUE(reprepared->from_cache());
  EXPECT_EQ(reprepared->fingerprint(), prepared->fingerprint());
  EXPECT_EQ(engine.stats().prepares, 1u);
}

TEST(ApiEngineTest, PlanKeyedPrepareMatchesTextPath) {
  // A hand-built initial plan prepares to the same chosen plan as its TQL
  // text (the translator emits exactly the Figure 2(a) tree), and repeated
  // plan-keyed preparations hit the fingerprint-keyed cache.
  Engine engine(PaperCatalog());
  Result<PreparedQuery> from_plan =
      engine.Prepare(PaperInitialPlan(), PaperContract());
  ASSERT_TRUE(from_plan.ok()) << from_plan.status().message();
  EXPECT_FALSE(from_plan->from_cache());

  Result<PreparedQuery> from_text = engine.Prepare(PaperQueryText());
  ASSERT_TRUE(from_text.ok());
  EXPECT_EQ(from_plan->fingerprint(), from_text->fingerprint());

  Result<PreparedQuery> again =
      engine.Prepare(PaperInitialPlan(), PaperContract());
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->from_cache());

  Result<QueryResult> a = from_plan.value().Execute();
  Result<QueryResult> b = from_text.value().Execute();
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectIdentical(a->relation, b->relation);
}

TEST(ApiEngineTest, PlanCacheKeysOnTokenStreamNotRawText) {
  // Regression: the plan cache used to key on raw query text, so
  // whitespace/comment variants of one query each paid a full prepare.
  // Keying on the lexed token stream makes every variant below one entry.
  Engine engine(WorkloadCatalog());
  const std::string canonical = "SELECT Name, Val FROM R WHERE Val > 10";
  Result<QueryResult> first = engine.Query(canonical);
  ASSERT_TRUE(first.ok()) << first.status().message();
  EXPECT_FALSE(first->plan_cache_hit);

  const std::vector<std::string> variants = {
      "SELECT  Name,  Val  FROM R WHERE Val > 10",
      "select Name, Val from R where Val > 10",
      "SELECT Name, Val -- projection\nFROM R\nWHERE Val > 10 -- filter",
      "\tSELECT\nName, Val FROM R WHERE Val > 10  ",
  };
  for (const std::string& text : variants) {
    SCOPED_TRACE(text);
    Result<QueryResult> out = engine.Query(text);
    ASSERT_TRUE(out.ok()) << out.status().message();
    EXPECT_TRUE(out->plan_cache_hit);
    ExpectIdentical(out->relation, first->relation);
    EXPECT_EQ(out->plan_fingerprint, first->plan_fingerprint);
  }
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.prepares, 1u);
  EXPECT_EQ(stats.plan_cache_entries, 1u);
  EXPECT_EQ(stats.plan_cache_hits, variants.size());

  // A genuinely different query still misses.
  Result<QueryResult> other =
      engine.Query("SELECT Name, Val FROM R WHERE Val > 11");
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->plan_cache_hit);
  EXPECT_EQ(engine.stats().plan_cache_entries, 2u);

  // Unlexable text must fail with the lexer's error, never hit the cache —
  // even when the garbage text happens to spell out a cached query's
  // token-stream rendering verbatim (raw-text keys live under their own
  // prefix, disjoint from token keys).
  Result<std::vector<Token>> tokens = Lex(canonical);
  ASSERT_TRUE(tokens.ok());
  Result<QueryResult> collision = engine.Query(TokenStreamKey(tokens.value()));
  EXPECT_FALSE(collision.ok());
}

TEST(ApiEngineTest, BestFirstEngineMatchesBreadthFirstChoice) {
  // Where every plan is estimated to cost far more than searching them
  // all, the default (payoff-bounded best-first) engine admits the whole
  // 174-plan Figure 5 closure and chooses the breadth-first engine's plan:
  // same fingerprint, cost, and relation.
  const Catalog catalog = testing_util::ScaledPaperCatalog(16000);
  EngineOptions breadth_options;
  breadth_options.enumeration.strategy = SearchStrategy::kBreadthFirst;
  Engine breadth(catalog, breadth_options);
  Engine directed(catalog);
  ASSERT_EQ(directed.options().enumeration.strategy,
            SearchStrategy::kBestFirst);

  Result<QueryResult> a = breadth.Query(PaperQueryText());
  Result<QueryResult> b = directed.Query(PaperQueryText());
  ASSERT_TRUE(a.ok() && b.ok()) << a.status().message()
                                << b.status().message();
  EXPECT_EQ(a->plans_considered, 174u);
  EXPECT_EQ(b->plans_considered, 174u);
  EXPECT_FALSE(b->truncated);
  ExpectIdentical(a->relation, b->relation);
  EXPECT_EQ(a->plan_fingerprint, b->plan_fingerprint);
  EXPECT_EQ(a->best_cost, b->best_cost);
}

TEST(ApiEngineTest, PlansDeeperThanTheBoundAreInvalidArguments) {
  // A 20 000-way UNION ALL chain nests one plan level per statement; every
  // pass over a plan recurses once per level, so the engine refuses it
  // before anything walks it, and keeps serving.
  Engine engine(PaperCatalog());
  Result<QueryResult> deep = engine.Query(testing_util::UnionAllChain(20000));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().message().rfind("invalid argument: plan nested", 0),
            0u)
      << deep.status().message();

  // The same bound holds for a hand-built plan.
  PlanPtr chain = PlanNode::Scan("EMPLOYEE");
  for (int i = 0; i < kMaxPlanDepth; ++i) chain = PlanNode::Rdup(chain);
  Result<PreparedQuery> hand = engine.Prepare(chain, QueryContract::Set());
  ASSERT_FALSE(hand.ok());
  EXPECT_EQ(hand.status().message().rfind("invalid argument: plan nested", 0),
            0u)
      << hand.status().message();

  Result<QueryResult> after = engine.Query(PaperQueryText());
  ASSERT_TRUE(after.ok()) << after.status().message();
  EXPECT_GT(after->relation.size(), 0u);
}

TEST(ApiEngineTest, FourHundredWayChainPreparesAndRuns) {
  // Within the depth bound a long chain still prepares — and the payoff rule
  // keeps its search short — and runs: 401 statements of EMPLOYEE's names.
  Engine engine(PaperCatalog());
  Result<QueryResult> chain = engine.Query(testing_util::UnionAllChain(400));
  ASSERT_TRUE(chain.ok()) << chain.status().message();
  Result<QueryResult> one = engine.Query("SELECT EmpName FROM EMPLOYEE");
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(chain->relation.size(), 401 * one->relation.size());
}

TEST(ApiEngineTest, CatalogMutationInvalidatesCaches) {
  // A catalog mutation must flush the plan cache and the derivation cache:
  // the next query re-optimizes against the new contents instead of serving
  // a stale plan or stale cardinalities.
  const std::string query =
      "VALIDTIME SELECT DISTINCT Name FROM R ORDER BY Name ASC";
  Catalog catalog;
  TQP_CHECK(catalog
                .RegisterWithInferredFlags(
                    "R",
                    testing_util::TemporalRel(
                        {{"a", 1, 0, 5}, {"b", 2, 2, 9}, {"a", 1, 5, 7}}),
                    Site::kDbms)
                .ok());
  Engine engine(catalog);

  Result<QueryResult> before = engine.Query(query);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(engine.Query(query)->plan_cache_hit);  // warm now

  // Replace R's contents through the engine.
  CatalogEntry updated;
  updated.data = testing_util::TemporalRel(
      {{"c", 7, 1, 4}, {"d", 8, 3, 6}, {"e", 9, 0, 2}});
  updated.site = Site::kDbms;
  ASSERT_TRUE(engine
                  .MutateCatalog([&](Catalog& c) {
                    return c.Update("R", std::move(updated));
                  })
                  .ok());

  Result<QueryResult> after = engine.Query(query);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->plan_cache_hit);  // stale entry evicted, not served
  EXPECT_FALSE(EquivalentAsMultisets(after->relation, before->relation));

  // The post-mutation answer matches a fresh engine over the same catalog.
  Engine fresh(engine.catalog());
  Result<QueryResult> expected = fresh.Query(query);
  ASSERT_TRUE(expected.ok());
  ExpectIdentical(after->relation, expected->relation);
  EXPECT_EQ(after->plan_fingerprint, expected->plan_fingerprint);
  EXPECT_EQ(after->best_cost, expected->best_cost);

  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.plan_cache_entries, 1u);  // only the re-prepared query
}

TEST(ApiEngineTest, StalePreparedQueryRepreparesTransparently) {
  const std::string query = "SELECT DISTINCT Name FROM R ORDER BY Name ASC";
  Catalog catalog;
  TQP_CHECK(catalog
                .RegisterWithInferredFlags(
                    "R", testing_util::ConventionalRel({{"x", 1}, {"y", 2}}),
                    Site::kDbms)
                .ok());
  Engine engine(catalog);
  Result<PreparedQuery> prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok());

  CatalogEntry updated;
  updated.data = testing_util::ConventionalRel({{"z", 3}});
  updated.site = Site::kDbms;
  ASSERT_TRUE(engine
                  .MutateCatalog([&](Catalog& c) {
                    return c.Update("R", std::move(updated));
                  })
                  .ok());

  // Executing the pre-mutation handle picks up the new catalog.
  Result<QueryResult> out = prepared.value().Execute();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->relation.size(), 1u);
  EXPECT_EQ(out->relation.tuple(0).at(0).AsString(), "z");
  EXPECT_EQ(engine.stats().invalidations, 1u);
}

TEST(ApiEngineTest, ExecuteAfterRelationDropFailsCleanly) {
  // Regression: a PreparedQuery whose relation was dropped used to chase a
  // stale catalog entry (null-deref in the derivation's scan annotation).
  // The documented contract is a clean error from the re-prepare.
  const std::string query = "SELECT DISTINCT Name FROM R ORDER BY Name ASC";
  Catalog catalog;
  TQP_CHECK(catalog
                .RegisterWithInferredFlags(
                    "R", testing_util::ConventionalRel({{"x", 1}, {"y", 2}}),
                    Site::kDbms)
                .ok());
  Engine engine(catalog);
  Result<PreparedQuery> prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok());

  ASSERT_TRUE(engine
                  .MutateCatalog([](Catalog& c) {
                    return c.Drop("R") ? Status::OK()
                                       : Status::Error("R not registered");
                  })
                  .ok());

  Result<QueryResult> out = prepared.value().Execute();
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("R"), std::string::npos)
      << out.status().message();
  // The engine stays serviceable for queries over what's left.
  EXPECT_FALSE(engine.Query(query).ok());
}

TEST(ApiEngineTest, ExecuteAfterCatalogReplacementFailsCleanly) {
  // A mutation may replace the catalog wholesale. The replacement stamps
  // its relations afresh, so a prepared query over R re-prepares, which
  // fails cleanly when the replacement lacks R.
  const std::string query = "SELECT DISTINCT Name FROM R ORDER BY Name ASC";
  Catalog catalog;
  TQP_CHECK(catalog
                .RegisterWithInferredFlags(
                    "R", testing_util::ConventionalRel({{"x", 1}, {"y", 2}}),
                    Site::kDbms)
                .ok());
  Engine engine(catalog);
  Result<PreparedQuery> prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok());

  Catalog replacement;
  TQP_CHECK(replacement
                .RegisterWithInferredFlags(
                    "Q", testing_util::ConventionalRel({{"z", 3}}),
                    Site::kDbms)
                .ok());
  ASSERT_TRUE(engine
                  .MutateCatalog([&](Catalog& c) {
                    c = replacement;
                    return Status::OK();
                  })
                  .ok());

  Result<QueryResult> out = prepared.value().Execute();
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("R"), std::string::npos)
      << out.status().message();
  // And queries against the replacement's contents work.
  Result<QueryResult> q = engine.Query("SELECT Name FROM Q");
  ASSERT_TRUE(q.ok()) << q.status().message();
  EXPECT_EQ(q->relation.size(), 1u);
}

/// A catalog holding one conventional relation R, built from scratch the
/// same way on every call: the same registrations, different rows.
Catalog CatalogWithR(std::vector<std::pair<std::string, int64_t>> rows) {
  Catalog catalog;
  TQP_CHECK(catalog
                .RegisterWithInferredFlags(
                    "R", testing_util::ConventionalRel(rows), Site::kDbms)
                .ok());
  return catalog;
}

TEST(ApiEngineTest, MutateCatalogReplacementNeverServesAStalePlan) {
  // R is duplicate-free, so the plan drops rdup by D1. A replacement built
  // by the same registrations holds a duplicate: the cached plan is stale
  // for it and must not be served.
  const std::string query = "SELECT DISTINCT Name, Val FROM R ORDER BY Name ASC";
  Engine engine(CatalogWithR({{"x", 1}, {"y", 2}}));
  Result<QueryResult> before = engine.Query(query);
  ASSERT_TRUE(before.ok()) << before.status().message();
  ASSERT_EQ(before->relation.size(), 2u);

  ASSERT_TRUE(engine
                  .MutateCatalog([](Catalog& c) {
                    c = CatalogWithR({{"x", 1}, {"x", 1}, {"y", 2}});
                    return Status::OK();
                  })
                  .ok());
  Result<QueryResult> after = engine.Query(query);
  ASSERT_TRUE(after.ok()) << after.status().message();
  EXPECT_FALSE(after->plan_cache_hit);

  Engine fresh(CatalogWithR({{"x", 1}, {"x", 1}, {"y", 2}}));
  Result<QueryResult> expected = fresh.Query(query);
  ASSERT_TRUE(expected.ok()) << expected.status().message();
  ASSERT_EQ(expected->relation.size(), 2u);
  ExpectIdentical(after->relation, expected->relation);
  EXPECT_EQ(after->plan_fingerprint, expected->plan_fingerprint);
}

TEST(ApiEngineTest, MutateCatalogReplacementNeverSplicesStaleResults) {
  // With incremental execution on, a replacement built by the same
  // registrations must not match the result-cache entries made for the old
  // R, on either executor.
  const std::string query = "SELECT DISTINCT Name FROM R ORDER BY Name ASC";
  for (ExecutorKind executor :
       {ExecutorKind::kReference, ExecutorKind::kVectorized}) {
    EngineOptions options;
    options.executor = executor;
    options.incremental_execution = true;
    Engine engine(CatalogWithR({{"x", 1}, {"y", 2}}), options);
    Result<QueryResult> before = engine.Query(query);
    ASSERT_TRUE(before.ok()) << before.status().message();
    ASSERT_EQ(before->relation.size(), 2u);

    ASSERT_TRUE(engine
                    .MutateCatalog([](Catalog& c) {
                      c = CatalogWithR({{"p", 1}, {"q", 2}, {"r", 3}});
                      return Status::OK();
                    })
                    .ok());
    Result<QueryResult> after = engine.Query(query);
    ASSERT_TRUE(after.ok()) << after.status().message();
    EXPECT_EQ(engine.stats().result_cache_hits, 0u);

    Engine fresh(CatalogWithR({{"p", 1}, {"q", 2}, {"r", 3}}), options);
    Result<QueryResult> expected = fresh.Query(query);
    ASSERT_TRUE(expected.ok()) << expected.status().message();
    ASSERT_EQ(expected->relation.size(), 3u);
    ExpectIdentical(after->relation, expected->relation);
  }
}

TEST(ApiEngineTest, EnumerateReleasesItsSearchState) {
  // Each Enumerate call searches in an interner and derivation cache of its
  // own: a second call gives the identical plan sequence, and once the
  // first result is dropped, every plan it listed is freed.
  Engine engine(PaperCatalog());
  EnumerationOptions options = engine.options().enumeration;
  options.max_plans = 200;
  Result<EnumerationResult> first =
      engine.Enumerate(PaperQueryText(), options);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->plans.size(), 1u);
  // The facade path skips canonical serialization by default.
  EXPECT_TRUE(first->plans[0].canonical.empty());

  Result<EnumerationResult> second =
      engine.Enumerate(PaperQueryText(), options);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->plans.size(), first->plans.size());
  for (size_t i = 0; i < first->plans.size(); ++i) {
    EXPECT_EQ(second->plans[i].fingerprint, first->plans[i].fingerprint);
    EXPECT_EQ(second->plans[i].parent, first->plans[i].parent);
    EXPECT_EQ(second->plans[i].rule_id, first->plans[i].rule_id);
  }

  std::vector<std::weak_ptr<const PlanNode>> plans;
  for (const EnumeratedPlan& p : first->plans) plans.push_back(p.plan);
  first = Status::Error("dropped");
  for (size_t i = 0; i < plans.size(); ++i) {
    EXPECT_TRUE(plans[i].expired()) << "plan " << i;
  }
}

TEST(ApiEngineTest, FillCanonicalOffPreservesTheSequence) {
  // fill_canonical only controls the string field, never the search.
  Catalog catalog = PaperCatalog();
  EnumerationOptions with, without;
  with.max_plans = without.max_plans = 300;
  with.fill_canonical = true;
  without.fill_canonical = false;

  Result<EnumerationResult> a = EnumeratePlans(
      PaperInitialPlan(), catalog, PaperContract(), DefaultRuleSet(), with);
  Result<EnumerationResult> b = EnumeratePlans(
      PaperInitialPlan(), catalog, PaperContract(), DefaultRuleSet(), without);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->plans.size(), b->plans.size());
  EXPECT_EQ(a->matches, b->matches);
  EXPECT_EQ(a->admitted, b->admitted);
  EXPECT_EQ(a->gated_out, b->gated_out);
  EXPECT_EQ(a->memo_hits, b->memo_hits);
  for (size_t i = 0; i < a->plans.size(); ++i) {
    EXPECT_FALSE(a->plans[i].canonical.empty());
    EXPECT_TRUE(b->plans[i].canonical.empty());
    EXPECT_EQ(a->plans[i].fingerprint, b->plans[i].fingerprint);
    EXPECT_EQ(a->plans[i].parent, b->plans[i].parent);
    EXPECT_EQ(a->plans[i].rule_id, b->plans[i].rule_id);
  }
}

TEST(ApiEngineTest, PlanCacheLruEviction) {
  // plan_cache_capacity bounds the cache with least-recently-used eviction;
  // the unbounded default never evicts (the pre-bound behavior).
  const std::string q1 = "SELECT Name, Val FROM R WHERE Val > 1";
  const std::string q2 = "SELECT Name, Val FROM R WHERE Val > 2";
  const std::string q3 = "SELECT Name, Val FROM R WHERE Val > 3";

  EngineOptions options;
  options.plan_cache_capacity = 2;
  Engine engine(WorkloadCatalog(), options);

  ASSERT_TRUE(engine.Query(q1).ok());
  ASSERT_TRUE(engine.Query(q2).ok());
  EXPECT_EQ(engine.stats().plan_cache_entries, 2u);
  EXPECT_EQ(engine.stats().plan_cache_evictions, 0u);

  // Touch q1 so q2 becomes the LRU entry, then insert q3: q2 is evicted.
  EXPECT_TRUE(engine.Query(q1)->plan_cache_hit);
  ASSERT_TRUE(engine.Query(q3).ok());
  EXPECT_EQ(engine.stats().plan_cache_entries, 2u);
  EXPECT_EQ(engine.stats().plan_cache_evictions, 1u);

  EXPECT_TRUE(engine.Query(q1)->plan_cache_hit);   // survived
  EXPECT_FALSE(engine.Query(q2)->plan_cache_hit);  // evicted: full re-prepare
  EXPECT_EQ(engine.stats().plan_cache_evictions, 2u);  // q2's insert evicted q3
  EXPECT_FALSE(engine.Query(q3)->plan_cache_hit);
  EXPECT_EQ(engine.stats().plan_cache_entries, 2u);

  // Results served around evictions are still correct.
  Engine fresh(WorkloadCatalog());
  ExpectIdentical(engine.Query(q2)->relation, fresh.Query(q2)->relation);

  // Capacity 0 = unbounded: the same traffic never evicts.
  Engine unbounded(WorkloadCatalog());
  for (const std::string& q : {q1, q2, q3, q1, q2, q3}) {
    ASSERT_TRUE(unbounded.Query(q).ok());
  }
  EXPECT_EQ(unbounded.stats().plan_cache_entries, 3u);
  EXPECT_EQ(unbounded.stats().plan_cache_evictions, 0u);
}

TEST(ApiEngineTest, EvictedPlanCacheEntriesReleaseTheirPlans) {
  // A plan-cache entry is the only thing that outlives a prepare: once it
  // is evicted and no handle holds it, its initial and chosen plans are
  // freed — no search state pins them.
  EngineOptions options;
  options.plan_cache_capacity = 1;
  Engine engine(PaperCatalog(), options);
  std::weak_ptr<const PlanNode> initial, best;
  {
    Result<PreparedQuery> prepared = engine.Prepare(PaperQueryText());
    ASSERT_TRUE(prepared.ok()) << prepared.status().message();
    initial = prepared->initial_plan();
    best = prepared->best_plan();
    ASSERT_NE(initial.lock(), best.lock());
  }
  EXPECT_FALSE(initial.expired());  // the cache entry still holds them
  EXPECT_FALSE(best.expired());

  ASSERT_TRUE(engine.Prepare("SELECT EmpName FROM EMPLOYEE").ok());
  EXPECT_EQ(engine.stats().plan_cache_evictions, 1u);
  EXPECT_TRUE(initial.expired());
  EXPECT_TRUE(best.expired());
}

TEST(ApiEngineTest, ConcurrentSessionsAreByteIdentical) {
  // M threads × K queries × R rounds against ONE shared Engine (shared plan
  // cache, catalog and counters): every result must be byte-identical to a
  // fresh single-threaded engine's.
  const std::vector<std::string> queries = WorkloadQueries();

  // Expected outcomes from isolated single-threaded engines.
  std::map<std::string, std::string> expected_table;
  std::map<std::string, uint64_t> expected_fp;
  std::map<std::string, double> expected_cost;
  for (const std::string& q : queries) {
    Engine fresh(WorkloadCatalog());
    Result<QueryResult> r = fresh.Query(q);
    ASSERT_TRUE(r.ok()) << r.status().message();
    expected_table[q] = r->relation.ToTable();
    expected_fp[q] = r->plan_fingerprint;
    expected_cost[q] = r->best_cost;
  }

  Engine shared(WorkloadCatalog());

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Stagger the starting query per thread so cold misses race.
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          const std::string& q =
              queries[(i + static_cast<size_t>(t)) % queries.size()];
          Result<QueryResult> r = shared.Query(q);
          if (!r.ok() || r->relation.ToTable() != expected_table[q] ||
              r->plan_fingerprint != expected_fp[q] ||
              r->best_cost != expected_cost[q]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);

  EngineStats stats = shared.stats();
  EXPECT_EQ(stats.plan_cache_entries, queries.size());
  // Every query beyond each entry's first prepare was a cache hit; racing
  // cold misses may each run a full pipeline, so prepares >= entries rather
  // than == entries.
  EXPECT_GE(stats.prepares, queries.size());
  EXPECT_GT(stats.plan_cache_hits, 0u);
  EXPECT_EQ(stats.invalidations, 0u);
}

TEST(ApiEngineTest, AdmissionControlBoundsConcurrency) {
  // max_concurrent_queries = 1: four threads hammer the engine, but at most
  // one query is ever inside the gated sections (peak counter proves it),
  // and every result is still correct. Every Query text is distinct, so
  // each one misses the plan cache and pays the full gated pipeline.
  EngineOptions options;
  options.max_concurrent_queries = 1;
  Engine engine(WorkloadCatalog(), options);
  auto query = [](int n) {
    return "SELECT DISTINCT Name FROM R WHERE Val > " + std::to_string(n) +
           " ORDER BY Name ASC";
  };
  Engine fresh(WorkloadCatalog());
  std::vector<std::string> expected;
  for (int n = 0; n < 20; ++n) {
    expected.push_back(fresh.Query(query(n))->relation.ToTable());
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 5; ++i) {
        const int n = t * 5 + i;
        Result<QueryResult> r = engine.Query(query(n));
        if (!r.ok() || r->relation.ToTable() != expected[n]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(engine.stats().peak_concurrent_queries, 1u);
  EXPECT_EQ(engine.stats().prepares, 20u);
}

TEST(ApiEngineTest, CatalogMutationMidFlightNeverServesStalePlans) {
  // Readers hammer the engine while the catalog is replaced mid-flight
  // through MutateCatalog. Every observed result must equal the pre- or the
  // post-mutation truth in full — never a stale plan over new data or any
  // torn in-between — and after the mutation the new truth must be served.
  const std::string query =
      "VALIDTIME SELECT DISTINCT Name FROM R ORDER BY Name ASC";
  auto catalog_v1 = [] {
    Catalog catalog;
    TQP_CHECK(catalog
                  .RegisterWithInferredFlags(
                      "R",
                      testing_util::TemporalRel(
                          {{"a", 1, 0, 5}, {"b", 2, 2, 9}, {"a", 1, 5, 7}}),
                      Site::kDbms)
                  .ok());
    return catalog;
  };
  CatalogEntry v2_entry;
  v2_entry.data = testing_util::TemporalRel(
      {{"c", 7, 1, 4}, {"d", 8, 3, 6}, {"e", 9, 0, 2}});
  v2_entry.site = Site::kDbms;

  const std::string before = Engine(catalog_v1()).Query(query)->relation.ToTable();
  Catalog after_catalog = catalog_v1();
  TQP_CHECK(after_catalog.Update("R", v2_entry).ok());
  const std::string after = Engine(std::move(after_catalog))
                                .Query(query)
                                ->relation.ToTable();
  ASSERT_NE(before, after);

  Engine engine(catalog_v1());
  std::atomic<int> torn{0};
  std::atomic<int> post_mutation_before{0};
  std::atomic<bool> mutated{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        bool mutation_done = mutated.load();
        Result<QueryResult> r = engine.Query(query);
        if (!r.ok()) {
          torn.fetch_add(1);
          continue;
        }
        std::string table = r->relation.ToTable();
        if (table != before && table != after) {
          torn.fetch_add(1);  // a mixed/stale answer
        } else if (mutation_done && table == before) {
          // The mutation completed before this query started, yet it saw
          // the old contents: stale state was served.
          post_mutation_before.fetch_add(1);
        }
      }
    });
  }
  // Let the readers warm up, then swap R's contents mid-traffic.
  Result<QueryResult> warmup = engine.Query(query);
  ASSERT_TRUE(warmup.ok());
  ASSERT_TRUE(engine
                  .MutateCatalog([&](Catalog& catalog) {
                    return catalog.Update("R", v2_entry);
                  })
                  .ok());
  mutated.store(true);
  for (std::thread& th : readers) th.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(post_mutation_before.load(), 0);
  EXPECT_EQ(engine.Query(query)->relation.ToTable(), after);
  EXPECT_EQ(engine.stats().invalidations, 1u);
}

TEST(ApiEngineTest, CatalogVersioning) {
  Catalog catalog;
  EXPECT_EQ(catalog.version(), 0u);
  ASSERT_TRUE(catalog
                  .RegisterWithInferredFlags(
                      "A", testing_util::ConventionalRel({{"x", 1}}))
                  .ok());
  const uint64_t v1 = catalog.version();
  EXPECT_GT(v1, 0u);

  // Failed mutations change nothing.
  EXPECT_FALSE(catalog
                   .RegisterWithInferredFlags(
                       "A", testing_util::ConventionalRel({{"y", 2}}))
                   .ok());
  EXPECT_FALSE(catalog.Drop("NOPE"));
  EXPECT_EQ(catalog.version(), v1);

  CatalogEntry entry;
  entry.data = testing_util::ConventionalRel({{"y", 2}});
  ASSERT_TRUE(catalog.Update("A", std::move(entry)).ok());
  const uint64_t v2 = catalog.version();
  EXPECT_GT(v2, v1);
  EXPECT_TRUE(catalog.Drop("A"));
  EXPECT_GT(catalog.version(), v2);
  EXPECT_FALSE(catalog.Contains("A"));
}

TEST(ApiEngineTest, DependencyKeyedInvalidationKeepsUnrelatedPlans) {
  // Plan-cache invalidation is keyed on each entry's relation-dependency
  // set: updating S evicts exactly the plans reading S, and a plan reading
  // only R survives warm (the over-invalidation regression).
  const std::string qr = "SELECT Name, Val FROM R WHERE Val > 10";
  const std::string qs = "SELECT Name, Val FROM S WHERE Val > 10";
  Engine engine(WorkloadCatalog());
  ASSERT_TRUE(engine.Query(qr).ok());
  ASSERT_TRUE(engine.Query(qs).ok());
  ASSERT_TRUE(engine.Query(qr)->plan_cache_hit);  // both warm
  ASSERT_TRUE(engine.Query(qs)->plan_cache_hit);

  ASSERT_TRUE(engine
                  .MutateCatalog([](Catalog& c) {
                    CatalogEntry e;
                    e.data = testing_util::RandomTemporal(21, 16);
                    return c.Update("S", std::move(e));
                  })
                  .ok());

  Result<QueryResult> r_after = engine.Query(qr);
  ASSERT_TRUE(r_after.ok());
  EXPECT_TRUE(r_after->plan_cache_hit);  // R-plan untouched by S's update
  Result<QueryResult> s_after = engine.Query(qs);
  ASSERT_TRUE(s_after.ok());
  EXPECT_FALSE(s_after->plan_cache_hit);  // S-plan was stale, re-prepared

  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.plan_cache_stale_evictions, 1u);  // only the S-plan
  EXPECT_EQ(stats.invalidations, 1u);

  // Both answers match a fresh engine over the mutated catalog.
  Engine fresh(engine.catalog());
  Result<QueryResult> fresh_r = fresh.Query(qr);
  Result<QueryResult> fresh_s = fresh.Query(qs);
  ASSERT_TRUE(fresh_r.ok());
  ASSERT_TRUE(fresh_s.ok());
  ExpectIdentical(r_after->relation, fresh_r->relation);
  ExpectIdentical(s_after->relation, fresh_s->relation);
}

TEST(ApiEngineTest, PreparedQuerySurvivesUnrelatedMutation) {
  // A PreparedQuery whose plans never read S executes without re-preparing
  // across an S mutation: staleness is judged per relation, not by the
  // global catalog version.
  const std::string qr = "SELECT Name, Val FROM R WHERE Val > 10";
  Engine engine(WorkloadCatalog());
  Result<PreparedQuery> prepared = engine.Prepare(qr);
  ASSERT_TRUE(prepared.ok());
  PreparedQuery handle = prepared.value();
  Result<QueryResult> before = handle.Execute();
  ASSERT_TRUE(before.ok());
  const uint64_t prepares_before = engine.stats().prepares;

  ASSERT_TRUE(engine
                  .MutateCatalog([](Catalog& c) {
                    CatalogEntry e;
                    e.data = testing_util::RandomTemporal(33, 16);
                    return c.Update("S", std::move(e));
                  })
                  .ok());

  Result<QueryResult> after = handle.Execute();
  ASSERT_TRUE(after.ok());
  ExpectIdentical(after->relation, before->relation);
  EXPECT_EQ(engine.stats().prepares, prepares_before);  // no re-prepare ran
}

TEST(ApiEngineTest, IncrementalExecutionSplicesCachedSubplans) {
  // EngineOptions::incremental_execution: repeated execution splices cached
  // subplan results; an update of an unrelated relation leaves them valid
  // (exact per-relation version keys); an update of a read relation forces
  // a full recompute whose bytes match an always-cold engine.
  const std::string qr = "SELECT Name, Val FROM R WHERE Val > 10";
  EngineOptions options;
  options.incremental_execution = true;
  Engine engine(WorkloadCatalog(), options);

  Result<QueryResult> first = engine.Query(qr);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->exec.result_cache_hits, 0);
  EXPECT_GT(first->exec.result_cache_misses, 0);

  Result<QueryResult> second = engine.Query(qr);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second->exec.result_cache_hits, 0);  // root splice
  ExpectIdentical(second->relation, first->relation);

  // Updating S (which qr never reads) invalidates nothing qr uses.
  ASSERT_TRUE(engine
                  .MutateCatalog([](Catalog& c) {
                    CatalogEntry e;
                    e.data = testing_util::RandomTemporal(44, 16);
                    return c.Update("S", std::move(e));
                  })
                  .ok());
  Result<QueryResult> third = engine.Query(qr);
  ASSERT_TRUE(third.ok());
  EXPECT_GT(third->exec.result_cache_hits, 0);
  ExpectIdentical(third->relation, first->relation);

  // Updating R invalidates every cached subplan qr reads: full recompute,
  // byte-identical to a cold engine over the same catalog.
  ASSERT_TRUE(engine
                  .MutateCatalog([](Catalog& c) {
                    CatalogEntry e;
                    e.data = testing_util::RandomTemporal(55, 20);
                    return c.Update("R", std::move(e));
                  })
                  .ok());
  Result<QueryResult> fourth = engine.Query(qr);
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(fourth->exec.result_cache_hits, 0);  // every dep moved
  Engine cold(engine.catalog());
  Result<QueryResult> expected = cold.Query(qr);
  ASSERT_TRUE(expected.ok());
  ExpectIdentical(fourth->relation, expected->relation);

  EngineStats stats = engine.stats();
  EXPECT_GT(stats.result_cache_hits, 0u);
  EXPECT_GT(stats.result_cache_misses, 0u);
  EXPECT_GT(stats.result_cache_entries, 0u);
  EXPECT_GT(stats.result_cache_bytes, 0u);
  // The JSON rendering (embedded by the service \stats frame) carries the
  // new counters.
  EXPECT_NE(stats.ToJson().find("result_cache_hits"), std::string::npos);
  EXPECT_NE(stats.ToJson().find("plan_cache_stale_evictions"),
            std::string::npos);
}

TEST(ApiEngineTest, SnapshotExportSkipsDependencyStaleEntries) {
  // A snapshot taken between a mutation and the next query must not carry
  // entries the mutation staled: the snapshot stamps the live catalog
  // version, so exporting them would mark stale plans as valid
  // (stale-positive on re-import).
  const std::string qr = "SELECT Name, Val FROM R WHERE Val > 10";
  const std::string qs = "SELECT Name, Val FROM S WHERE Val > 10";
  Engine engine(WorkloadCatalog());
  ASSERT_TRUE(engine.Query(qr).ok());
  ASSERT_TRUE(engine.Query(qs).ok());
  EXPECT_EQ(engine.ExportPlanCache().entries.size(), 2u);

  ASSERT_TRUE(engine
                  .MutateCatalog([](Catalog& c) {
                    CatalogEntry e;
                    e.data = testing_util::RandomTemporal(66, 16);
                    return c.Update("S", std::move(e));
                  })
                  .ok());
  // No query ran since the mutation: the stale S-entry is still in the LRU,
  // but the export filters it out; the R-entry is still valid and ships.
  PlanCacheSnapshot snap = engine.ExportPlanCache();
  ASSERT_EQ(snap.entries.size(), 1u);
  EXPECT_EQ(snap.entries[0].text, qr);

  // The filtered snapshot imports cleanly into a twin engine.
  Engine twin(engine.catalog());
  EXPECT_EQ(twin.ImportPlanCache(snap), 1u);
  Result<QueryResult> warmed = twin.Query(qr);
  ASSERT_TRUE(warmed.ok());
  EXPECT_TRUE(warmed->plan_cache_hit);
}

}  // namespace
}  // namespace tqp
