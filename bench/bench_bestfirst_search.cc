// Best-first (cost-directed) plan search vs the exhaustive Figure 5 loop.
//
// The paper's Figure 5 enumerates the equivalence class breadth-first and
// leaves cost integration open; SearchStrategy::kBestFirst orders the
// frontier by estimated plan cost instead, so the cost model steers which
// plans get expanded at all. This bench gates the payoff on the paper's
// running example at max_plans = 4000:
//
//   * best-first + pruning reaches a plan within 1% of the exhaustive
//     optimum while expanding <= 50% of the plans the exhaustive search
//     expands, and
//   * best-first with unlimited budgets reaches the identical plan set as
//     breadth-first (order-independence of the closure).
//
// Both are TQP_CHECKed, so CI fails if a regression makes cost-directed
// search lose the optimum or its expansion advantage.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <set>

#include "bench_util.h"
#include "opt/enumerate.h"
#include "opt/optimizer.h"

namespace tqp {

using bench::Banner;

namespace {

double MinCost(const EnumerationResult& res) {
  TQP_CHECK(!res.costs.empty());
  return *std::min_element(res.costs.begin(), res.costs.end());
}

/// Exhaustive optimum: every plan costed, none pruned.
double ExhaustiveOptimum(const EnumerationResult& res, const Catalog& catalog) {
  DerivationCache cache;
  QueryContract contract = PaperContract();
  PlanContext ctx(&cache, nullptr, &contract);
  double best = 0.0;
  for (size_t i = 0; i < res.plans.size(); ++i) {
    TQP_CHECK(cache.Derive(res.plans[i].plan, catalog, {}).ok());
    double cost = EstimatePlanCost(res.plans[i].plan, ctx, EngineConfig{});
    if (i == 0 || cost < best) best = cost;
  }
  return best;
}

}  // namespace

void CompareBestFirstAgainstExhaustive() {
  Banner("Best-first (cost-directed) search vs exhaustive (max_plans = 4000)");
  Catalog catalog = PaperCatalog();
  std::vector<Rule> rules = DefaultRuleSet();

  EnumerationOptions exhaustive_opts = bench::SearchOptions(4000);
  Result<EnumerationResult> exhaustive =
      bench::RunPaperSearch(catalog, rules, exhaustive_opts);
  TQP_CHECK(exhaustive.ok());
  double optimum = ExhaustiveOptimum(exhaustive.value(), catalog);
  std::printf("exhaustive: %zu plans, %zu expanded, optimum cost %.1f\n\n",
              exhaustive->plans.size(), exhaustive->expanded, optimum);

  std::printf("%-28s | %8s | %8s | %8s | %10s | %7s\n", "configuration",
              "plans", "expanded", "pruned", "best cost", "vs opt");
  std::printf("%s\n", std::string(84, '-').c_str());

  auto run = [&](const char* name, double factor, size_t max_expansions,
                 SearchStrategy strategy) {
    EnumerationOptions opts = bench::SearchOptions(4000, strategy);
    opts.cost_prune_factor = factor;
    opts.max_expansions = max_expansions;
    Result<EnumerationResult> res = bench::RunPaperSearch(catalog, rules, opts);
    TQP_CHECK(res.ok());
    double best = MinCost(res.value());
    std::printf("%-28s | %8zu | %8zu | %8zu | %10.1f | %6.2f%%\n", name,
                res->plans.size(), res->expanded, res->cost_pruned, best,
                100.0 * (best - optimum) / optimum);
    return res;
  };

  run("breadth-first, prune 1.5", 1.5, 0, SearchStrategy::kBreadthFirst);
  run("breadth-first, prune 1.1", 1.1, 0, SearchStrategy::kBreadthFirst);
  run("best-first, prune 4.0", 4.0, 0, SearchStrategy::kBestFirst);
  run("best-first, prune 2.0", 2.0, 0, SearchStrategy::kBestFirst);
  run("best-first, prune 1.1", 1.1, 0, SearchStrategy::kBestFirst);
  run("best-first, 40 expansions", 0.0, 40, SearchStrategy::kBestFirst);
  Result<EnumerationResult> gated =
      run("best-first, prune 1.5", 1.5, 0, SearchStrategy::kBestFirst);

  // The headline gates: within 1% of the exhaustive optimum at <= 50% of
  // the exhaustive expansion count.
  double gated_best = MinCost(gated.value());
  TQP_BENCH_GATE("within_1pct_of_optimum", gated_best <= optimum * 1.01);
  TQP_BENCH_GATE("half_the_expansions",
                 gated->expanded * 2 <= exhaustive->expanded);
  std::printf(
      "\nbest-first @ prune 1.5 reaches %.2f%% of optimum with %.0f%% of the "
      "expansions (gates: <=1%% / <=50%%)\n",
      100.0 * gated_best / optimum,
      100.0 * static_cast<double>(gated->expanded) /
          static_cast<double>(exhaustive->expanded));
  bench::SetMetric("best_cost_pct_of_optimum", 100.0 * gated_best / optimum);
  bench::SetMetric("expanded_pct_of_exhaustive",
                   100.0 * static_cast<double>(gated->expanded) /
                       static_cast<double>(exhaustive->expanded));

  // Order-independence: with unlimited budgets the frontier order cannot
  // change the closure — best-first reaches exactly the breadth-first set.
  EnumerationOptions bf_all =
      bench::SearchOptions(4000, SearchStrategy::kBestFirst);
  Result<EnumerationResult> all = bench::RunPaperSearch(catalog, rules, bf_all);
  TQP_CHECK(all.ok());
  TQP_CHECK(all->plans.size() == exhaustive->plans.size());
  std::set<uint64_t> a, b;
  for (const EnumeratedPlan& p : exhaustive->plans) a.insert(p.fingerprint);
  for (const EnumeratedPlan& p : all->plans) b.insert(p.fingerprint);
  TQP_CHECK(a == b);
  std::printf(
      "unlimited-budget best-first reaches the identical %zu-plan set\n",
      all->plans.size());
}

namespace {

void BM_Search(benchmark::State& state, SearchStrategy strategy,
               double factor) {
  Catalog catalog = PaperCatalog();
  std::vector<Rule> rules = DefaultRuleSet();
  EnumerationOptions opts = bench::SearchOptions(4000, strategy);
  opts.cost_prune_factor = factor;
  opts.fill_canonical = false;
  size_t expanded = 0, plans = 0;
  for (auto _ : state) {
    Result<EnumerationResult> res = bench::RunPaperSearch(catalog, rules, opts);
    TQP_CHECK(res.ok());
    expanded = res->expanded;
    plans = res->plans.size();
    benchmark::DoNotOptimize(res);
  }
  state.counters["plans"] = static_cast<double>(plans);
  state.counters["expanded"] = static_cast<double>(expanded);
}

void BM_BreadthFirstExhaustive(benchmark::State& state) {
  BM_Search(state, SearchStrategy::kBreadthFirst, 0.0);
}
BENCHMARK(BM_BreadthFirstExhaustive);

void BM_BestFirstPruned(benchmark::State& state) {
  BM_Search(state, SearchStrategy::kBestFirst, 1.5);
}
BENCHMARK(BM_BestFirstPruned);

}  // namespace
}  // namespace tqp

int main(int argc, char** argv) {
  tqp::bench::TimedSection("bestfirst_vs_exhaustive", [] { tqp::CompareBestFirstAgainstExhaustive(); });
  tqp::bench::WriteBenchJson("bestfirst_search");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
