// Best-first (cost-directed) plan search with its payoff rule vs the
// exhaustive Figure 5 loop.
//
// The paper's Figure 5 enumerates the equivalence class breadth-first and
// leaves open how long a cost-based optimizer should search.
// SearchStrategy::kBestFirst, the Engine's default, orders the frontier by
// estimated plan cost and stops once the search's work (admitted plan nodes
// × kSearchCostPerNode) exceeds the cheapest estimated cost admitted so
// far. This bench gates:
//
//   * deterministically, in every build: on the paper query over
//     ScaledEmployee/ScaledProject(16000), where every plan costs far more
//     than the search, the payoff search reaches the identical 174-plan set
//     as breadth-first and the exhaustive optimum; on PaperCatalog() it
//     stops at exactly the admission the rule names;
//   * in optimized unsanitized builds only: a 400-way UNION ALL chain
//     prepares through a default Engine in under 10x its execution time.
//
// It also prints, ungated, the two rates the payoff constant trades — search
// time per admitted node and execution time per estimated cost unit — on
// the scaled paper query, so the constant can be re-measured.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>

#include "algebra/intern.h"
#include "api/engine.h"
#include "bench_util.h"
#include "opt/enumerate.h"
#include "opt/optimizer.h"

namespace tqp {

using bench::Banner;

namespace {

double Ms(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

std::set<uint64_t> Fingerprints(const EnumerationResult& res) {
  std::set<uint64_t> out;
  for (const EnumeratedPlan& p : res.plans) out.insert(p.fingerprint);
  return out;
}

/// Exhaustive optimum: every plan costed independently of the search.
double Optimum(const EnumerationResult& res, const Catalog& catalog) {
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

/// The admission at which the payoff rule fires on `res`, recomputed from
/// the rule's definition; plans.size() if it never fires.
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

std::string UnionAllChain(size_t unions) {
  const std::string stmt = "SELECT EmpName FROM EMPLOYEE";
  std::string out = stmt;
  for (size_t i = 0; i < unions; ++i) out += " UNION ALL " + stmt;
  return out;
}

}  // namespace

void PayoffSearchAgainstExhaustive() {
  Banner("Payoff-bounded best-first search vs exhaustive breadth-first");
  std::vector<Rule> rules = DefaultRuleSet();
  std::printf("payoff constant: %.1f cost units per admitted plan node\n\n",
              kSearchCostPerNode);
  std::printf("%-26s | %6s | %8s | %9s | %14s | %14s\n", "search", "plans",
              "expanded", "stop", "best cost", "optimum");
  std::printf("%s\n", std::string(92, '-').c_str());
  auto row = [](const char* name, const EnumerationResult& res, double best,
                double optimum) {
    std::printf("%-26s | %6zu | %8zu | %9s | %14.1f | %14.1f\n", name,
                res.plans.size(), res.expanded, SearchStopName(res.stop),
                best, optimum);
  };

  // Scaled relations: the rule never fires before the closure is complete.
  const Catalog scaled = bench::ScaledCatalog(16000);
  Result<EnumerationResult> exhaustive = bench::RunPaperSearch(
      scaled, rules, bench::SearchOptions(4000, SearchStrategy::kBreadthFirst));
  Result<EnumerationResult> payoff = bench::RunPaperSearch(
      scaled, rules, bench::SearchOptions(4000, SearchStrategy::kBestFirst));
  TQP_CHECK(exhaustive.ok() && payoff.ok());
  const double optimum = Optimum(exhaustive.value(), scaled);
  const double payoff_best =
      *std::min_element(payoff->costs.begin(), payoff->costs.end());
  row("scaled 16000, breadth", exhaustive.value(), optimum, optimum);
  row("scaled 16000, payoff", payoff.value(), payoff_best, optimum);
  TQP_BENCH_GATE("scaled_reaches_the_closure",
                 payoff->stop == SearchStop::kDrained &&
                     payoff->plans.size() == 174 &&
                     Fingerprints(payoff.value()) ==
                         Fingerprints(exhaustive.value()));
  TQP_BENCH_GATE("scaled_reaches_the_optimum",
                 std::abs(payoff_best - optimum) <= 1e-9 * optimum);

  // The paper's tiny relations: the cheapest plan costs less than searching
  // the closure, so the rule stops the search where its definition says.
  const Catalog paper = PaperCatalog();
  Result<EnumerationResult> paper_all = bench::RunPaperSearch(
      paper, rules, bench::SearchOptions(4000, SearchStrategy::kBreadthFirst));
  Result<EnumerationResult> paper_payoff = bench::RunPaperSearch(
      paper, rules, bench::SearchOptions(4000, SearchStrategy::kBestFirst));
  TQP_CHECK(paper_all.ok() && paper_payoff.ok());
  const double paper_optimum = Optimum(paper_all.value(), paper);
  const double paper_best = *std::min_element(paper_payoff->costs.begin(),
                                              paper_payoff->costs.end());
  row("paper, breadth", paper_all.value(), paper_optimum, paper_optimum);
  row("paper, payoff", paper_payoff.value(), paper_best, paper_optimum);
  TQP_BENCH_GATE("paper_stops_where_the_rule_says",
                 paper_payoff->stop == SearchStop::kPayoff &&
                     PayoffAdmission(paper_payoff.value()) ==
                         paper_payoff->plans.size() - 1);
  bench::SetMetric("paper_payoff_plans",
                   static_cast<double>(paper_payoff->plans.size()));
  bench::SetMetric("paper_payoff_search_work",
                   static_cast<double>(paper_payoff->search_work));
  bench::SetMetric("paper_payoff_cost_pct_of_optimum",
                   100.0 * paper_best / paper_optimum);

  // The two rates the constant trades, on the scaled paper query: a
  // best-first search's wall time per admitted node, and the reference
  // evaluator's wall time per estimated cost unit of the chosen plan.
  auto t0 = std::chrono::steady_clock::now();
  Result<EnumerationResult> timed = bench::RunPaperSearch(
      scaled, rules, bench::SearchOptions(4000, SearchStrategy::kBestFirst));
  const double search_ms = Ms(std::chrono::steady_clock::now() - t0);
  TQP_CHECK(timed.ok());
  const size_t best_index = static_cast<size_t>(
      std::min_element(timed->costs.begin(), timed->costs.end()) -
      timed->costs.begin());
  Result<AnnotatedPlan> ann = AnnotatedPlan::Make(
      timed->plans[best_index].plan, &scaled, PaperContract());
  TQP_CHECK(ann.ok());
  t0 = std::chrono::steady_clock::now();
  TQP_CHECK(Evaluate(ann.value(), EngineConfig{}).ok());
  const double exec_ms = Ms(std::chrono::steady_clock::now() - t0);
  const double ns_per_node =
      search_ms * 1e6 / static_cast<double>(timed->search_work);
  const double ns_per_unit = exec_ms * 1e6 / timed->costs[best_index];
  std::printf(
      "\nscaled paper query: %.0f ns of search per admitted node, %.1f ns of "
      "execution per cost unit (%.1f cost units per node; the constant is "
      "%.1f)\n",
      ns_per_node, ns_per_unit, ns_per_node / ns_per_unit, kSearchCostPerNode);
  bench::SetMetric("search_ns_per_node", ns_per_node);
  bench::SetMetric("exec_ns_per_cost_unit", ns_per_unit);
}

void ChainPreparesInLessThanItsExecution() {
  Banner("400-way UNION ALL chain: prepare vs execute (default Engine)");
  const std::string text = UnionAllChain(400);
  double prepare_ms = 0.0, execute_ms = 0.0;
  size_t plans = 0;
  // Best of three, each prepare on a fresh engine (no plan-cache hit).
  for (int run = 0; run < 3; ++run) {
    Engine engine(PaperCatalog());
    auto t0 = std::chrono::steady_clock::now();
    Result<PreparedQuery> prepared = engine.Prepare(text);
    const double p_ms = Ms(std::chrono::steady_clock::now() - t0);
    TQP_CHECK(prepared.ok());
    PreparedQuery query = prepared.value();
    t0 = std::chrono::steady_clock::now();
    TQP_CHECK(query.Execute().ok());
    const double e_ms = Ms(std::chrono::steady_clock::now() - t0);
    prepare_ms = run == 0 ? p_ms : std::min(prepare_ms, p_ms);
    execute_ms = run == 0 ? e_ms : std::min(execute_ms, e_ms);
    plans = query.plans_considered();
  }
  std::printf("prepare %.2f ms (%zu plans), execute %.2f ms: %.2fx\n",
              prepare_ms, plans, execute_ms, prepare_ms / execute_ms);
  bench::SetMetric("chain400_prepare_ms", prepare_ms);
  bench::SetMetric("chain400_execute_ms", execute_ms);
  bench::SetMetric("chain400_plans", static_cast<double>(plans));
  if (bench::OptimizedBuild() && !bench::BuiltWithSanitizers()) {
    TQP_BENCH_GATE("chain400_prepare_under_10x_execute",
                   prepare_ms < 10.0 * execute_ms);
  } else {
    std::printf("(timing gate skipped: not an optimized unsanitized build)\n");
  }
}

namespace {

void BM_Search(benchmark::State& state, SearchStrategy strategy) {
  Catalog catalog = PaperCatalog();
  std::vector<Rule> rules = DefaultRuleSet();
  EnumerationOptions opts = bench::SearchOptions(4000, strategy);
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
  BM_Search(state, SearchStrategy::kBreadthFirst);
}
BENCHMARK(BM_BreadthFirstExhaustive);

void BM_BestFirstPayoff(benchmark::State& state) {
  BM_Search(state, SearchStrategy::kBestFirst);
}
BENCHMARK(BM_BestFirstPayoff);

}  // namespace
}  // namespace tqp

int main(int argc, char** argv) {
  tqp::bench::TimedSection("payoff_vs_exhaustive",
                           [] { tqp::PayoffSearchAgainstExhaustive(); });
  tqp::bench::TimedSection("chain400",
                           [] { tqp::ChainPreparesInLessThanItsExecution(); });
  tqp::bench::WriteBenchJson("bestfirst_search");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
