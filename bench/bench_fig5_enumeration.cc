// Figure 5 reproduction: the query plan enumeration algorithm.
//
// Prints the plan-space ablation — how many plans each admitted set of
// equivalence types reaches, and how many rule applications the Table 2
// properties gate out — compares the memo-based enumerator against the seed
// implementation (identical plan set, measured speedup, interner/memo
// statistics), then benchmarks enumeration across query sizes and plan caps.
#include <benchmark/benchmark.h>

#include <chrono>
#include <set>

#include "bench_util.h"
#include "opt/enumerate.h"
#include "tql/translator.h"

namespace tqp {

using bench::Banner;

void ReproduceFigure5() {
  Banner("Figure 5 — Plan enumeration: gating ablation on the example query");
  Catalog catalog = PaperCatalog();
  std::vector<Rule> rules = DefaultRuleSet();
  using ET = EquivalenceType;

  struct Config {
    const char* name;
    std::set<ET> admitted;
  };
  std::vector<Config> configs = {
      {"=L only", {ET::kList}},
      {"+ =M", {ET::kList, ET::kMultiset}},
      {"+ =S", {ET::kList, ET::kMultiset, ET::kSet}},
      {"+ =SM", {ET::kList, ET::kMultiset, ET::kSet, ET::kSnapshotMultiset}},
      {"all six",
       {ET::kList, ET::kMultiset, ET::kSet, ET::kSnapshotList,
        ET::kSnapshotMultiset, ET::kSnapshotSet}},
  };

  std::printf("%-10s | %8s | %9s | %9s | %9s\n", "admitted", "plans",
              "matches", "admitted", "gated-out");
  std::printf("%s\n", std::string(60, '-').c_str());
  for (const Config& config : configs) {
    EnumerationOptions opts = bench::SearchOptions(100000);
    opts.admitted = config.admitted;
    Result<EnumerationResult> res = bench::RunPaperSearch(catalog, rules, opts);
    TQP_CHECK(res.ok());
    std::printf("%-10s | %8zu | %9zu | %9zu | %9zu\n", config.name,
                res->plans.size(), res->matches, res->admitted,
                res->gated_out);
  }

  std::printf(
      "\nContract ablation (all six types admitted; the contract drives the "
      "root properties):\n");
  std::printf("%-22s | %8s\n", "contract", "plans");
  std::printf("%s\n", std::string(35, '-').c_str());
  struct CC {
    const char* name;
    QueryContract contract;
  };
  std::vector<CC> contracts = {
      {"list (ORDER BY)", PaperContract()},
      {"multiset", QueryContract::Multiset()},
      {"set (DISTINCT)", QueryContract::Set()},
  };
  for (const CC& cc : contracts) {
    EnumerationOptions opts = bench::SearchOptions(100000);
    Result<EnumerationResult> res = EnumeratePlans(
        PaperInitialPlan(), catalog, cc.contract, rules, opts);
    TQP_CHECK(res.ok());
    std::printf("%-22s | %8zu\n", cc.name, res->plans.size());
  }
  std::printf("\nWeaker result types admit more transformations, exactly the "
              "paper's Section 5 story.\n");
}

// Memo-based enumeration vs the seed implementation: same plan set, same
// counters, and the measured before/after throughput at max_plans = 4000.
void CompareMemoAgainstLegacy() {
  Banner("Memo-based enumeration vs seed string-dedup (max_plans = 4000)");
  Catalog catalog = PaperCatalog();
  std::vector<Rule> rules = DefaultRuleSet();

  auto run = [&](bool legacy, int iters, EnumerationResult* out) {
    EnumerationOptions opts = bench::SearchOptions(4000);
    opts.use_legacy_string_dedup = legacy;
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      Result<EnumerationResult> res = bench::RunPaperSearch(catalog, rules, opts);
      TQP_CHECK(res.ok());
      *out = std::move(res.value());
    }
    std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    return dt.count() / iters;
  };

  EnumerationResult legacy, memo;
  // One warmup pass each, then the measured passes.
  run(true, 1, &legacy);
  run(false, 1, &memo);
  const int iters = 50;
  double legacy_s = run(true, iters, &legacy);
  double memo_s = run(false, iters, &memo);

  // The refactor must be a pure representation change: identical plan
  // sequence (count, canonical forms, derivation edges) and counters.
  TQP_CHECK(legacy.plans.size() == memo.plans.size());
  for (size_t i = 0; i < legacy.plans.size(); ++i) {
    TQP_CHECK(legacy.plans[i].canonical == memo.plans[i].canonical);
    TQP_CHECK(legacy.plans[i].rule_id == memo.plans[i].rule_id);
    TQP_CHECK(legacy.plans[i].parent == memo.plans[i].parent);
  }
  TQP_CHECK(legacy.matches == memo.matches);
  TQP_CHECK(legacy.admitted == memo.admitted);
  TQP_CHECK(legacy.gated_out == memo.gated_out);
  TQP_CHECK(legacy.truncated == memo.truncated);

  double legacy_pps = static_cast<double>(legacy.plans.size()) / legacy_s;
  double memo_pps = static_cast<double>(memo.plans.size()) / memo_s;
  std::printf("%-28s | %12s | %12s\n", "", "seed (before)", "memo (after)");
  std::printf("%s\n", std::string(60, '-').c_str());
  std::printf("%-28s | %12zu | %12zu\n", "distinct plans",
              legacy.plans.size(), memo.plans.size());
  std::printf("%-28s | %12.2f | %12.2f\n", "ms / enumeration",
              legacy_s * 1e3, memo_s * 1e3);
  std::printf("%-28s | %12.0f | %12.0f\n", "plans / second", legacy_pps,
              memo_pps);
  std::printf("%-28s | %12s | %12zu\n", "memo hits (dup candidates)", "-",
              memo.memo_hits);
  std::printf("%-28s | %12s | %12zu\n", "interner: distinct nodes", "-",
              memo.interner_nodes);
  std::printf("%-28s | %12s | %12zu\n", "interner: hits", "-",
              memo.interner_hits);
  std::printf("%-28s | %12s | %12zu\n", "derivation cache entries", "-",
              memo.cache_nodes);
  std::printf("\nplan set identical; speedup: %.2fx plans/second\n",
              memo_pps / legacy_pps);
  bench::SetMetric("distinct_plans", static_cast<double>(memo.plans.size()));
  bench::SetMetric("legacy_plans_per_s", legacy_pps);
  bench::SetMetric("memo_plans_per_s", memo_pps);
  bench::SetMetric("memo_speedup", memo_pps / legacy_pps);
}

namespace {

void BM_EnumeratePaperQuery(benchmark::State& state) {
  Catalog catalog = PaperCatalog();
  std::vector<Rule> rules = DefaultRuleSet();
  EnumerationOptions opts =
      bench::SearchOptions(static_cast<size_t>(state.range(0)));
  size_t plans = 0;
  for (auto _ : state) {
    Result<EnumerationResult> res = EnumeratePlans(
        PaperInitialPlan(), catalog, PaperContract(), rules, opts);
    TQP_CHECK(res.ok());
    plans = res->plans.size();
    benchmark::DoNotOptimize(res);
  }
  state.counters["plans"] = static_cast<double>(plans);
}
BENCHMARK(BM_EnumeratePaperQuery)->Arg(50)->Arg(200)->Arg(1000)->Arg(4000);

void BM_EnumeratePaperQueryLegacy(benchmark::State& state) {
  Catalog catalog = PaperCatalog();
  std::vector<Rule> rules = DefaultRuleSet();
  EnumerationOptions opts =
      bench::SearchOptions(static_cast<size_t>(state.range(0)));
  opts.use_legacy_string_dedup = true;
  size_t plans = 0;
  for (auto _ : state) {
    Result<EnumerationResult> res = EnumeratePlans(
        PaperInitialPlan(), catalog, PaperContract(), rules, opts);
    TQP_CHECK(res.ok());
    plans = res->plans.size();
    benchmark::DoNotOptimize(res);
  }
  state.counters["plans"] = static_cast<double>(plans);
}
BENCHMARK(BM_EnumeratePaperQueryLegacy)->Arg(1000)->Arg(4000);

void BM_EnumerateByQuerySize(benchmark::State& state) {
  // Chains of k selections over a join: plan space grows with k.
  // (EmpName is ambiguous in EMPLOYEE x PROJECT — it gets 1./2. prefixes —
  // so the projection sticks to the unambiguous attributes.)
  Catalog catalog = bench::ScaledCatalog(4);
  TranslatedQuery q =
      bench::ChainQuery(catalog, static_cast<int>(state.range(0)));
  std::vector<Rule> rules = DefaultRuleSet();
  EnumerationOptions opts = bench::SearchOptions(3000);
  size_t plans = 0;
  for (auto _ : state) {
    Result<EnumerationResult> res =
        EnumeratePlans(q.plan, catalog, q.contract, rules, opts);
    TQP_CHECK(res.ok());
    plans = res->plans.size();
  }
  state.counters["predicates"] = static_cast<double>(state.range(0));
  state.counters["plans"] = static_cast<double>(plans);
}
BENCHMARK(BM_EnumerateByQuerySize)->Arg(1)->Arg(2)->Arg(3);

}  // namespace
}  // namespace tqp

int main(int argc, char** argv) {
  tqp::bench::TimedSection("reproduce_figure5", [] { tqp::ReproduceFigure5(); });
  tqp::bench::TimedSection("memo_vs_legacy", [] { tqp::CompareMemoAgainstLegacy(); });
  tqp::bench::WriteBenchJson("fig5_enumeration");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
