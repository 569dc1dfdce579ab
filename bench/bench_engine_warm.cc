// Repeated-query throughput through the tqp::Engine facade: cold (a fresh
// engine per query — full parse + Figure 5 enumeration + costing every time)
// vs warm (one session engine — plan-cache hits). Reports queries/second and
// the session counters, and checks the acceptance bar: warm repeated-query
// throughput >= 5x cold on the paper's running example, with byte-identical
// results.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>

#include "api/engine.h"
#include "bench_util.h"

namespace tqp {

using bench::Banner;

namespace {

double Seconds(std::chrono::steady_clock::time_point t0) {
  std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  return dt.count();
}

}  // namespace

// The headline comparison: the same query served repeatedly, cold vs warm.
void CompareWarmAgainstCold() {
  Banner("Engine warm-path throughput — repeated paper query, cold vs warm");
  const std::string query = PaperQueryText();
  const int iters = 30;
  // Built once and copied per engine, so neither side's timing includes
  // relation construction/verification — only query serving.
  const Catalog base = PaperCatalog();

  // Cold: a fresh Engine (empty caches) per query.
  Result<QueryResult> cold_result = Engine(base).Query(query);
  TQP_CHECK(cold_result.ok());
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    Engine engine(base);
    Result<QueryResult> r = engine.Query(query);
    TQP_CHECK(r.ok());
  }
  double cold_s = Seconds(t0) / iters;

  // Warm: one session Engine; every run after the first is a plan-cache hit.
  Engine engine(base);
  Result<QueryResult> warm_result = engine.Query(query);
  TQP_CHECK(warm_result.ok() && !warm_result->plan_cache_hit);
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    warm_result = engine.Query(query);
    TQP_CHECK(warm_result.ok());
  }
  double warm_s = Seconds(t0) / iters;
  TQP_CHECK(warm_result->plan_cache_hit);

  // Warmth must never change the answer: byte-identical relation, same
  // chosen plan, same costs.
  TQP_CHECK(warm_result->relation.ToTable() == cold_result->relation.ToTable());
  TQP_CHECK(warm_result->plan_fingerprint == cold_result->plan_fingerprint);
  TQP_CHECK(warm_result->best_cost == cold_result->best_cost);

  // The deterministic form of the same property: one optimize pipeline
  // served every warm run, all from the plan cache.
  EngineStats stats = engine.stats();
  TQP_CHECK(stats.prepares == 1);
  TQP_CHECK(stats.plan_cache_hits == static_cast<uint64_t>(iters));

  std::printf("%-34s | %12s | %12s\n", "", "cold", "warm");
  std::printf("%s\n", std::string(64, '-').c_str());
  std::printf("%-34s | %12.3f | %12.3f\n", "ms / query", cold_s * 1e3,
              warm_s * 1e3);
  std::printf("%-34s | %12.0f | %12.0f\n", "queries / second", 1.0 / cold_s,
              1.0 / warm_s);
  std::printf("%-34s | %12s | %12llu\n", "plan cache hits", "-",
              static_cast<unsigned long long>(stats.plan_cache_hits));
  std::printf("%-34s | %12s | %12llu\n", "optimize pipelines run", "-",
              static_cast<unsigned long long>(stats.prepares));
  std::printf("%-34s | %12s | %12zu\n", "search interner nodes (total)", "-",
              stats.interner_nodes);
  std::printf("%-34s | %12s | %12zu\n", "search derivation entries (total)",
              "-", stats.derivation_nodes);
  double speedup = cold_s / warm_s;
  bench::SetMetric("cold_ms_per_query", cold_s * 1e3);
  bench::SetMetric("warm_ms_per_query", warm_s * 1e3);
  bench::SetMetric("warm_speedup", speedup);
  std::printf("\nresults byte-identical; warm speedup: %.1fx queries/second\n",
              speedup);
  TQP_BENCH_GATE("warm_speedup", speedup >= 5.0);
}

namespace {

void BM_ColdQuery(benchmark::State& state) {
  const std::string query = PaperQueryText();
  for (auto _ : state) {
    Engine engine(PaperCatalog());
    Result<QueryResult> r = engine.Query(query);
    TQP_CHECK(r.ok());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ColdQuery);

void BM_WarmQuery(benchmark::State& state) {
  const std::string query = PaperQueryText();
  Engine engine(PaperCatalog());
  TQP_CHECK(engine.Query(query).ok());  // prime
  for (auto _ : state) {
    Result<QueryResult> r = engine.Query(query);
    TQP_CHECK(r.ok());
    benchmark::DoNotOptimize(r);
  }
  state.counters["cache_hits"] =
      static_cast<double>(engine.stats().plan_cache_hits);
}
BENCHMARK(BM_WarmQuery);

void BM_PreparedExecute(benchmark::State& state) {
  // The prepared-statement path: no cache probe, no parsing — just
  // annotation reuse + evaluation.
  Engine engine(PaperCatalog());
  Result<PreparedQuery> prepared = engine.Prepare(PaperQueryText());
  TQP_CHECK(prepared.ok());
  for (auto _ : state) {
    Result<QueryResult> r = prepared.value().Execute();
    TQP_CHECK(r.ok());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PreparedExecute);

}  // namespace
}  // namespace tqp

int main(int argc, char** argv) {
  tqp::bench::TimedSection("warm_vs_cold", [] { tqp::CompareWarmAgainstCold(); });
  tqp::bench::WriteBenchJson("engine_warm");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
