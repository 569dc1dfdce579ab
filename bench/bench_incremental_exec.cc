// The incremental re-execution gate: a prepared multi-relation query
// (temporal coalesce + selective filter over a large messy relation R,
// temporal-joined against a small probe relation A) re-executed after
// single-relation catalog updates, with EngineOptions::incremental_execution
// on vs an always-cold engine.
//
// The plan pins the expensive subtree under its own transferS cut:
//
//     productT( transferS(σ_{Val>cut}(coalT(scan R))),  transferS(scan A) )
//
// so the coalesce of R — the dominant cost — depends only on R. Updating A
// invalidates the A-side cut and the root, but the R-side result splices
// from the versioned subplan cache byte-for-byte.
//
// Gates (TQP_CHECKed, CI-enforced):
//
//   * byte identity: after every update, the incremental engine's relation
//     is list-identical (bytes, order annotation, plan fingerprint) to the
//     cold engine's from-scratch execution — both executors, serial and
//     4-thread vexec, scramble off and on, under every scramble seed;
//   * re-execution speedup: updating A re-executes >= 5x faster on the
//     incremental engine than on the cold one, for the reference executor
//     and for vexec at 1 and 4 threads. The speedup gate arms only in
//     optimized, unsanitized builds; the identity gates always run. The
//     untimed prime builds R's columnar twin (Catalog::Columns), which both
//     engines share (their catalogs are copies of one base). Each update
//     of A gives each engine a fresh A twin, so a timed vectorized run
//     builds only its 24-row A twin; the cold engine's scan of R shares
//     the built R twin.
//
// Headline numbers go to BENCH_incremental_exec.json via bench::SetMetric.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "api/engine.h"
#include "bench_util.h"

namespace tqp {

using bench::Banner;
using bench::Row;

using bench::BuiltWithSanitizers;
using bench::OptimizedBuild;

namespace {

double Seconds(std::chrono::steady_clock::time_point t0) {
  std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  return dt.count();
}

/// The small, frequently-updated probe side: two dozen long periods.
Relation ProbeRelation(uint64_t seed) {
  RelationGenParams a;
  a.cardinality = 24;
  a.num_names = 8;
  a.num_categories = 4;
  a.time_horizon = 4000;
  a.max_period_length = 400;  // long probe periods
  a.seed = seed;
  return GenerateRelation(a);
}

/// R: a large messy temporal relation (duplicates, coalescible adjacency,
/// snapshot overlaps). A: the small probe relation.
Catalog GateCatalog(size_t base_cardinality, uint64_t seed) {
  RelationGenParams r;
  r.cardinality = base_cardinality;
  r.num_names = std::max<size_t>(8, base_cardinality / 16);
  r.num_categories = 16;
  r.num_values = 1000;
  r.time_horizon = 4000;
  r.max_period_length = 50;
  r.duplicate_fraction = 0.05;
  r.adjacency_fraction = 0.35;
  r.overlap_fraction = 0.10;
  r.seed = seed;

  Catalog catalog;
  TQP_CHECK(catalog
                .RegisterWithInferredFlags("R", GenerateRelation(r),
                                           Site::kDbms)
                .ok());
  TQP_CHECK(catalog
                .RegisterWithInferredFlags("A", ProbeRelation(seed + 1),
                                           Site::kDbms)
                .ok());
  return catalog;
}

/// productT(transferS(σ_{Val>985}(coalT(R))), transferS(A)). The selection
/// keeps the coalesce expensive but the join input small, so the work saved
/// by splicing the R-side cut dominates the work that must recompute.
PlanPtr GatePlan() {
  ExprPtr pred = Expr::Compare(CompareOp::kGt, Expr::Attr("Val"),
                               Expr::Const(Value::Int(985)));
  return PlanNode::ProductT(
      PlanNode::TransferS(
          PlanNode::Select(PlanNode::Coalesce(PlanNode::Scan("R")), pred)),
      PlanNode::TransferS(PlanNode::Scan("A")));
}

struct GateConfig {
  const char* label;
  ExecutorKind executor;
  size_t threads;
};

const GateConfig kConfigs[] = {
    {"ref_t1", ExecutorKind::kReference, 1},
    {"vec_t1", ExecutorKind::kVectorized, 1},
    {"vec_t4", ExecutorKind::kVectorized, 4},
};

EngineOptions GateOptions(const GateConfig& config, bool incremental,
                          bool scramble, uint64_t scramble_seed) {
  EngineOptions options;
  // The hand-built plan IS the plan under test: what this bench measures is
  // the cache cut, not the search. One considered plan keeps re-prepare
  // cost symmetric and negligible on both engines.
  options.enumeration.max_plans = 1;
  options.engine.dbms_scrambles_order = scramble;
  options.engine.scramble_seed = scramble_seed;
  options.executor = config.executor;
  options.vexec_threads = config.threads;
  options.incremental_execution = incremental;
  return options;
}

void CheckIdentical(const QueryResult& inc, const QueryResult& cold,
                    const char* label) {
  TQP_CHECK(inc.relation.schema() == cold.relation.schema());
  TQP_CHECK(inc.relation.size() == cold.relation.size());
  for (size_t i = 0; i < inc.relation.size(); ++i) {
    TQP_CHECK(inc.relation.tuple(i) == cold.relation.tuple(i));
  }
  TQP_CHECK(SortSpecToString(inc.relation.order()) ==
            SortSpecToString(cold.relation.order()));
  TQP_CHECK(inc.plan_fingerprint == cold.plan_fingerprint);
  (void)label;
}

Status UpdateProbe(Catalog& catalog, uint64_t seed) {
  CatalogEntry entry;
  entry.data = ProbeRelation(seed);
  return catalog.Update("A", std::move(entry));
}

}  // namespace

// Identity under every configuration: both executors, serial and 4-thread
// vexec, scramble off/on, several scramble seeds. Small scale — this sweep
// also runs under ASan/TSan, where the speedup gate is disarmed.
void GateIncrementalIdentity() {
  Banner("incremental exec — byte-identity sweep (update A, splice R cut)");
  const QueryContract contract = QueryContract::Multiset();
  for (const GateConfig& config : kConfigs) {
    for (bool scramble : {false, true}) {
      for (uint64_t seed : {0x5eedULL, 0xabcdefULL, 0x7777ULL}) {
        Catalog base = GateCatalog(2000, 7);
        Engine inc(base, GateOptions(config, /*incremental=*/true, scramble,
                                     seed));
        Engine cold(base, GateOptions(config, /*incremental=*/false,
                                      scramble, seed));
        Result<PreparedQuery> pi = inc.Prepare(GatePlan(), contract);
        Result<PreparedQuery> pc = cold.Prepare(GatePlan(), contract);
        TQP_CHECK(pi.ok() && pc.ok());
        PreparedQuery qi = pi.value();
        PreparedQuery qc = pc.value();

        // Prime, then three single-relation updates.
        Result<QueryResult> ri = qi.Execute();
        Result<QueryResult> rc = qc.Execute();
        TQP_CHECK(ri.ok() && rc.ok());
        CheckIdentical(ri.value(), rc.value(), config.label);
        for (int iter = 1; iter <= 3; ++iter) {
          const uint64_t data_seed = seed * 131 + iter;
          auto mutate = [&](Catalog& c) { return UpdateProbe(c, data_seed); };
          TQP_CHECK(inc.MutateCatalog(mutate).ok());
          TQP_CHECK(cold.MutateCatalog(mutate).ok());
          ri = qi.Execute();
          rc = qc.Execute();
          TQP_CHECK(ri.ok() && rc.ok());
          CheckIdentical(ri.value(), rc.value(), config.label);
          // The R-side cut must actually have spliced from the cache.
          TQP_CHECK(ri->exec.result_cache_hits > 0);
          TQP_CHECK(rc->exec.result_cache_hits == 0);
        }
      }
    }
  }
  std::printf("identity gates PASSED: both executors, 1 and 4 threads, "
              "scramble off/on, 3 seeds.\n");
}

// The speedup gate: per update of A, the incremental engine re-executes
// >= 5x faster than the always-cold engine, byte-identically.
void GateIncrementalSpeedup() {
  Banner("incremental exec — re-execution speedup after updating A");
  constexpr size_t kBaseCardinality = 120000;
  constexpr int kIters = 5;
  const QueryContract contract = QueryContract::Multiset();

  std::printf("%-8s | %14s | %14s | %8s\n", "config", "incremental ms",
              "cold ms", "speedup");
  std::printf("%s\n", std::string(54, '-').c_str());

  double min_speedup = 0.0;
  for (const GateConfig& config : kConfigs) {
    Catalog base = GateCatalog(kBaseCardinality, 42);
    Engine inc(base, GateOptions(config, /*incremental=*/true,
                                 /*scramble=*/false, 0));
    Engine cold(base, GateOptions(config, /*incremental=*/false,
                                  /*scramble=*/false, 0));
    Result<PreparedQuery> pi = inc.Prepare(GatePlan(), contract);
    Result<PreparedQuery> pc = cold.Prepare(GatePlan(), contract);
    TQP_CHECK(pi.ok() && pc.ok());
    PreparedQuery qi = pi.value();
    PreparedQuery qc = pc.value();

    // Prime both engines (untimed): populates the incremental engine's
    // result cache and pays both sides' one-time warmup, including the
    // build of R's columnar twin under vexec.
    Result<QueryResult> ri = qi.Execute();
    Result<QueryResult> rc = qc.Execute();
    TQP_CHECK(ri.ok() && rc.ok());
    CheckIdentical(ri.value(), rc.value(), config.label);

    double inc_s = 0.0;
    double cold_s = 0.0;
    for (int iter = 1; iter <= kIters; ++iter) {
      const uint64_t data_seed = 9000 + iter;
      auto mutate = [&](Catalog& c) { return UpdateProbe(c, data_seed); };
      TQP_CHECK(inc.MutateCatalog(mutate).ok());
      TQP_CHECK(cold.MutateCatalog(mutate).ok());

      auto t0 = std::chrono::steady_clock::now();
      ri = qi.Execute();
      inc_s += Seconds(t0);
      t0 = std::chrono::steady_clock::now();
      rc = qc.Execute();
      cold_s += Seconds(t0);

      TQP_CHECK(ri.ok() && rc.ok());
      CheckIdentical(ri.value(), rc.value(), config.label);
      TQP_CHECK(ri->exec.result_cache_hits > 0);
    }
    inc_s /= kIters;
    cold_s /= kIters;
    const double speedup = cold_s / inc_s;
    std::printf("%-8s | %14.2f | %14.2f | %7.2fx\n", config.label,
                inc_s * 1e3, cold_s * 1e3, speedup);
    bench::SetMetric(std::string(config.label) + "_incremental_ms",
                     inc_s * 1e3);
    bench::SetMetric(std::string(config.label) + "_cold_ms", cold_s * 1e3);
    bench::SetMetric(std::string(config.label) + "_speedup", speedup);
    if (min_speedup == 0.0 || speedup < min_speedup) min_speedup = speedup;

    EngineStats stats = inc.stats();
    bench::SetMetric(std::string(config.label) + "_result_cache_hits",
                     static_cast<double>(stats.result_cache_hits));
    bench::SetMetric(std::string(config.label) + "_result_cache_misses",
                     static_cast<double>(stats.result_cache_misses));
    bench::SetMetric(std::string(config.label) + "_result_cache_bytes",
                     static_cast<double>(stats.result_cache_bytes));
    if (config.executor == ExecutorKind::kVectorized &&
        config.threads == 4) {
      bench::SetJsonMetric("incremental_engine_stats", stats.ToJson());
    }
  }
  bench::SetMetric("min_speedup", min_speedup);

  if (!OptimizedBuild() || BuiltWithSanitizers()) {
    std::printf("speedup gate SKIPPED (optimized=%d, sanitizers=%d) — the "
                "gate needs an optimized, unsanitized build.\n",
                OptimizedBuild() ? 1 : 0, BuiltWithSanitizers() ? 1 : 0);
    return;
  }
  // The acceptance gate: >= 5x on every configuration.
  TQP_BENCH_GATE("min_speedup", min_speedup >= 5.0);
  std::printf("speedup gate PASSED: min %.2fx >= 5x.\n", min_speedup);
}

namespace {

void BM_IncrementalReexecute(benchmark::State& state) {
  Catalog base = GateCatalog(static_cast<size_t>(state.range(0)), 42);
  Engine engine(base, GateOptions(kConfigs[0], /*incremental=*/true,
                                  /*scramble=*/false, 0));
  Result<PreparedQuery> prepared =
      engine.Prepare(GatePlan(), QueryContract::Multiset());
  TQP_CHECK(prepared.ok());
  PreparedQuery query = prepared.value();
  TQP_CHECK(query.Execute().ok());  // prime
  uint64_t data_seed = 50000;
  for (auto _ : state) {
    const uint64_t seed = ++data_seed;
    TQP_CHECK(
        engine.MutateCatalog([&](Catalog& c) { return UpdateProbe(c, seed); })
            .ok());
    Result<QueryResult> r = query.Execute();
    TQP_CHECK(r.ok());
    benchmark::DoNotOptimize(r);
  }
  state.counters["cache_hits"] =
      static_cast<double>(engine.stats().result_cache_hits);
}
BENCHMARK(BM_IncrementalReexecute)->Arg(4000)->Arg(20000);

}  // namespace
}  // namespace tqp

int main(int argc, char** argv) {
  tqp::bench::TimedSection("identity", [] { tqp::GateIncrementalIdentity(); });
  tqp::bench::TimedSection("speedup", [] { tqp::GateIncrementalSpeedup(); });
  tqp::bench::WriteBenchJson("incremental_exec");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
