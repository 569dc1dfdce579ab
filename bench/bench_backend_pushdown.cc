// Backend pushdown: executing the maximal conventional subplan under a
// transferS cut inside the DBMS (SQLite) instead of the stratum.
//
// Two claims are gated:
//  1. On a selective filter over a join, SQL pushdown beats in-engine
//     evaluation end-to-end: the stratum materializes every product pair
//     before filtering, while the DBMS streams pairs through its join
//     machinery with the predicate applied in place. Results must stay
//     byte-identical (pushdown is an execution strategy, never a semantics
//     change).
//  2. The calibrated cost model steers the optimizer's transfer placement:
//     a measured-fast backend keeps the conventional operators below the
//     cut (pushdown-friendly plans); a measured-slow backend makes the
//     optimizer hoist the work into the stratum. The placement flip is
//     deterministic and always checked; the wall-clock gate arms only in
//     optimized, unsanitized builds.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "backend/sqlite_backend.h"
#include "bench_util.h"
#include "opt/optimizer.h"
#include "tql/translator.h"

namespace tqp {

using bench::Banner;

namespace {

double Seconds(std::chrono::steady_clock::time_point t0) {
  std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  return dt.count();
}

Relation BigConventional(uint64_t seed, size_t n) {
  RelationGenParams p;
  p.cardinality = n;
  p.num_names = 40;
  p.num_categories = 3;
  p.duplicate_fraction = 0.1;
  p.temporal = false;
  p.seed = seed;
  return GenerateRelation(p);
}

Catalog PushdownCatalog() {
  Catalog catalog;
  TQP_CHECK(catalog
                .RegisterWithInferredFlags("Big", BigConventional(17, 1500),
                                           Site::kDbms)
                .ok());
  TQP_CHECK(catalog
                .RegisterWithInferredFlags("Dim", BigConventional(23, 400),
                                           Site::kDbms)
                .ok());
  return catalog;
}

/// σ(Big × ρ(Dim)) under the transferS cut: ~600k product pairs, a few
/// percent surviving the filter.
PlanPtr SelectiveJoinPlan() {
  std::vector<ProjItem> renamed = {ProjItem::Rename("Name", "DName"),
                                   ProjItem::Rename("Cat", "DCat"),
                                   ProjItem::Rename("Val", "DVal")};
  ExprPtr pred = Expr::And(
      Expr::Compare(CompareOp::kLt, Expr::Attr("Cat"),
                    Expr::Const(Value::Int(1))),
      Expr::Compare(CompareOp::kGt, Expr::Attr("DVal"),
                    Expr::Const(Value::Int(950))));
  return PlanNode::TransferS(PlanNode::Select(
      PlanNode::Product(PlanNode::Scan("Big"),
                        PlanNode::Project(PlanNode::Scan("Dim"), renamed)),
      pred));
}

}  // namespace

void ComparePushdownAgainstInEngine() {
  Banner("Backend pushdown — selective filter over join, SQLite vs in-engine");
  if (!SqliteBackend::Available()) {
    std::printf("sqlite3 not available in this build; section skipped\n");
    bench::SetMetric("sqlite_available", 0.0);
    return;
  }
  bench::SetMetric("sqlite_available", 1.0);

  Catalog catalog = PushdownCatalog();
  PlanPtr plan = SelectiveJoinPlan();
  const int iters = 3;

  // In-engine reference: the stratum evaluates the whole subtree itself.
  EngineConfig ref_cfg;
  ExecStats ref_stats;
  Result<Relation> ref = EvaluatePlan(plan, catalog, ref_cfg, &ref_stats);
  TQP_CHECK(ref.ok());
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    TQP_CHECK(EvaluatePlan(plan, catalog, ref_cfg, nullptr).ok());
  }
  double ref_s = Seconds(t0) / iters;

  // Pushdown: the same plan with the SQLite backend active. Warm up once so
  // the timed runs measure execution, not the one-time catalog mirror.
  Result<std::unique_ptr<Backend>> be = MakeBackend(BackendKind::kSqlite);
  TQP_CHECK(be.ok());
  EngineConfig push_cfg;
  push_cfg.backend = be.value().get();
  ExecStats push_stats;
  Result<Relation> pushed = EvaluatePlan(plan, catalog, push_cfg, &push_stats);
  TQP_CHECK(pushed.ok());
  TQP_CHECK(push_stats.backend_pushdowns == 1);
  TQP_CHECK(push_stats.backend_fallbacks == 0);
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    TQP_CHECK(EvaluatePlan(plan, catalog, push_cfg, nullptr).ok());
  }
  double push_s = Seconds(t0) / iters;

  // Strategy, not semantics: byte-identical result lists.
  TQP_CHECK(ref.value().ToTable() == pushed.value().ToTable());

  double speedup = ref_s / push_s;
  std::printf("%-34s | %12.1f ms\n", "in-engine (stratum evaluates)",
              ref_s * 1e3);
  std::printf("%-34s | %12.1f ms\n", "pushed down (SQLite executes)",
              push_s * 1e3);
  std::printf("%-34s | %12zu rows\n", "cut-point result",
              pushed.value().size());
  std::printf("%-34s | %12.2fx\n", "pushdown speedup", speedup);
  bench::SetMetric("in_engine_ms", ref_s * 1e3);
  bench::SetMetric("pushdown_ms", push_s * 1e3);
  bench::SetMetric("pushdown_speedup", speedup);
  bench::SetMetric("cut_rows", static_cast<double>(pushed.value().size()));
  bench::SetJsonMetric("pushdown_exec", push_stats.ToJson());

  if (bench::OptimizedBuild() && !bench::BuiltWithSanitizers()) {
    TQP_BENCH_GATE("pushdown_speedup", speedup >= 1.2);
  }
}

namespace {

/// Conventional (non-scan, non-transfer) operators the best plan places at
/// the DBMS site — the measure of how much work the optimizer pushes below
/// the cut.
size_t DbmsOpsInBestPlan(const Catalog& catalog, const TranslatedQuery& q,
                         const EngineConfig& engine, double* cost) {
  OptimizerOptions options;
  options.engine = engine;
  options.enumeration.max_plans = 2500;
  Result<OptimizeResult> opt =
      Optimize(q.plan, catalog, q.contract, DefaultRuleSet(), options);
  TQP_CHECK(opt.ok());
  *cost = opt->best_cost;
  Result<AnnotatedPlan> ann =
      AnnotatedPlan::Make(opt->best_plan, &catalog, q.contract);
  TQP_CHECK(ann.ok());
  std::vector<PlanPtr> nodes;
  CollectNodes(opt->best_plan, &nodes);
  size_t at_dbms = 0;
  for (const PlanPtr& n : nodes) {
    if (n->kind() == OpKind::kScan || n->kind() == OpKind::kTransferS ||
        n->kind() == OpKind::kTransferD) {
      continue;
    }
    if (ann->info(n.get()).site == Site::kDbms) ++at_dbms;
  }
  return at_dbms;
}

}  // namespace

void CompareCalibratedPlacement() {
  Banner("Calibrated costs steer transfer placement — slow vs fast backend");
  Catalog catalog = PushdownCatalog();
  Result<TranslatedQuery> q = CompileQuery(
      "SELECT DISTINCT Name FROM Big WHERE Val > 500 ORDER BY Name ASC",
      catalog);
  TQP_CHECK(q.ok());

  EngineConfig base;

  // Synthetic measured profiles: the same backend interface can report a
  // DBMS that is much slower or much faster than the constant model assumes.
  BackendCostProfile slow;
  slow.calibrated = true;
  slow.fingerprint = 1;
  slow.transfer_cost_per_tuple = base.transfer_cost_per_tuple;
  BackendCostProfile fast = slow;
  fast.fingerprint = 2;
  for (int k = 0; k < kOpKindCount; ++k) {
    slow.dbms_op_factor[k] = 64.0;
    fast.dbms_op_factor[k] = 1.0 / 16.0;
  }

  double cost_base = 0.0, cost_slow = 0.0, cost_fast = 0.0;
  size_t ops_base = DbmsOpsInBestPlan(catalog, q.value(), base, &cost_base);
  EngineConfig slow_cfg = base;
  slow_cfg.calibration = &slow;
  size_t ops_slow = DbmsOpsInBestPlan(catalog, q.value(), slow_cfg, &cost_slow);
  EngineConfig fast_cfg = base;
  fast_cfg.calibration = &fast;
  size_t ops_fast = DbmsOpsInBestPlan(catalog, q.value(), fast_cfg, &cost_fast);

  std::printf("%-22s | %16s | %12s\n", "calibration", "DBMS-site ops",
              "best cost");
  std::printf("%s\n", std::string(56, '-').c_str());
  std::printf("%-22s | %16zu | %12.0f\n", "none (constants)", ops_base,
              cost_base);
  std::printf("%-22s | %16zu | %12.0f\n", "slow backend (x64)", ops_slow,
              cost_slow);
  std::printf("%-22s | %16zu | %12.0f\n", "fast backend (/16)", ops_fast,
              cost_fast);
  bench::SetMetric("dbms_ops_uncalibrated", static_cast<double>(ops_base));
  bench::SetMetric("dbms_ops_slow_backend", static_cast<double>(ops_slow));
  bench::SetMetric("dbms_ops_fast_backend", static_cast<double>(ops_fast));
  bench::SetMetric("best_cost_slow_backend", cost_slow);
  bench::SetMetric("best_cost_fast_backend", cost_fast);

  // The deterministic flip (always gated): a measured-fast backend keeps
  // strictly more conventional work below the cut than a measured-slow one,
  // which pushes the transfer down toward the scans.
  TQP_CHECK(ops_fast > ops_slow);
  TQP_CHECK(ops_fast >= ops_base);
  std::printf(
      "\nplacement flip: fast backend keeps %zu conventional ops at the "
      "DBMS, slow backend %zu\n",
      ops_fast, ops_slow);
}

namespace {

void BM_PushdownCut(benchmark::State& state) {
  if (!SqliteBackend::Available()) {
    state.SkipWithError("sqlite3 not available");
    return;
  }
  Catalog catalog = PushdownCatalog();
  PlanPtr plan = SelectiveJoinPlan();
  Result<std::unique_ptr<Backend>> be = MakeBackend(BackendKind::kSqlite);
  TQP_CHECK(be.ok());
  EngineConfig cfg;
  cfg.backend = be.value().get();
  TQP_CHECK(EvaluatePlan(plan, catalog, cfg, nullptr).ok());  // warm mirror
  for (auto _ : state) {
    Result<Relation> r = EvaluatePlan(plan, catalog, cfg, nullptr);
    TQP_CHECK(r.ok());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PushdownCut);

}  // namespace
}  // namespace tqp

int main(int argc, char** argv) {
  tqp::bench::TimedSection("pushdown_vs_in_engine",
                           [] { tqp::ComparePushdownAgainstInEngine(); });
  tqp::bench::TimedSection("calibrated_placement",
                           [] { tqp::CompareCalibratedPlacement(); });
  tqp::bench::WriteBenchJson("backend_pushdown");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
