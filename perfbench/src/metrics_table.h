// Every metric the benchmark prints, with its unit. BENCHMARK.json declares
// the same names and units; tests/check_bench.py keeps the two in step.
#ifndef PERFBENCH_METRICS_TABLE_H_
#define PERFBENCH_METRICS_TABLE_H_

#include <string>
#include <vector>

namespace perfbench {

struct MetricDecl {
  std::string name;
  std::string unit;
};

/// Untraced runs (--trace 0).
inline const std::vector<MetricDecl>& EndToEndMetrics() {
  static const std::vector<MetricDecl> kMetrics = {
      {"setup_s", "s"},         {"ops_per_s", "1/s"},
      {"query_p50_ms", "ms"},   {"query_tail_ms", "ms"},
      {"peak_rss_mb", "MiB"},   {"ok_share", "ratio"},
  };
  return kMetrics;
}

/// Operator kinds whose per-operator self time the traced run reports: the
/// kinds that occur in at least one workload's plans.
inline const std::vector<std::string>& ProfiledKinds() {
  static const std::vector<std::string> kKinds = {
      "scan",        "select",     "project", "union-all", "aggregate",
      "rdup",        "productT",   "sort",    "coalT",     "transferS",
      "differenceT", "aggregateT", "rdupT"};
  return kKinds;
}

/// Traced runs (--trace 1).
inline const std::vector<MetricDecl>& PerLayerMetrics() {
  static const std::vector<MetricDecl> kMetrics = [] {
    std::vector<MetricDecl> m = {
        {"tql.compile_ms", "ms"},
        {"tql.compiles_per_op", "count"},
        {"opt.enumerate_ms", "ms"},
        {"opt.cost_ms", "ms"},
        {"opt.plans_per_call", "count"},
        {"opt.matches_per_call", "count"},
        {"opt.gated_out_per_call", "count"},
        {"opt.memo_hits_per_call", "count"},
        {"opt.expanded_per_call", "count"},
        {"opt.truncated_share", "ratio"},
        {"opt.admit_ratio", "ratio"},
        {"algebra.annotate_ms", "ms"},
        {"algebra.interner_nodes", "count"},
        {"algebra.interner_hit_ratio", "ratio"},
        {"algebra.derivation_nodes", "count"},
        {"api.prepare_hit_ms", "ms"},
        {"api.prepare_miss_ms", "ms"},
        {"api.plan_cache_hit_ratio", "ratio"},
        {"api.stale_evictions_per_write", "count"},
        {"api.reprepares_per_write", "count"},
        {"exec.evaluate_ms", "ms"},
        {"exec.tuples_produced_per_op", "count"},
        {"exec.tuples_transferred_per_op", "count"},
        {"exec.result_cache_hit_ratio", "ratio"},
        {"exec.result_cache_evictions", "count"},
        {"exec.result_cache_mb", "MiB"},
        {"vexec.execute_ms", "ms"},
        {"vexec.rows_per_s", "1/s"},
        {"vexec.batches_per_op", "count"},
        {"vexec.materializations_per_op", "count"},
        {"vexec.morsels_per_op", "count"},
        {"vexec.steals_per_op", "count"},
        {"vexec.cpu_busy_share", "ratio"},
        {"backend.sync_unchanged_ms", "ms"},
        {"backend.sync_after_write_ms", "ms"},
        {"backend.mirror_loads_per_write", "count"},
        {"backend.pushdowns_per_op", "count"},
        {"backend.rows_per_op", "count"},
        {"backend.pushed_ms_per_op", "ms"},
        {"backend.fallbacks", "count"},
        {"backend.refusals", "count"},
        {"service.roundtrip_ms", "ms"},
        {"service.self_ms", "ms"},
        {"service.bytes_per_row", "B/row"},
        {"core.mutate_ms", "ms"},
        {"workload.generate_s", "s"},
        {"fresh_p50_ms", "ms"},
        {"fresh_tail_ms", "ms"},
        {"trace.overhead_share", "ratio"},
        {"trace.coverage", "ratio"},
    };
    for (const char* layer : {"exec", "vexec"}) {
      for (const std::string& kind : ProfiledKinds()) {
        m.push_back({std::string(layer) + ".op." + kind + ".self_ms", "ms"});
      }
    }
    return m;
  }();
  return kMetrics;
}

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_TABLE_H_
