// Shared setup for the bench mains: printing primitives, scaled/messy
// workload relations, catalogs, the TQL query suite, the Figure 5 search
// helpers, and the machine-readable BENCH_<name>.json metric sink. This is
// the single bench header — every bench main includes it and nothing else
// from bench/.
#ifndef TQP_BENCH_BENCH_UTIL_H_
#define TQP_BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/catalog.h"
#include "core/json.h"
#include "exec/evaluator.h"
#include "opt/enumerate.h"
#include "opt/optimizer.h"
#include "tql/translator.h"
#include "workload/generator.h"
#include "workload/paper_example.h"

namespace tqp {
namespace bench {

// ---- Printing --------------------------------------------------------------

inline void Banner(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void Row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

// ---- Build flavor -----------------------------------------------------------
//
// Perf gates arm only in optimized, unsanitized builds; identity gates always
// run. (Sanitized CI jobs still execute every bench end to end.)

constexpr bool BuiltWithSanitizers() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

constexpr bool OptimizedBuild() {
#ifdef NDEBUG
  return true;
#else
  return false;
#endif
}

/// The compiler that built this bench binary, from its predefined macros.
inline const char* CompilerVersionString() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

// ---- Workload relations ----------------------------------------------------

/// A catalog with the paper's relations scaled by `scale` employees.
inline Catalog ScaledCatalog(size_t scale, Site site = Site::kDbms) {
  Catalog catalog;
  TQP_CHECK(catalog
                .RegisterWithInferredFlags("EMPLOYEE", ScaledEmployee(scale),
                                           site)
                .ok());
  TQP_CHECK(catalog
                .RegisterWithInferredFlags("PROJECT", ScaledProject(scale),
                                           site)
                .ok());
  return catalog;
}

/// A messy temporal relation sized n with the given phenomena fractions.
inline Relation MessyTemporal(size_t n, double dup, double adj, double over,
                              uint64_t seed = 99) {
  RelationGenParams p;
  p.cardinality = n;
  p.num_names = std::max<size_t>(4, n / 16);
  p.duplicate_fraction = dup;
  p.adjacency_fraction = adj;
  p.overlap_fraction = over;
  p.time_horizon = static_cast<TimePoint>(8 * n);
  p.max_period_length = 40;
  p.seed = seed;
  return GenerateRelation(p);
}

// ---- Machine-readable bench output ----------------------------------------
//
// Every bench main records its headline numbers with SetMetric and writes
// them as BENCH_<name>.json (metric name → value, one flat JSON object)
// before exiting. CI uploads the files as artifacts, so the perf trajectory
// accumulates run over run instead of living only in scrollback.

/// The metric registry of this bench process.
inline std::map<std::string, double>& BenchMetrics() {
  static std::map<std::string, double> metrics;
  return metrics;
}

/// Pre-rendered JSON metrics (nested objects: ExecStats::ToJson,
/// EngineStats::ToJson, LatencyHistogram::ToJson, LoadGenReport::ToJson).
/// Kept separately so the flat numeric metrics stay grep-able.
inline std::map<std::string, std::string>& BenchJsonMetrics() {
  static std::map<std::string, std::string> metrics;
  return metrics;
}

/// Records one metric (last write wins).
inline void SetMetric(const std::string& name, double value) {
  BenchMetrics()[name] = value;
}

/// Records a pre-rendered JSON value (a *ToJson() string) under `name`. The
/// bench file embeds it verbatim — the same bytes the service layer streams,
/// so the two renderings cannot drift.
inline void SetJsonMetric(const std::string& name, const std::string& json) {
  BenchJsonMetrics()[name] = json;
}

/// Runs a bench section and records its wall time as "<metric>_seconds".
/// The coarse metric every bench main gets for free; flagship benches add
/// domain metrics (plans/s, speedups, rows/s) on top.
template <typename Fn>
inline void TimedSection(const std::string& metric, Fn&& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  SetMetric(metric + "_seconds", dt.count());
}

/// Writes BENCH_<bench_name>.json into the working directory. Every file
/// automatically carries the process peak RSS and the machine's hardware
/// thread count, so perf numbers stay interpretable across runners.
inline void WriteBenchJson(const std::string& bench_name) {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    // ru_maxrss is KiB on Linux.
    SetMetric("peak_rss_bytes", static_cast<double>(ru.ru_maxrss) * 1024.0);
  }
  SetMetric("hardware_threads",
            static_cast<double>(std::thread::hardware_concurrency()));
  const std::string path = "BENCH_" + bench_name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  // Rendered through the same core/json.h writer the service frames use.
  JsonWriter w;
  w.BeginObject();
  // Build provenance, so a BENCH_*.json artifact identifies the exact
  // revision, build flavor, and compiler behind its numbers. The SHA and
  // build type are stamped by CMake (unknown outside a git checkout).
  w.Key("git_sha").String(
#ifdef TQP_GIT_SHA
      TQP_GIT_SHA
#else
      "unknown"
#endif
  );
  w.Key("build_type").String(
#ifdef TQP_BUILD_TYPE
      TQP_BUILD_TYPE
#else
      "unknown"
#endif
  );
  w.Key("compiler").String(CompilerVersionString());
  w.Key("sanitized").Bool(BuiltWithSanitizers());
  for (const auto& [name, value] : BenchMetrics()) {
    w.Key(name).Double(value);
  }
  for (const auto& [name, json] : BenchJsonMetrics()) {
    w.Key(name).Raw(json);
  }
  w.EndObject();
  std::fprintf(f, "%s\n", w.str().c_str());
  std::fclose(f);
  std::printf("\n[%s: %zu metrics]\n", path.c_str(),
              BenchMetrics().size() + BenchJsonMetrics().size());
}

/// The BENCH_<name>.json name of the bench main in `file`
/// (bench/bench_<name>.cc).
inline std::string BenchNameOf(const std::string& file) {
  std::string name = file.substr(file.find_last_of('/') + 1);
  if (name.rfind("bench_", 0) == 0) name = name.substr(6);
  return name.substr(0, name.rfind('.'));
}

/// Records gate `gate` as metric "gate.<gate>" (1 held, 0 failed). A failed
/// gate still leaves its numbers: the bench's JSON is written and stdout
/// flushed before the process aborts, as TQP_CHECK would.
inline void Gate(const char* file, int line, const std::string& gate,
                 const char* cond, bool held) {
  SetMetric("gate." + gate, held ? 1.0 : 0.0);
  if (held) return;
  WriteBenchJson(BenchNameOf(file));
  std::fflush(stdout);
  std::fprintf(stderr, "gate %s failed at %s:%d: %s\n", gate.c_str(), file,
               line, cond);
  std::abort();
}

/// A perf gate: TQP_CHECK(cond) that records its outcome and keeps the
/// bench's numbers when it fails (see Gate).
#define TQP_BENCH_GATE(gate, cond) \
  ::tqp::bench::Gate(__FILE__, __LINE__, gate, #cond, (cond))

/// Baseline Figure 5 search options at a plan cap — the configuration the
/// search benches ablate from.
inline EnumerationOptions SearchOptions(
    size_t max_plans,
    SearchStrategy strategy = SearchStrategy::kBreadthFirst) {
  EnumerationOptions opts;
  opts.max_plans = max_plans;
  opts.strategy = strategy;
  return opts;
}

/// Runs the Figure 5 search over the paper's running example.
inline Result<EnumerationResult> RunPaperSearch(
    const Catalog& catalog, const std::vector<Rule>& rules,
    const EnumerationOptions& options) {
  return EnumeratePlans(PaperInitialPlan(), catalog, PaperContract(), rules,
                        options);
}

/// Optimizes the paper's initial plan under the default rules at a plan
/// cap — the repeated "reach Figure 2(b)" setup of the plan benches.
inline Result<OptimizeResult> OptimizePaperExample(const Catalog& catalog,
                                                   size_t max_plans) {
  OptimizerOptions options;
  options.enumeration = SearchOptions(max_plans);
  return Optimize(PaperInitialPlan(), catalog, PaperContract(),
                  DefaultRuleSet(), options);
}

/// A temporal join with a chain of `predicates` extra selections — the
/// plan-space scaling workload (the paper example's closure is only ~174
/// plans; this one exceeds the 4000-plan cap from 4 predicates up).
inline TranslatedQuery ChainQuery(const Catalog& catalog, int predicates) {
  std::string query =
      "VALIDTIME SELECT Dept, Prj FROM EMPLOYEE, PROJECT WHERE "
      "Dept = 'dept1'";
  for (int i = 1; i < predicates; ++i) {
    query += " AND Prj <> 'prj" + std::to_string(i) + "'";
  }
  Result<TranslatedQuery> q = CompileQuery(query, catalog);
  TQP_CHECK(q.ok());
  return q.value();
}

}  // namespace bench
}  // namespace tqp

#endif  // TQP_BENCH_BENCH_UTIL_H_
