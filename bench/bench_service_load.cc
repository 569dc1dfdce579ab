// Sustained-load harness for the TCP query service (src/service): hundreds
// of concurrent clients driving one shared Engine through real sockets.
//
// Three phases, each reported as q/s plus p50/p99/p999 from the lock-free
// latency histogram and embedded into BENCH_service_load.json:
//
//   1. baseline  — closed loop, as many clients as admission permits.
//   2. overload  — 2x the clients against the *same* admission cap. The
//                  acceptance bar is graceful degradation: zero errors, the
//                  admission gate saturates exactly at its cap, throughput
//                  holds, and p50 grows by queueing (bounded), not collapse.
//   3. warm-vs-cold restart — a server with a plan-store snapshot must serve
//                  its first wave of optimize-heavy traffic at >= 2x the
//                  cold first-wave q/s, with byte-identical result frames,
//                  on engines that run the exhaustive breadth-first search
//                  the snapshot skips; the default engines' ratio is
//                  reported ungated.
//
// Perf gates arm only in optimized, unsanitized builds (identity and
// zero-error gates always run); sanitized CI jobs still execute every phase
// end to end. Flags: --clients=N (overload client count, default 32),
// --duration=S (seconds per load phase, default 2).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/engine.h"
#include "bench_util.h"
#include "service/loadgen.h"
#include "service/plan_store.h"
#include "service/server.h"

namespace tqp {
namespace {

using bench::Banner;
using bench::Row;

size_t g_clients = 32;     // overload phase; baseline runs half
double g_duration_s = 2.0;  // per load phase

const bool kGatesArmed = bench::OptimizedBuild() && !bench::BuiltWithSanitizers();

void ReportPhase(const char* phase, const LoadGenReport& r) {
  Row("  %-10s %8.0f q/s  %6llu queries  %llu errors  p50 %6llu us  "
      "p99 %6llu us  p999 %6llu us",
      phase, r.qps, static_cast<unsigned long long>(r.queries),
      static_cast<unsigned long long>(r.errors),
      static_cast<unsigned long long>(r.latency_us.Percentile(50)),
      static_cast<unsigned long long>(r.latency_us.Percentile(99)),
      static_cast<unsigned long long>(r.latency_us.Percentile(99.9)));
  const std::string p = phase;
  bench::SetMetric(p + "_qps", r.qps);
  bench::SetMetric(p + "_queries", static_cast<double>(r.queries));
  bench::SetMetric(p + "_errors", static_cast<double>(r.errors));
  bench::SetJsonMetric(p + "_latency_us", r.latency_us.ToJson());
}

// ---- Phases 1+2: closed-loop baseline, then 2x overload --------------------

/// The load catalog scales the messy temporal relations up until warm query
/// *evaluation* (the admission-gated section) dominates each round trip —
/// milliseconds of coalescing/dedup per query, not just socket turnarounds.
/// Otherwise the admission gate would sit idle and the overload phase would
/// measure the kernel's TCP stack instead of the service's queueing.
Catalog ServiceLoadCatalog() {
  Catalog catalog = bench::ScaledCatalog(4);
  TQP_CHECK(catalog
                .RegisterWithInferredFlags(
                    "R", bench::MessyTemporal(1200, 0.2, 0.2, 0.2, 5),
                    Site::kDbms)
                .ok());
  TQP_CHECK(catalog
                .RegisterWithInferredFlags(
                    "S", bench::MessyTemporal(800, 0.1, 0.3, 0.1, 17),
                    Site::kDbms)
                .ok());
  return catalog;
}

/// Evaluation-heavy subset of the mixed workload (no sub-100us queries).
std::vector<std::string> ServiceLoadQueries() {
  return {
      "VALIDTIME SELECT DISTINCT Name FROM R ORDER BY Name ASC",
      "VALIDTIME COALESCED SELECT DISTINCT Name FROM R",
      "SELECT Name FROM R UNION SELECT Name FROM S",
  };
}

void RunOverloadPhases() {
  Banner("Service under load — closed loop at the admission cap, then 2x");
  const size_t overload_clients = std::max<size_t>(4, g_clients);
  const size_t base_clients = overload_clients / 2;

  EngineOptions options;
  // The admission cap under test: every query's evaluation passes the gate,
  // so 2x the clients means queueing, never 2x the in-flight work.
  options.max_concurrent_queries = base_clients;
  Engine engine(ServiceLoadCatalog(), options);
  Server server(&engine, ServerOptions{});
  TQP_CHECK(server.Start().ok());

  LoadGenOptions load;
  load.host = server.host();
  load.port = server.port();
  load.queries = ServiceLoadQueries();
  load.duration_s = g_duration_s;

  // Prime the plan cache so both phases measure serving, not first-compiles.
  {
    LoadGenOptions prime = load;
    prime.clients = 2;
    prime.rounds = 1;
    prime.duration_s = 0;
    LoadGenReport r;
    TQP_CHECK(RunLoad(prime, &r).ok());
    TQP_CHECK(r.errors == 0);
  }

  LoadGenReport base;
  load.clients = base_clients;
  TQP_CHECK(RunLoad(load, &base).ok());
  ReportPhase("baseline", base);

  LoadGenReport over;
  load.clients = overload_clients;
  TQP_CHECK(RunLoad(load, &over).ok());
  ReportPhase("overload", over);

  const EngineStats stats = engine.stats();
  server.Stop();
  Row("  admission cap %zu, peak concurrent %llu", base_clients,
      static_cast<unsigned long long>(stats.peak_concurrent_queries));
  bench::SetMetric("admission_cap", static_cast<double>(base_clients));
  bench::SetMetric("peak_concurrent_queries",
                   static_cast<double>(stats.peak_concurrent_queries));
  bench::SetJsonMetric("engine_stats", stats.ToJson());

  // Graceful-degradation gates. Zero errors and the admission bound are
  // correctness properties: they hold in every build flavor. Full
  // saturation (peak == cap) is a perf property — sanitized builds shift
  // the evaluation/IO ratio too much to guarantee it.
  TQP_CHECK(base.errors == 0 && over.errors == 0);
  TQP_CHECK(stats.peak_concurrent_queries <= base_clients);
  if (kGatesArmed) {
    TQP_BENCH_GATE("saturation",
                   stats.peak_concurrent_queries == base_clients);
  }
  const double p50_ratio =
      base.latency_us.Percentile(50) > 0
          ? static_cast<double>(over.latency_us.Percentile(50)) /
                static_cast<double>(base.latency_us.Percentile(50))
          : 0.0;
  bench::SetMetric("overload_p50_growth", p50_ratio);
  Row("  overload p50 growth %.2fx, throughput ratio %.2fx", p50_ratio,
      base.qps > 0 ? over.qps / base.qps : 0.0);
  if (kGatesArmed) {
    // Queueing, not collapse: closed-loop theory predicts ~2x p50 at 2x
    // clients; 8x leaves room for scheduler noise on small CI runners.
    TQP_BENCH_GATE("overload_p50_growth", p50_ratio <= 8.0);
    TQP_BENCH_GATE("overload_qps", over.qps >= 0.5 * base.qps);
  }
}

// ---- Phase 3: warm restart vs cold first wave ------------------------------

/// Optimize-heavy mix: join + predicate chains with a large enough plan
/// space that first-contact latency is dominated by the Figure 5 search —
/// exactly what the plan store amortizes across restarts.
std::vector<std::string> FirstWaveQueries() {
  std::vector<std::string> queries;
  for (int predicates = 3; predicates <= 6; ++predicates) {
    std::string q =
        "VALIDTIME SELECT Dept, Prj FROM EMPLOYEE, PROJECT WHERE "
        "Dept = 'dept1'";
    for (int i = 1; i < predicates; ++i) {
      q += " AND Prj <> 'prj" + std::to_string(i) + "'";
    }
    queries.push_back(q);
  }
  return queries;
}

/// One cold first wave and one warm restart over engines built with
/// `options`; checks the two waves' result frames are byte-identical and
/// returns the warm/cold q/s ratio. `label` prefixes the reported phases.
double WarmOverColdSpeedup(const std::string& label,
                           const EngineOptions& options) {
  const std::string path = "bench_service_load.plan_snapshot";
  std::remove(path.c_str());

  LoadGenOptions load;
  load.clients = 4;
  load.rounds = 2;
  load.queries = FirstWaveQueries();
  load.record_raw = true;

  ServerOptions with_store;
  with_store.snapshot_path = path;

  auto first_wave = [&](const ServerOptions& opts, LoadGenReport* report) {
    Engine engine(bench::ScaledCatalog(4), options);
    Server server(&engine, opts);
    TQP_CHECK(server.Start().ok());
    load.host = server.host();
    load.port = server.port();
    TQP_CHECK(RunLoad(load, report).ok());
    TQP_CHECK(report->errors == 0);
    server.Stop();  // writes the snapshot when configured
  };

  LoadGenReport cold, warm;
  first_wave(with_store, &cold);  // cold run, snapshots on Stop()
  ReportPhase((label + "cold_start").c_str(), cold);
  first_wave(with_store, &warm);  // restart: imports the snapshot
  ReportPhase((label + "warm_start").c_str(), warm);
  std::remove(path.c_str());

  // Byte identity is a correctness gate: a warm restart changes latency,
  // never a byte of results. Compared over schema/batch frames only.
  TQP_CHECK(warm.raw_by_client.size() == cold.raw_by_client.size());
  for (size_t i = 0; i < warm.raw_by_client.size(); ++i) {
    TQP_CHECK(warm.raw_by_client[i] == cold.raw_by_client[i]);
  }
  return cold.qps > 0 ? warm.qps / cold.qps : 0.0;
}

void RunWarmRestartPhase() {
  Banner("Warm restart — plan-store snapshot vs cold first wave");
  // The gate measures what a snapshot saves: the Figure 5 search a cold
  // prepare runs. The Engine's default payoff search makes cold prepares
  // of this mix cheap, so the gated wave pins the exhaustive breadth-first
  // search the snapshot skips.
  EngineOptions exhaustive;
  exhaustive.enumeration.strategy = SearchStrategy::kBreadthFirst;
  const double speedup = WarmOverColdSpeedup("", exhaustive);
  bench::SetMetric("warm_start_speedup", speedup);
  Row("  breadth-first engines: warm first wave %.2fx the cold q/s "
      "(gate: >= 2x)",
      speedup);
  if (kGatesArmed) {
    TQP_BENCH_GATE("warm_start_speedup", speedup >= 2.0);
  }
  // Ungated: what a snapshot saves the default engine.
  const double default_speedup =
      WarmOverColdSpeedup("default_engine_", EngineOptions());
  bench::SetMetric("default_engine_warm_start_speedup", default_speedup);
  Row("  default engines: warm first wave %.2fx the cold q/s (ungated)",
      default_speedup);
}

}  // namespace
}  // namespace tqp

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--clients=", 10) == 0) {
      tqp::g_clients = static_cast<size_t>(std::atoi(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--duration=", 11) == 0) {
      tqp::g_duration_s = std::atof(argv[i] + 11);
    }
  }
  tqp::bench::TimedSection("overload_phases",
                           [] { tqp::RunOverloadPhases(); });
  tqp::bench::TimedSection("warm_restart_phase",
                           [] { tqp::RunWarmRestartPhase(); });
  tqp::bench::WriteBenchJson("service_load");
  return 0;
}
