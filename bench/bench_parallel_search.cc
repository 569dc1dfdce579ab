// Parallel Figure 5 search and concurrent-Engine throughput.
//
// Gates (TQP_CHECKed, CI-enforced):
//
//   * byte-identity: num_threads = 4 produces the identical admitted plan
//     sequence, chosen-plan fingerprint, costs, and search counters as
//     num_threads = 1, under breadth-first and best-first + pruning alike —
//     on the paper workload at max_plans = 4000;
//   * throughput: >= 2x plans/second at 4 threads vs 1 thread on the same
//     workload. The speedup gate only arms on hardware with >= 4 cores and
//     in unsanitized builds (sanitizer scheduling distorts ratios); the
//     identity gates always run.
//
// Plus a concurrent-Engine section: queries/second served by one shared
// Engine at 1/2/4 session threads, warm (plan-cache hits) and cold
// (distinct prepares), printed for the record.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "bench_util.h"
#include "opt/enumerate.h"

namespace tqp {

using bench::Banner;

namespace {

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

double Seconds(std::chrono::steady_clock::time_point t0) {
  std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  return dt.count();
}

/// The parallel-search workload: the predicate-chain query whose plan space
/// exceeds the 4000-plan cap (the raw paper example's closure is ~174
/// plans — too small to measure thread scaling meaningfully).
struct Workload {
  Catalog catalog;
  TranslatedQuery query;
  std::vector<Rule> rules;

  static Workload Make() {
    Workload w{bench::ScaledCatalog(4), {}, DefaultRuleSet()};
    w.query = bench::ChainQuery(w.catalog, 4);
    return w;
  }
};

EnumerationOptions ParallelOptions(size_t threads, SearchStrategy strategy,
                                   double prune_factor) {
  EnumerationOptions opts = bench::SearchOptions(4000, strategy);
  opts.num_threads = threads;
  opts.cost_prune_factor = prune_factor;
  // The Engine path: plan identity is fingerprint-based, no canonical
  // serialization.
  opts.fill_canonical = false;
  return opts;
}

Result<EnumerationResult> Run(const Workload& w,
                              const EnumerationOptions& opts) {
  return EnumeratePlans(w.query.plan, w.catalog, w.query.contract, w.rules,
                        opts);
}

/// Byte-identity of the search outcome (the interner/cache session totals
/// are driver observability, not search outcome — see enumerate.h).
void CheckIdentical(const EnumerationResult& serial,
                    const EnumerationResult& parallel) {
  TQP_CHECK(serial.plans.size() == parallel.plans.size());
  for (size_t i = 0; i < serial.plans.size(); ++i) {
    TQP_CHECK(serial.plans[i].fingerprint == parallel.plans[i].fingerprint);
    TQP_CHECK(serial.plans[i].parent == parallel.plans[i].parent);
    TQP_CHECK(serial.plans[i].rule_id == parallel.plans[i].rule_id);
  }
  TQP_CHECK(serial.truncated == parallel.truncated);
  TQP_CHECK(serial.matches == parallel.matches);
  TQP_CHECK(serial.admitted == parallel.admitted);
  TQP_CHECK(serial.gated_out == parallel.gated_out);
  TQP_CHECK(serial.memo_hits == parallel.memo_hits);
  TQP_CHECK(serial.cost_pruned == parallel.cost_pruned);
  TQP_CHECK(serial.expanded == parallel.expanded);
  TQP_CHECK(serial.costs == parallel.costs);
}

}  // namespace

void GateParallelByteIdentity() {
  Banner("Parallel search — byte-identity gates (4 threads vs 1)");
  Workload w = Workload::Make();

  struct Config {
    const char* name;
    SearchStrategy strategy;
    double prune;
  };
  for (const Config& config :
       {Config{"breadth-first", SearchStrategy::kBreadthFirst, 0.0},
        Config{"breadth-first + prune 1.5", SearchStrategy::kBreadthFirst,
               1.5},
        Config{"best-first + prune 1.5", SearchStrategy::kBestFirst, 1.5}}) {
    Result<EnumerationResult> serial =
        Run(w, ParallelOptions(1, config.strategy, config.prune));
    Result<EnumerationResult> parallel =
        Run(w, ParallelOptions(4, config.strategy, config.prune));
    TQP_CHECK(serial.ok() && parallel.ok());
    CheckIdentical(serial.value(), parallel.value());
    std::printf(
        "%-28s | %5zu plans | %5zu expanded | %5zu pruned | identical\n",
        config.name, serial->plans.size(), serial->expanded,
        serial->cost_pruned);
  }
  std::printf("\nchosen-plan fingerprints, costs, and every search counter "
              "match at 4 threads.\n");
}

void GateParallelSpeedup() {
  Banner("Parallel search — plans/second by thread count (max_plans = 4000)");
  Workload w = Workload::Make();

  auto plans_per_second = [&](size_t threads) {
    EnumerationOptions opts =
        ParallelOptions(threads, SearchStrategy::kBreadthFirst, 0.0);
    double best = 0.0;
    size_t plans = 0;
    for (int rep = 0; rep < 5; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      Result<EnumerationResult> res = Run(w, opts);
      double s = Seconds(t0);
      TQP_CHECK(res.ok());
      plans = res->plans.size();
      best = std::max(best, static_cast<double>(plans) / s);
    }
    std::printf("  %zu thread%s: %10.0f plans/s  (%zu plans)\n", threads,
                threads == 1 ? " " : "s", best, plans);
    return best;
  };

  double one = plans_per_second(1);
  double two = plans_per_second(2);
  double four = plans_per_second(4);
  bench::SetMetric("plans_per_s_1_thread", one);
  bench::SetMetric("plans_per_s_2_threads", two);
  bench::SetMetric("plans_per_s_4_threads", four);
  bench::SetMetric("speedup_4_threads", four / one);
  std::printf("\nspeedup: %.2fx at 2 threads, %.2fx at 4 threads\n",
              two / one, four / one);

  unsigned cores = std::thread::hardware_concurrency();
  if (cores < 4 || BuiltWithSanitizers()) {
    std::printf("speedup gate SKIPPED (%u cores, sanitizers %s) — the gate "
                "needs >= 4 cores and an unsanitized build.\n",
                cores, BuiltWithSanitizers() ? "on" : "off");
    return;
  }
  // The acceptance gate: >= 2x plans/second at 4 threads vs 1 thread.
  TQP_BENCH_GATE("speedup_4_threads", four >= 2.0 * one);
  std::printf("speedup gate PASSED: %.2fx >= 2x at 4 threads.\n", four / one);
}

void ConcurrentEngineThroughput() {
  Banner("Concurrent Engine — queries/second by session count");
  const std::vector<std::string> queries = bench::MixedWorkloadQueries();

  auto run_sessions = [&](size_t sessions, bool warm) {
    Engine engine(bench::MixedWorkloadCatalog());
    if (warm) {
      for (const std::string& q : queries) TQP_CHECK(engine.Query(q).ok());
    }
    constexpr int kPerThread = 40;
    std::atomic<int> failures{0};
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(sessions);
    for (size_t s = 0; s < sessions; ++s) {
      threads.emplace_back([&, s] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::string& q =
              queries[(static_cast<size_t>(i) + s) % queries.size()];
          if (!engine.Query(q).ok()) failures.fetch_add(1);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    double s = Seconds(t0);
    TQP_CHECK(failures.load() == 0);
    double qps = static_cast<double>(kPerThread * sessions) / s;
    std::printf("  %zu session%s, %s: %8.0f q/s\n", sessions,
                sessions == 1 ? " " : "s", warm ? "warm" : "cold", qps);
    return qps;
  };

  for (size_t sessions : {1u, 2u, 4u}) {
    bench::SetMetric("warm_qps_" + std::to_string(sessions) + "_sessions",
                     run_sessions(sessions, /*warm=*/true));
  }
  for (size_t sessions : {1u, 2u, 4u}) {
    bench::SetMetric("cold_qps_" + std::to_string(sessions) + "_sessions",
                     run_sessions(sessions, /*warm=*/false));
  }
  std::printf("\none shared Engine; warm = plan-cache hits, cold = first-touch "
              "prepares per engine.\n");
}

namespace {

void BM_ParallelEnumerate(benchmark::State& state) {
  Workload w = Workload::Make();
  EnumerationOptions opts = ParallelOptions(
      static_cast<size_t>(state.range(0)), SearchStrategy::kBreadthFirst, 0.0);
  size_t plans = 0;
  for (auto _ : state) {
    Result<EnumerationResult> res = Run(w, opts);
    TQP_CHECK(res.ok());
    plans = res->plans.size();
    benchmark::DoNotOptimize(res);
  }
  state.counters["plans"] = static_cast<double>(plans);
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ParallelEnumerate)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
}  // namespace tqp

int main(int argc, char** argv) {
  tqp::bench::TimedSection("byte_identity_gates", [] { tqp::GateParallelByteIdentity(); });
  tqp::bench::TimedSection("speedup_gate", [] { tqp::GateParallelSpeedup(); });
  tqp::bench::TimedSection("concurrent_engine", [] { tqp::ConcurrentEngineThroughput(); });
  tqp::bench::WriteBenchJson("parallel_search");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
