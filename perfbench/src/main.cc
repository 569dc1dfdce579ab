// The repository benchmark: runs one named workload from a seed and prints
// its metrics as the last line of standard output.
//
//   tqp_perfbench --workload adhoc|analytic|serve_rw --seed N --seconds S
//                 --trace 0|1
//
// Every workload is a closed loop: one client sends its next operation only
// after the previous one completes, in this one process. The run length is a
// fixed operation count derived from --seconds (never a wall-clock
// deadline), so every run of one configuration does identical work. Setup
// runs several times and setup_s is the median. Each operation's output is
// checked outside the timed regions. --trace 1 additionally replays the
// same sequence on a fresh instance through each layer's public entry point
// under spans and prints the per-layer metrics instead.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/hash.h"
#include "harness.h"
#include "metrics_table.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kSetups = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: tqp_perfbench --workload adhoc|analytic|serve_rw "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::unique_ptr<Workload> Make(const std::string& name) {
  if (name == "adhoc") return MakeAdhoc();
  if (name == "analytic") return MakeAnalytic();
  if (name == "serve_rw") return MakeServeRw();
  return nullptr;
}

double Get(const LayerSums& sums, const std::string& key) {
  auto it = sums.find(key);
  return it == sums.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Latency summaries of the measured run.
struct Summary {
  std::vector<double> query_ms;
  std::map<int, std::vector<double>> query_ms_by_template;
  std::vector<double> fresh_ms;
  uint64_t total_ns = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
};

Summary Summarize(const std::vector<Op>& ops,
                  const std::vector<OpRecord>& recs) {
  Summary s;
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& r = recs[i];
    s.total_ns += r.latency_ns;
    // A read right after a write is a freshness sample, not a query sample:
    // it pays the re-mirror that no other read pays, and keeping it out
    // places query_tail_ms inside one latency mode.
    const bool fresh_read = i > 0 && ops[i - 1].write;
    if (!ops[i].write && !fresh_read) {
      s.query_ms.push_back(NsToMs(r.latency_ns));
      s.query_ms_by_template[ops[i].tmpl].push_back(NsToMs(r.latency_ns));
    }
    // Freshness: from the start of a write to the completion of the read
    // right after it, which depends on the written relation.
    if (ops[i].write && i + 1 < ops.size() && !ops[i + 1].write) {
      const OpRecord& next = recs[i + 1];
      s.fresh_ms.push_back(
          NsToMs(next.start_ns + next.latency_ns - r.start_ns));
    }
    if (!r.returned || !r.gate_ok) ++s.failed;
    if (r.returned && r.gate_ok && r.contract_ok) ++s.ok;
  }
  return s;
}

// The median over query templates of each template's median latency. A
// pooled median of a few well-separated latency modes moves with every
// outlier of the cheaper templates; this one does not.
double MedianOfTemplateMedians(
    const std::map<int, std::vector<double>>& by_template) {
  std::vector<double> medians;
  for (const auto& [tmpl, ms] : by_template) medians.push_back(Median(ms));
  return Median(medians);
}

double Tail(const std::vector<double>& samples) {
  const double p = TailPercentileFor(samples.size());
  return p > 0 ? Percentile(samples, p) : Percentile(samples, 100.0);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  // Keep freed memory in the process instead of returning it to the kernel,
  // so large operator results do not pay page faults and zeroing again on
  // every query.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::unique_ptr<Workload> workload = Make(args.workload);
  if (workload == nullptr) return Usage();

  const size_t n = workload->OpCount(args.seconds);
  const std::vector<Op> ops = workload->MakeOps(args.seed, n);
  if (ops.size() != n) {
    std::fprintf(stderr, "%s cannot make %zu distinct operations\n",
                 args.workload.c_str(), n);
    return 1;
  }
  uint64_t sequence = 0;
  for (const Op& op : ops) {
    sequence = tqp::HashCombine(
        sequence, tqp::HashString(op.text + "\n" + op.target + "\n" +
                                  std::to_string(op.payload_seed)));
  }
  std::fprintf(stderr, "op sequence: %zu ops, digest %016llx\n", n,
               static_cast<unsigned long long>(sequence));

  std::vector<double> setup_s;
  std::vector<double> generate_s;
  for (int k = 0; k < kSetups; ++k) {
    workload->Teardown();
    uint64_t generate_ns = 0;
    const uint64_t t0 = NowNs();
    tqp::Status st = workload->Setup(args.seed, &generate_ns);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    generate_s.push_back(static_cast<double>(generate_ns) / 1e9);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.message().c_str());
      return 1;
    }
  }

  std::vector<OpRecord> recs(n);
  for (size_t i = 0; i < n; ++i) {
    workload->Run(ops[i], &recs[i]);
    workload->Verify(ops[i], &recs[i]);
  }
  const Summary sum = Summarize(ops, recs);
  const double peak_rss = PeakRssMb();

  // Every ≡SQL shortfall, with its template and the rule chain of its plan.
  for (size_t i = 0; i < n; ++i) {
    const OpRecord& r = recs[i];
    if (!r.returned || !r.gate_ok) {
      std::fprintf(stderr, "op %zu FAILED (returned=%d gate=%d) [%s] %s\n", i,
                   r.returned, r.gate_ok,
                   workload->TemplateName(ops[i].tmpl).c_str(),
                   ops[i].text.c_str());
    } else if (!r.contract_ok) {
      std::string chain;
      for (const std::string& rule : r.derivation) chain += " " + rule;
      std::fprintf(stderr,
                   "op %zu violates its ≡SQL contract [%s] %s\n  rules:%s\n",
                   i, workload->TemplateName(ops[i].tmpl).c_str(),
                   ops[i].text.c_str(), chain.c_str());
    }
  }
  std::map<int, std::vector<double>> by_template;
  for (size_t i = 0; i < n; ++i) {
    by_template[ops[i].write ? -1 : ops[i].tmpl].push_back(
        NsToMs(recs[i].latency_ns));
  }
  for (const auto& [tmpl, ms] : by_template) {
    std::fprintf(stderr,
                 "  %-30s %4zu ops, p25 %9.3f, median %9.3f, p75 %9.3f, "
                 "max %9.3f ms\n",
                 tmpl < 0 ? "write" : workload->TemplateName(tmpl).c_str(),
                 ms.size(), Percentile(ms, 25.0), Median(ms),
                 Percentile(ms, 75.0), Percentile(ms, 100.0));
  }
  std::fprintf(stderr, "%s: %zu ops, %llu ok, %llu failed, %.3f s timed\n",
               args.workload.c_str(), n,
               static_cast<unsigned long long>(sum.ok),
               static_cast<unsigned long long>(sum.failed),
               static_cast<double>(sum.total_ns) / 1e9);

  std::vector<Metric> metrics;
  bool correct = sum.failed == 0;
  if (!args.trace) {
    const std::map<std::string, double> v = {
        {"setup_s", Median(setup_s)},
        {"ops_per_s",
         static_cast<double>(n) / (static_cast<double>(sum.total_ns) / 1e9)},
        {"query_p50_ms", MedianOfTemplateMedians(sum.query_ms_by_template)},
        {"query_tail_ms", Tail(sum.query_ms)},
        {"peak_rss_mb", peak_rss},
        {"ok_share", static_cast<double>(sum.ok) / static_cast<double>(n)},
    };
    for (const MetricDecl& d : EndToEndMetrics()) {
      metrics.push_back({d.name, v.at(d.name), d.unit});
    }
    std::fprintf(stderr, "query_tail_ms is p%g of %zu queries\n",
                 TailPercentileFor(sum.query_ms.size()), sum.query_ms.size());
  } else {
    // The traced replay runs on a fresh instance, so it starts from the
    // same cold state the measured run did.
    workload->Teardown();
    uint64_t generate_ns = 0;
    tqp::Status st = workload->Setup(args.seed, &generate_ns);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.message().c_str());
      return 1;
    }
    tqp::Tracer tracer;
    LayerSums sums;
    size_t mismatches = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!workload->Trace(ops[i], i + 1, recs[i], &tracer, &sums)) {
        ++mismatches;
        std::fprintf(stderr, "traced op %zu differs from the facade: %s\n", i,
                     ops[i].text.c_str());
      }
    }
    workload->FinishTrace(&sums);
    const SpanReport rep = SpanReport::Build(tracer.Snapshot());
    const double coverage = Ratio(static_cast<double>(rep.covered_ns),
                                  static_cast<double>(rep.op_wall_ns));
    const double overhead = Ratio(static_cast<double>(rep.op_wall_ns),
                                  static_cast<double>(sum.total_ns)) -
                            1.0;
    std::fprintf(stderr,
                 "traced: %zu mismatches, coverage %.4f, overhead %.4f, "
                 "%llu foreign spans\n",
                 mismatches, coverage, overhead,
                 static_cast<unsigned long long>(rep.foreign_spans));
    for (const auto& [layer, ns] : rep.self_ns_by_layer) {
      std::fprintf(stderr, "  layer %-8s %10.3f ms self\n", layer.c_str(),
                   NsToMs(ns));
    }
    correct = correct && mismatches == 0 && coverage >= 0.9 &&
              rep.foreign_spans == 0;

    double reads = 0, writes = 0;
    for (const Op& op : ops) (op.write ? writes : reads) += 1;
    auto span_ms = [&](const char* key) {
      auto it = rep.self_ns_by_span.find(key);
      return it == rep.self_ns_by_span.end() ? 0.0 : NsToMs(it->second);
    };
    const double calls = Get(sums, "opt.calls");
    std::map<std::string, double> v = {
        {"tql.compile_ms", span_ms("tql.compile") / reads},
        {"tql.compiles_per_op", Get(sums, "tql.compiles") / reads},
        {"opt.enumerate_ms", span_ms("opt.enumerate") / reads},
        {"opt.cost_ms", span_ms("opt.cost") / reads},
        {"opt.plans_per_call", Ratio(Get(sums, "opt.plans"), calls)},
        {"opt.matches_per_call", Ratio(Get(sums, "opt.matches"), calls)},
        {"opt.gated_out_per_call", Ratio(Get(sums, "opt.gated_out"), calls)},
        {"opt.memo_hits_per_call", Ratio(Get(sums, "opt.memo_hits"), calls)},
        {"opt.expanded_per_call", Ratio(Get(sums, "opt.expanded"), calls)},
        {"opt.truncated_share", Ratio(Get(sums, "opt.truncated"), calls)},
        {"opt.admit_ratio",
         Ratio(Get(sums, "opt.admitted"), Get(sums, "opt.matches"))},
        {"algebra.annotate_ms", span_ms("algebra.annotate") / reads},
        {"algebra.interner_nodes", Get(sums, "algebra.interner_nodes")},
        {"algebra.interner_hit_ratio",
         Ratio(Get(sums, "algebra.interner_hits"),
               Get(sums, "algebra.interner_hits") +
                   Get(sums, "algebra.interner_nodes"))},
        {"algebra.derivation_nodes", Get(sums, "algebra.derivation_nodes")},
        {"api.prepare_hit_ms",
         Ratio(Get(sums, "api.prepare_hit_ms"), Get(sums, "api.prepare_hits"))},
        {"api.prepare_miss_ms", Ratio(Get(sums, "api.prepare_miss_ms"),
                                      Get(sums, "api.prepare_misses"))},
        {"api.plan_cache_hit_ratio", workload->PlanCacheHitRatio()},
        {"api.stale_evictions_per_write",
         Ratio(Get(sums, "api.stale_evictions"), writes)},
        {"api.reprepares_per_write",
         Ratio(Get(sums, "api.prepare_misses"), writes)},
        {"exec.evaluate_ms", span_ms("exec.evaluate") / reads},
        {"exec.tuples_produced_per_op",
         Get(sums, "exec.tuples_produced") / reads},
        {"exec.tuples_transferred_per_op",
         Get(sums, "exec.tuples_transferred") / reads},
        {"exec.result_cache_hit_ratio",
         Ratio(Get(sums, "exec.result_cache_hits"),
               Get(sums, "exec.result_cache_probes"))},
        {"exec.result_cache_evictions", Get(sums, "exec.result_cache_evictions")},
        {"exec.result_cache_mb", Get(sums, "exec.result_cache_mb")},
        {"vexec.execute_ms", span_ms("vexec.execute") / reads},
        {"vexec.rows_per_s",
         Ratio(Get(sums, "vexec.rows"), Get(sums, "vexec.wall_s"))},
        {"vexec.batches_per_op", Get(sums, "vexec.batches") / reads},
        {"vexec.materializations_per_op",
         Get(sums, "vexec.materializations") / reads},
        {"vexec.morsels_per_op", Get(sums, "vexec.morsels") / reads},
        {"vexec.steals_per_op", Get(sums, "vexec.steals") / reads},
        {"vexec.cpu_busy_share",
         Ratio(Get(sums, "vexec.cpu_s"),
               Get(sums, "vexec.wall_s") * Get(sums, "vexec.threads"))},
        {"backend.sync_unchanged_ms",
         Ratio(Get(sums, "backend.sync_unchanged_ms"),
               Get(sums, "backend.sync_unchanged_calls"))},
        {"backend.sync_after_write_ms",
         Ratio(span_ms("backend.sync_after_write"), writes)},
        {"backend.mirror_loads_per_write",
         Ratio(Get(sums, "backend.mirror_loads"), writes)},
        {"backend.pushdowns_per_op", Get(sums, "backend.pushdowns") / reads},
        {"backend.rows_per_op", Get(sums, "backend.rows") / reads},
        {"backend.pushed_ms_per_op", Get(sums, "backend.pushed_ms") / reads},
        {"backend.fallbacks", Get(sums, "backend.fallbacks")},
        {"backend.refusals", Get(sums, "backend.refusals")},
        {"service.roundtrip_ms",
         Ratio(Get(sums, "service.roundtrip_ms"),
               Get(sums, "service.roundtrips"))},
        {"service.self_ms", Ratio(Get(sums, "service.self_ms"),
                                  Get(sums, "service.roundtrips"))},
        {"service.bytes_per_row",
         Ratio(Get(sums, "service.bytes"), Get(sums, "service.rows"))},
        {"core.mutate_ms", Ratio(span_ms("core.mutate"), writes)},
        {"workload.generate_s", Median(generate_s)},
        {"fresh_p50_ms", Median(sum.fresh_ms)},
        {"fresh_tail_ms", sum.fresh_ms.empty() ? 0.0 : Tail(sum.fresh_ms)},
        {"trace.overhead_share", overhead},
        {"trace.coverage", coverage},
    };
    for (const MetricDecl& d : PerLayerMetrics()) {
      auto it = v.find(d.name);
      double value = it != v.end() ? it->second : Get(sums, d.name) / reads;
      metrics.push_back({d.name, value, d.unit});
    }
  }
  workload->Teardown();
  std::printf("%s\n", ResultJson(correct, n, sum.failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
