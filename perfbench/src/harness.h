// Measurement and checking helpers shared by the benchmark's workloads.
//
// Everything here sits outside the program under test: timing, the
// result digest behind the byte-identity gate, the ≡SQL contract check, the
// latency summaries, the span attribution of the traced run and the one-line
// JSON result the benchmark prints last.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "algebra/derivation.h"
#include "core/profile.h"
#include "core/relation.h"
#include "core/trace.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double NsToMs(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Peak resident set size of this process in MiB (getrusage ru_maxrss).
double PeakRssMb();
/// User + system CPU seconds consumed by this process so far.
double ProcessCpuSeconds();

/// 64-bit digest of everything that makes two results byte-identical: the
/// schema (names and types), the order annotation, and every value with its
/// type tag, in list order.
uint64_t DigestRelation(const tqp::Relation& rel);

/// The result frames (schema + batch lines) the query service sends for
/// `rel`, rendered exactly as the server renders them — the oracle side of
/// the byte-identity gate after the wire.
std::string RenderWireFrames(const tqp::Relation& rel, size_t batch_rows);

/// The query's ≡SQL contract (Definition 5.1), checked the way the
/// enumeration tests check Theorem 6.1: a list result must be ≡M to the base
/// and ≡L on the ORDER BY attributes, a multiset result ≡M, a set result ≡S.
bool SatisfiesContract(const tqp::QueryContract& contract,
                       const tqp::Relation& base, const tqp::Relation& result);

/// A latency percentile by nearest rank (the sample at rank ceil(p/100·n)).
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

/// The tail the benchmark reports: the highest percentile of the ladder
/// {50, 75, 90, 95, 99, 99.9} that still has at least ten samples beyond its
/// rank. Returns 0 when fewer than 20 samples exist (no ladder step
/// qualifies).
double TailPercentileFor(size_t n);

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the result line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..},..}}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/// Sums ProfileNode self times by operator kind, in nanoseconds.
void AddProfileSelfNs(const tqp::ProfileNode& node,
                      std::map<std::string, uint64_t>* by_kind);

/// Span attribution of the traced run. Every span is recorded through the
/// library's own Tracer/TraceSpan from the benchmark's code, carries the
/// operation id, and is categorised by the layer whose entry point it wraps.
class SpanReport {
 public:
  /// Self time (duration minus the child spans it encloses) summed by
  /// "cat.name" and by category, over every span under an "op" root.
  std::map<std::string, uint64_t> self_ns_by_span;
  std::map<std::string, uint64_t> self_ns_by_layer;
  /// Σ wall of the "op" root spans and Σ self time of their descendants.
  uint64_t op_wall_ns = 0;
  uint64_t covered_ns = 0;
  /// Spans whose op_id differs from their root's (must be zero).
  uint64_t foreign_spans = 0;

  static SpanReport Build(const std::vector<tqp::TraceEvent>& events);
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
