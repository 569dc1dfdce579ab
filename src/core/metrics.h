// A central registry of named counters, gauges, and histograms — the one
// place the flat stats structs (ExecStats, EngineStats, ServerStats) publish
// into, and the one surface the service's `\metrics` frame renders from.
//
// Update paths are lock-free: Counter::Add and Gauge::Set are single relaxed
// atomics, histograms are core/latency_histogram.h (lock-free HDR log-linear
// buckets). The registry mutex guards only name→entry resolution and
// rendering; hot paths resolve their metric pointers once and keep them —
// entries are never removed, so a resolved pointer is valid for the
// registry's lifetime.
//
// Rendering is deterministic (entries kept in a sorted map) in two formats:
// Prometheus text exposition (histograms as summaries with quantile labels)
// and the repo's JSON shape via core/json.h.
#ifndef TQP_CORE_METRICS_H_
#define TQP_CORE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>

#include "core/latency_histogram.h"

namespace tqp {

/// Monotonically increasing event count. Lock-free.
class MetricCounter {
 public:
  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Point-in-time value (set, not accumulated). Lock-free.
class MetricGauge {
 public:
  void Set(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    bits_.store(bits, std::memory_order_relaxed);
  }
  double value() const {
    uint64_t bits = bits_.load(std::memory_order_relaxed);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

 private:
  std::atomic<uint64_t> bits_{0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry the Engine and service publish into.
  /// Tests that need isolation construct their own instance instead.
  static MetricsRegistry& Global();

  /// Resolve-or-create by name. The returned pointer is stable for the
  /// registry's lifetime; resolving an existing name with a different metric
  /// kind aborts (it is a programming error, like a type pun).
  MetricCounter* GetCounter(const std::string& name,
                            const std::string& help = "");
  MetricGauge* GetGauge(const std::string& name, const std::string& help = "");
  LatencyHistogram* GetHistogram(const std::string& name,
                                 const std::string& help = "");

  size_t size() const;

  /// Prometheus text exposition format: # HELP / # TYPE headers, counters
  /// and gauges as plain samples, histograms as summaries
  /// ({quantile="0.5"|"0.9"|"0.99"|"0.999"} + _sum + _count). Names render
  /// in sorted order, so two renders of the same state are byte-identical.
  std::string ToPrometheusText() const;

  /// {"name":{"type":"counter","value":N}, "name":{"type":"histogram",
  ///  ...latency_histogram shape...}, ...} — same sorted order.
  std::string ToJson() const;

  /// Zeroes every registered metric (entries and resolved pointers stay
  /// valid). Test support; not safe against concurrent updates.
  void ResetAll();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<MetricCounter> counter;
    std::unique_ptr<MetricGauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
  };

  Entry* GetEntry(const std::string& name, Kind kind, const std::string& help);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

/// Publishes a stats struct's numeric fields (its ForEachField list, minus
/// strings and JsonOnly fields) as gauges named `prefix` + field name.
/// Gauges are *set*, not accumulated: a stats snapshot is already
/// cumulative, so republishing the same snapshot is idempotent.
template <typename Stats>
void PublishStatsGauges(const Stats& stats, const std::string& prefix,
                        MetricsRegistry* registry) {
  stats.ForEachField([&](const char* name, const auto& value) {
    using T = std::decay_t<decltype(value)>;
    if constexpr (std::is_arithmetic_v<T>) {
      registry->GetGauge(prefix + name)->Set(static_cast<double>(value));
    }
  });
}

}  // namespace tqp

#endif  // TQP_CORE_METRICS_H_
