// The process-wide metrics substrate (naming scheme: logfs.<subsystem>.<metric>).
//
// The paper's whole argument is quantitative — write cost as a function of
// segment utilization u, cleaner overhead, disk-bandwidth utilization — so
// every layer publishes its counters here instead of growing another ad-hoc
// stats struct. Three instrument kinds:
//
//   * Counter   — monotonically increasing u64 (events, blocks, bytes);
//   * Gauge     — last-written double (utilization, derived write cost);
//   * Histogram — fixed bucket boundaries chosen at registration (latency
//                 and size distributions).
//
// Hot-path increments are single relaxed atomic adds on a handle looked up
// once: Count<"logfs.x.y">(n) caches the handle per metric name, and sites
// that need a gauge or histogram keep a function-local static. The registry
// mutex guards registration only. Everything a snapshot exports is derived
// from SimClock-driven, deterministic execution, so an identical seed
// workload yields a byte-identical snapshot (tests/obs_test.cc holds us to
// that).
//
// Configure with -DLOGFS_METRICS=OFF to compile the layer out: the handle
// getters return shared dummies, the registry stays empty, and every
// increment is an empty inline function the optimizer deletes. That decision
// lives in src/obs alone; instrumentation sites never test the build mode
// (the metrics_gate_lint test enforces it).
#ifndef LOGFS_SRC_OBS_METRICS_H_
#define LOGFS_SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace logfs::obs {

#ifdef LOGFS_METRICS_DISABLED
inline constexpr bool kMetricsEnabled = false;
#else
inline constexpr bool kMetricsEnabled = true;
#endif

class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    if constexpr (kMetricsEnabled) {
      value_.fetch_add(delta, std::memory_order_relaxed);
    } else {
      (void)delta;
    }
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(double value) {
    if constexpr (kMetricsEnabled) {
      value_.store(value, std::memory_order_relaxed);
    } else {
      (void)value;
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram: N upper bounds define N+1 buckets, the last one
// unbounded. Bounds are fixed at registration; a later Get with different
// bounds returns the existing histogram unchanged (first writer wins).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  // i in [0, bounds().size()]; the final slot counts values above every bound.
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  const std::vector<double>& bounds() const { return bounds_; }
  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// One immutable view of every registered instrument, for tools that want to
// diff or post-process rather than print.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  struct HistogramValue {
    std::vector<double> bounds;
    std::vector<uint64_t> buckets;  // bounds.size() + 1 entries.
    uint64_t count = 0;
    double sum = 0.0;
  };
  std::map<std::string, HistogramValue> histograms;
};

// Quantile estimate from a fixed-bucket histogram snapshot: finds the bucket
// containing rank q*count and interpolates linearly between its bounds (the
// paper's distributions are smooth enough inside a bucket for that to be the
// honest choice). The unbounded overflow bucket cannot be interpolated, so a
// rank landing there clamps to the last finite bound. Returns 0 when empty.
// `q` is clamped to [0, 1].
double HistogramQuantile(const MetricsSnapshot::HistogramValue& hv, double q);

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Handles are stable for the registry's lifetime; call once per site and
  // keep the reference (function-local static at the instrumentation site).
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name, std::span<const double> upper_bounds);

  // nullptr when absent (or when metrics are compiled out).
  const Counter* FindCounter(std::string_view name) const;
  const Gauge* FindGauge(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;

  // Zeroes every instrument, keeping registrations (benchmark harnesses
  // reset between phases; the determinism test resets between runs).
  void ResetAll();

  MetricsSnapshot Snapshot() const;
  // Deterministic exports: names sorted, fixed float formatting.
  std::string ToJson() const;
  std::string ToText() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// Shorthand for the process-wide registry at instrumentation sites.
inline MetricsRegistry& Registry() { return MetricsRegistry::Global(); }

// A string literal usable as a template argument (Count<"logfs.x.y">).
template <size_t N>
struct MetricName {
  constexpr MetricName(const char (&name)[N]) {
    for (size_t i = 0; i < N; ++i) value[i] = name[i];
  }
  char value[N];
};

// Adds `delta` to the process-wide counter `Name`. The handle is resolved on
// the first call and cached per name, so the hot path never takes the
// registry mutex; the counter is registered by that first call, zero delta
// included. Compiles to nothing under LOGFS_METRICS=OFF.
template <MetricName Name>
void Count(uint64_t delta = 1) {
  if constexpr (kMetricsEnabled) {
    static Counter& counter = Registry().GetCounter(Name.value);
    counter.Increment(delta);
  } else {
    (void)delta;
  }
}

}  // namespace logfs::obs

#endif  // LOGFS_SRC_OBS_METRICS_H_
