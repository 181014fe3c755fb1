// Lightweight in-process metrics for the service layer: counters, gauges and
// latency histograms collected in a name-keyed registry.
//
// Hot-path operations (Counter::add, Gauge::set, Histogram::record) are
// lock-free atomics so scheduler workers can instrument without contending;
// the registry mutex is only taken when a metric is first created or when a
// snapshot is rendered. Instrument handles returned by the registry stay
// valid for the registry's lifetime (node-based storage, never rehashed
// away).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace scada::util {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed level (queue depth, in-flight jobs).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  void sub(std::int64_t n) noexcept { value_.fetch_sub(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Aggregated view of a histogram at one point in time.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum_ms = 0.0;
  double min_ms = 0.0;  ///< 0 when count == 0
  double max_ms = 0.0;
  /// bucket[i] counts samples with value < upper_bound_ms(i); the last
  /// bucket is unbounded.
  std::vector<std::uint64_t> buckets;

  [[nodiscard]] double mean_ms() const noexcept {
    return count == 0 ? 0.0 : sum_ms / static_cast<double>(count);
  }

  /// The q-quantile (0 < q <= 1) estimated from the buckets: interpolated
  /// linearly inside the bucket holding the rank, so it lies in that bucket,
  /// and clamped to [min_ms, max_ms] (the overflow bucket ends at max_ms).
  /// 0 when empty.
  [[nodiscard]] double percentile_ms(double q) const noexcept;
};

/// Latency histogram over fixed power-of-two millisecond buckets:
/// < 0.25 ms, < 0.5 ms, ..., < 8192 ms, and one overflow bucket. record()
/// is wait-free (per-bucket atomic increments; the sum is accumulated in
/// nanoseconds to stay a plain integer atomic).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 17;

  /// Exclusive upper bound of bucket `i` in milliseconds (infinity for the
  /// last bucket, returned as a very large sentinel).
  [[nodiscard]] static double upper_bound_ms(std::size_t i) noexcept;

  void record(double ms) noexcept;

  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> min_ns_{~0ULL};
  std::atomic<std::uint64_t> max_ns_{0};
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

/// One named value in a registry snapshot.
struct MetricSample {
  enum class Kind { Counter, Gauge, Histogram };
  Kind kind = Kind::Counter;
  std::string name;
  std::int64_t value = 0;  ///< counter / gauge value
  HistogramSnapshot histogram;  ///< populated for histograms
};

/// Name-keyed instrument registry. counter()/gauge()/histogram() return the
/// existing instrument when the name is already registered (names are
/// namespaced by kind). Rendering: snapshot() for programmatic access,
/// to_json() for the service "stats" response.
class MetricsRegistry {
 public:
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name);

  /// All instruments, sorted by name within each kind.
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  /// {"counters":{...},"gauges":{...},"histograms":{"name":{"count":n,
  ///  "sum_ms":x,"mean_ms":x,"min_ms":x,"max_ms":x,"p50_ms":x,"p90_ms":x,
  ///  "p99_ms":x,"buckets":[n,...]}}}; buckets[i] counts samples below
  ///  Histogram::upper_bound_ms(i), the last one is unbounded.
  [[nodiscard]] std::string to_json() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace scada::util
