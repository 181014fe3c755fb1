#include "scada/util/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace scada::util {
namespace {

constexpr double kNsPerMs = 1e6;

/// Smallest exclusive upper bound: 0.25 ms; each bucket doubles.
constexpr double kFirstBoundMs = 0.25;

void atomic_min(std::atomic<std::uint64_t>& target, std::uint64_t v) noexcept {
  std::uint64_t cur = target.load(std::memory_order_relaxed);
  while (v < cur && !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<std::uint64_t>& target, std::uint64_t v) noexcept {
  std::uint64_t cur = target.load(std::memory_order_relaxed);
  while (v > cur && !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

double Histogram::upper_bound_ms(std::size_t i) noexcept {
  if (i + 1 >= kBuckets) return 1e300;  // overflow bucket
  return kFirstBoundMs * static_cast<double>(1ULL << i);
}

void Histogram::record(double ms) noexcept {
  if (!(ms >= 0.0)) ms = 0.0;  // clamp negatives and NaN
  const auto ns = static_cast<std::uint64_t>(ms * kNsPerMs);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  atomic_min(min_ns_, ns);
  atomic_max(max_ns_, ns);
  std::size_t bucket = 0;
  while (bucket + 1 < kBuckets && ms >= upper_bound_ms(bucket)) ++bucket;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum_ms = static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) / kNsPerMs;
  const std::uint64_t min_ns = min_ns_.load(std::memory_order_relaxed);
  s.min_ms = (s.count == 0 || min_ns == ~0ULL)
                 ? 0.0
                 : static_cast<double>(min_ns) / kNsPerMs;
  s.max_ms = static_cast<double>(max_ns_.load(std::memory_order_relaxed)) / kNsPerMs;
  s.buckets.resize(kBuckets);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

double HistogramSnapshot::percentile_ms(double q) const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t n : buckets) total += n;
  if (total == 0) return 0.0;
  // The rank'th smallest sample, 1-based; the buckets rather than `count`
  // fix the total, since a snapshot may race a record().
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))), 1, total);
  std::uint64_t below = 0;
  std::size_t i = 0;
  while (below + buckets[i] < rank) below += buckets[i++];
  const double lower = i == 0 ? 0.0 : Histogram::upper_bound_ms(i - 1);
  const double upper = i + 1 == buckets.size() ? max_ms : Histogram::upper_bound_ms(i);
  // The rank'th sample sits mid-way through its 1/n share of the bucket.
  const double within =
      (static_cast<double>(rank - below) - 0.5) / static_cast<double>(buckets[i]);
  return std::clamp(lower + (upper - lower) * within, min_ms, std::max(min_ms, max_ms));
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSample s;
    s.kind = MetricSample::Kind::Counter;
    s.name = name;
    s.value = static_cast<std::int64_t>(c->value());
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSample s;
    s.kind = MetricSample::Kind::Gauge;
    s.name = name;
    s.value = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSample s;
    s.kind = MetricSample::Kind::Histogram;
    s.name = name;
    s.histogram = h->snapshot();
    out.push_back(std::move(s));
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  const std::vector<MetricSample> samples = snapshot();
  std::string counters, gauges, histograms;
  for (const MetricSample& s : samples) {
    switch (s.kind) {
      case MetricSample::Kind::Counter:
        if (!counters.empty()) counters += ",";
        counters += "\"" + s.name + "\":" + std::to_string(s.value);
        break;
      case MetricSample::Kind::Gauge:
        if (!gauges.empty()) gauges += ",";
        gauges += "\"" + s.name + "\":" + std::to_string(s.value);
        break;
      case MetricSample::Kind::Histogram: {
        if (!histograms.empty()) histograms += ",";
        const HistogramSnapshot& h = s.histogram;
        histograms += "\"" + s.name + "\":{\"count\":" + std::to_string(h.count) +
                      ",\"sum_ms\":" + number(h.sum_ms) + ",\"mean_ms\":" + number(h.mean_ms()) +
                      ",\"min_ms\":" + number(h.min_ms) + ",\"max_ms\":" + number(h.max_ms) +
                      ",\"p50_ms\":" + number(h.percentile_ms(0.5)) +
                      ",\"p90_ms\":" + number(h.percentile_ms(0.9)) +
                      ",\"p99_ms\":" + number(h.percentile_ms(0.99)) + ",\"buckets\":[";
        for (std::size_t i = 0; i < h.buckets.size(); ++i) {
          if (i > 0) histograms += ",";
          histograms += std::to_string(h.buckets[i]);
        }
        histograms += "]}";
        break;
      }
    }
  }
  return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges + "},\"histograms\":{" +
         histograms + "}}";
}

}  // namespace scada::util
