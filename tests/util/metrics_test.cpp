#include "scada/util/metrics.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "scada/io/json.hpp"

namespace scada::util {
namespace {

TEST(MetricsTest, CounterAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsTest, GaugeTracksLevel) {
  Gauge g;
  g.set(10);
  g.add(5);
  g.sub(7);
  EXPECT_EQ(g.value(), 8);
  g.sub(20);
  EXPECT_EQ(g.value(), -12);  // gauges are signed
}

TEST(MetricsTest, HistogramAggregates) {
  Histogram h;
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_DOUBLE_EQ(h.snapshot().mean_ms(), 0.0);

  h.record(1.0);
  h.record(3.0);
  h.record(8.0);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_NEAR(s.sum_ms, 12.0, 1e-6);
  EXPECT_NEAR(s.mean_ms(), 4.0, 1e-6);
  EXPECT_NEAR(s.min_ms, 1.0, 1e-6);
  EXPECT_NEAR(s.max_ms, 8.0, 1e-6);

  std::uint64_t bucketed = 0;
  for (const std::uint64_t b : s.buckets) bucketed += b;
  EXPECT_EQ(bucketed, 3u);  // every sample lands in exactly one bucket
}

TEST(MetricsTest, HistogramBucketBoundsDouble) {
  EXPECT_DOUBLE_EQ(Histogram::upper_bound_ms(0), 0.25);
  EXPECT_DOUBLE_EQ(Histogram::upper_bound_ms(1), 0.5);
  EXPECT_DOUBLE_EQ(Histogram::upper_bound_ms(2) * 2.0, Histogram::upper_bound_ms(3));
  // The last bucket is the unbounded overflow bucket.
  EXPECT_GT(Histogram::upper_bound_ms(Histogram::kBuckets - 1), 1e12);
}

TEST(MetricsTest, RegistryReturnsStableHandles) {
  MetricsRegistry registry;
  Counter& a = registry.counter("jobs");
  Counter& b = registry.counter("jobs");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(registry.counter("jobs").value(), 1u);
  // Names are namespaced per kind: a gauge "jobs" is a distinct instrument.
  registry.gauge("jobs").set(-5);
  EXPECT_EQ(registry.counter("jobs").value(), 1u);
  EXPECT_EQ(registry.gauge("jobs").value(), -5);
}

TEST(MetricsTest, SnapshotListsEveryInstrument) {
  MetricsRegistry registry;
  registry.counter("c1").inc(3);
  registry.gauge("g1").set(7);
  registry.histogram("h1").record(2.0);

  const std::vector<MetricSample> samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  bool saw_counter = false, saw_gauge = false, saw_histogram = false;
  for (const MetricSample& s : samples) {
    if (s.kind == MetricSample::Kind::Counter && s.name == "c1") {
      saw_counter = true;
      EXPECT_EQ(s.value, 3);
    } else if (s.kind == MetricSample::Kind::Gauge && s.name == "g1") {
      saw_gauge = true;
      EXPECT_EQ(s.value, 7);
    } else if (s.kind == MetricSample::Kind::Histogram && s.name == "h1") {
      saw_histogram = true;
      EXPECT_EQ(s.histogram.count, 1u);
    }
  }
  EXPECT_TRUE(saw_counter && saw_gauge && saw_histogram);
}

TEST(MetricsTest, ToJsonIsWellFormed) {
  MetricsRegistry registry;
  registry.counter("scheduler.jobs_done").inc(2);
  registry.gauge("scheduler.queue_depth").set(1);
  registry.histogram("scheduler.run_ms").record(1.5);

  const io::JsonValue v = io::parse_json(registry.to_json());
  EXPECT_EQ(v.find("counters")->find("scheduler.jobs_done")->as_int(), 2);
  EXPECT_EQ(v.find("gauges")->find("scheduler.queue_depth")->as_int(), 1);
  const io::JsonValue* h = v.find("histograms")->find("scheduler.run_ms");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->as_int(), 1);
  EXPECT_NEAR(h->find("mean_ms")->as_double(), 1.5, 1e-6);
}

TEST(MetricsTest, PercentilesComeFromTheBuckets) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat");
  const auto rendered = [&registry] {
    return *io::parse_json(registry.to_json()).find("histograms")->find("lat");
  };
  // Empty: every percentile and bucket renders as zero.
  const io::JsonValue empty = rendered();
  for (const char* key : {"count", "p50_ms", "p90_ms", "p99_ms"}) {
    EXPECT_DOUBLE_EQ(empty.find(key)->as_double(), 0.0) << key;
  }
  ASSERT_EQ(empty.find("buckets")->items().size(), Histogram::kBuckets);
  for (const io::JsonValue& n : empty.find("buckets")->items()) EXPECT_EQ(n.as_int(), 0);

  // 100 samples: 50 in [1, 2) ms, 40 in [4, 8), 9 in [16, 32), 1 in [256, 512).
  for (int i = 0; i < 50; ++i) h.record(1.5);
  for (int i = 0; i < 40; ++i) h.record(5.0);
  for (int i = 0; i < 9; ++i) h.record(20.0);
  h.record(300.0);
  const HistogramSnapshot s = h.snapshot();
  const auto in = [](double v, double lo, double hi) { return v >= lo && v < hi; };
  EXPECT_TRUE(in(s.percentile_ms(0.5), 1.0, 2.0)) << s.percentile_ms(0.5);
  EXPECT_TRUE(in(s.percentile_ms(0.9), 4.0, 8.0)) << s.percentile_ms(0.9);
  EXPECT_TRUE(in(s.percentile_ms(0.99), 16.0, 32.0)) << s.percentile_ms(0.99);
  EXPECT_DOUBLE_EQ(s.percentile_ms(1.0), 300.0);  // clamped to the largest sample

  const io::JsonValue lat = rendered();
  EXPECT_TRUE(in(lat.find("p50_ms")->as_double(), 1.0, 2.0));
  EXPECT_TRUE(in(lat.find("p90_ms")->as_double(), 4.0, 8.0));
  EXPECT_TRUE(in(lat.find("p99_ms")->as_double(), 16.0, 32.0));
  const std::vector<io::JsonValue>& buckets = lat.find("buckets")->items();
  ASSERT_EQ(buckets.size(), Histogram::kBuckets);
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    const std::int64_t expected = i == 3 ? 50 : i == 5 ? 40 : i == 7 ? 9 : i == 11 ? 1 : 0;
    EXPECT_EQ(buckets[i].as_int(), expected) << "bucket " << i;
  }
}

TEST(MetricsTest, ConcurrentRecordingLosesNothing) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("hits");
  Histogram& histogram = registry.histogram("lat");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter, &histogram] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.inc();
        histogram.record(0.1);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(histogram.snapshot().count, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace scada::util
