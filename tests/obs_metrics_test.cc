// Unit tests for the observability layer's metric primitives: sharded
// counter folding, histogram bucket boundaries and percentile
// exactness, deterministic merge, the runtime enable switch, and the
// registry's Prometheus rendering — including a concurrent stress that
// races increments against RenderPrometheus for the TSan job.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/registry.h"

namespace slimfast {
namespace obs {
namespace {

TEST(ShardedCounterTest, FoldsSingleThreadedIncrements) {
  ShardedCounter counter;
  EXPECT_EQ(counter.Value(), 0);
  counter.Increment();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42);
}

TEST(ShardedCounterTest, FoldIsExactAcrossConcurrentWriters) {
  // Every increment lands in exactly one slot, so the folded value
  // must equal the total number of increments regardless of how
  // threads hash onto slots.
  constexpr int kThreads = 8;
  constexpr int64_t kPerThread = 50000;
  ShardedCounter counter;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&counter] {
      for (int64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(2.5);
  EXPECT_EQ(gauge.Value(), 2.5);
  gauge.Set(-0.125);
  EXPECT_EQ(gauge.Value(), -0.125);
}

TEST(EnabledTest, TestOverrideRoundTrips) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const bool prior = SetEnabledForTest(true);
  EXPECT_TRUE(Enabled());
  EXPECT_TRUE(SetEnabledForTest(false));
  EXPECT_FALSE(Enabled());
  SetEnabledForTest(prior);
  EXPECT_EQ(Enabled(), prior);
}

TEST(LatencyHistogramTest, BucketBoundariesRoundTrip) {
  // Every value must land in a bucket whose inclusive upper bound is
  // >= the value, and the bucket below (when it exists) must have an
  // upper bound < the value — i.e. BucketIndex and BucketUpperBound
  // agree on the partition.
  const int64_t probes[] = {0,    1,    2,     3,     15,        16,
                            17,   31,   32,    33,    255,       256,
                            257,  1000, 4095,  4096,  4097,      65535,
                            1 << 20,    (1LL << 30) + 12345,
                            (1LL << 34) + (1LL << 33)};
  for (int64_t value : probes) {
    const uint32_t index = LatencyHistogram::BucketIndex(value);
    ASSERT_LT(index, kHistBuckets) << "value " << value;
    EXPECT_GE(LatencyHistogram::BucketUpperBound(index), value)
        << "value " << value << " bucket " << index;
    if (index > 0 && value > 0) {
      EXPECT_LT(LatencyHistogram::BucketUpperBound(index - 1), value)
          << "value " << value << " bucket " << index;
    }
  }
}

TEST(LatencyHistogramTest, UnderflowAndOverflowNeverDrop) {
  LatencyHistogram hist;
  hist.Record(0);
  hist.Record(-5);  // clamps to underflow
  hist.Record(1LL << 40);
  hist.Record(INT64_MAX);
  EXPECT_EQ(hist.Count(), 4);
  EXPECT_EQ(LatencyHistogram::BucketIndex(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(-1), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1LL << 40), kHistBuckets - 1);
}

TEST(LatencyHistogramTest, PercentilesAreExactNearestRank) {
  // 100 samples over values 1..20, five of each: octaves up to 4
  // (values 1..31) get width-1 sub-buckets, so nearest-rank
  // percentiles here must be *exact*, not approximate.
  LatencyHistogram hist;
  for (int64_t v = 1; v <= 20; ++v) {
    for (int i = 0; i < 5; ++i) hist.Record(v);
  }
  EXPECT_EQ(hist.Count(), 100);
  EXPECT_EQ(hist.SumNanos(), 5 * 210);
  EXPECT_EQ(hist.PercentileNanos(0.50), 10);  // rank 50 -> 10th value
  EXPECT_EQ(hist.PercentileNanos(0.95), 19);
  EXPECT_EQ(hist.PercentileNanos(0.99), 20);
  EXPECT_EQ(hist.PercentileNanos(1.0), 20);
  EXPECT_EQ(hist.PercentileNanos(0.0), 1);  // rank clamps to the minimum
  EXPECT_EQ(hist.MaxNanos(), 20);
}

TEST(LatencyHistogramTest, PercentileIsMonotoneInQ) {
  LatencyHistogram hist;
  for (int64_t v = 1; v <= 2000000; v += 997) hist.Record(v);
  int64_t previous = 0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const int64_t p = hist.PercentileNanos(q);
    EXPECT_GE(p, previous) << "q=" << q;
    previous = p;
  }
}

TEST(LatencyHistogramTest, PercentileWithinOneSubBucket) {
  // For large values the bucket width is bounded by 1/16 of the value;
  // the reported percentile must stay within that relative error of
  // the true sample percentile.
  LatencyHistogram hist;
  std::vector<int64_t> samples;
  uint64_t state = 12345;
  for (int i = 0; i < 10000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    samples.push_back(static_cast<int64_t>(state >> 40) + 1000);
    hist.Record(samples.back());
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.5, 0.95, 0.99}) {
    const size_t rank = static_cast<size_t>(q * samples.size());
    const int64_t exact = samples[std::min(rank, samples.size() - 1)];
    const int64_t reported = hist.PercentileNanos(q);
    EXPECT_GE(reported, exact * (1.0 - 1.0 / kHistSubBuckets)) << "q=" << q;
    EXPECT_LE(reported, exact * (1.0 + 1.0 / kHistSubBuckets)) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, MergeIsOrderIndependent) {
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram c;
  uint64_t state = 99;
  for (int i = 0; i < 3000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const int64_t v = static_cast<int64_t>(state >> 44);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).Record(v);
  }
  LatencyHistogram abc;
  abc.Merge(a);
  abc.Merge(b);
  abc.Merge(c);
  LatencyHistogram cba;
  cba.Merge(c);
  cba.Merge(b);
  cba.Merge(a);
  EXPECT_EQ(abc.Count(), 3000);
  EXPECT_EQ(abc.Count(), cba.Count());
  EXPECT_EQ(abc.SumNanos(), cba.SumNanos());
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    EXPECT_EQ(abc.PercentileNanos(q), cba.PercentileNanos(q)) << "q=" << q;
  }
  EXPECT_EQ(abc.MaxNanos(), cba.MaxNanos());
}

TEST(LatencyHistogramTest, ResetClears) {
  LatencyHistogram hist;
  hist.Record(123);
  hist.Reset();
  EXPECT_EQ(hist.Count(), 0);
  EXPECT_EQ(hist.SumNanos(), 0);
  EXPECT_EQ(hist.PercentileNanos(0.5), 0);
  EXPECT_EQ(hist.MaxNanos(), 0);
}

TEST(RegistryTest, SameNameSameMetric) {
  Registry::Global().ResetForTest();
  ShardedCounter* counter = GetCounter("slimfast_test_total");
  EXPECT_EQ(counter, GetCounter("slimfast_test_total"));
  EXPECT_NE(static_cast<void*>(counter),
            static_cast<void*>(GetGauge("slimfast_test_gauge")));
  Registry::Global().ResetForTest();
}

TEST(RegistryTest, RenderPrometheusFormat) {
  // Pins the dump format: sorted families, one # TYPE line each,
  // summary quantiles for histograms, and the terminating # EOF.
  Registry::Global().ResetForTest();
  GetCounter("slimfast_test_events_total")->Add(7);
  GetGauge("slimfast_test_depth")->Set(3.5);
  LatencyHistogram* hist =
      GetHistogram("slimfast_test_latency_seconds{stage=\"a\"}");
  for (int64_t v = 1; v <= 100; ++v) hist->Record(v * 1000000LL);  // 1..100ms
  const std::string text = Registry::Global().RenderPrometheus();

  EXPECT_NE(text.find("# TYPE slimfast_test_depth gauge\n"
                      "slimfast_test_depth 3.5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE slimfast_test_events_total counter\n"
                      "slimfast_test_events_total 7\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE slimfast_test_latency_seconds summary\n"),
            std::string::npos)
      << text;
  // The rendered quantile is the histogram's own percentile, formatted
  // exactly as the registry formats values (%.9g, seconds).
  char quantile_line[128];
  std::snprintf(
      quantile_line, sizeof(quantile_line),
      "slimfast_test_latency_seconds{stage=\"a\",quantile=\"0.5\"} %.9g\n",
      static_cast<double>(hist->PercentileNanos(0.5)) * 1e-9);
  EXPECT_NE(text.find(quantile_line), std::string::npos) << text;
  EXPECT_NE(
      text.find("slimfast_test_latency_seconds_count{stage=\"a\"} 100\n"),
      std::string::npos)
      << text;
  // Deterministically sorted and EOF-terminated.
  EXPECT_LT(text.find("slimfast_test_depth"),
            text.find("slimfast_test_events_total"));
  EXPECT_LT(text.find("slimfast_test_events_total"),
            text.find("slimfast_test_latency_seconds"));
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6) << text;
  EXPECT_EQ(Registry::Global().RenderPrometheus(), text);
  Registry::Global().ResetForTest();
}

TEST(RegistryTest, ConcurrentUpdatesRacingRenderAreClean) {
  // TSan stress: writer threads hammer a counter, a gauge, and a
  // histogram while readers render the whole registry. Any missing
  // synchronization (or a non-atomic read in the renderer) fails the
  // TSan job; the final folded values must still be exact.
  const bool prior = SetEnabledForTest(true);
  Registry::Global().ResetForTest();
  constexpr int kWriters = 4;
  constexpr int64_t kPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([] {
      ShardedCounter* counter = GetCounter("slimfast_stress_total");
      LatencyHistogram* hist = GetHistogram("slimfast_stress_seconds");
      Gauge* gauge = GetGauge("slimfast_stress_depth");
      for (int64_t i = 0; i < kPerWriter; ++i) {
        counter->Increment();
        hist->Record(i);
        gauge->Set(static_cast<double>(i));
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string text = Registry::Global().RenderPrometheus();
        ASSERT_NE(text.find("# EOF"), std::string::npos);
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) threads[static_cast<size_t>(t)].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(GetCounter("slimfast_stress_total")->Value(),
            kWriters * kPerWriter);
  EXPECT_EQ(GetHistogram("slimfast_stress_seconds")->Count(),
            kWriters * kPerWriter);
  Registry::Global().ResetForTest();
  SetEnabledForTest(prior);
}

}  // namespace
}  // namespace obs
}  // namespace slimfast
