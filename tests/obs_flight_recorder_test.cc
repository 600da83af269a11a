// Unit tests for the flight-recorder primitives: the mockable
// monotonic clock, time-series ring wraparound / gap carry-forward /
// counter-rate-over-reset, event-ring overflow accounting, SLO
// watchdog latching + hysteresis (including an engineered relearn
// stall), the slow-log's adaptive capture threshold, and
// LatencyHistogram merge/percentile boundary behavior.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/clock.h"
#include "obs/event_log.h"
#include "obs/histogram.h"
#include "obs/slow_log.h"
#include "obs/timeseries.h"
#include "obs/watchdog.h"

namespace slimfast {
namespace obs {
namespace {

constexpr int64_t kSecond = 1'000'000'000LL;

/// Pins the clock for a test body and always restores the real clock.
class ScopedTestClock {
 public:
  explicit ScopedTestClock(int64_t nanos) { Clock::SetNowForTest(nanos); }
  ~ScopedTestClock() { Clock::SetNowForTest(-1); }
  void Set(int64_t nanos) { Clock::SetNowForTest(nanos); }
};

TEST(ClockTest, TestOverridePinsAndRestores) {
  {
    ScopedTestClock pinned(123 * kSecond);
    EXPECT_EQ(Clock::NowNanos(), 123 * kSecond);
    pinned.Set(125 * kSecond);
    EXPECT_EQ(Clock::NowNanos(), 125 * kSecond);
  }
  // Restored: two reads of the real steady clock are monotone.
  const int64_t a = Clock::NowNanos();
  const int64_t b = Clock::NowNanos();
  EXPECT_LE(a, b);
  EXPECT_DOUBLE_EQ(Clock::SecondsBetween(0, 1'500'000'000LL), 1.5);
}

TEST(TimeSeriesTest, SameBucketLastWins) {
  TimeSeries series("t", SeriesKind::kGauge, {{kSecond, 4}});
  series.Record(10 * kSecond, 1.0);
  series.Record(10 * kSecond + 1, 2.0);
  const std::vector<SeriesSample> samples = series.Samples(0);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].bucket_start_ns, 10 * kSecond);
  EXPECT_EQ(samples[0].value, 2.0);
  EXPECT_EQ(series.Latest(), 2.0);
}

TEST(TimeSeriesTest, WraparoundKeepsTheNewestCapacityBuckets) {
  TimeSeries series("t", SeriesKind::kGauge, {{kSecond, 4}});
  for (int64_t i = 0; i < 7; ++i) {
    series.Record(i * kSecond, static_cast<double>(i));
  }
  const std::vector<SeriesSample> samples = series.Samples(0);
  ASSERT_EQ(samples.size(), 4u);
  for (size_t i = 0; i < samples.size(); ++i) {
    // Oldest-first: buckets 3, 4, 5, 6 survive.
    EXPECT_EQ(samples[i].bucket_start_ns,
              static_cast<int64_t>(3 + i) * kSecond);
    EXPECT_EQ(samples[i].value, static_cast<double>(3 + i));
  }
  // max_samples trims from the old end.
  const std::vector<SeriesSample> tail = series.Samples(0, 2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].value, 5.0);
  EXPECT_EQ(tail[1].value, 6.0);
}

TEST(TimeSeriesTest, SamplingGapCarriesTheValueForward) {
  TimeSeries series("t", SeriesKind::kGauge, {{kSecond, 8}});
  series.Record(0, 5.0);
  series.Record(3 * kSecond, 9.0);
  const std::vector<SeriesSample> samples = series.Samples(0);
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[0].value, 5.0);  // bucket 0: the sample
  EXPECT_EQ(samples[1].value, 5.0);  // buckets 1-2: carried forward
  EXPECT_EQ(samples[2].value, 5.0);
  EXPECT_EQ(samples[3].value, 9.0);  // bucket 3: the new sample
}

TEST(TimeSeriesTest, GapLongerThanTheRingRestartsIt) {
  TimeSeries series("t", SeriesKind::kGauge, {{kSecond, 4}});
  series.Record(0, 1.0);
  series.Record(100 * kSecond, 2.0);
  const std::vector<SeriesSample> samples = series.Samples(0);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].bucket_start_ns, 100 * kSecond);
  EXPECT_EQ(samples[0].value, 2.0);
}

TEST(TimeSeriesTest, CounterRatesHandleAResetAsPrometheusDoes) {
  TimeSeries series("t", SeriesKind::kCounter, {{kSecond, 8}});
  series.Record(0 * kSecond, 10.0);
  series.Record(1 * kSecond, 25.0);
  series.Record(2 * kSecond, 5.0);  // the process restarted
  series.Record(3 * kSecond, 8.0);
  const std::vector<double> rates = series.Rates(0);
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_DOUBLE_EQ(rates[0], 15.0);  // 10 -> 25
  EXPECT_DOUBLE_EQ(rates[1], 5.0);   // reset: the new value itself
  EXPECT_DOUBLE_EQ(rates[2], 3.0);   // 5 -> 8
}

TEST(TimeSeriesStoreTest, RegistersFindsAndListsSorted) {
  TimeSeriesStore& store = TimeSeriesStore::Global();
  store.ResetForTest();
  TimeSeries* b = store.Series("test.b", SeriesKind::kGauge);
  TimeSeries* a = store.Series("test.a", SeriesKind::kCounter);
  EXPECT_EQ(store.Series("test.b", SeriesKind::kGauge), b);
  EXPECT_EQ(store.Find("test.a"), a);
  EXPECT_EQ(store.Find("test.missing"), nullptr);
  const std::vector<std::string> names = store.Names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "test.a");
  EXPECT_EQ(names[1], "test.b");
  store.ResetForTest();
}

TEST(EventLogTest, OverflowDropsTheOldestAndCountsIt) {
  EventLog log(3);
  for (int i = 0; i < 5; ++i) {
    log.Emit(EventSeverity::kInfo, "test", i, "event " + std::to_string(i));
  }
  EXPECT_EQ(log.total(), 5);
  EXPECT_EQ(log.dropped(), 2);
  const std::vector<Event> recent = log.Recent();
  ASSERT_EQ(recent.size(), 3u);
  // Oldest-first, and the two oldest are gone.
  EXPECT_EQ(recent[0].message, "event 2");
  EXPECT_EQ(recent[1].message, "event 3");
  EXPECT_EQ(recent[2].message, "event 4");
  // Recent(n) returns the newest n, still oldest-first.
  const std::vector<Event> last_two = log.Recent(2);
  ASSERT_EQ(last_two.size(), 2u);
  EXPECT_EQ(last_two[0].message, "event 3");
  EXPECT_EQ(last_two[1].message, "event 4");
}

TEST(EventLogTest, SeverityNamesAreTheWireTokens) {
  EXPECT_STREQ(EventSeverityName(EventSeverity::kInfo), "INFO");
  EXPECT_STREQ(EventSeverityName(EventSeverity::kWarn), "WARN");
  EXPECT_STREQ(EventSeverityName(EventSeverity::kError), "ERROR");
}

TEST(WatchdogTest, UnconfiguredWatchesNothing) {
  SloWatchdog watchdog{SloWatchdogOptions{}};
  EXPECT_FALSE(watchdog.active());
  SloInputs inputs;
  inputs.query_p99_seconds = 1e9;  // absurd, but no rule is armed
  const SloVerdict verdict = watchdog.Evaluate(inputs);
  EXPECT_TRUE(verdict.ok);
  EXPECT_TRUE(verdict.breached_rules.empty());
  EXPECT_TRUE(verdict.transitions.empty());
}

TEST(WatchdogTest, LatchesAndClearsWithHysteresis) {
  SloWatchdogOptions options;
  options.staleness_ceiling_seconds = 10.0;
  SloWatchdog watchdog(options);
  EXPECT_TRUE(watchdog.active());

  SloInputs inputs;
  inputs.max_staleness_seconds = 11.0;
  SloVerdict verdict = watchdog.Evaluate(inputs);
  EXPECT_FALSE(verdict.ok);
  ASSERT_EQ(verdict.breached_rules.size(), 1u);
  EXPECT_EQ(verdict.breached_rules[0], "staleness");
  ASSERT_EQ(verdict.transitions.size(), 1u);
  EXPECT_TRUE(verdict.transitions[0].breached);
  EXPECT_EQ(verdict.transitions[0].value, 11.0);
  EXPECT_EQ(verdict.transitions[0].ceiling, 10.0);

  // Back under the ceiling but above the clear line (8.0): still
  // latched, and crucially no transition — the rule must not flap.
  inputs.max_staleness_seconds = 9.0;
  verdict = watchdog.Evaluate(inputs);
  EXPECT_FALSE(verdict.ok);
  EXPECT_TRUE(verdict.transitions.empty());

  // Oscillating across the ceiling while latched: still no transition.
  inputs.max_staleness_seconds = 10.5;
  verdict = watchdog.Evaluate(inputs);
  EXPECT_FALSE(verdict.ok);
  EXPECT_TRUE(verdict.transitions.empty());

  // At the clear line: exactly one clear transition.
  inputs.max_staleness_seconds = 8.0;
  verdict = watchdog.Evaluate(inputs);
  EXPECT_TRUE(verdict.ok);
  ASSERT_EQ(verdict.transitions.size(), 1u);
  EXPECT_FALSE(verdict.transitions[0].breached);
  EXPECT_TRUE(verdict.breached_rules.empty());
}

TEST(WatchdogTest, DetectsAnEngineeredRelearnStall) {
  SloWatchdogOptions options;
  options.relearn_stall_seconds = 1.0;
  SloWatchdog watchdog(options);

  // A stale heartbeat without pending work is idleness, not a stall.
  SloInputs inputs;
  inputs.heartbeat_age_seconds = 5.0;
  inputs.backlog_nonzero = false;
  EXPECT_TRUE(watchdog.Evaluate(inputs).ok);

  // The same heartbeat age with work pending is a wedged driver.
  inputs.backlog_nonzero = true;
  SloVerdict verdict = watchdog.Evaluate(inputs);
  EXPECT_FALSE(verdict.ok);
  ASSERT_EQ(verdict.breached_rules.size(), 1u);
  EXPECT_EQ(verdict.breached_rules[0], "relearn_stall");

  // The backlog draining clears the rule even while the heartbeat
  // number is still large (the gate guards the breach state).
  inputs.backlog_nonzero = false;
  verdict = watchdog.Evaluate(inputs);
  EXPECT_TRUE(verdict.ok);
  ASSERT_EQ(verdict.transitions.size(), 1u);
  EXPECT_FALSE(verdict.transitions[0].breached);
}

TEST(WatchdogTest, ReportsMultipleBreachedRulesInFixedOrder) {
  SloWatchdogOptions options;
  options.query_p99_ceiling_seconds = 0.001;
  options.staleness_ceiling_seconds = 1.0;
  options.queue_high_water = 0.5;
  SloWatchdog watchdog(options);
  SloInputs inputs;
  inputs.query_p99_seconds = 1.0;
  inputs.max_staleness_seconds = 2.0;
  inputs.queue_fraction = 0.9;
  const SloVerdict verdict = watchdog.Evaluate(inputs);
  EXPECT_FALSE(verdict.ok);
  ASSERT_EQ(verdict.breached_rules.size(), 3u);
  EXPECT_EQ(verdict.breached_rules[0], "query_p99");
  EXPECT_EQ(verdict.breached_rules[1], "staleness");
  EXPECT_EQ(verdict.breached_rules[2], "queue_depth");
}

TEST(SlowLogTest, CapturesOnlyAboveTheAdaptiveThreshold) {
  SlowLog log(/*capacity=*/4, /*min_threshold_ns=*/1000,
              /*multiplier=*/4.0);
  // Typical operations settle the EWMA at ~1000ns; none captured
  // (threshold = max(1000, 4 * ewma) stays above every offer).
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(log.Offer("query", 1000, /*shard=*/0, "object=1"));
  }
  EXPECT_EQ(log.captured(), 0);
  EXPECT_EQ(log.ThresholdNanos(), 4000);

  // A 10x outlier clears the threshold and is captured with its detail.
  EXPECT_TRUE(log.Offer("query", 10000, /*shard=*/2, "object=42"));
  EXPECT_EQ(log.captured(), 1);
  const std::vector<SlowExemplar> recent = log.Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].kind, "query");
  EXPECT_EQ(recent[0].duration_ns, 10000);
  EXPECT_EQ(recent[0].shard, 2);
  EXPECT_EQ(recent[0].detail, "object=42");
}

TEST(SlowLogTest, ThresholdAdaptsToASlowerWorkload) {
  SlowLog log(/*capacity=*/4, /*min_threshold_ns=*/1000,
              /*multiplier=*/4.0);
  // During a cold compile every operation takes ~1ms; after the EWMA
  // adapts, 1ms is unremarkable and must stop being captured.
  int64_t captured_early = 0;
  for (int i = 0; i < 64; ++i) {
    if (log.Offer("relearn", 1'000'000, /*shard=*/0, "batch=1")) {
      ++captured_early;
    }
  }
  EXPECT_GT(log.ThresholdNanos(), 1'000'000);
  EXPECT_FALSE(log.Offer("relearn", 1'000'000, /*shard=*/0, "batch=2"));
  // The ring is bounded regardless of how many were captured early.
  EXPECT_LE(log.Recent().size(), 4u);
  EXPECT_EQ(log.captured(), captured_early);
}

TEST(LatencyHistogramTest, PercentilesSitOnBucketUpperBounds) {
  LatencyHistogram histogram;
  // 100 samples of 1000ns: every percentile reports the same bucket
  // upper bound, and that bound covers the recorded value.
  for (int i = 0; i < 100; ++i) histogram.Record(1000);
  const int64_t p50 = histogram.PercentileNanos(0.5);
  const int64_t p99 = histogram.PercentileNanos(0.99);
  EXPECT_EQ(p50, p99);
  EXPECT_GE(p50, 1000);
  EXPECT_EQ(histogram.Count(), 100);
  EXPECT_EQ(histogram.SumNanos(), 100'000);
  // q=0 and q=1 are legal edge ranks.
  EXPECT_GE(histogram.PercentileNanos(1.0), p99);
  EXPECT_LE(histogram.PercentileNanos(0.0), p50);
}

TEST(LatencyHistogramTest, MergeMatchesRecordingEverythingInOne) {
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram all;
  for (int i = 1; i <= 64; ++i) {
    const int64_t nanos = static_cast<int64_t>(i) * 977;
    ((i % 2 == 0) ? a : b).Record(nanos);
    all.Record(nanos);
  }
  LatencyHistogram merged;
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_EQ(merged.Count(), all.Count());
  EXPECT_EQ(merged.SumNanos(), all.SumNanos());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(merged.PercentileNanos(q), all.PercentileNanos(q)) << q;
  }
  // Merge order cannot matter (bucket-wise sums commute).
  LatencyHistogram reversed;
  reversed.Merge(b);
  reversed.Merge(a);
  EXPECT_EQ(reversed.PercentileNanos(0.99), merged.PercentileNanos(0.99));
  EXPECT_EQ(reversed.MaxNanos(), merged.MaxNanos());
}

TEST(LatencyHistogramTest, DownsamplingBoundariesAreMonotone) {
  // Values straddling an octave boundary: percentiles must be monotone
  // in q and every reported value must be >= the true sample it
  // summarizes (upper-bound semantics).
  LatencyHistogram histogram;
  const std::vector<int64_t> values = {1,    2,    15,   16,  17,
                                       255,  256,  257,  4095, 4096};
  for (int64_t v : values) histogram.Record(v);
  int64_t previous = 0;
  for (double q : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
    const int64_t p = histogram.PercentileNanos(q);
    EXPECT_GE(p, previous) << "non-monotone at q=" << q;
    previous = p;
  }
  EXPECT_GE(histogram.MaxNanos(), 4096);
}

}  // namespace
}  // namespace obs
}  // namespace slimfast
