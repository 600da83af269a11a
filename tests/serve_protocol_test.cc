// The serve line protocol and the load generator. The protocol tests
// drive LineProtocol directly (no stdin); the loadgen tests run the full
// mixed ingest/query workload on a small planted instance, including the
// offline-replay verification, plus the latency percentile math.

#include <filesystem>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/slow_log.h"
#include "obs/timeseries.h"
#include "serve/fusion_service.h"
#include "serve/line_protocol.h"
#include "serve/loadgen.h"
#include "test_util.h"

namespace slimfast {
namespace {

using testutil::MakeFigure1Dataset;
using testutil::MakePlantedDataset;

std::unique_ptr<FusionService> MakeFigure1Service(int32_t shards = 2) {
  Dataset dataset = MakeFigure1Dataset();
  FusionServiceOptions options;
  options.num_shards = shards;
  options.relearn_every_batches = 1;
  return FusionService::Create(dataset.num_sources(), dataset.num_objects(),
                               dataset.num_values(), options,
                               dataset.features())
      .ValueOrDie();
}

TEST(LineProtocolTest, IngestQueryFlowRecoversFigure1) {
  std::unique_ptr<FusionService> service = MakeFigure1Service();
  LineProtocol protocol(service.get());

  EXPECT_EQ(protocol.HandleLine("QUERY 0"), "NONE");  // nothing learned
  EXPECT_EQ(protocol.HandleLine("OBS 0 0 0"), "OK");
  EXPECT_EQ(protocol.HandleLine("OBS 0 1 1"), "OK");
  EXPECT_EQ(protocol.HandleLine("OBS 0 2 0"), "OK");
  EXPECT_EQ(protocol.HandleLine("OBS 1 0 1"), "OK");
  EXPECT_EQ(protocol.HandleLine("OBS 1 2 1"), "OK");
  EXPECT_EQ(protocol.HandleLine("TRUTH 0 0"), "OK");
  EXPECT_EQ(protocol.HandleLine("TRUTH 1 1"), "OK");
  EXPECT_EQ(protocol.buffered(), 7);
  EXPECT_EQ(protocol.HandleLine("COMMIT"), "OK 5 2");
  EXPECT_EQ(protocol.buffered(), 0);
  EXPECT_EQ(protocol.HandleLine("DRAIN"), "OK");

  // Figure 1 goldens: object 0 -> 0, object 1 -> 1.
  EXPECT_EQ(protocol.HandleLine("QUERY 0").rfind("VALUE 0 ", 0), 0u);
  EXPECT_EQ(protocol.HandleLine("QUERY 1").rfind("VALUE 1 ", 0), 0u);
  std::string posterior = protocol.HandleLine("POSTERIOR 0");
  EXPECT_EQ(posterior.rfind("POSTERIOR ", 0), 0u);
  EXPECT_NE(posterior.find("0:"), std::string::npos);

  std::string stats = protocol.HandleLine("STATS");
  EXPECT_EQ(stats.rfind("STATS ", 0), 0u);
  EXPECT_NE(stats.find("observations=5"), std::string::npos);
  EXPECT_NE(stats.find("truths=2"), std::string::npos);
  EXPECT_NE(stats.find("pending_batches=0"), std::string::npos);
  // Recovery-aware fields: a fresh service has not recovered, and its
  // lifetime counters equal the process-scoped ones.
  EXPECT_NE(stats.find(" recovered=0"), std::string::npos) << stats;
  EXPECT_NE(stats.find(" uptime_s="), std::string::npos) << stats;
  EXPECT_NE(stats.find(" lifetime_batches=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find(" lifetime_observations=5"), std::string::npos)
      << stats;

  bool quit = false;
  EXPECT_EQ(protocol.HandleLine("QUIT", &quit), "BYE");
  EXPECT_TRUE(quit);
  service->Stop();
}

// A failed COMMIT must keep the client's buffered batch: the ERR reply
// is the retry signal, not a data-loss notification. (Regression: the
// buffer used to be handed to Submit by move and silently dropped when
// the queue was closed.)
TEST(LineProtocolTest, FailedCommitKeepsTheBufferedBatch) {
  std::unique_ptr<FusionService> service = MakeFigure1Service();
  LineProtocol protocol(service.get());

  EXPECT_EQ(protocol.HandleLine("OBS 0 0 0"), "OK");
  EXPECT_EQ(protocol.HandleLine("OBS 0 1 1"), "OK");
  EXPECT_EQ(protocol.HandleLine("TRUTH 1 1"), "OK");
  EXPECT_EQ(protocol.buffered(), 3);

  service->Stop();  // every Submit now fails

  std::string reply = protocol.HandleLine("COMMIT");
  EXPECT_EQ(reply.rfind("ERR ", 0), 0u);
  EXPECT_NE(reply.find("kept buffered"), std::string::npos);
  EXPECT_EQ(protocol.buffered(), 3);  // nothing was lost

  // Still there on the next attempt too — a retry would resubmit the
  // same 2 observations + 1 truth.
  EXPECT_EQ(protocol.HandleLine("COMMIT").rfind("ERR ", 0), 0u);
  EXPECT_EQ(protocol.buffered(), 3);
}

TEST(LineProtocolTest, StatsReportsTheFoldedStoreFingerprint) {
  std::unique_ptr<FusionService> service = MakeFigure1Service();
  LineProtocol protocol(service.get());

  std::string before = protocol.HandleLine("STATS");
  EXPECT_NE(before.find(" store_fingerprint="), std::string::npos);

  EXPECT_EQ(protocol.HandleLine("OBS 0 0 0"), "OK");
  EXPECT_EQ(protocol.HandleLine("OBS 1 2 1"), "OK");
  EXPECT_EQ(protocol.HandleLine("COMMIT"), "OK 2 0");
  EXPECT_EQ(protocol.HandleLine("DRAIN"), "OK");
  std::string after = protocol.HandleLine("STATS");

  // New evidence moved the fingerprint; a second identical STATS call
  // reports the same value (it is a pure function of the snapshots).
  auto fingerprint_of = [](const std::string& stats) {
    size_t begin = stats.find(" store_fingerprint=");
    EXPECT_NE(begin, std::string::npos);
    begin += std::string(" store_fingerprint=").size();
    return stats.substr(begin, 16);
  };
  EXPECT_NE(fingerprint_of(before), fingerprint_of(after));
  EXPECT_EQ(fingerprint_of(after),
            fingerprint_of(protocol.HandleLine("STATS")));
  service->Stop();
}

TEST(LineProtocolTest, CheckpointVerbRequiresDurability) {
  std::unique_ptr<FusionService> service = MakeFigure1Service();
  LineProtocol protocol(service.get());
  std::string reply = protocol.HandleLine("CHECKPOINT");
  EXPECT_EQ(reply.rfind("ERR ", 0), 0u);
  EXPECT_NE(reply.find("durability is disabled"), std::string::npos);
  EXPECT_EQ(protocol.HandleLine("CHECKPOINT now").rfind("ERR usage", 0),
            0u);
  service->Stop();
}

TEST(LineProtocolTest, CheckpointVerbWritesACheckpoint) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "slimfast-protocol-checkpoint-test")
          .string();
  fs::remove_all(dir);

  Dataset dataset = MakeFigure1Dataset();
  FusionServiceOptions options;
  options.num_shards = 2;
  options.relearn_every_batches = 1;
  options.durability.wal_dir = dir;
  std::unique_ptr<FusionService> service =
      FusionService::Create(dataset.num_sources(), dataset.num_objects(),
                            dataset.num_values(), options,
                            dataset.features())
          .ValueOrDie();
  LineProtocol protocol(service.get());

  EXPECT_EQ(protocol.HandleLine("OBS 0 0 0"), "OK");
  EXPECT_EQ(protocol.HandleLine("COMMIT"), "OK 1 0");
  EXPECT_EQ(protocol.HandleLine("CHECKPOINT"), "OK");
  EXPECT_TRUE(fs::exists(dir + "/MANIFEST"));
  service->Stop();
  fs::remove_all(dir);
}

TEST(LineProtocolTest, MalformedAndOutOfUniverseInputGetsErr) {
  std::unique_ptr<FusionService> service = MakeFigure1Service();
  LineProtocol protocol(service.get());

  EXPECT_EQ(protocol.HandleLine("").rfind("ERR", 0), 0u);
  EXPECT_EQ(protocol.HandleLine("FROBNICATE 1").rfind("ERR unknown", 0), 0u);
  EXPECT_EQ(protocol.HandleLine("OBS 0 0").rfind("ERR usage", 0), 0u);
  EXPECT_EQ(protocol.HandleLine("OBS a b c").rfind("ERR usage", 0), 0u);
  EXPECT_EQ(protocol.HandleLine("OBS 0 0 0 0").rfind("ERR usage", 0), 0u);
  EXPECT_EQ(protocol.HandleLine("OBS 99 0 0").rfind("ERR id", 0), 0u);
  EXPECT_EQ(protocol.HandleLine("TRUTH 0 99").rfind("ERR id", 0), 0u);
  EXPECT_EQ(protocol.HandleLine("QUERY x").rfind("ERR usage", 0), 0u);
  EXPECT_EQ(protocol.HandleLine("QUERY -1").rfind("ERR usage", 0), 0u);
  EXPECT_EQ(protocol.HandleLine("STATS now").rfind("ERR usage", 0), 0u);
  // Nothing buffered by any of the rejected commands.
  EXPECT_EQ(protocol.buffered(), 0);
  EXPECT_EQ(protocol.HandleLine("COMMIT"), "OK 0 0");
  service->Stop();
}

TEST(LineProtocolTest, EveryListedVerbIsDispatchedAndNamedWhenUnknown) {
  std::unique_ptr<FusionService> service = MakeFigure1Service();
  LineProtocol protocol(service.get());
  for (const char* verb : kProtocolVerbs) {
    // A bare verb may be a usage error, but never an unknown command.
    const std::string reply = protocol.HandleLine(verb);
    EXPECT_EQ(reply.rfind("ERR unknown command", 0), std::string::npos)
        << verb << ": " << reply;
  }
  const std::string unknown = protocol.HandleLine("FROBNICATE");
  ASSERT_EQ(unknown.rfind("ERR unknown command", 0), 0u) << unknown;
  const size_t open = unknown.find('(');
  ASSERT_NE(open, std::string::npos) << unknown;
  std::istringstream named(
      unknown.substr(open + 1, unknown.rfind(')') - open - 1));
  EXPECT_EQ(std::vector<std::string>(std::istream_iterator<std::string>(named),
                                     std::istream_iterator<std::string>()),
            std::vector<std::string>(std::begin(kProtocolVerbs),
                                     std::end(kProtocolVerbs)))
      << unknown;
  service->Stop();
}

TEST(LineProtocolTest, MetricsDumpFormatIsPinned) {
  // Pins the METRICS reply format clients and the CI smoke rely on:
  // Prometheus-style "# TYPE" + "name value" lines, deterministically
  // sorted, ending in a bare "# EOF" line with no trailing newline
  // (the transport adds the final newline).
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const bool prior = obs::SetEnabledForTest(true);
  std::unique_ptr<FusionService> service = MakeFigure1Service();
  LineProtocol protocol(service.get());
  EXPECT_EQ(protocol.HandleLine("OBS 0 0 0"), "OK");
  EXPECT_EQ(protocol.HandleLine("TRUTH 0 0"), "OK");
  EXPECT_EQ(protocol.HandleLine("COMMIT"), "OK 1 1");
  EXPECT_EQ(protocol.HandleLine("DRAIN"), "OK");

  const std::string reply = protocol.HandleLine("METRICS");
  // Counters are process-global and cumulative across tests in this
  // binary, so pin the family/TYPE/value-line shape, not the count.
  EXPECT_NE(reply.find("# TYPE slimfast_serve_batches_applied_total "
                       "counter\nslimfast_serve_batches_applied_total "),
            std::string::npos)
      << reply;
  EXPECT_NE(reply.find("# TYPE slimfast_serve_queue_depth gauge\n"),
            std::string::npos)
      << reply;
  EXPECT_NE(reply.find("# TYPE slimfast_serve_stage_seconds summary\n"),
            std::string::npos)
      << reply;
  EXPECT_NE(
      reply.find("slimfast_serve_stage_seconds{stage=\"ingest\",shard=\"0\","
                 "quantile=\"0.5\"} "),
      std::string::npos)
      << reply;
  // Sorted families, EOF-terminated without a trailing newline.
  EXPECT_LT(reply.find("slimfast_serve_batches_applied_total"),
            reply.find("slimfast_serve_queue_depth"))
      << reply;
  EXPECT_GE(reply.size(), 5u);
  EXPECT_EQ(reply.substr(reply.size() - 6), "\n# EOF") << reply;
  EXPECT_EQ(protocol.HandleLine("METRICS now").rfind("ERR usage", 0), 0u);
  service->Stop();
  obs::SetEnabledForTest(prior);
}

TEST(LineProtocolTest, MetricsWhenDisabledSaysSo) {
  const bool prior = obs::SetEnabledForTest(false);
  std::unique_ptr<FusionService> service = MakeFigure1Service();
  LineProtocol protocol(service.get());
  EXPECT_EQ(protocol.HandleLine("METRICS"),
            "# observability disabled (SLIMFAST_OBS=0)\n# EOF");
  service->Stop();
  obs::SetEnabledForTest(prior);
}

TEST(LineProtocolTest, QueryOutsideUniverseIsNone) {
  std::unique_ptr<FusionService> service = MakeFigure1Service();
  LineProtocol protocol(service.get());
  EXPECT_EQ(protocol.HandleLine("QUERY 999"), "NONE");
  EXPECT_EQ(protocol.HandleLine("POSTERIOR 999"), "NONE");
  service->Stop();
}

TEST(LineProtocolTest, SchedVerbReportsCyclesAndPerShardPending) {
  std::unique_ptr<FusionService> service = MakeFigure1Service();
  LineProtocol protocol(service.get());
  EXPECT_EQ(protocol.HandleLine("OBS 0 0 0"), "OK");
  EXPECT_EQ(protocol.HandleLine("COMMIT"), "OK 1 0");
  EXPECT_EQ(protocol.HandleLine("DRAIN"), "OK");
  std::string reply = protocol.HandleLine("SCHED");
  EXPECT_EQ(reply.rfind("SCHED cycles=1 queue_depth=", 0), 0u) << reply;
  EXPECT_NE(reply.find(" queue_capacity="), std::string::npos) << reply;
  EXPECT_NE(reply.find(" backlog=0 sheds=0 "), std::string::npos) << reply;
  EXPECT_NE(reply.find(" shard0=pending:0"), std::string::npos) << reply;
  EXPECT_NE(reply.find(" shard1=pending:0"), std::string::npos) << reply;
  EXPECT_EQ(protocol.HandleLine("SCHED now"), "ERR usage: SCHED");

  // A truth label for object 1, whose shard holds no claims, stays
  // pending: that shard has nothing to fit yet.
  const int32_t shard = service->router().ShardOf(1);
  ASSERT_NE(service->router().ShardOf(0), shard);
  EXPECT_EQ(protocol.HandleLine("TRUTH 1 0"), "OK");
  EXPECT_EQ(protocol.HandleLine("COMMIT"), "OK 0 1");
  EXPECT_EQ(protocol.HandleLine("DRAIN"), "OK");
  reply = protocol.HandleLine("SCHED");
  EXPECT_NE(reply.find(" cycles=2 "), std::string::npos) << reply;
  EXPECT_NE(reply.find(" backlog=1 "), std::string::npos) << reply;
  EXPECT_NE(reply.find(" shard" + std::to_string(shard) + "=pending:1"),
            std::string::npos)
      << reply;
  service->Stop();
}

TEST(LineProtocolTest, CommitShedsWithErrBusyAndKeepsTheBuffer) {
  Dataset dataset = MakeFigure1Dataset();
  FusionServiceOptions options;
  options.num_shards = 2;
  options.relearn_every_batches = 1;
  // Backlog watermark 1: any standing relearn backlog sheds new ingest.
  options.shed_backlog_watermark = 1;
  auto service = FusionService::Create(dataset.num_sources(),
                                       dataset.num_objects(),
                                       dataset.num_values(), options,
                                       dataset.features())
                     .ValueOrDie();
  LineProtocol protocol(service.get());
  // A truth-only batch parks its shard at pending=1 (no observations to
  // fit yet), so the backlog deterministically sits at the watermark.
  EXPECT_EQ(protocol.HandleLine("TRUTH 0 0"), "OK");
  EXPECT_EQ(protocol.HandleLine("COMMIT"), "OK 0 1");
  EXPECT_EQ(protocol.HandleLine("DRAIN"), "OK");

  EXPECT_EQ(protocol.HandleLine("OBS 0 0 0"), "OK");
  const std::string reply = protocol.HandleLine("COMMIT");
  EXPECT_EQ(reply.rfind("ERR BUSY retry_after_ms=", 0), 0u) << reply;
  EXPECT_NE(reply.find("1 observations + 0 truths kept buffered"),
            std::string::npos)
      << reply;
  // The shed kept the client's batch buffered for retry, and the shed
  // is visible through SCHED.
  EXPECT_EQ(protocol.buffered(), 1);
  const std::string sched = protocol.HandleLine("SCHED");
  EXPECT_NE(sched.find(" sheds=1"), std::string::npos) << sched;
  service->Stop();
}

TEST(LineProtocolTest, HealthVerbReportsOkWithoutSloRules) {
  std::unique_ptr<FusionService> service = MakeFigure1Service();
  LineProtocol protocol(service.get());
  EXPECT_EQ(protocol.HandleLine("HEALTH"), "OK");
  EXPECT_EQ(protocol.HandleLine("HEALTH now"), "ERR usage: HEALTH");
  service->Stop();
}

TEST(LineProtocolTest, EventsVerbFormatIsPinned) {
  // Pins the EVENTS reply shape: "EVENTS n=<k> dropped=<d>" header, one
  // "<ts_s> <SEV> <stage> shard=<s> <message>" row per event (oldest
  // first), "# EOF" terminator.
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const bool prior = obs::SetEnabledForTest(true);
  obs::EventLog::Global().ResetForTest();
  std::unique_ptr<FusionService> service = MakeFigure1Service();
  LineProtocol protocol(service.get());

  obs::EventLog::Global().Emit(obs::EventSeverity::kWarn, "test", 3,
                               "hello world");
  const std::string reply = protocol.HandleLine("EVENTS");
  EXPECT_EQ(reply.rfind("EVENTS n=1 dropped=0\n", 0), 0u) << reply;
  EXPECT_NE(reply.find(" WARN test shard=3 hello world\n"),
            std::string::npos)
      << reply;
  EXPECT_EQ(reply.substr(reply.size() - 6), "\n# EOF") << reply;
  // EVENTS n trims to the newest n.
  obs::EventLog::Global().Emit(obs::EventSeverity::kInfo, "test", -1,
                               "second");
  const std::string trimmed = protocol.HandleLine("EVENTS 1");
  EXPECT_EQ(trimmed.rfind("EVENTS n=1 ", 0), 0u) << trimmed;
  EXPECT_NE(trimmed.find("shard=-1 second"), std::string::npos) << trimmed;
  EXPECT_EQ(protocol.HandleLine("EVENTS x"), "ERR usage: EVENTS [n]");

  service->Stop();
  obs::EventLog::Global().ResetForTest();
  obs::SetEnabledForTest(prior);
}

TEST(LineProtocolTest, HistoryVerbListsAndRendersSeries) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const bool prior = obs::SetEnabledForTest(true);
  obs::TimeSeriesStore::Global().ResetForTest();
  std::unique_ptr<FusionService> service = MakeFigure1Service();
  LineProtocol protocol(service.get());

  // A gauge with one sample: bare HISTORY lists it, named HISTORY
  // renders "<bucket_ts_s> <value>" rows under a pinned header.
  obs::TimeSeriesStore::Global()
      .Series("test.flight", obs::SeriesKind::kGauge)
      ->Record(5'000'000'000LL, 1.5);
  const std::string listing = protocol.HandleLine("HISTORY");
  EXPECT_EQ(listing.rfind("HISTORY series=", 0), 0u) << listing;
  EXPECT_NE(listing.find("\ntest.flight"), std::string::npos) << listing;
  EXPECT_EQ(listing.substr(listing.size() - 6), "\n# EOF") << listing;

  const std::string reply = protocol.HandleLine("HISTORY test.flight");
  EXPECT_EQ(reply.rfind("HISTORY test.flight kind=gauge res=1s samples=1\n",
                        0),
            0u)
      << reply;
  EXPECT_NE(reply.find("\n5.000000 1.500000"), std::string::npos) << reply;
  EXPECT_EQ(reply.substr(reply.size() - 6), "\n# EOF") << reply;

  // Counters render a third rate column ("-" for the first bucket).
  obs::TimeSeries* counter = obs::TimeSeriesStore::Global().Series(
      "test.count", obs::SeriesKind::kCounter);
  counter->Record(5'000'000'000LL, 10.0);
  counter->Record(6'000'000'000LL, 25.0);
  const std::string rates = protocol.HandleLine("HISTORY test.count");
  EXPECT_EQ(rates.rfind("HISTORY test.count kind=counter res=1s samples=2\n",
                        0),
            0u)
      << rates;
  EXPECT_NE(rates.find("\n5.000000 10.000000 -\n"), std::string::npos)
      << rates;
  EXPECT_NE(rates.find("\n6.000000 25.000000 15.000000\n"),
            std::string::npos)
      << rates;

  EXPECT_EQ(protocol.HandleLine("HISTORY no.such.series")
                .rfind("ERR unknown series ", 0),
            0u);
  EXPECT_EQ(protocol.HandleLine("HISTORY a b c"),
            "ERR usage: HISTORY [series] [window_s]");

  service->Stop();
  obs::TimeSeriesStore::Global().ResetForTest();
  obs::SetEnabledForTest(prior);
}

TEST(LineProtocolTest, SlowVerbFormatIsPinned) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const bool prior = obs::SetEnabledForTest(true);
  obs::SlowLog::Global().ResetForTest();
  std::unique_ptr<FusionService> service = MakeFigure1Service();
  LineProtocol protocol(service.get());

  // Empty log: header with the floor threshold, then EOF.
  EXPECT_EQ(protocol.HandleLine("SLOW"),
            "SLOW n=0 threshold_ns=50000\n# EOF");
  // A captured exemplar renders "<ts_s> <kind> <ns>ns shard=<s> <detail>".
  obs::SlowLog::Global().Offer("relearn", 80'000'000, 1,
                               "algorithm=erm iterations=7 warm=1");
  const std::string reply = protocol.HandleLine("SLOW");
  EXPECT_EQ(reply.rfind("SLOW n=1 threshold_ns=", 0), 0u) << reply;
  EXPECT_NE(reply.find(" relearn 80000000ns shard=1 algorithm=erm "
                       "iterations=7 warm=1"),
            std::string::npos)
      << reply;
  EXPECT_EQ(reply.substr(reply.size() - 6), "\n# EOF") << reply;
  EXPECT_EQ(protocol.HandleLine("SLOW x"), "ERR usage: SLOW [n]");

  service->Stop();
  obs::SlowLog::Global().ResetForTest();
  obs::SetEnabledForTest(prior);
}

TEST(LineProtocolTest, FlightRecorderVerbsWhenDisabledSaySo) {
  const bool prior = obs::SetEnabledForTest(false);
  std::unique_ptr<FusionService> service = MakeFigure1Service();
  LineProtocol protocol(service.get());
  const std::string disabled =
      "# observability disabled (SLIMFAST_OBS=0)\n# EOF";
  EXPECT_EQ(protocol.HandleLine("HISTORY"), disabled);
  EXPECT_EQ(protocol.HandleLine("EVENTS"), disabled);
  EXPECT_EQ(protocol.HandleLine("SLOW"), disabled);
  // HEALTH stays a health check, not a recorder read: with no watchdog
  // it reports OK either way.
  EXPECT_EQ(protocol.HandleLine("HEALTH"), "OK");
  service->Stop();
  obs::SetEnabledForTest(prior);
}

TEST(FusionServiceSloTest, HealthDegradesOnStalenessBreachAndRecovers) {
  // Engineered staleness breach: a truth-only batch parks its shard
  // with pending work that no relearn absorbs (nothing to fit), so the
  // shard's pending age grows past a tiny ceiling — HEALTH must latch
  // "staleness" — and an observation batch plus a drain absorbs it,
  // after which HEALTH must clear (0 is under the hysteresis line).
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const bool prior = obs::SetEnabledForTest(true);
  Dataset dataset = MakeFigure1Dataset();
  FusionServiceOptions options;
  options.num_shards = 2;
  options.relearn_every_batches = 1;
  options.slo.staleness_ceiling_seconds = 1e-9;
  auto service = FusionService::Create(dataset.num_sources(),
                                       dataset.num_objects(),
                                       dataset.num_values(), options,
                                       dataset.features())
                     .ValueOrDie();
  LineProtocol protocol(service.get());

  EXPECT_EQ(protocol.HandleLine("TRUTH 0 0"), "OK");
  EXPECT_EQ(protocol.HandleLine("COMMIT"), "OK 0 1");
  EXPECT_EQ(protocol.HandleLine("DRAIN"), "OK");
  EXPECT_EQ(protocol.HandleLine("HEALTH"), "DEGRADED staleness");

  EXPECT_EQ(protocol.HandleLine("OBS 0 0 0"), "OK");
  EXPECT_EQ(protocol.HandleLine("COMMIT"), "OK 1 0");
  EXPECT_EQ(protocol.HandleLine("DRAIN"), "OK");
  EXPECT_EQ(protocol.HandleLine("HEALTH"), "OK");

  service->Stop();
  obs::SetEnabledForTest(prior);
}

TEST(SummarizeLatenciesTest, NearestRankPercentiles) {
  // 1..100 milliseconds: nearest-rank p50 = 50th value, p95 = 95th,
  // p99 = 99th.
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) {
    samples.push_back(static_cast<double>(i) * 1e-3);
  }
  LatencySummary summary = SummarizeLatencies(&samples);
  EXPECT_EQ(summary.count, 100);
  EXPECT_DOUBLE_EQ(summary.p50, 0.050);
  EXPECT_DOUBLE_EQ(summary.p95, 0.095);
  EXPECT_DOUBLE_EQ(summary.p99, 0.099);
  EXPECT_DOUBLE_EQ(summary.max, 0.100);
  EXPECT_LE(summary.p50, summary.p95);
  EXPECT_LE(summary.p95, summary.p99);
}

TEST(SummarizeLatenciesTest, EdgeCases) {
  std::vector<double> empty;
  LatencySummary zero = SummarizeLatencies(&empty);
  EXPECT_EQ(zero.count, 0);
  EXPECT_EQ(zero.p50, 0.0);
  EXPECT_EQ(zero.p99, 0.0);

  std::vector<double> one = {0.25};
  LatencySummary single = SummarizeLatencies(&one);
  EXPECT_EQ(single.count, 1);
  EXPECT_DOUBLE_EQ(single.p50, 0.25);
  EXPECT_DOUBLE_EQ(single.p95, 0.25);
  EXPECT_DOUBLE_EQ(single.p99, 0.25);
  EXPECT_DOUBLE_EQ(single.max, 0.25);
}

TEST(LoadgenTest, MixedWorkloadVerifiesAndReports) {
  Dataset dataset =
      MakePlantedDataset({0.95, 0.85, 0.8, 0.7}, 40, 0.6, 23);

  LoadgenOptions options;
  options.num_shards = 3;
  options.num_chunks = 4;
  options.reader_threads = 2;
  options.min_queries_per_reader = 200;
  options.relearn_every_batches = 2;
  options.seed = 23;

  LoadgenReport report = RunLoadgen(dataset, options).ValueOrDie();
  EXPECT_EQ(report.num_shards, 3);
  EXPECT_GT(report.observations, 0);
  EXPECT_GE(report.total_queries, 400);  // both readers reached the floor
  EXPECT_GT(report.qps, 0.0);
  EXPECT_GT(report.query_latency.count, 0);
  EXPECT_GT(report.query_latency.p50, 0.0);
  EXPECT_LE(report.query_latency.p50, report.query_latency.p95);
  EXPECT_LE(report.query_latency.p95, report.query_latency.p99);
  EXPECT_LE(report.query_latency.p99, report.query_latency.max);
  EXPECT_EQ(report.invalid_reads, 0);
  EXPECT_GT(report.relearns, 0);
  // The planted majority is easy; the merged predictions must be good.
  EXPECT_GT(report.accuracy, 0.8);
  // The determinism contract held under concurrent query load.
  EXPECT_TRUE(report.verified);
}

TEST(LoadgenTest, RejectsDegenerateConfigs) {
  Dataset dataset = MakePlantedDataset({0.9, 0.8}, 8, 0.8, 3);
  LoadgenOptions options;
  options.num_chunks = 0;
  EXPECT_FALSE(RunLoadgen(dataset, options).ok());
  options.num_chunks = 2;
  options.reader_threads = 0;
  EXPECT_FALSE(RunLoadgen(dataset, options).ok());
}

}  // namespace
}  // namespace slimfast
