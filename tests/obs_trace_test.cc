// Unit tests for obs::Stage and the trace recorder behind it: span
// capture, nesting, the disabled fast path, the histogram gate, the
// chrome://tracing JSON document shape, and the stage names and extents
// the core and storage layers record.

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/fusion_session.h"
#include "core/slimfast.h"
#include "obs/registry.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "storage/wal.h"
#include "test_util.h"

namespace slimfast {
namespace obs {
namespace {

/// Clears and disables the global recorder around each test so the
/// process-wide singleton cannot leak spans between tests, and restores
/// the metrics switch a test may flip.
class StageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::Global().Disable();
    TraceRecorder::Global().Clear();
    prior_enabled_ = Enabled();
  }
  void TearDown() override {
    TraceRecorder::Global().Disable();
    TraceRecorder::Global().Clear();
    SetEnabledForTest(prior_enabled_);
  }

 private:
  bool prior_enabled_ = false;
};

TEST_F(StageTest, RecordsOnlyWhenEnabled) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  SetEnabledForTest(true);
  LatencyHistogram hist;
  { Stage stage("timed", &hist); }
  EXPECT_EQ(hist.Count(), 1);
  SetEnabledForTest(false);
  double seconds = 0.0;
  {
    Stage stage("timed", &hist);
    seconds = stage.End();
  }
  EXPECT_EQ(hist.Count(), 1);  // disabled stage recorded nothing
  EXPECT_GT(seconds, 0.0);     // but still measured its interval
}

TEST_F(StageTest, NullHistogramIsANoOp) {
  SetEnabledForTest(true);
  Stage stage("untimed", nullptr);
  EXPECT_GE(stage.End(), 0.0);
}

TEST_F(StageTest, EndIsIdempotent) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  SetEnabledForTest(true);
  TraceRecorder::Global().Enable();
  LatencyHistogram hist;
  {
    Stage stage("once", &hist);
    const double first = stage.End();
    EXPECT_EQ(stage.End(), first);
  }  // the destructor's End() records nothing more either
  EXPECT_EQ(hist.Count(), 1);
  EXPECT_EQ(TraceRecorder::Global().EventCount(), 1u);
}

TEST_F(StageTest, DisabledTracingRecordsNoSpan) {
  { Stage stage("never"); }
  EXPECT_EQ(TraceRecorder::Global().EventCount(), 0u);
}

TEST_F(StageTest, NestedStagesRecordInnerFirst) {
  TraceRecorder::Global().Enable();
  {
    Stage outer("outer");
    {
      Stage inner("inner");
    }
  }
  EXPECT_EQ(TraceRecorder::Global().EventCount(), 2u);
  // Destruction order: the inner stage completes (and records) before
  // the outer one, and the outer span's interval contains the inner's.
  const std::string json = TraceRecorder::Global().ToChromeJson();
  const size_t inner_pos = json.find("\"name\":\"inner\"");
  const size_t outer_pos = json.find("\"name\":\"outer\"");
  ASSERT_NE(inner_pos, std::string::npos) << json;
  ASSERT_NE(outer_pos, std::string::npos) << json;
  EXPECT_LT(inner_pos, outer_pos) << json;
}

TEST_F(StageTest, ChromeJsonShape) {
  TraceRecorder::Global().Enable();
  { Stage stage("stage.a"); }
  const std::string json = TraceRecorder::Global().ToChromeJson();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tid\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos)
      << json;
}

TEST_F(StageTest, SpansFromDifferentThreadsGetDistinctTids) {
  TraceRecorder::Global().Enable();
  { Stage stage("main-thread"); }
  std::thread worker([] { Stage stage("worker-thread"); });
  worker.join();
  EXPECT_EQ(TraceRecorder::Global().EventCount(), 2u);
  const std::string json = TraceRecorder::Global().ToChromeJson();
  EXPECT_NE(json.find("\"tid\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos) << json;
}

TEST_F(StageTest, DisableKeepsRecordedSpansAndStopsNewOnes) {
  TraceRecorder::Global().Enable();
  { Stage stage("kept"); }
  TraceRecorder::Global().Disable();
  { Stage stage("dropped"); }
  EXPECT_EQ(TraceRecorder::Global().EventCount(), 1u);
  const std::string json = TraceRecorder::Global().ToChromeJson();
  EXPECT_NE(json.find("kept"), std::string::npos);
  EXPECT_EQ(json.find("dropped"), std::string::npos);
}

TEST_F(StageTest, ClearEmptiesTheBuffer) {
  TraceRecorder::Global().Enable();
  { Stage stage("gone"); }
  TraceRecorder::Global().Clear();
  EXPECT_EQ(TraceRecorder::Global().EventCount(), 0u);
  EXPECT_EQ(TraceRecorder::Global().DroppedCount(), 0);
}

/// One span read back from the chrome JSON the recorder writes.
struct Span {
  std::string name;
  int64_t ts = 0;
  int64_t dur = 0;
};

std::vector<Span> RecordedSpans() {
  const std::string json = TraceRecorder::Global().ToChromeJson();
  std::vector<Span> spans;
  for (size_t pos = json.find("{\"name\":\""); pos != std::string::npos;
       pos = json.find("{\"name\":\"", pos + 1)) {
    char name[64];
    Span span;
    EXPECT_EQ(std::sscanf(json.c_str() + pos,
                          "{\"name\":\"%63[^\"]\",\"ph\":\"X\",\"ts\":%" SCNd64
                          ",\"dur\":%" SCNd64,
                          name, &span.ts, &span.dur),
              3)
        << json.substr(pos, 80);
    span.name = name;
    spans.push_back(span);
  }
  return spans;
}

std::multiset<std::string> SpanNames(const std::vector<Span>& spans) {
  std::multiset<std::string> names;
  for (const Span& span : spans) names.insert(span.name);
  return names;
}

/// The histogram each core and storage stage records into, by span name.
std::map<std::string, LatencyHistogram*> StageHistograms() {
  return {
      {"core.compile", GetHistogram("slimfast_core_compile_seconds")},
      {"core.optimizer", GetHistogram("slimfast_core_optimizer_seconds")},
      {"core.session.ingest",
       GetHistogram("slimfast_core_delta_compile_seconds")},
      {"core.session.relearn", GetHistogram("slimfast_core_relearn_seconds")},
      {"storage.wal_append",
       GetHistogram("slimfast_storage_wal_append_seconds")},
      {"storage.wal_sync", GetHistogram("slimfast_storage_wal_fsync_seconds")},
      {"storage.replay", GetHistogram("slimfast_storage_wal_replay_seconds")},
  };
}

/// Histogram counts by span name; "core.learn" sums both learners.
std::map<std::string, int64_t> Counts() {
  std::map<std::string, int64_t> counts;
  for (const auto& [name, hist] : StageHistograms()) {
    counts[name] = hist->Count();
  }
  counts["core.learn"] =
      GetHistogram("slimfast_core_learn_seconds{algorithm=\"erm\"}")
          ->Count() +
      GetHistogram("slimfast_core_learn_seconds{algorithm=\"em\"}")->Count();
  return counts;
}

/// Runs one of each timed core and storage operation and checks the
/// reported durations, and that every stage histogram moved by
/// `expected_delta` per stage run.
void RunStagedOperations(const std::string& wal_dir, int64_t expected_delta) {
  const Dataset dataset = testutil::MakePlantedDataset(
      {0.95, 0.9, 0.85, 0.8, 0.75, 0.7}, 120, 0.6, 31);
  const TrainTestSplit split = testutil::MakePrefixSplit(dataset, 20);
  std::map<std::string, int64_t> before = Counts();
  auto expect_moved = [&](const std::string& stage, int64_t runs) {
    const std::map<std::string, int64_t> now = Counts();
    EXPECT_EQ(now.at(stage) - before.at(stage), runs * expected_delta)
        << stage;
  };

  const SlimFastFit fit =
      MakeSlimFast()->Fit(dataset, split, /*seed=*/3).ValueOrDie();
  EXPECT_GT(fit.compile_seconds, 0.0);
  EXPECT_GT(fit.learn_seconds, 0.0);
  expect_moved("core.compile", 1);
  expect_moved("core.optimizer", 1);
  expect_moved("core.learn", 1);

  before = Counts();
  FusionSession session =
      FusionSession::Create(dataset.num_sources(), dataset.num_objects(),
                            dataset.num_values())
          .ValueOrDie();
  const ObservationBatch batch = ChunkDatasetForReplay(dataset, 1).front();
  EXPECT_GT(session.Ingest(batch).ValueOrDie().seconds, 0.0);
  expect_moved("core.session.ingest", 1);
  EXPECT_GT(session.Relearn().ValueOrDie().seconds, 0.0);
  expect_moved("core.session.relearn", 1);
  expect_moved("core.optimizer", 1);
  expect_moved("core.learn", 1);

  before = Counts();
  {
    WalOptions options;
    options.fsync = WalFsync::kNone;  // the one sync is the explicit one
    std::unique_ptr<WalWriter> writer =
        WalWriter::Open(wal_dir, options).ValueOrDie();
    EXPECT_EQ(writer->AppendGroup({&batch}).ValueOrDie(), 1u);
    expect_moved("storage.wal_append", 1);
    SLIMFAST_CHECK_OK(writer->Sync());
    expect_moved("storage.wal_sync", 1);
  }
  int records = 0;
  SLIMFAST_CHECK_OK(ReplayWal(wal_dir, 0, [&](const WalRecord&) {
    ++records;
    return Status::OK();
  }));
  EXPECT_EQ(records, 1);
  expect_moved("storage.replay", 1);
}

TEST_F(StageTest, CoreAndStorageStagesHaveOneNameAndOneExtent) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const std::string wal_dir =
      (std::filesystem::temp_directory_path() /
       ("slimfast-stage-test-" +
        std::to_string(::testing::UnitTest::GetInstance()->random_seed())))
          .string();
  std::filesystem::remove_all(wal_dir);

  SetEnabledForTest(true);
  TraceRecorder::Global().Enable();
  RunStagedOperations(wal_dir + "/on", /*expected_delta=*/1);
  const std::vector<Span> spans = RecordedSpans();
  EXPECT_EQ(SpanNames(spans),
            (std::multiset<std::string>{
                "core.compile", "core.optimizer", "core.learn",
                "core.session.ingest", "core.optimizer", "core.learn",
                "core.session.relearn", "storage.wal_append",
                "storage.wal_sync", "storage.replay"}));

  // The optimizer's decision is its own stage: each core.optimizer span
  // ends before the core.learn span that follows it starts.
  int pairs = 0;
  for (size_t i = 0; i + 1 < spans.size(); ++i) {
    if (spans[i].name != "core.optimizer") continue;
    ASSERT_EQ(spans[i + 1].name, "core.learn");
    EXPECT_LE(spans[i].ts + spans[i].dur, spans[i + 1].ts);
    ++pairs;
  }
  EXPECT_EQ(pairs, 2);

  // Metrics and tracing off: no histogram moves and no span is
  // recorded, yet every reported duration is still measured.
  SetEnabledForTest(false);
  TraceRecorder::Global().Disable();
  RunStagedOperations(wal_dir + "/off", /*expected_delta=*/0);
  EXPECT_EQ(TraceRecorder::Global().EventCount(), spans.size());
  std::filesystem::remove_all(wal_dir);
}

}  // namespace
}  // namespace obs
}  // namespace slimfast
