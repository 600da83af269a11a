// The observation WAL: record/segment framing, rotation, checkpoint
// truncation, and — the property the recovery path leans on — tolerance
// of a torn tail at *every* byte boundary of the final record, while the
// same damage anywhere earlier in the log is corruption, not loss.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/observation_store.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "storage/wal.h"

namespace slimfast {
namespace {

namespace fs = std::filesystem;

/// Deterministic batch keyed by `i` — distinct sizes and ids so a
/// replayed record can only match its own original.
ObservationBatch MakeBatch(int32_t i) {
  ObservationBatch batch;
  for (int32_t k = 0; k <= i % 3; ++k) {
    batch.observations.push_back(
        Observation{/*object=*/i + k, /*source=*/k, /*value=*/i % 2});
  }
  if (i % 2 == 0) {
    batch.truths.push_back(TruthLabel{/*object=*/i, /*value=*/1});
  }
  return batch;
}

bool BatchEquals(const ObservationBatch& a, const ObservationBatch& b) {
  return a.observations == b.observations && a.truths == b.truths;
}

int64_t SegmentCount(const std::string& dir) {
  return std::distance(fs::directory_iterator(dir), fs::directory_iterator());
}

std::vector<WalRecord> ReplayAll(const std::string& dir,
                                 uint64_t after_sequence = 0) {
  std::vector<WalRecord> records;
  SLIMFAST_CHECK_OK(
      ReplayWal(dir, after_sequence, [&](const WalRecord& record) {
        records.push_back(record);
        return Status::OK();
      }));
  return records;
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("slimfast-wal-test-" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "-" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    fs::remove_all(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(WalTest, AppendReplayRoundtrip) {
  const int32_t n = 7;
  {
    std::unique_ptr<WalWriter> writer =
        WalWriter::Open(dir_).ValueOrDie();
    for (int32_t i = 0; i < n; ++i) {
      EXPECT_EQ(writer->Append(MakeBatch(i)).ValueOrDie(),
                static_cast<uint64_t>(i + 1));
    }
    EXPECT_EQ(writer->next_sequence(), static_cast<uint64_t>(n + 1));
  }
  std::vector<WalRecord> records = ReplayAll(dir_);
  ASSERT_EQ(records.size(), static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    EXPECT_EQ(records[static_cast<size_t>(i)].sequence,
              static_cast<uint64_t>(i + 1));
    EXPECT_TRUE(
        BatchEquals(records[static_cast<size_t>(i)].batch, MakeBatch(i)));
  }
  // after_sequence skips the prefix without disturbing the rest.
  std::vector<WalRecord> tail = ReplayAll(dir_, 4);
  ASSERT_EQ(tail.size(), static_cast<size_t>(n - 4));
  EXPECT_EQ(tail[0].sequence, 5u);
}

TEST_F(WalTest, AppendGroupLogsConsecutiveRecordsUnderOneFsync) {
  WalOptions options;
  options.segment_bytes = 64;  // the group crosses segment boundaries
  {
    std::unique_ptr<WalWriter> writer =
        WalWriter::Open(dir_, options).ValueOrDie();
    SLIMFAST_CHECK_OK(writer->Append(MakeBatch(0)).status());
    std::vector<ObservationBatch> batches;
    for (int32_t i = 1; i <= 5; ++i) batches.push_back(MakeBatch(i));
    std::vector<const ObservationBatch*> group;
    for (const ObservationBatch& batch : batches) group.push_back(&batch);
    const int64_t before = writer->sync_count();
    const int64_t segments = SegmentCount(dir_);
    EXPECT_EQ(writer->AppendGroup(group).ValueOrDie(), 2u);
    // One policy fsync for the whole group, plus the two of each segment
    // rotation inside it (see RotationSyncsAreCountedAndTimed).
    const int64_t rotations = SegmentCount(dir_) - segments;
    EXPECT_GT(rotations, 0);
    EXPECT_EQ(writer->sync_count() - before, 1 + 2 * rotations);
    EXPECT_EQ(writer->next_sequence(), 7u);
  }
  std::vector<WalRecord> records = ReplayAll(dir_);
  ASSERT_EQ(records.size(), 6u);
  for (int32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(records[static_cast<size_t>(i)].sequence,
              static_cast<uint64_t>(i + 1));
    EXPECT_TRUE(
        BatchEquals(records[static_cast<size_t>(i)].batch, MakeBatch(i)));
  }
}

// A rotation fsyncs the closed segment and the new one through Sync(),
// so both show up in sync_count() and the fsync histogram; under kNone
// it fsyncs nothing.
TEST_F(WalTest, RotationSyncsAreCountedAndTimed) {
  obs::LatencyHistogram* fsync_hist =
      obs::GetHistogram("slimfast_storage_wal_fsync_seconds");
  for (const WalFsync policy : {WalFsync::kEveryBatch, WalFsync::kNone}) {
    const bool syncing = policy != WalFsync::kNone;
    SCOPED_TRACE(syncing ? "kEveryBatch" : "kNone");
    fs::remove_all(dir_);
    WalOptions options;
    options.fsync = policy;
    std::unique_ptr<WalWriter> writer =
        WalWriter::Open(dir_, options).ValueOrDie();
    SLIMFAST_CHECK_OK(writer->Append(MakeBatch(0)).status());
    const int64_t syncs = writer->sync_count();
    const int64_t samples = fsync_hist->Count();
    SLIMFAST_CHECK_OK(writer->Rotate());
    EXPECT_EQ(SegmentCount(dir_), 2);
    EXPECT_EQ(writer->sync_count() - syncs, syncing ? 2 : 0);
    EXPECT_EQ(fsync_hist->Count() - samples,
              syncing && obs::Enabled() ? 2 : 0);
  }
}

TEST_F(WalTest, ReopenResumesSequenceAndKeepsHistory) {
  {
    std::unique_ptr<WalWriter> writer =
        WalWriter::Open(dir_).ValueOrDie();
    SLIMFAST_CHECK_OK(writer->Append(MakeBatch(0)).status());
    SLIMFAST_CHECK_OK(writer->Append(MakeBatch(1)).status());
  }
  {
    std::unique_ptr<WalWriter> writer =
        WalWriter::Open(dir_).ValueOrDie();
    EXPECT_EQ(writer->next_sequence(), 3u);
    SLIMFAST_CHECK_OK(writer->Append(MakeBatch(2)).status());
  }
  std::vector<WalRecord> records = ReplayAll(dir_);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].sequence, 3u);
  EXPECT_TRUE(BatchEquals(records[2].batch, MakeBatch(2)));
}

TEST_F(WalTest, TinySegmentsRotateAndEverySuffixReplays) {
  WalOptions options;
  options.segment_bytes = 64;  // a record or two per segment
  const int32_t n = 10;
  {
    std::unique_ptr<WalWriter> writer =
        WalWriter::Open(dir_, options).ValueOrDie();
    for (int32_t i = 0; i < n; ++i) {
      SLIMFAST_CHECK_OK(writer->Append(MakeBatch(i)).status());
    }
  }
  WalScan scan = ScanWal(dir_).ValueOrDie();
  EXPECT_GT(scan.segments.size(), 2u);
  EXPECT_FALSE(scan.tail_torn);
  EXPECT_EQ(scan.next_sequence, static_cast<uint64_t>(n + 1));
  // Each segment header declares its first sequence, so replay works
  // from any cut that lands on a checkpointed prefix.
  std::vector<WalRecord> records = ReplayAll(dir_);
  ASSERT_EQ(records.size(), static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    EXPECT_TRUE(
        BatchEquals(records[static_cast<size_t>(i)].batch, MakeBatch(i)));
  }
}

TEST_F(WalTest, RemoveSegmentsBeforeTruncatesCheckpointedPrefix) {
  WalOptions options;
  options.segment_bytes = 64;
  std::unique_ptr<WalWriter> writer =
      WalWriter::Open(dir_, options).ValueOrDie();
  for (int32_t i = 0; i < 8; ++i) {
    SLIMFAST_CHECK_OK(writer->Append(MakeBatch(i)).status());
  }
  // Checkpoint at 5 applied batches: rotate, then drop segments fully
  // covered by the checkpoint.
  SLIMFAST_CHECK_OK(writer->Rotate());
  SLIMFAST_CHECK_OK(writer->RemoveSegmentsBefore(6));
  std::vector<WalRecord> tail = ReplayAll(dir_, 5);
  ASSERT_FALSE(tail.empty());
  EXPECT_EQ(tail.front().sequence, 6u);
  EXPECT_EQ(tail.back().sequence, 8u);
  // The truncated records are really gone: replaying from 0 reports the
  // gap instead of silently starting late.
  Status gap = ReplayWal(dir_, 0, [](const WalRecord&) {
    return Status::OK();
  });
  EXPECT_FALSE(gap.ok());
  EXPECT_EQ(gap.code(), StatusCode::kIOError);
}

TEST_F(WalTest, OpenHonorsMinNextSequenceOnEmptyDir) {
  // A checkpoint with every segment truncated away: the log restarts at
  // applied + 1 so sequence == applied-batch count keeps holding.
  std::unique_ptr<WalWriter> writer =
      WalWriter::Open(dir_, WalOptions{}, /*min_next_sequence=*/41)
          .ValueOrDie();
  EXPECT_EQ(writer->next_sequence(), 41u);
  EXPECT_EQ(writer->Append(MakeBatch(0)).ValueOrDie(), 41u);
  writer.reset();
  std::vector<WalRecord> tail = ReplayAll(dir_, 40);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].sequence, 41u);
}

TEST_F(WalTest, TornTailAtEveryByteBoundaryDropsOnlyTheFinalRecord) {
  const int32_t n = 3;
  {
    std::unique_ptr<WalWriter> writer =
        WalWriter::Open(dir_).ValueOrDie();
    for (int32_t i = 0; i < n; ++i) {
      SLIMFAST_CHECK_OK(writer->Append(MakeBatch(i)).status());
    }
  }
  WalScan clean = ScanWal(dir_).ValueOrDie();
  ASSERT_EQ(clean.segments.size(), 1u);
  const std::string segment = clean.segments[0].path;
  const int64_t full_bytes = clean.segments[0].valid_bytes;
  ASSERT_EQ(static_cast<int64_t>(fs::file_size(segment)), full_bytes);

  // Keep the intact bytes; every iteration below rewrites the file.
  std::ifstream in(segment, std::ios::binary);
  const std::string full_content((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  in.close();
  ASSERT_EQ(static_cast<int64_t>(full_content.size()), full_bytes);

  // Find where the final record's frame starts: the largest truncation
  // at which the scan reports n - 1 intact records and no torn tail.
  int64_t final_record_begin = full_bytes - 1;
  for (; final_record_begin > 0; --final_record_begin) {
    fs::resize_file(segment, static_cast<uintmax_t>(final_record_begin));
    WalScan scan = ScanWal(dir_).ValueOrDie();
    if (scan.segments[0].record_count == n - 1 && !scan.tail_torn) break;
  }
  ASSERT_GT(final_record_begin, 0);

  for (int64_t cut = final_record_begin; cut < full_bytes; ++cut) {
    // Restore the intact file, then tear it at `cut`.
    std::ofstream out(segment, std::ios::binary | std::ios::trunc);
    out.write(full_content.data(), static_cast<std::streamsize>(cut));
    out.close();

    WalScan scan = ScanWal(dir_).ValueOrDie();
    EXPECT_EQ(scan.segments[0].record_count, n - 1) << "cut=" << cut;
    EXPECT_EQ(scan.next_sequence, static_cast<uint64_t>(n)) << "cut=" << cut;
    EXPECT_EQ(scan.tail_torn, cut != final_record_begin) << "cut=" << cut;

    // Replay sees exactly the acknowledged prefix.
    std::vector<WalRecord> records = ReplayAll(dir_);
    ASSERT_EQ(records.size(), static_cast<size_t>(n - 1)) << "cut=" << cut;

    // Open truncates the tear and appends cleanly over it.
    {
      std::unique_ptr<WalWriter> writer =
          WalWriter::Open(dir_).ValueOrDie();
      EXPECT_EQ(writer->next_sequence(), static_cast<uint64_t>(n));
      SLIMFAST_CHECK_OK(writer->Append(MakeBatch(99)).status());
    }
    std::vector<WalRecord> healed = ReplayAll(dir_);
    ASSERT_EQ(healed.size(), static_cast<size_t>(n)) << "cut=" << cut;
    EXPECT_TRUE(BatchEquals(healed.back().batch, MakeBatch(99)));

    // Reset to the intact n-record log for the next cut.
    std::ofstream restore(segment, std::ios::binary | std::ios::trunc);
    restore.write(full_content.data(),
                  static_cast<std::streamsize>(full_content.size()));
    restore.close();
  }
}

TEST_F(WalTest, CorruptionBeforeTheTailIsAnErrorNotLoss) {
  WalOptions options;
  options.segment_bytes = 64;  // force several segments
  {
    std::unique_ptr<WalWriter> writer =
        WalWriter::Open(dir_, options).ValueOrDie();
    for (int32_t i = 0; i < 10; ++i) {
      SLIMFAST_CHECK_OK(writer->Append(MakeBatch(i)).status());
    }
  }
  WalScan clean = ScanWal(dir_).ValueOrDie();
  ASSERT_GT(clean.segments.size(), 1u);
  const std::string first_segment = clean.segments[0].path;

  // Flip one payload byte in the middle of the first (non-final)
  // segment: the CRC catches it, and because intact records follow,
  // this is corruption — IOError, never silent truncation.
  std::fstream f(first_segment,
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(0, std::ios::end);
  const int64_t size = static_cast<int64_t>(f.tellg());
  f.seekp(size / 2);
  char byte = 0;
  f.seekg(size / 2);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0xFF);
  f.seekp(size / 2);
  f.write(&byte, 1);
  f.close();

  EXPECT_FALSE(ScanWal(dir_).ok());
  Status replay = ReplayWal(dir_, 0, [](const WalRecord&) {
    return Status::OK();
  });
  EXPECT_FALSE(replay.ok());
  EXPECT_EQ(replay.code(), StatusCode::kIOError);
  // And a writer refuses to open over it rather than appending after
  // unreadable history.
  EXPECT_FALSE(WalWriter::Open(dir_, options).ok());
}

}  // namespace
}  // namespace slimfast
