// The observation WAL: record/segment framing, rotation, checkpoint
// truncation, and — the property the recovery path leans on — tolerance
// of a torn tail at *every* byte boundary of the final record, while the
// same damage anywhere earlier in the log is corruption, not loss.

#include <cstdint>
#include <cstring>
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

std::vector<WalRelearnRecord> ReplayRelearns(const std::string& dir,
                                             uint64_t from_point = 0) {
  std::vector<WalRelearnRecord> records;
  SLIMFAST_CHECK_OK(
      ReplayWalRelearns(dir, from_point, [&](const WalRelearnRecord& r) {
        records.push_back(r);
        return Status::OK();
      }));
  return records;
}

/// A relearn record whose weights need every bit kept: a negative zero,
/// a denormal and a value with no short decimal form.
WalRelearnRecord MakeRelearn(uint64_t point) {
  WalRelearnRecord record;
  record.point = point;
  record.num_shards = 3;
  record.shards.push_back(WalRelearnShard{
      0, static_cast<int32_t>(point), {-0.0, 4.9e-324, 0.1 + 0.2}});
  record.shards.push_back(
      WalRelearnShard{2, 1, {static_cast<double>(point), -1.5, 0.0}});
  return record;
}

bool RelearnBitsEqual(const WalRelearnRecord& a, const WalRelearnRecord& b) {
  if (a.point != b.point || a.num_shards != b.num_shards ||
      a.shards.size() != b.shards.size()) {
    return false;
  }
  for (size_t i = 0; i < a.shards.size(); ++i) {
    const WalRelearnShard& x = a.shards[i];
    const WalRelearnShard& y = b.shards[i];
    if (x.shard != y.shard || x.num_relearns != y.num_relearns ||
        x.weights.size() != y.weights.size() ||
        std::memcmp(x.weights.data(), y.weights.data(),
                    x.weights.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
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

TEST_F(WalTest, RelearnRecordsRoundTripBitwiseBesideTheBatches) {
  {
    std::unique_ptr<WalWriter> writer = WalWriter::Open(dir_).ValueOrDie();
    SLIMFAST_CHECK_OK(writer->Append(MakeBatch(0)).status());
    SLIMFAST_CHECK_OK(writer->AppendRelearn(MakeRelearn(1)));
    SLIMFAST_CHECK_OK(writer->Append(MakeBatch(1)).status());
    SLIMFAST_CHECK_OK(writer->Append(MakeBatch(2)).status());
    // A record may trail the batches after its point (a group commit
    // logs a run of batches before their relearns).
    SLIMFAST_CHECK_OK(writer->AppendRelearn(MakeRelearn(2)));
    SLIMFAST_CHECK_OK(writer->AppendRelearn(MakeRelearn(3)));
    // Relearn records take no sequence.
    EXPECT_EQ(writer->next_sequence(), 4u);
  }
  // The batch replay sees the batches only, with contiguous sequences.
  std::vector<WalRecord> batches = ReplayAll(dir_);
  ASSERT_EQ(batches.size(), 3u);
  for (int32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(batches[static_cast<size_t>(i)].sequence,
              static_cast<uint64_t>(i + 1));
    EXPECT_TRUE(
        BatchEquals(batches[static_cast<size_t>(i)].batch, MakeBatch(i)));
  }
  WalScan scan = ScanWal(dir_).ValueOrDie();
  ASSERT_EQ(scan.segments.size(), 1u);
  EXPECT_EQ(scan.segments[0].record_count, 3);
  EXPECT_EQ(scan.next_sequence, 4u);

  std::vector<WalRelearnRecord> relearns = ReplayRelearns(dir_);
  ASSERT_EQ(relearns.size(), 3u);
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(RelearnBitsEqual(relearns[i], MakeRelearn(i + 1)))
        << "record " << i;
  }
  // from_point drops the records before it.
  std::vector<WalRelearnRecord> late = ReplayRelearns(dir_, 2);
  ASSERT_EQ(late.size(), 2u);
  EXPECT_EQ(late[0].point, 2u);

  // A torn relearn record at the tail is dropped like a torn batch, and
  // the writer heals it on open; the batches before it are intact.
  const std::string segment = scan.segments[0].path;
  const uintmax_t full = fs::file_size(segment);
  fs::resize_file(segment, full - 5);
  WalScan torn = ScanWal(dir_).ValueOrDie();
  EXPECT_TRUE(torn.tail_torn);
  EXPECT_EQ(torn.segments[0].record_count, 3);
  EXPECT_EQ(ReplayRelearns(dir_).size(), 2u);
  {
    std::unique_ptr<WalWriter> writer = WalWriter::Open(dir_).ValueOrDie();
    SLIMFAST_CHECK_OK(writer->AppendRelearn(MakeRelearn(3)));
  }
  EXPECT_FALSE(ScanWal(dir_).ValueOrDie().tail_torn);
  relearns = ReplayRelearns(dir_);
  ASSERT_EQ(relearns.size(), 3u);
  EXPECT_TRUE(RelearnBitsEqual(relearns[2], MakeRelearn(3)));
}

TEST_F(WalTest, RelearnRecordAheadOfItsBatchesIsTorn) {
  {
    std::unique_ptr<WalWriter> writer = WalWriter::Open(dir_).ValueOrDie();
    SLIMFAST_CHECK_OK(writer->Append(MakeBatch(0)).status());
    // Point 2 names a batch the log does not hold before the record.
    SLIMFAST_CHECK_OK(writer->AppendRelearn(MakeRelearn(2)));
  }
  WalScan scan = ScanWal(dir_).ValueOrDie();
  EXPECT_TRUE(scan.tail_torn);
  EXPECT_EQ(scan.segments[0].record_count, 1);
  EXPECT_TRUE(ReplayRelearns(dir_).empty());
}

TEST_F(WalTest, SegmentOfAnotherFormatIsRefusedAndLeftIntact) {
  {
    std::unique_ptr<WalWriter> writer = WalWriter::Open(dir_).ValueOrDie();
    SLIMFAST_CHECK_OK(writer->Append(MakeBatch(0)).status());
  }
  // "SLFWAL01" is the format before relearn records.
  const std::string segment = ScanWal(dir_).ValueOrDie().segments[0].path;
  {
    std::fstream f(segment, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(0);
    f.write("SLFWAL01", 8);
  }
  const uintmax_t size = fs::file_size(segment);
  EXPECT_FALSE(ScanWal(dir_).ok());
  EXPECT_FALSE(WalWriter::Open(dir_).ok());
  EXPECT_EQ(fs::file_size(segment), size);
}

}  // namespace
}  // namespace slimfast
