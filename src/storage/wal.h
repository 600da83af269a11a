#ifndef SLIMFAST_STORAGE_WAL_H_
#define SLIMFAST_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/observation_store.h"
#include "util/result.h"

namespace slimfast {

/// When the WAL flushes appended records to stable storage. Separate from
/// the write itself: an un-fsynced record still survives a process kill
/// (the bytes live in the OS page cache); fsync is what makes it survive
/// power loss.
enum class WalFsync {
  /// Never fsync. Fastest; durable against process crash only.
  kNone,
  /// fsync after every Append (the default): a batch is on stable
  /// storage before the service acknowledges it downstream. An
  /// AppendGroup shares one fsync among its records.
  kEveryBatch,
  /// fsync once every `WalOptions::fsync_every_n` records: bounded loss
  /// window under power failure, amortized syscall cost.
  kEveryN,
};

/// Durability/rotation policy of an observation WAL. The defaults are
/// the safe ones: fsync every batch (a COMMIT ack implies on-disk) and
/// 4 MiB segments so checkpoint truncation reclaims space promptly.
struct WalOptions {
  /// When appended records reach stable storage (see WalFsync).
  WalFsync fsync = WalFsync::kEveryBatch;
  /// Records between fsyncs under WalFsync::kEveryN (>= 1).
  int32_t fsync_every_n = 8;
  /// Rotate to a fresh segment once the current one reaches this size.
  int64_t segment_bytes = 4 << 20;
};

/// One recovered WAL record: the batch-aligned commit unit. `sequence`
/// is 1-based and equals the number of batches applied once this record
/// is replayed — the invariant the checkpoint manifest's applied-batch
/// count keys off.
struct WalRecord {
  uint64_t sequence = 0;
  ObservationBatch batch;
};

/// One on-disk segment as seen by a scan.
struct WalSegment {
  std::string path;
  /// Sequence the segment header declares for its first record.
  uint64_t first_sequence = 0;
  /// Records that parsed intact (CRC-valid, contiguous).
  int64_t record_count = 0;
  /// Byte length of the intact prefix (header + intact records).
  int64_t valid_bytes = 0;
};

/// Result of scanning a WAL directory without mutating it.
struct WalScan {
  /// Segments ascending by first sequence.
  std::vector<WalSegment> segments;
  /// Sequence the next appended record will get (1 for an empty log).
  uint64_t next_sequence = 1;
  /// True when the final segment ends mid-record (a torn write); the
  /// torn suffix starts at the final segment's valid_bytes.
  bool tail_torn = false;
};

/// Scans `dir` and validates every record (magic, CRC, sequence
/// contiguity). A torn tail on the *final* segment is tolerated and
/// reported via `tail_torn`; the same damage on any earlier segment is
/// corruption and fails with IOError. A missing directory scans as an
/// empty log.
Result<WalScan> ScanWal(const std::string& dir);

/// Replays every intact record with sequence > `after_sequence`, in
/// sequence order. Fails with IOError if the log's first record is
/// beyond `after_sequence + 1` (records the caller needs were
/// truncated) or on any non-tail corruption. The callback's error
/// aborts the replay and is returned as-is.
Status ReplayWal(const std::string& dir, uint64_t after_sequence,
                 const std::function<Status(const WalRecord&)>& fn);

/// Append-only writer over a segment-rotated observation WAL.
///
/// Records are framed [u32 payload_len][u32 crc32(payload)][payload];
/// the payload carries the sequence number and the batch's observation
/// and truth triples, little-endian throughout. Each segment file
/// `wal-<first_sequence>.seg` starts with a 16-byte header (magic +
/// declared first sequence), so any suffix of segments can be replayed
/// without the files before it.
///
/// Single-writer: exactly one WalWriter may be open on a directory
/// (the FusionService ingest driver). Open() truncates a torn tail left
/// by a crash and resumes appending after the last intact record.
class WalWriter {
 public:
  /// Opens (creating if needed) the WAL at `dir`. `min_next_sequence`
  /// lets a caller recovering from a checkpoint start the log at the
  /// checkpoint's applied-batch count + 1 even when every earlier
  /// segment was truncated away.
  static Result<std::unique_ptr<WalWriter>> Open(
      std::string dir, WalOptions options = {},
      uint64_t min_next_sequence = 1);

  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one batch as the next record and applies the fsync policy;
  /// returns the record's sequence. Rotates first when the current
  /// segment is over the size threshold. After an IO failure the writer
  /// is poisoned: every further Append fails (a partially written
  /// record must not get successors behind it).
  Result<uint64_t> Append(const ObservationBatch& batch);

  /// Appends `batches` as consecutive records, then applies the fsync
  /// policy once for all of them (group commit): under kEveryBatch one
  /// fsync makes the whole group durable. Returns the first record's
  /// sequence. On failure no record of the group counts as durable.
  Result<uint64_t> AppendGroup(
      const std::vector<const ObservationBatch*>& batches);

  /// Forces everything appended so far to stable storage.
  Status Sync();

  /// Closes the current segment (if it has records) and starts a fresh
  /// one at next_sequence(); makes the closed segment eligible for
  /// RemoveSegmentsBefore.
  Status Rotate();

  /// Removes closed segments whose every record has sequence <
  /// `sequence` (i.e. segments a checkpoint at `sequence - 1` applied
  /// batches has made obsolete). The active segment is never removed.
  Status RemoveSegmentsBefore(uint64_t sequence);

  /// Sequence the next Append will assign.
  uint64_t next_sequence() const { return next_sequence_; }

  /// Successful Sync() calls so far: the fsync policy's own syncs,
  /// explicit ones, and the two of every segment rotation (closing the
  /// old segment, creating the new one) under a policy other than kNone.
  int64_t sync_count() const { return sync_count_; }

 private:
  WalWriter(std::string dir, WalOptions options)
      : dir_(std::move(dir)), options_(options) {}

  Status CreateSegment(uint64_t first_sequence);
  Status CloseSegment();
  /// Writes one record (rotating first if due) without syncing it.
  Status WriteRecord(const ObservationBatch& batch);
  /// Applies the fsync policy after `records` newly written records.
  Status MaybeFsync(int32_t records);

  std::string dir_;
  WalOptions options_;
  uint64_t next_sequence_ = 1;
  int fd_ = -1;
  bool poisoned_ = false;
  int64_t segment_bytes_written_ = 0;
  int64_t segment_records_ = 0;
  int32_t records_since_sync_ = 0;
  int64_t sync_count_ = 0;
  /// (first_sequence, path) of every live segment, ascending; the last
  /// entry is the active one.
  std::vector<std::pair<uint64_t, std::string>> segments_;
};

}  // namespace slimfast

#endif  // SLIMFAST_STORAGE_WAL_H_
