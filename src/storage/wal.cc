#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "obs/event_log.h"
#include "obs/registry.h"
#include "obs/stage.h"
#include "storage/codec.h"
#include "storage/crc32.h"
#include "storage/file_io.h"

namespace slimfast {

using storage_internal::ErrnoMessage;
using storage_internal::FsyncDir;
using storage_internal::WriteFully;

namespace {

// "SLFWAL02" in little-endian byte order.
constexpr uint64_t kWalMagic = 0x32304C4157464C53ULL;
// The sequence field of a relearn record's payload; no batch sequence
// reaches it.
constexpr uint64_t kRelearnMarker = ~0ULL;
constexpr int64_t kSegmentHeaderBytes = 16;
// Sanity bound on one record's payload; anything larger is treated as a
// torn/garbage length field, not an allocation request.
constexpr uint32_t kMaxRecordPayloadBytes = 1u << 30;

std::string SegmentName(uint64_t first_sequence) {
  char name[40];
  std::snprintf(name, sizeof(name), "wal-%020llu.seg",
                static_cast<unsigned long long>(first_sequence));
  return name;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("cannot read " + path);
  return bytes;
}

std::string EncodeRecordPayload(uint64_t sequence,
                                const ObservationBatch& batch) {
  std::string payload;
  payload.reserve(16 + batch.observations.size() * 12 +
                  batch.truths.size() * 8);
  AppendU64(&payload, sequence);
  AppendU32(&payload, static_cast<uint32_t>(batch.observations.size()));
  AppendU32(&payload, static_cast<uint32_t>(batch.truths.size()));
  for (const Observation& obs : batch.observations) {
    AppendI32(&payload, obs.object);
    AppendI32(&payload, obs.source);
    AppendI32(&payload, obs.value);
  }
  for (const TruthLabel& label : batch.truths) {
    AppendI32(&payload, label.object);
    AppendI32(&payload, label.value);
  }
  return payload;
}

std::string EncodeRelearnPayload(const WalRelearnRecord& record) {
  std::string payload;
  AppendU64(&payload, kRelearnMarker);
  AppendU64(&payload, record.point);
  AppendI32(&payload, record.num_shards);
  AppendU32(&payload, static_cast<uint32_t>(record.shards.size()));
  for (const WalRelearnShard& shard : record.shards) {
    AppendI32(&payload, shard.shard);
    AppendI32(&payload, shard.num_relearns);
    AppendArray(&payload, shard.weights);
  }
  return payload;
}

bool DecodeBatch(ByteReader* in, ObservationBatch* batch) {
  uint32_t num_observations = 0;
  uint32_t num_truths = 0;
  if (!in->ReadU32(&num_observations) || !in->ReadU32(&num_truths)) {
    return false;
  }
  if (num_observations > in->remaining() / 12 ||
      num_truths > in->remaining() / 8) {
    return false;
  }
  batch->observations.resize(num_observations);
  batch->truths.resize(num_truths);
  for (Observation& obs : batch->observations) {
    if (!in->ReadI32(&obs.object) || !in->ReadI32(&obs.source) ||
        !in->ReadI32(&obs.value)) {
      return false;
    }
  }
  for (TruthLabel& label : batch->truths) {
    if (!in->ReadI32(&label.object) || !in->ReadI32(&label.value)) {
      return false;
    }
  }
  return in->remaining() == 0;
}

bool DecodeRelearn(ByteReader* in, WalRelearnRecord* record) {
  uint32_t num_entries = 0;
  if (!in->ReadU64(&record->point) || !in->ReadI32(&record->num_shards) ||
      !in->ReadU32(&num_entries) || num_entries > in->remaining() / 16) {
    return false;
  }
  record->shards.resize(num_entries);
  for (WalRelearnShard& shard : record->shards) {
    if (!in->ReadI32(&shard.shard) || !in->ReadI32(&shard.num_relearns) ||
        !ReadArray(in, &shard.weights) || shard.shard < 0 ||
        shard.shard >= record->num_shards) {
      return false;
    }
  }
  return in->remaining() == 0;
}

enum class RecordKind { kBatch, kRelearn, kMalformed };

/// Decodes one record payload into `batch` or `relearn`, by its kind.
RecordKind DecodeRecordPayload(const char* data, size_t size,
                               WalRecord* batch, WalRelearnRecord* relearn) {
  ByteReader in(data, size);
  uint64_t sequence = 0;
  if (!in.ReadU64(&sequence)) return RecordKind::kMalformed;
  if (sequence == kRelearnMarker) {
    return DecodeRelearn(&in, relearn) ? RecordKind::kRelearn
                                       : RecordKind::kMalformed;
  }
  batch->sequence = sequence;
  return DecodeBatch(&in, &batch->batch) ? RecordKind::kBatch
                                         : RecordKind::kMalformed;
}

/// Parse of one segment's bytes: the intact prefix, and whether a torn
/// suffix follows it. Batch-record contiguity within the segment (first
/// batch matches the declared header sequence, subsequent batches
/// increment by one) is enforced here, as is a relearn record's point
/// not running ahead of the batches before it; CRC-valid records that
/// break either count as torn.
struct SegmentParse {
  uint64_t declared_first_sequence = 0;
  int64_t record_count = 0;    // batch records
  uint64_t last_sequence = 0;  // valid only when record_count > 0
  int64_t valid_bytes = 0;
  bool torn = false;
  /// Filled only when `collect_batches` was set.
  std::vector<WalRecord> records;
  /// Filled only when `collect_relearns` was set.
  std::vector<WalRelearnRecord> relearns;
};

Result<SegmentParse> ParseSegment(const std::string& bytes,
                                  const std::string& path,
                                  bool collect_batches,
                                  bool collect_relearns) {
  SegmentParse parse;
  if (static_cast<int64_t>(bytes.size()) < kSegmentHeaderBytes) {
    // A header torn mid-write: nothing in the file is trustworthy, but
    // nothing in it was ever acknowledged either.
    parse.torn = true;
    return parse;
  }
  ByteReader header(bytes.data(), static_cast<size_t>(kSegmentHeaderBytes));
  uint64_t magic = 0;
  header.ReadU64(&magic);
  header.ReadU64(&parse.declared_first_sequence);
  if (magic != kWalMagic) {
    return Status::IOError("wal segment " + path + " has a bad magic");
  }
  parse.valid_bytes = kSegmentHeaderBytes;

  size_t pos = static_cast<size_t>(kSegmentHeaderBytes);
  while (bytes.size() - pos >= 8) {
    ByteReader frame(bytes.data() + pos, 8);
    uint32_t payload_len = 0;
    uint32_t crc = 0;
    frame.ReadU32(&payload_len);
    frame.ReadU32(&crc);
    if (payload_len > kMaxRecordPayloadBytes ||
        bytes.size() - pos - 8 < payload_len) {
      parse.torn = true;
      break;
    }
    const char* payload = bytes.data() + pos + 8;
    if (Crc32(payload, payload_len) != crc) {
      parse.torn = true;
      break;
    }
    WalRecord record;
    WalRelearnRecord relearn;
    const RecordKind kind =
        DecodeRecordPayload(payload, payload_len, &record, &relearn);
    // Batches applied once the records so far are replayed.
    const uint64_t applied = parse.record_count == 0
                                 ? parse.declared_first_sequence - 1
                                 : parse.last_sequence;
    if (kind == RecordKind::kBatch) {
      if (record.sequence != applied + 1) {
        parse.torn = true;
        break;
      }
      parse.last_sequence = record.sequence;
      ++parse.record_count;
      if (collect_batches) parse.records.push_back(std::move(record));
    } else if (kind == RecordKind::kRelearn && relearn.point <= applied) {
      if (collect_relearns) parse.relearns.push_back(std::move(relearn));
    } else {
      parse.torn = true;
      break;
    }
    pos += 8 + payload_len;
    parse.valid_bytes = static_cast<int64_t>(pos);
  }
  if (pos < bytes.size() &&
      parse.valid_bytes == static_cast<int64_t>(pos)) {
    parse.torn = true;  // trailing fragment shorter than a frame header
  }
  return parse;
}

Result<std::vector<std::pair<uint64_t, std::string>>> ListSegments(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> segments;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    if (!std::filesystem::exists(dir)) return segments;  // empty log
    return Status::IOError("cannot list wal dir " + dir + ": " +
                           ec.message());
  }
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) != 0 || name.size() != 28 ||
        name.compare(24, 4, ".seg") != 0) {
      continue;
    }
    uint64_t first = 0;
    bool numeric = true;
    for (size_t i = 4; i < 24; ++i) {
      if (name[i] < '0' || name[i] > '9') {
        numeric = false;
        break;
      }
      first = first * 10 + static_cast<uint64_t>(name[i] - '0');
    }
    if (!numeric) continue;
    segments.emplace_back(first, entry.path().string());
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

/// Shared walk behind ScanWal, ReplayWal and ReplayWalRelearns: parses
/// every segment in order, enforces cross-segment contiguity, and hands
/// intact batch records to `fn` and relearn records to `relearn_fn`,
/// each when non-null.
Result<WalScan> WalkWal(
    const std::string& dir, const std::function<Status(WalRecord)>* fn,
    const std::function<Status(WalRelearnRecord)>* relearn_fn = nullptr) {
  WalScan scan;
  SLIMFAST_ASSIGN_OR_RETURN(auto listed, ListSegments(dir));
  uint64_t expected_next = 0;  // 0 = no records seen yet
  for (size_t i = 0; i < listed.size(); ++i) {
    const bool final_segment = i + 1 == listed.size();
    const std::string& path = listed[i].second;
    SLIMFAST_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
    SLIMFAST_ASSIGN_OR_RETURN(
        SegmentParse parse,
        ParseSegment(bytes, path, fn != nullptr, relearn_fn != nullptr));
    if (parse.torn && !final_segment) {
      return Status::IOError("wal segment " + path +
                             " is corrupt before the final segment");
    }
    if (parse.valid_bytes >= kSegmentHeaderBytes) {
      if (parse.declared_first_sequence != listed[i].first) {
        return Status::IOError("wal segment " + path +
                               " declares a sequence that disagrees with "
                               "its file name");
      }
      if (expected_next != 0 &&
          parse.declared_first_sequence != expected_next) {
        return Status::IOError(
            "wal segment " + path + " starts at sequence " +
            std::to_string(parse.declared_first_sequence) + ", expected " +
            std::to_string(expected_next));
      }
    }
    if (parse.record_count > 0) {
      expected_next = parse.last_sequence + 1;
    } else if (expected_next == 0 &&
               parse.valid_bytes >= kSegmentHeaderBytes) {
      expected_next = parse.declared_first_sequence;
    }
    WalSegment segment;
    segment.path = path;
    segment.first_sequence = listed[i].first;
    segment.record_count = parse.record_count;
    segment.valid_bytes = parse.valid_bytes;
    scan.segments.push_back(std::move(segment));
    if (final_segment) scan.tail_torn = parse.torn;
    if (fn != nullptr) {
      for (WalRecord& record : parse.records) {
        SLIMFAST_RETURN_NOT_OK((*fn)(std::move(record)));
      }
    }
    if (relearn_fn != nullptr) {
      for (WalRelearnRecord& relearn : parse.relearns) {
        SLIMFAST_RETURN_NOT_OK((*relearn_fn)(std::move(relearn)));
      }
    }
  }
  scan.next_sequence = expected_next == 0 ? 1 : expected_next;
  return scan;
}

}  // namespace

Result<WalScan> ScanWal(const std::string& dir) {
  return WalkWal(dir, nullptr);
}

Status ReplayWal(const std::string& dir, uint64_t after_sequence,
                 const std::function<Status(const WalRecord&)>& fn) {
  static obs::LatencyHistogram* replay_hist =
      obs::GetHistogram("slimfast_storage_wal_replay_seconds");
  obs::Stage stage("storage.replay", replay_hist);
  obs::ShardedCounter* replayed =
      obs::Enabled()
          ? obs::GetCounter("slimfast_storage_wal_replay_records_total")
          : nullptr;
  bool saw_record = false;
  std::function<Status(WalRecord)> deliver =
      [&](WalRecord record) -> Status {
    if (!saw_record) {
      saw_record = true;
      if (record.sequence > after_sequence + 1) {
        return Status::IOError(
            "wal gap: first record has sequence " +
            std::to_string(record.sequence) + " but replay needs " +
            std::to_string(after_sequence + 1));
      }
    }
    if (record.sequence <= after_sequence) return Status::OK();
    if (replayed != nullptr) replayed->Increment();
    return fn(record);
  };
  return WalkWal(dir, &deliver).status();
}

Status ReplayWalRelearns(
    const std::string& dir, uint64_t from_point,
    const std::function<Status(const WalRelearnRecord&)>& fn) {
  std::function<Status(WalRelearnRecord)> deliver =
      [&](WalRelearnRecord record) -> Status {
    return record.point < from_point ? Status::OK() : fn(record);
  };
  return WalkWal(dir, nullptr, &deliver).status();
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    std::string dir, WalOptions options, uint64_t min_next_sequence) {
  if (options.segment_bytes < kSegmentHeaderBytes + 1) {
    options.segment_bytes = kSegmentHeaderBytes + 1;
  }
  if (min_next_sequence < 1) min_next_sequence = 1;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create wal dir " + dir + ": " +
                           ec.message());
  }
  SLIMFAST_ASSIGN_OR_RETURN(WalScan scan, ScanWal(dir));

  std::unique_ptr<WalWriter> writer(
      new WalWriter(std::move(dir), options));
  writer->next_sequence_ = std::max(scan.next_sequence, min_next_sequence);
  for (const WalSegment& segment : scan.segments) {
    writer->segments_.emplace_back(segment.first_sequence, segment.path);
  }

  if (!scan.segments.empty()) {
    WalSegment& tail = scan.segments.back();
    if (tail.valid_bytes < kSegmentHeaderBytes) {
      // Header torn mid-write: recreate the segment wholesale.
      std::filesystem::remove(tail.path, ec);
      if (ec) {
        return Status::IOError("cannot remove torn wal segment " +
                               tail.path + ": " + ec.message());
      }
      writer->segments_.pop_back();
    } else {
      int fd = ::open(tail.path.c_str(), O_WRONLY | O_CLOEXEC);
      if (fd < 0) {
        return Status::IOError(ErrnoMessage("open wal segment", tail.path));
      }
      if (scan.tail_torn) {
        if (::ftruncate(fd, static_cast<off_t>(tail.valid_bytes)) != 0) {
          ::close(fd);
          return Status::IOError(
              ErrnoMessage("truncate torn wal tail of", tail.path));
        }
        if (obs::Enabled()) {
          obs::EventLog::Global().Emit(
              obs::EventSeverity::kWarn, "wal", -1,
              "torn tail healed segment=" + tail.path + " truncated_to=" +
                  std::to_string(tail.valid_bytes) + " bytes");
        }
      }
      if (::lseek(fd, 0, SEEK_END) < 0) {
        ::close(fd);
        return Status::IOError(ErrnoMessage("seek wal segment", tail.path));
      }
      writer->fd_ = fd;
      writer->segment_bytes_written_ = tail.valid_bytes;
      writer->segment_records_ = tail.record_count;
    }
  }
  if (writer->fd_ < 0) {
    SLIMFAST_RETURN_NOT_OK(writer->CreateSegment(writer->next_sequence_));
  } else if (writer->next_sequence_ > scan.next_sequence) {
    // The log was truncated past a checkpoint the caller still holds;
    // never append a discontiguous sequence into an old segment.
    SLIMFAST_RETURN_NOT_OK(writer->Rotate());
  }
  return writer;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    if (options_.fsync != WalFsync::kNone) ::fsync(fd_);
    ::close(fd_);
  }
}

Status WalWriter::CreateSegment(uint64_t first_sequence) {
  const std::string path =
      dir_ + "/" + SegmentName(first_sequence);
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("create wal segment", path));
  }
  std::string header;
  AppendU64(&header, kWalMagic);
  AppendU64(&header, first_sequence);
  Status written = WriteFully(fd, header.data(), header.size(), path);
  if (!written.ok()) {
    ::close(fd);
    return written;
  }
  fd_ = fd;
  segment_bytes_written_ = kSegmentHeaderBytes;
  segment_records_ = 0;
  segments_.emplace_back(first_sequence, path);
  if (options_.fsync != WalFsync::kNone) {
    SLIMFAST_RETURN_NOT_OK(Sync());
    SLIMFAST_RETURN_NOT_OK(FsyncDir(dir_));
  }
  return Status::OK();
}

Status WalWriter::CloseSegment() {
  if (fd_ < 0) return Status::OK();
  const Status synced =
      options_.fsync != WalFsync::kNone ? Sync() : Status::OK();
  ::close(fd_);
  fd_ = -1;
  return synced;
}

Status WalWriter::MaybeFsync() {
  return options_.fsync == WalFsync::kNone ? Status::OK() : Sync();
}

Result<uint64_t> WalWriter::Append(const ObservationBatch& batch) {
  return AppendGroup({&batch});
}

Result<uint64_t> WalWriter::AppendGroup(
    const std::vector<const ObservationBatch*>& batches) {
  static obs::LatencyHistogram* append_hist =
      obs::GetHistogram("slimfast_storage_wal_append_seconds");
  obs::Stage stage("storage.wal_append", append_hist);
  const uint64_t first = next_sequence_;
  for (const ObservationBatch* batch : batches) {
    SLIMFAST_RETURN_NOT_OK(
        WritePayload(EncodeRecordPayload(next_sequence_, *batch)));
    ++segment_records_;
    ++next_sequence_;
  }
  SLIMFAST_RETURN_NOT_OK(MaybeFsync());
  return first;
}

Status WalWriter::AppendRelearn(const WalRelearnRecord& record) {
  static obs::LatencyHistogram* append_hist =
      obs::GetHistogram("slimfast_storage_wal_append_seconds");
  obs::Stage stage("storage.wal_append", append_hist);
  return WritePayload(EncodeRelearnPayload(record));
}

Status WalWriter::WritePayload(const std::string& payload) {
  static obs::ShardedCounter* bytes_total =
      obs::GetCounter("slimfast_storage_wal_bytes_written_total");
  if (poisoned_) {
    return Status::IOError(
        "wal writer is poisoned by an earlier write failure");
  }
  if (segment_bytes_written_ >= options_.segment_bytes &&
      segment_records_ > 0) {
    SLIMFAST_RETURN_NOT_OK(Rotate());
  }
  std::string record;
  record.reserve(8 + payload.size());
  AppendU32(&record, static_cast<uint32_t>(payload.size()));
  AppendU32(&record, Crc32(payload.data(), payload.size()));
  record += payload;
  const std::string& path = segments_.back().second;
  Status written = WriteFully(fd_, record.data(), record.size(), path);
  if (!written.ok()) {
    poisoned_ = true;
    return written;
  }
  segment_bytes_written_ += static_cast<int64_t>(record.size());
  if (obs::Enabled()) bytes_total->Add(static_cast<int64_t>(record.size()));
  return Status::OK();
}

Status WalWriter::Sync() {
  if (fd_ < 0) return Status::OK();
  static obs::LatencyHistogram* fsync_hist =
      obs::GetHistogram("slimfast_storage_wal_fsync_seconds");
  obs::Stage stage("storage.wal_sync", fsync_hist);
  if (::fsync(fd_) != 0) {
    return Status::IOError(std::string("fsync wal segment: ") +
                           std::strerror(errno));
  }
  ++sync_count_;
  return Status::OK();
}

Status WalWriter::Rotate() {
  if (poisoned_) {
    return Status::IOError(
        "wal writer is poisoned by an earlier write failure");
  }
  if (segment_records_ == 0) return Status::OK();  // already fresh
  if (obs::Enabled()) {
    static obs::ShardedCounter* rotations =
        obs::GetCounter("slimfast_storage_wal_rotate_total");
    rotations->Increment();
    obs::EventLog::Global().Emit(
        obs::EventSeverity::kInfo, "wal", -1,
        "segment rotated next_sequence=" +
            std::to_string(next_sequence_) +
            " records=" + std::to_string(segment_records_));
  }
  SLIMFAST_RETURN_NOT_OK(CloseSegment());
  return CreateSegment(next_sequence_);
}

Status WalWriter::RemoveSegmentsBefore(uint64_t sequence) {
  while (segments_.size() > 1 && segments_[1].first <= sequence) {
    std::error_code ec;
    std::filesystem::remove(segments_.front().second, ec);
    if (ec) {
      return Status::IOError("cannot remove wal segment " +
                             segments_.front().second + ": " +
                             ec.message());
    }
    segments_.erase(segments_.begin());
  }
  if (options_.fsync != WalFsync::kNone) {
    SLIMFAST_RETURN_NOT_OK(FsyncDir(dir_));
  }
  return Status::OK();
}

}  // namespace slimfast
