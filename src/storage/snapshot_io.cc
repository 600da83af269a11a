#include "storage/snapshot_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <utility>

#include "storage/crc32.h"
#include "storage/file_io.h"

namespace slimfast {

using storage_internal::ErrnoMessage;
using storage_internal::FsyncDir;
using storage_internal::WriteFully;

namespace {

// "SLFSNAP1" / "1PANSFLS" in little-endian byte order.
constexpr uint64_t kSnapshotMagic = 0x3150414E53464C53ULL;
constexpr uint64_t kSnapshotFooter = 0x534C46534E415031ULL;

Status WriteFileDurably(const std::string& path, const std::string& bytes) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) return Status::IOError(ErrnoMessage("create", path));
  Status written = WriteFully(fd, bytes.data(), bytes.size(), path);
  if (written.ok() && ::fsync(fd) != 0) {
    written = Status::IOError(ErrnoMessage("fsync", path));
  }
  ::close(fd);
  return written;
}

}  // namespace

Status WriteSnapshotFile(const std::string& path,
                         const std::string& payload) {
  std::string framed;
  framed.reserve(payload.size() + 20);
  AppendU64(&framed, kSnapshotMagic);
  framed += payload;
  AppendU32(&framed, Crc32(payload.data(), payload.size()));
  AppendU64(&framed, kSnapshotFooter);

  const std::string tmp = path + ".tmp";
  SLIMFAST_RETURN_NOT_OK(WriteFileDurably(tmp, framed));
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("cannot rename " + tmp + " to " + path + ": " +
                           ec.message());
  }
  // Make the rename itself durable.
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  return FsyncDir(dir.empty() ? "." : dir);
}

Result<std::string> ReadSnapshotFile(const std::string& path) {
  if (!std::filesystem::exists(path)) {
    return Status::NotFound("no snapshot at " + path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("cannot read " + path);
  if (bytes.size() < 20) {
    return Status::IOError("snapshot " + path + " is truncated");
  }
  ByteReader header(bytes.data(), 8);
  uint64_t magic = 0;
  header.ReadU64(&magic);
  if (magic != kSnapshotMagic) {
    return Status::IOError("snapshot " + path + " has a bad magic");
  }
  ByteReader trailer(bytes.data() + bytes.size() - 12, 12);
  uint32_t crc = 0;
  uint64_t footer = 0;
  trailer.ReadU32(&crc);
  trailer.ReadU64(&footer);
  if (footer != kSnapshotFooter) {
    return Status::IOError("snapshot " + path +
                           " is missing its footer (torn write?)");
  }
  const size_t payload_size = bytes.size() - 20;
  if (Crc32(bytes.data() + 8, payload_size) != crc) {
    return Status::IOError("snapshot " + path + " fails its checksum");
  }
  return bytes.substr(8, payload_size);
}

void AppendStoreColumns(const ObservationStore& store, std::string* out) {
  AppendI32(out, store.num_sources());
  AppendI32(out, store.num_objects());
  AppendI32(out, store.num_values());
  AppendArray(out, store.objects());
  AppendArray(out, store.sources());
  AppendArray(out, store.values());
  AppendArray(out, store.object_offsets());
  AppendArray(out, store.truth());
  AppendU64(out, store.content_fingerprint());
}

Result<ObservationStore> ReadStoreColumns(ByteReader* in) {
  ObservationStore::Columns columns;
  if (!in->ReadI32(&columns.num_sources) ||
      !in->ReadI32(&columns.num_objects) ||
      !in->ReadI32(&columns.num_values) ||
      !ReadArray(in, &columns.objects) ||
      !ReadArray(in, &columns.sources) ||
      !ReadArray(in, &columns.values) ||
      !ReadArray(in, &columns.object_offsets) ||
      !ReadArray(in, &columns.truth) || !in->ReadU64(&columns.fingerprint)) {
    return Status::IOError("snapshot store sections are truncated");
  }
  return ObservationStore::FromColumns(std::move(columns));
}

}  // namespace slimfast
