#ifndef SLIMFAST_STORAGE_SNAPSHOT_IO_H_
#define SLIMFAST_STORAGE_SNAPSHOT_IO_H_

#include <string>

#include "data/observation_store.h"
#include "storage/codec.h"
#include "util/result.h"

namespace slimfast {

/// On-disk snapshot container + the ObservationStore column sections.
///
/// A snapshot file is [u64 magic][payload][u32 crc32(payload)][u64
/// footer magic]. The payload is a caller-composed sequence of codec.h
/// sections (scalars and length-prefixed little-endian arrays). Files
/// are written atomically — temp file, fsync, rename — so a crashed
/// checkpoint leaves either the old snapshot or the new one, never a
/// half-written hybrid; the CRC + footer catch the rename-less torn
/// temp case and any later corruption.

/// Atomically writes `payload` (framed as above) to `path`.
Status WriteSnapshotFile(const std::string& path,
                         const std::string& payload);

/// Reads `path`, validates magic, footer, and CRC, and returns the raw
/// payload. NotFound when the file does not exist; IOError on any
/// framing or checksum failure.
Result<std::string> ReadSnapshotFile(const std::string& path);

/// Appends the store's primary columns (dimensions, claim arrays,
/// per-object offsets, truth, fingerprint) as payload sections — the
/// bulk-load serialization ReadStoreColumns reverses.
void AppendStoreColumns(const ObservationStore& store, std::string* out);

/// Reads the sections AppendStoreColumns wrote and rebuilds the store
/// via ObservationStore::FromColumns (which re-derives the domains and
/// verifies the content fingerprint).
Result<ObservationStore> ReadStoreColumns(ByteReader* in);

}  // namespace slimfast

#endif  // SLIMFAST_STORAGE_SNAPSHOT_IO_H_
