#ifndef SLIMFAST_STORAGE_FILE_IO_H_
#define SLIMFAST_STORAGE_FILE_IO_H_

#include <cstddef>
#include <string>

#include "util/status.h"

namespace slimfast {
namespace storage_internal {

// POSIX write and sync helpers shared by the WAL and snapshot writers.
// Internal to src/storage: nothing outside the layer includes this header.

/// "<what> <path>: <strerror(errno)>", for IOError messages.
std::string ErrnoMessage(const std::string& what, const std::string& path);

/// Writes all `size` bytes of `data` to `fd`, retrying short writes and
/// EINTR. `path` names the file in the error message.
Status WriteFully(int fd, const char* data, size_t size,
                  const std::string& path);

/// fsyncs directory `dir`, making entries created, renamed or removed in
/// it durable. IOError when the directory cannot be opened or synced.
Status FsyncDir(const std::string& dir);

}  // namespace storage_internal
}  // namespace slimfast

#endif  // SLIMFAST_STORAGE_FILE_IO_H_
