#include "storage/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace slimfast {
namespace storage_internal {

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

Status WriteFully(int fd, const char* data, size_t size,
                  const std::string& path) {
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("write", path));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Status::IOError(ErrnoMessage("open dir", dir));
  if (::fsync(fd) != 0) {
    Status failed = Status::IOError(ErrnoMessage("fsync dir", dir));
    ::close(fd);
    return failed;
  }
  ::close(fd);
  return Status::OK();
}

}  // namespace storage_internal
}  // namespace slimfast
