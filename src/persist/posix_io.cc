#include "persist/posix_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace longdp {
namespace persist {

namespace {
std::string ErrnoMessage(const std::string& op, const std::string& path) {
  return op + " failed for '" + path + "': " + std::strerror(errno);
}

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}
}  // namespace

Result<int> OpenFd(const std::string& path, int flags, int mode) {
  int fd;
  do {
    fd = ::open(path.c_str(), flags, mode);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    if (errno == ENOENT && (flags & O_CREAT) == 0) {
      return Status::NotFound("no file at '" + path + "'");
    }
    return Status::IOError(ErrnoMessage("open", path));
  }
  return fd;
}

Status WriteAllFd(int fd, const std::string& path, const char* data,
                  size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("write", path));
    }
    if (n == 0) {
      return Status::IOError("write stalled for '" + path + "'");
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status TruncateFd(int fd, const std::string& path, int64_t len) {
  int rc;
  do {
    rc = ::ftruncate(fd, static_cast<off_t>(len));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return Status::IOError(ErrnoMessage("ftruncate", path));
  }
  return Status::OK();
}

Status SyncFd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) {
    return Status::IOError(ErrnoMessage("fsync", path));
  }
  return Status::OK();
}

Status SyncParentDir(const std::string& path) {
  const std::string dir = ParentDir(path);
  LONGDP_ASSIGN_OR_RETURN(int dfd, OpenFd(dir, O_RDONLY, 0));
  Status sync = SyncFd(dfd, dir);
  ::close(dfd);
  return sync;
}

Status ReadFileBytes(const std::string& path, std::string* out) {
  LONGDP_ASSIGN_OR_RETURN(int fd, OpenFd(path, O_RDONLY, 0));
  out->clear();
  // Snapshots run to tens of MB: size the buffer once instead of letting
  // the chunked appends reallocate and copy it ~log2(size / 64 KiB) times.
  struct stat st;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    out->reserve(static_cast<size_t>(st.st_size));
  }
  char buf[1 << 16];
  Status status = Status::OK();
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      status = Status::IOError(ErrnoMessage("read", path));
      break;
    }
    if (n == 0) break;
    out->append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return status;
}

}  // namespace persist
}  // namespace longdp
