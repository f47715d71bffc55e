#include "persist/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <string_view>
#include <utility>
#include <vector>

#include "persist/crc32c.h"
#include "persist/posix_io.h"

namespace longdp {
namespace persist {

namespace {
constexpr char kSnapshotMagicPrefix[] = "longdp-snapshot-";
constexpr char kSnapshotMagic[] = "longdp-snapshot-v1";

bool ValidKindToken(std::string_view kind) {
  if (kind.empty()) return false;
  for (char c : kind) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '-' || c == '_';
    if (!ok) return false;
  }
  return true;
}

std::string EncodeHeader(const SnapshotMeta& meta, std::string_view payload) {
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x",
                Crc32c(payload.data(), payload.size()));
  return std::string(kSnapshotMagic) + " " + meta.kind + " " +
         std::to_string(meta.format_version) + " " +
         std::to_string(meta.seed) + " " + std::to_string(meta.round) + " " +
         std::to_string(payload.size()) + " " + crc_hex + "\n";
}

// Whole-token strict parse: "17x", "+3", " 3" and (for unsigned fields)
// "-1" are all malformed, never a wrapped or truncated number.
template <typename T>
Status ParseToken(std::string_view tok, int base, T* out) {
  const char* end = tok.data() + tok.size();
  auto [ptr, ec] = std::from_chars(tok.data(), end, *out, base);
  if (tok.empty() || ec != std::errc() || ptr != end) {
    return Status::InvalidArgument("malformed snapshot header field '" +
                                   std::string(tok) + "'");
  }
  return Status::OK();
}

// Parses the header line of `bytes` into `meta`, the declared payload
// length and CRC; returns the offset of the payload.
Result<size_t> DecodeHeader(std::string_view bytes, SnapshotMeta* meta,
                            uint64_t* declared, uint32_t* declared_crc) {
  const size_t eol = bytes.find('\n');
  if (eol == std::string_view::npos) {
    return Status::InvalidArgument("not a snapshot: no header line");
  }
  std::vector<std::string_view> toks;
  for (std::string_view rest = bytes.substr(0, eol); !rest.empty();) {
    const size_t sp = rest.find(' ');
    if (sp != 0) toks.push_back(rest.substr(0, sp));
    rest = sp == std::string_view::npos ? std::string_view()
                                        : rest.substr(sp + 1);
  }
  if (toks.empty()) {
    return Status::InvalidArgument("not a snapshot: empty header");
  }
  if (toks[0] != kSnapshotMagic) {
    if (toks[0].starts_with(kSnapshotMagicPrefix)) {
      return Status::InvalidArgument("unsupported snapshot version '" +
                                     std::string(toks[0]) +
                                     "'; this build reads " + kSnapshotMagic);
    }
    return Status::InvalidArgument("not a snapshot");
  }
  if (toks.size() < 2 || !ValidKindToken(toks[1])) {
    return Status::InvalidArgument("malformed snapshot kind");
  }
  if (toks.size() != 7) {
    return Status::InvalidArgument("malformed snapshot header");
  }
  meta->kind = std::string(toks[1]);
  LONGDP_RETURN_NOT_OK(ParseToken(toks[2], 10, &meta->format_version));
  LONGDP_RETURN_NOT_OK(ParseToken(toks[3], 10, &meta->seed));
  LONGDP_RETURN_NOT_OK(ParseToken(toks[4], 10, &meta->round));
  LONGDP_RETURN_NOT_OK(ParseToken(toks[5], 10, declared));
  if (toks[6].size() != 8 || !ParseToken(toks[6], 16, declared_crc).ok()) {
    return Status::InvalidArgument("malformed snapshot checksum field");
  }
  if (meta->format_version < 0 || meta->round < 0) {
    return Status::InvalidArgument("malformed snapshot header");
  }
  return eol + 1;
}

// Header line, then payload: no concatenated copy of a large payload.
Status WriteEncodedToFd(int fd, const std::string& path,
                        const SnapshotMeta& meta, std::string_view payload) {
  const std::string header = EncodeHeader(meta, payload);
  LONGDP_RETURN_NOT_OK(WriteAllFd(fd, path, header.data(), header.size()));
  LONGDP_RETURN_NOT_OK(WriteAllFd(fd, path, payload.data(), payload.size()));
  return SyncFd(fd, path);
}
}  // namespace

std::string EncodeSnapshot(const SnapshotMeta& meta,
                           std::string_view payload) {
  std::string out = EncodeHeader(meta, payload);
  out.append(payload);
  return out;
}

Result<Snapshot> DecodeSnapshot(std::string bytes) {
  Snapshot snap;
  uint64_t want = 0;
  uint32_t declared_crc = 0;
  LONGDP_ASSIGN_OR_RETURN(
      const size_t start,
      DecodeHeader(bytes, &snap.meta, &want, &declared_crc));
  const size_t have = bytes.size() - start;
  if (have < want) {
    return Status::DataLoss("snapshot truncated: header declares " +
                            std::to_string(want) + " payload bytes, file has " +
                            std::to_string(have));
  }
  if (have > want) {
    return Status::DataLoss("snapshot has " + std::to_string(have - want) +
                            " trailing bytes past the declared payload");
  }
  const uint32_t actual_crc = Crc32c(bytes.data() + start, have);
  if (actual_crc != declared_crc) {
    char hex[2][16];
    std::snprintf(hex[0], sizeof(hex[0]), "%08x", declared_crc);
    std::snprintf(hex[1], sizeof(hex[1]), "%08x", actual_crc);
    return Status::DataLoss(std::string("snapshot checksum mismatch: header ") +
                            hex[0] + ", payload " + hex[1]);
  }
  // The payload is the file minus its header line: drop the header in
  // place rather than copying the payload out.
  bytes.erase(0, start);
  snap.payload = std::move(bytes);
  return snap;
}

Status WriteSnapshot(const std::string& path, const SnapshotMeta& meta,
                     std::string_view payload) {
  const std::string tmp = path + ".tmp";
  LONGDP_ASSIGN_OR_RETURN(
      int fd, OpenFd(tmp, O_WRONLY | O_CREAT | O_TRUNC, 0644));
  Status write_status = WriteEncodedToFd(fd, tmp, meta, payload);
  ::close(fd);
  if (!write_status.ok()) {
    ::unlink(tmp.c_str());  // best-effort cleanup of the partial temp file
    return write_status;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status st = Status::IOError("rename '" + tmp + "' over '" + path +
                                "' failed");
    ::unlink(tmp.c_str());
    return st;
  }
  // The rename itself must survive a crash: fsync the directory entry.
  return SyncParentDir(path);
}

Status WriteSnapshotDirect(const std::string& path, const SnapshotMeta& meta,
                           std::string_view payload) {
  LONGDP_ASSIGN_OR_RETURN(
      int fd, OpenFd(path, O_WRONLY | O_CREAT | O_TRUNC, 0644));
  Status write_status = WriteEncodedToFd(fd, path, meta, payload);
  ::close(fd);
  return write_status;
}

Result<Snapshot> ReadSnapshot(const std::string& path) {
  std::string bytes;
  LONGDP_RETURN_NOT_OK(ReadFileBytes(path, &bytes));
  return DecodeSnapshot(std::move(bytes));
}

}  // namespace persist
}  // namespace longdp
