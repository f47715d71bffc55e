// Little-endian binary codec shared by the checkpoint formats and the
// archive footer.
//
// ByteWriter appends fixed-width scalars and length-prefixed arrays to a
// std::string; ByteReader decodes them from a string_view. Scalars and array
// elements are stored as their in-memory bytes (doubles as their IEEE-754
// bit pattern), so an array section costs one memcpy to write and one
// bounds check plus one memcpy to read: no per-element formatting or
// parsing. An array is a u64 element count followed by count * sizeof(T)
// raw bytes.
//
// Decoding is total. Every read checks the remaining input first, and an
// array read checks `count * sizeof(T) <= remaining` BEFORE it allocates, so
// no byte string can make the reader allocate more than the input could
// encode, read out of bounds, or throw. Errors carry the caller's status
// code and context (the archive reports DataLoss, checkpoints
// InvalidArgument).

#ifndef LONGDP_UTIL_BYTE_IO_H_
#define LONGDP_UTIL_BYTE_IO_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace longdp {
namespace util {

// Verbatim element dumps are only portable between hosts of one byte order;
// every deployment target (x86-64, aarch64 Linux) is little-endian.
static_assert(std::endian::native == std::endian::little,
              "util/byte_io requires a little-endian host");

class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }

  /// Appends `len` bytes with no length prefix.
  void Raw(const void* data, size_t len) {
    if (len > 0) out_->append(static_cast<const char*>(data), len);
  }

  /// Appends a u64 element count followed by the elements' raw bytes.
  template <typename T>
  void Array(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    U64(v.size());
    Raw(v.data(), v.size_bytes());
  }
  template <typename T>
  void Array(const std::vector<T>& v) {
    Array(std::span<const T>(v));
  }
  void String(std::string_view s) { Array(std::span<const char>(s)); }

 private:
  std::string* out_;
};

class ByteReader {
 public:
  /// `what` names the decoded object in error messages ("archive footer"
  /// gives "archive footer truncated"); `code` is the status code of every
  /// decode error.
  ByteReader(std::string_view data, StatusCode code, const char* what)
      : data_(data), code_(code), what_(what) {}

  Status ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadU64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadI64(int64_t* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadF64(double* v) { return ReadRaw(v, sizeof(*v)); }

  /// Copies the next `len` bytes into `dst`.
  Status ReadRaw(void* dst, size_t len) {
    if (remaining() < len) return Truncated();
    if (len > 0) std::memcpy(dst, data_.data() + pos_, len);
    pos_ += len;
    return Status::OK();
  }

  /// Zero-copy view of the next `len` bytes.
  Status ReadView(size_t len, std::string_view* out) {
    if (remaining() < len) return Truncated();
    *out = data_.substr(pos_, len);
    pos_ += len;
    return Status::OK();
  }

  /// Reads an array written by ByteWriter::Array into `out` (replacing its
  /// contents). The count is checked against the remaining input before
  /// anything is allocated.
  template <typename T>
  Status ReadArray(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t count = 0;
    LONGDP_RETURN_NOT_OK(ReadU64(&count));
    if (count > remaining() / sizeof(T)) return Truncated();
    out->resize(static_cast<size_t>(count));
    return ReadRaw(out->data(), static_cast<size_t>(count) * sizeof(T));
  }

  /// Zero-copy view of a length-prefixed byte string.
  Status ReadString(std::string_view* out) {
    uint64_t len = 0;
    LONGDP_RETURN_NOT_OK(ReadU64(&len));
    if (len > remaining()) return Truncated();
    return ReadView(static_cast<size_t>(len), out);
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  /// An error with this reader's code: "<what>: <msg>".
  Status Error(const std::string& msg) const {
    return Status(code_, std::string(what_) + ": " + msg);
  }

 private:
  Status Truncated() const {
    return Status(code_, std::string(what_) + " truncated");
  }

  std::string_view data_;
  size_t pos_ = 0;
  StatusCode code_;
  const char* what_;
};

}  // namespace util
}  // namespace longdp

#endif  // LONGDP_UTIL_BYTE_IO_H_
