// Token-based state (de)serialization helpers shared by the stream counter
// checkpoint implementations. Doubles round-trip via %.17g so restored
// noise values are bit-identical.

#ifndef LONGDP_STREAM_STATE_IO_H_
#define LONGDP_STREAM_STATE_IO_H_

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "util/status.h"

namespace longdp {
namespace stream {
namespace state_io {

inline void WriteDouble(std::ostream& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

inline Result<double> ReadDouble(std::istream& in) {
  std::string tok;
  if (!(in >> tok)) {
    return Status::InvalidArgument("truncated state (double)");
  }
  // strtod with a null endptr would swallow the error path: a corrupted
  // token ("garbage") silently parses as 0.0 and a checkpoint restores to a
  // wrong-but-plausible state. Require the whole token to be consumed.
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0') {
    return Status::InvalidArgument("malformed double in state: '" +
                                   tok + "'");
  }
  return v;
}

inline Result<int64_t> ReadInt(std::istream& in) {
  std::string tok;
  if (!(in >> tok)) {
    return Status::InvalidArgument("truncated state (int)");
  }
  // Stream extraction (`in >> v`) parses "12abc" as 12 and leaves "abc" in
  // the stream, misaligning every later field into a plausible-but-wrong
  // state. Strict whole-token parse instead (same discipline as ReadDouble
  // and util::ParseInt64Field).
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(tok.c_str(), &end, 10);
  if (end == tok.c_str() || *end != '\0') {
    return Status::InvalidArgument("malformed int in state: '" + tok +
                                   "'");
  }
  if (errno == ERANGE) {
    return Status::InvalidArgument("int overflows in state: '" + tok +
                                   "'");
  }
  return static_cast<int64_t>(v);
}

// Validates a vector's declared element count and empties `v` for the
// element reads. The count is untrusted input: the vector grows as tokens
// actually parse, and the up-front reserve is capped, so a forged count
// (the 16-byte "4294967296 1 2 3") fails as truncated state instead of
// allocating 32 GiB before the first element is read.
template <typename T>
Status StartVector(int64_t count, std::vector<T>* v) {
  if (count < 0 || count > (int64_t{1} << 32)) {
    return Status::InvalidArgument("implausible counter state vector size");
  }
  constexpr int64_t kMaxReserve = 4096;
  v->clear();
  v->reserve(static_cast<size_t>(std::min(count, kMaxReserve)));
  return Status::OK();
}

inline void WriteIntVector(std::ostream& out,
                           const std::vector<int64_t>& v) {
  out << v.size();
  for (int64_t x : v) out << " " << x;
}

inline Status ReadIntVector(std::istream& in, std::vector<int64_t>* v) {
  LONGDP_ASSIGN_OR_RETURN(int64_t count, ReadInt(in));
  LONGDP_RETURN_NOT_OK(StartVector(count, v));
  for (int64_t i = 0; i < count; ++i) {
    LONGDP_ASSIGN_OR_RETURN(const int64_t x, ReadInt(in));
    v->push_back(x);
  }
  return Status::OK();
}

inline void WriteDoubleVector(std::ostream& out,
                              const std::vector<double>& v) {
  out << v.size();
  for (double x : v) {
    out << " ";
    WriteDouble(out, x);
  }
}

inline Status ReadDoubleVector(std::istream& in, std::vector<double>* v) {
  LONGDP_ASSIGN_OR_RETURN(int64_t count, ReadInt(in));
  LONGDP_RETURN_NOT_OK(StartVector(count, v));
  for (int64_t i = 0; i < count; ++i) {
    LONGDP_ASSIGN_OR_RETURN(const double x, ReadDouble(in));
    v->push_back(x);
  }
  return Status::OK();
}

// Substream cursor persistence: counters checkpoint only their draw counts
// (util::SubstreamRng::cursor()); keys never hit disk because they are a
// pure function of the construction seed. Cursors are unsigned 64-bit.

inline Result<uint64_t> ReadCursor(std::istream& in) {
  std::string tok;
  if (!(in >> tok)) {
    return Status::InvalidArgument("truncated state (cursor)");
  }
  // Stream extraction of an unsigned silently NEGATES a signed token: a
  // corrupted "-1" restores as 2^64 - 1 without setting failbit, and the
  // counter replays from a cursor 18 quintillion draws ahead. Cursors are
  // draw counts, so any leading sign ('-' or '+') is rejected outright,
  // and the whole token must parse.
  if (!std::isdigit(static_cast<unsigned char>(tok[0]))) {
    return Status::InvalidArgument("malformed cursor in state: '" +
                                   tok + "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (*end != '\0') {
    return Status::InvalidArgument("malformed cursor in state: '" +
                                   tok + "'");
  }
  if (errno == ERANGE) {
    return Status::InvalidArgument("cursor overflows in state: '" +
                                   tok + "'");
  }
  return static_cast<uint64_t>(v);
}

inline void WriteCursorVector(std::ostream& out,
                              const std::vector<uint64_t>& v) {
  out << v.size();
  for (uint64_t x : v) out << " " << x;
}

inline Status ReadCursorVector(std::istream& in, std::vector<uint64_t>* v) {
  LONGDP_ASSIGN_OR_RETURN(int64_t count, ReadInt(in));
  LONGDP_RETURN_NOT_OK(StartVector(count, v));
  for (int64_t i = 0; i < count; ++i) {
    LONGDP_ASSIGN_OR_RETURN(const uint64_t x, ReadCursor(in));
    v->push_back(x);
  }
  return Status::OK();
}

// Checkpoint sentinels. Every SaveCheckpoint format ends with a
// format-specific trailer token; loaders consume it with ExpectToken and
// hard-fail otherwise, so a checkpoint truncated after a syntactically
// valid prefix can never load. Whole-file loaders additionally call
// ExpectExhausted: trailing bytes after the sentinel (a concatenated second
// checkpoint, appended garbage) are an error for a file that is supposed
// to BE a checkpoint, while mid-stream embedding (the counter bank inside
// a synthesizer checkpoint) skips that call.

inline Status ExpectToken(std::istream& in, const std::string& expected,
                          const std::string& what) {
  std::string tok;
  if (!(in >> tok)) {
    return Status::InvalidArgument("truncated " + what + ": expected '" +
                                   expected + "'");
  }
  if (tok != expected) {
    return Status::InvalidArgument("corrupt " + what + ": expected '" +
                                   expected + "', got '" + tok + "'");
  }
  return Status::OK();
}

inline Status ExpectExhausted(std::istream& in, const std::string& what) {
  std::string tok;
  if (in >> tok) {
    return Status::InvalidArgument("trailing data after " + what + ": '" +
                                   tok + "'");
  }
  return Status::OK();
}

}  // namespace state_io
}  // namespace stream
}  // namespace longdp

#endif  // LONGDP_STREAM_STATE_IO_H_
