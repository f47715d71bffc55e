// Scalar backend: the reference instantiation of the shared kernel bodies.
// Always compiled, always correct; also the forced-scalar path CI replays
// the golden suites under to prove backend equivalence.

#include <array>

#include "util/simd/simd_internal.h"
#include "util/simd/simd_kernels.h"

namespace longdp {
namespace util {
namespace simd {
namespace internal {
namespace {

// Reflected Castagnoli polynomial.
constexpr uint32_t kCrcPoly = 0x82F63B78u;

// Slicing-by-4 tables: table[0] is the classic byte-at-a-time table,
// table[j] advances a byte that sits j positions deeper in the word.
// Built once at first use; 4 KiB total, ~4x the byte loop's throughput.
struct CrcTables {
  std::array<std::array<uint32_t, 256>, 4> t;
  CrcTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int j = 0; j < 8; ++j) {
        c = (c & 1u) ? (c >> 1) ^ kCrcPoly : (c >> 1);
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = t[0][i];
      for (size_t j = 1; j < 4; ++j) {
        c = t[0][c & 0xFFu] ^ (c >> 8);
        t[j][i] = c;
      }
    }
  }
};

uint32_t Crc32cScalar(uint32_t crc, const void* data, size_t len) {
  static const CrcTables tables;
  const auto& t = tables.t;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~crc;
  while (len >= 4) {
    c ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
    c = t[3][c & 0xFFu] ^ t[2][(c >> 8) & 0xFFu] ^ t[1][(c >> 16) & 0xFFu] ^
        t[0][c >> 24];
    p += 4;
    len -= 4;
  }
  while (len-- > 0) {
    c = t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return ~c;
}

}  // namespace

const Backend kScalarBackend = {
    &FillStreamWordsT<ScalarTraits>,
    &PlaneHistogramT<ScalarTraits>,
    &PlaneAddT<ScalarTraits>,
    &Crc32cScalar,
};

}  // namespace internal
}  // namespace simd
}  // namespace util
}  // namespace longdp
