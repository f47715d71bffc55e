// AVX2 backend: 4 x uint64 lanes per vector. This TU is compiled with
// -mavx2 (see src/util/CMakeLists.txt); nothing in it executes unless the
// runtime probe in simd.cc saw avx2 support, so building it on any x86-64
// host is safe.

#include "util/simd/simd_internal.h"

#if LONGDP_SIMD_X86

#ifndef __AVX2__
#error "simd_avx2.cc must be compiled with -mavx2 (build misconfiguration)"
#endif

#include <immintrin.h>

#include <cstring>

#include "util/simd/simd_kernels.h"

namespace longdp {
namespace util {
namespace simd {
namespace internal {
namespace {

struct Avx2Traits {
  using V = __m256i;
  static constexpr size_t kWords = 4;
  static V Load(const uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void Store(uint64_t* p, V v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static V Set1(uint64_t x) {
    return _mm256_set1_epi64x(static_cast<long long>(x));
  }
  static V Ones() { return _mm256_set1_epi64x(-1); }
  static V And(V a, V b) { return _mm256_and_si256(a, b); }
  static V AndNot(V a, V b) { return _mm256_andnot_si256(a, b); }
  static V Xor(V a, V b) { return _mm256_xor_si256(a, b); }
  static V Add(V a, V b) { return _mm256_add_epi64(a, b); }
  static bool IsZero(V v) { return _mm256_testz_si256(v, v) != 0; }

  static uint64_t PopcountSum(V v) {
    // Nibble-LUT popcount (Mula): per-byte counts via two shuffles, summed
    // into 4 x u64 by SAD against zero, then reduced horizontally.
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low = _mm256_set1_epi8(0x0F);
    const __m256i lo = _mm256_and_si256(v, low);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
    const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                        _mm256_shuffle_epi8(lut, hi));
    const __m256i sums = _mm256_sad_epu8(cnt, _mm256_setzero_si256());
    const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(sums),
                                    _mm256_extracti128_si256(sums, 1));
    return static_cast<uint64_t>(_mm_cvtsi128_si64(s)) +
           static_cast<uint64_t>(_mm_extract_epi64(s, 1));
  }

  // 64-bit lanewise multiply-low from 32-bit partial products (AVX2 has no
  // vpmullq): a*b mod 2^64 = lo(a)lo(b) + ((hi(a)lo(b) + lo(a)hi(b)) << 32).
  static V MulLo64(V a, V b) {
    const __m256i lo = _mm256_mul_epu32(a, b);
    const __m256i cross =
        _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                         _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
    return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
  }

  static V SplitMixFinalize(V z) {
    z = MulLo64(Xor(z, _mm256_srli_epi64(z, 30)),
                Set1(0xBF58476D1CE4E5B9ULL));
    z = MulLo64(Xor(z, _mm256_srli_epi64(z, 27)),
                Set1(0x94D049BB133111EBULL));
    return Xor(z, _mm256_srli_epi64(z, 31));
  }
};

uint64_t LoadWord(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

// CRC32C with the SSE4.2 `crc32` instruction: eight bytes per step, then
// the byte tail. The register is inverted on entry and exit, as in the
// slicing-by-4 fallback, so calls chain through Crc32cExtend.
uint32_t Crc32cHardware(uint32_t crc, const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t c = ~crc;
  for (; len >= 8; len -= 8, p += 8) c = _mm_crc32_u64(c, LoadWord(p));
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; len > 0; --len) c32 = _mm_crc32_u8(c32, *p++);
  return ~c32;
}

const Backend kAvx2Backend = {
    &FillStreamWordsT<Avx2Traits>,
    &PlaneHistogramT<Avx2Traits>,
    &PlaneAddT<Avx2Traits>,
    &Crc32cHardware,
};

}  // namespace internal
}  // namespace simd
}  // namespace util
}  // namespace longdp

#endif  // LONGDP_SIMD_X86
