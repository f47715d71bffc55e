// Backend plumbing shared by the per-ISA translation units and the
// dispatcher. Not part of the public surface — include util/simd/simd.h.

#ifndef LONGDP_UTIL_SIMD_SIMD_INTERNAL_H_
#define LONGDP_UTIL_SIMD_SIMD_INTERNAL_H_

#include <cstddef>
#include <cstdint>

// The vector backends exist only for x86-64 GCC/Clang (runtime probing uses
// __builtin_cpu_supports; the TUs use -m flags). Everywhere else the layer
// is scalar-only and ActiveIsaLevel() reports kScalar.
#if (defined(__x86_64__) || defined(__amd64__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define LONGDP_SIMD_X86 1
#else
#define LONGDP_SIMD_X86 0
#endif

namespace longdp {
namespace util {
namespace simd {
namespace internal {

/// One entry per kernel; each per-ISA TU exports a filled-in table and the
/// dispatcher picks exactly one at first use.
struct Backend {
  void (*fill_stream_words)(uint64_t key, uint64_t cursor, uint64_t* out,
                            size_t count);
  void (*plane_histogram)(const uint64_t* const* planes, int num_planes,
                          const uint64_t* mask, size_t num_words,
                          int64_t* hist);
  void (*plane_add)(uint64_t* const* planes, int num_planes,
                    const uint64_t* addend, size_t num_words);
  uint32_t (*crc32c)(uint32_t crc, const void* data, size_t len);
};

extern const Backend kScalarBackend;
#if LONGDP_SIMD_X86
extern const Backend kAvx2Backend;
extern const Backend kAvx512Backend;
/// The SSE4.2 `crc32` kernel, compiled in the AVX2 TU; the AVX-512 backend
/// shares it (there is no wider CRC instruction).
uint32_t Crc32cHardware(uint32_t crc, const void* data, size_t len);
#endif

}  // namespace internal
}  // namespace simd
}  // namespace util
}  // namespace longdp

#endif  // LONGDP_UTIL_SIMD_SIMD_INTERNAL_H_
