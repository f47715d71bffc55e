// Runtime backend selection and the forwarding entry points.

#include "util/simd/simd.h"

#include <cstdlib>

#include "util/simd/simd_internal.h"

namespace longdp {
namespace util {
namespace simd {
namespace {

// LONGDP_FORCE_SCALAR= / =0 means "not forced"; anything else forces the
// scalar backend (mirrors the usual boolean-env convention).
bool EnvForcesScalar() {
  const char* v = std::getenv("LONGDP_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

struct Dispatch {
  IsaLevel level;
  const internal::Backend* backend;
  bool forced;
};

Dispatch SelectBackend() {
#if defined(LONGDP_FORCE_SCALAR_BUILD)
  const bool forced = true;
#else
  const bool forced = EnvForcesScalar();
#endif
  if (!forced) {
#if LONGDP_SIMD_X86
    // Detection order: highest tier first. The AVX-512 backend needs all of
    // F/DQ/BW/VL (see simd_avx512.cc); partial support falls through.
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl")) {
      return {IsaLevel::kAvx512, &internal::kAvx512Backend, false};
    }
    if (__builtin_cpu_supports("avx2")) {
      return {IsaLevel::kAvx2, &internal::kAvx2Backend, false};
    }
#endif
  }
  return {IsaLevel::kScalar, &internal::kScalarBackend, forced};
}

const Dispatch& GetDispatch() {
  // Magic-static: probed once, race-free, before any kernel runs.
  static const Dispatch dispatch = SelectBackend();
  return dispatch;
}

}  // namespace

IsaLevel ActiveIsaLevel() { return GetDispatch().level; }

bool ScalarForced() { return GetDispatch().forced; }

const char* IsaLevelName(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar:
      return "scalar";
    case IsaLevel::kAvx2:
      return "avx2";
    case IsaLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

void FillStreamWords(uint64_t key, uint64_t cursor, uint64_t* out,
                     size_t count) {
  GetDispatch().backend->fill_stream_words(key, cursor, out, count);
}

void PlaneHistogram(const uint64_t* const* planes, int num_planes,
                    const uint64_t* mask, size_t num_words, int64_t* hist) {
  GetDispatch().backend->plane_histogram(planes, num_planes, mask, num_words,
                                         hist);
}

void PlaneAdd(uint64_t* const* planes, int num_planes,
              const uint64_t* addend, size_t num_words) {
  GetDispatch().backend->plane_add(planes, num_planes, addend, num_words);
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len) {
  return GetDispatch().backend->crc32c(crc, data, len);
}

uint32_t Crc32cExtendScalar(uint32_t crc, const void* data, size_t len) {
  return internal::kScalarBackend.crc32c(crc, data, len);
}

}  // namespace simd
}  // namespace util
}  // namespace longdp
