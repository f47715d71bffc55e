// CRC32C (Castagnoli) checksums for the durable state layer.
//
// Snapshot payloads and WAL frames carry a CRC32C so recovery can tell a
// torn or bit-flipped file from a valid one. Castagnoli (polynomial
// 0x1EDC6F41, reflected 0x82F63B78) rather than the zlib CRC32 because it
// is the de-facto storage checksum (iSCSI, ext4, RocksDB, LevelDB) with
// strictly better error-detection properties at these block sizes. The
// kernel is util::simd::Crc32cExtend: the SSE4.2 `crc32` instruction where
// the CPU has it, a slicing-by-4 table otherwise (LONGDP_FORCE_SCALAR
// selects the table); both give the same value.

#ifndef LONGDP_PERSIST_CRC32C_H_
#define LONGDP_PERSIST_CRC32C_H_

#include <cstddef>
#include <cstdint>

#include "util/simd/simd.h"

namespace longdp {
namespace persist {

/// Extends a running CRC32C with `len` bytes. Start a fresh checksum with
/// `crc = 0`; the streaming form satisfies
/// `Crc32c(a+b) == Crc32cExtend(Crc32c(a), b)`.
inline uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len) {
  return util::simd::Crc32cExtend(crc, data, len);
}

/// One-shot checksum of a buffer.
inline uint32_t Crc32c(const void* data, size_t len) {
  return Crc32cExtend(0, data, len);
}

}  // namespace persist
}  // namespace longdp

#endif  // LONGDP_PERSIST_CRC32C_H_
