#include "persist/crc32c.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/simd/simd.h"

namespace longdp {
namespace persist {
namespace {

// Reference vectors from RFC 3720 (iSCSI) appendix B.4 — any conforming
// CRC32C must reproduce these exactly.
TEST(Crc32cTest, KnownVectors) {
  EXPECT_EQ(Crc32c("", 0), 0u);
  const std::string check = "123456789";
  EXPECT_EQ(Crc32c(check.data(), check.size()), 0xE3069283u);
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  const std::string ones(32, '\xFF');
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  std::string ascending(32, '\0');
  for (size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<char>(i);
  }
  EXPECT_EQ(Crc32c(ascending.data(), ascending.size()), 0x46DD794Eu);
}

TEST(Crc32cTest, StreamingMatchesOneShot) {
  std::string data;
  for (int i = 0; i < 1000; ++i) {
    data += static_cast<char>((i * 37 + 11) & 0xFF);
  }
  const uint32_t whole = Crc32c(data.data(), data.size());
  // Every split point, including ones that leave the slicing loop a
  // non-multiple-of-4 remainder.
  for (size_t cut : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{7},
                     size_t{500}, size_t{999}, data.size()}) {
    uint32_t crc = Crc32cExtend(0, data.data(), cut);
    crc = Crc32cExtend(crc, data.data() + cut, data.size() - cut);
    EXPECT_EQ(crc, whole) << "split at " << cut;
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::string data = "the release log must not rot silently";
  const uint32_t clean = Crc32c(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] = static_cast<char>(data[byte] ^ (1 << bit));
      EXPECT_NE(Crc32c(data.data(), data.size()), clean)
          << "flip at byte " << byte << " bit " << bit;
      data[byte] = static_cast<char>(data[byte] ^ (1 << bit));
    }
  }
}

// The dispatched kernel (the SSE4.2 instruction on AVX2 hosts) must equal
// the scalar slicing-by-4 table at every length and alignment: the short
// lengths exercise the word and byte tails, the 1 MiB buffer the word loop.
TEST(Crc32cTest, DispatchedMatchesScalar) {
  std::vector<unsigned char> buf((1 << 20) + 64);
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (auto& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<unsigned char>(x);
  }
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 256; ++len) {
      const unsigned char* p = buf.data() + align;
      ASSERT_EQ(util::simd::Crc32cExtend(0, p, len),
                util::simd::Crc32cExtendScalar(0, p, len))
          << "align " << align << " len " << len;
      ASSERT_EQ(util::simd::Crc32cExtend(0x12345678u, p, len),
                util::simd::Crc32cExtendScalar(0x12345678u, p, len))
          << "seeded, align " << align << " len " << len;
    }
  }
  for (size_t align : {size_t{0}, size_t{5}}) {
    const unsigned char* p = buf.data() + align;
    EXPECT_EQ(util::simd::Crc32cExtend(0, p, size_t{1} << 20),
              util::simd::Crc32cExtendScalar(0, p, size_t{1} << 20))
        << "align " << align;
  }
  // The known vector holds on both paths.
  const std::string check = "123456789";
  EXPECT_EQ(util::simd::Crc32cExtendScalar(0, check.data(), check.size()),
            0xE3069283u);
  EXPECT_EQ(util::simd::Crc32cExtend(0, check.data(), check.size()),
            0xE3069283u);
}

}  // namespace
}  // namespace persist
}  // namespace longdp
