#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"

namespace untx {
namespace crc32c {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC32C test vector: "123456789" -> 0xe3069283.
  const char* digits = "123456789";
  EXPECT_EQ(Value(digits, 9), 0xe3069283u);
  // All-zero 32-byte buffer -> 0x8a9136aa.
  char zeros[32] = {0};
  EXPECT_EQ(Value(zeros, 32), 0x8a9136aau);
  // The other RFC 3720 (iSCSI) B.4 vectors.
  char ones[32];
  char ascending[32];
  char descending[32];
  for (int i = 0; i < 32; ++i) {
    ones[i] = static_cast<char>(0xff);
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  EXPECT_EQ(Value(ones, 32), 0x62a8ab43u);
  EXPECT_EQ(Value(ascending, 32), 0x46dd794eu);
  EXPECT_EQ(Value(descending, 32), 0x113fdb5cu);
  // The portable path agrees on every vector.
  EXPECT_EQ(ExtendPortable(0, digits, 9), 0xe3069283u);
  EXPECT_EQ(ExtendPortable(0, ones, 32), 0x62a8ab43u);
  EXPECT_EQ(ExtendPortable(0, ascending, 32), 0x46dd794eu);
  EXPECT_EQ(ExtendPortable(0, descending, 32), 0x113fdb5cu);
}

// Extend (the hardware path where the host has SSE4.2; elsewhere both
// calls are portable) equals the portable table loop for every length
// from 0 to 3 pages, at all 8 alignments, from a random seed per
// alignment: page images and frames written on one host verify on
// another.
TEST(Crc32cTest, HardwareMatchesPortable) {
  constexpr size_t kPage = 8192;
  constexpr size_t kMax = 3 * kPage;
  Random rng(20260);
  std::vector<char> buf(kMax + 8);
  for (char& c : buf) c = static_cast<char>(rng.Next());
  for (size_t align = 0; align < 8; ++align) {
    const char* base = buf.data() + align;
    const uint32_t seed = static_cast<uint32_t>(rng.Next());
    // The portable value grows one byte per length, so its side of the
    // sweep stays linear; Extend recomputes each length from scratch.
    uint32_t portable = seed;
    for (size_t n = 0; n <= kMax; ++n) {
      if (n > 0) portable = ExtendPortable(portable, base + n - 1, 1);
      ASSERT_EQ(Extend(seed, base, n), portable)
          << "length " << n << ", alignment " << align;
    }
    ASSERT_EQ(ExtendPortable(seed, base, kMax), portable);
  }
}

// Chaining in arbitrary pieces gives the one-shot value on both paths.
TEST(Crc32cTest, ChainedExtendEqualsOneShot) {
  Random rng(7);
  std::vector<char> buf(3 * 8192);
  for (char& c : buf) c = static_cast<char>(rng.Next());
  const uint32_t whole = Value(buf.data(), buf.size());
  EXPECT_EQ(whole, ExtendPortable(0, buf.data(), buf.size()));
  for (int round = 0; round < 200; ++round) {
    uint32_t hw = 0;
    uint32_t sw = 0;
    size_t at = 0;
    while (at < buf.size()) {
      const size_t piece =
          std::min<size_t>(buf.size() - at, rng.Uniform(100));
      hw = Extend(hw, buf.data() + at, piece);
      sw = ExtendPortable(sw, buf.data() + at, piece);
      at += piece;
    }
    ASSERT_EQ(hw, whole) << "round " << round;
    ASSERT_EQ(sw, whole) << "round " << round;
  }
}

TEST(Crc32cTest, ExtendComposes) {
  const std::string data = "hello world, this is a page image";
  const uint32_t whole = Value(data.data(), data.size());
  const uint32_t part = Extend(Value(data.data(), 10), data.data() + 10,
                               data.size() - 10);
  EXPECT_EQ(whole, part);
}

TEST(Crc32cTest, DifferentInputsDiffer) {
  EXPECT_NE(Value("abc", 3), Value("abd", 3));
  EXPECT_NE(Value("abc", 3), Value("abc", 2));
}

TEST(Crc32cTest, MaskRoundTrip) {
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu, 0xe3069283u}) {
    EXPECT_EQ(Unmask(Mask(crc)), crc);
    EXPECT_NE(Mask(crc), crc);  // masking must move the value
  }
}

}  // namespace
}  // namespace crc32c
}  // namespace untx
