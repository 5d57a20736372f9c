#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define UNTX_CRC32C_X86 1
#endif

namespace untx {
namespace crc32c {

namespace {

// Table-driven CRC32C, one byte at a time: the portable path, for hosts
// without the SSE4.2 crc32 instruction.
struct Table {
  std::array<uint32_t, 256> entries;
  Table() {
    constexpr uint32_t kPoly = 0x82f63b78u;  // reflected Castagnoli
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      entries[i] = crc;
    }
  }
};

const Table& GetTable() {
  static const Table table;
  return table;
}

#ifdef UNTX_CRC32C_X86
// The SSE4.2 crc32 instruction computes the same reflected Castagnoli
// CRC as the table, 8 bytes per step. memcpy loads make any alignment of
// `data` legal; compilers turn them into plain unaligned loads.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  uint64_t crc = init_crc ^ 0xffffffffu;
  const char* p = data;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*p));
  }
  return crc32 ^ 0xffffffffu;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

// Chosen once, on first use (safe from other translation units' static
// initialisers).
ExtendFn Chosen() {
#ifdef UNTX_CRC32C_X86
  static const ExtendFn fn =
      __builtin_cpu_supports("sse4.2") ? &ExtendSse42 : &ExtendPortable;
#else
  static const ExtendFn fn = &ExtendPortable;
#endif
  return fn;
}

}  // namespace

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const Table& t = GetTable();
  uint32_t crc = init_crc ^ 0xffffffffu;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    crc = t.entries[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  return Chosen()(init_crc, data, n);
}

}  // namespace crc32c
}  // namespace untx
