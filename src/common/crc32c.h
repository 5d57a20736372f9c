// CRC32C (Castagnoli). Guards page images, log records and wire frames so
// torn or corrupted storage reads and damaged frames are detected. On
// x86-64 hosts with SSE4.2 it runs on the crc32 instruction; elsewhere a
// portable table loop computes the same values.
#pragma once

#include <cstddef>
#include <cstdint>

namespace untx {
namespace crc32c {

/// CRC of data[0, n); seed with a previous Value() call to chain.
/// Uses the hardware path when the host has one (chosen once, at first
/// use); the values are identical to ExtendPortable's.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// The byte-at-a-time table loop Extend falls back to. Exposed so tests
/// can compare both paths on one host.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

/// Masked CRC stored on disk (RocksDB-style) so that computing the CRC of
/// a buffer that embeds its own CRC does not produce fixed points.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - 0xa282ead8ul;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace crc32c
}  // namespace untx
