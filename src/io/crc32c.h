// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78).
//
// The checksum every `.s2sb` block carries (DESIGN.md section 10). CRC32C
// rather than CRC32/Adler because its error-detection properties are the
// reason the format can promise "skips exactly the damaged blocks": every
// single-bit flip and every burst up to 32 bits in a block is guaranteed
// detected, so the corruption-matrix tests can assert *exact* equality
// between injected and detected faults. Software slicing-by-8
// implementation — no SSE4.2 dependency, identical output on every
// platform the campaign archives move between.
#pragma once

#include <cstddef>
#include <cstdint>

namespace s2s::io {

/// Continues a CRC32C over `size` bytes at `data`; pass the previous
/// return value as `crc` to checksum discontiguous regions (the block
/// header fields + payload share one CRC). Initial call: crc = 0.
std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t size);

/// One-shot convenience.
inline std::uint32_t crc32c(const void* data, std::size_t size) {
  return crc32c(0, data, size);
}

/// The CRC32C of the concatenation A ++ B from crc(A), crc(B) and |B|,
/// without touching the bytes: crc32c_combine(crc32c(a), crc32c(b),
/// size_b) == crc32c(crc32c(a), b, size_b). O(log size_b). Lets pieces
/// of one image be checksummed on different threads and joined in order.
std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::uint64_t size_b);

}  // namespace s2s::io
