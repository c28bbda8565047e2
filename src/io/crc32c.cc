#include "io/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>
#define S2S_CRC32C_HW 1
#endif

namespace s2s::io {

namespace {

#ifdef S2S_CRC32C_HW
/// SSE4.2's crc32 instruction implements exactly the Castagnoli
/// polynomial this format uses; ~an order of magnitude faster than the
/// table walk. Compiled with a target attribute (the build stays generic
/// x86-64) and selected at runtime behind a cpuid check.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(
    std::uint32_t crc, const unsigned char* p, std::size_t size) {
  std::uint64_t c = ~crc;
  while (size >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
    p += 8;
    size -= 8;
  }
  std::uint32_t c32 = static_cast<std::uint32_t>(c);
  while (size-- > 0) c32 = _mm_crc32_u8(c32, *p++);
  return ~c32;
}

bool crc32c_hw_available() {
  static const bool available = __builtin_cpu_supports("sse4.2");
  return available;
}
#endif

/// Slicing-by-8 lookup tables, built once at first use. table[0] is the
/// classic byte-at-a-time table; table[k] advances a byte seen k positions
/// earlier, letting the hot loop fold 8 input bytes per iteration.
struct Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t;

  Tables() {
    constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = t[0][i];
      for (std::size_t k = 1; k < 8; ++k) {
        crc = t[0][crc & 0xFFu] ^ (crc >> 8);
        t[k][i] = crc;
      }
    }
  }
};

const Tables& tables() {
  static const Tables tables;
  return tables;
}

constexpr std::uint32_t kReflectedPoly = 0x82F63B78u;

/// a(x) * b(x) modulo the CRC polynomial, in the reflected bit order the
/// CRC registers use (bit 31 is x^0).
std::uint32_t mult_mod_poly(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b & 1u) ? (b >> 1) ^ kReflectedPoly : b >> 1;
  }
  return product;
}

/// x^(2^k) modulo the polynomial for k in [0, 64): squaring table for
/// the shift by 8 * size_b bits.
const std::array<std::uint32_t, 64>& x_pow2k() {
  static const std::array<std::uint32_t, 64> table = [] {
    std::array<std::uint32_t, 64> t{};
    std::uint32_t p = 1u << 30;  // x^1
    for (auto& entry : t) {
      entry = p;
      p = mult_mod_poly(p, p);
    }
    return t;
  }();
  return table;
}

}  // namespace

std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
#ifdef S2S_CRC32C_HW
  if (crc32c_hw_available()) return crc32c_hw(crc, p, size);
#endif
  const auto& t = tables().t;
  crc = ~crc;
  while (size >= 8) {
    const std::uint32_t lo = crc ^ (static_cast<std::uint32_t>(p[0]) |
                                    (static_cast<std::uint32_t>(p[1]) << 8) |
                                    (static_cast<std::uint32_t>(p[2]) << 16) |
                                    (static_cast<std::uint32_t>(p[3]) << 24));
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) {
    crc = t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::uint64_t size_b) {
  // Appending B shifts A's register by 8 * size_b zero bits, and the
  // pre/post inversions cancel out of the sum: crc(A ++ B) =
  // crc_a * x^(8 size_b) + crc_b (mod P).
  const auto& table = x_pow2k();
  std::uint32_t shift = 1u << 31;  // x^0
  for (unsigned j = 0; j + 3 < table.size() && (size_b >> j) != 0; ++j) {
    if ((size_b >> j) & 1u) shift = mult_mod_poly(table[j + 3], shift);
  }
  return mult_mod_poly(shift, crc_a) ^ crc_b;
}

}  // namespace s2s::io
