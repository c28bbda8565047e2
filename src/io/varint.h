// LEB128 varints and zigzag transforms for the `.s2sb` column encodings.
//
// Timestamps are stored as zigzag-varint deltas (a 3-hour campaign grid
// delta fits in 2 bytes instead of 8), dictionary indices and hop counts
// as plain varints. Decoding is bounds-checked against the payload span:
// a truncated or over-long varint is a structural decode failure, never a
// read past the block (the corruption tests run these paths under ASan).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace s2s::io {

/// Appends `v` to `out` as an LEB128 varint (1-10 bytes).
inline void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Maps signed to unsigned so small-magnitude deltas stay short.
inline constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Bounds-checked byte cursor over a block payload. Every get_* returns
/// false on exhaustion instead of reading past `end`; the caller treats
/// that as block corruption.
struct ByteCursor {
  const unsigned char* p = nullptr;
  const unsigned char* end = nullptr;

  ByteCursor(const void* data, std::size_t size)
      : p(static_cast<const unsigned char*>(data)), end(p + size) {}

  std::size_t remaining() const {
    return static_cast<std::size_t>(end - p);
  }

  bool get_varint(std::uint64_t& out) {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (p == end) return false;
      const unsigned char byte = *p++;
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        out = v;
        return true;
      }
    }
    return false;  // over-long encoding (> 10 bytes)
  }

  bool get_varint_signed(std::int64_t& out) {
    std::uint64_t v = 0;
    if (!get_varint(v)) return false;
    out = unzigzag(v);
    return true;
  }

  bool get_bytes(void* out, std::size_t n) {
    if (remaining() < n) return false;
    __builtin_memcpy(out, p, n);
    p += n;
    return true;
  }

  bool get_u8(std::uint8_t& out) {
    if (p == end) return false;
    out = *p++;
    return true;
  }

  bool get_u32(std::uint32_t& out) {
    unsigned char b[4];
    if (!get_bytes(b, 4)) return false;
    out = static_cast<std::uint32_t>(b[0]) |
          (static_cast<std::uint32_t>(b[1]) << 8) |
          (static_cast<std::uint32_t>(b[2]) << 16) |
          (static_cast<std::uint32_t>(b[3]) << 24);
    return true;
  }
};

/// Little-endian fixed-width appends (the non-varint columns).
inline void put_u16le(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>(v >> 8));
}

inline void put_u32le(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

inline void put_u64le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

inline std::uint16_t get_u16le(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

inline std::uint32_t get_u32le(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t get_u64le(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace s2s::io
