// Watermark sidecar for append-while-serving `.s2sb` shards
// (DESIGN.md section 16).
//
// An open shard has no footer, so on its own a reader cannot tell a
// freshly sealed tail from a torn one. The writer therefore keeps a tiny
// CRC-guarded sidecar next to the archive (`<path>.wm`) recording the
// byte length of the durable sealed prefix and the last epoch it covers.
// The contract:
//
//   * the sidecar is updated only AFTER the data bytes it describes are
//     flushed and fsynced, and the update itself is atomic
//     (tmp + rename + directory fsync), so at every instant the sidecar
//     on disk describes a prefix whose blocks are all CRC-valid;
//   * readers (svc::Dataset, s2s_recconv info, crash recovery) bound
//     every read at `sealed_bytes` and never look at the tail beyond it —
//     which is how a reader or the serving daemon never observes a torn
//     tail, no matter when the writer dies.
#pragma once

#include <cstdint>
#include <string>

namespace s2s::live {

inline constexpr std::uint32_t kWatermarkMagic = 0x57533253u;  // "S2SW"
inline constexpr std::uint16_t kWatermarkVersion = 1;
/// Fixed sidecar size: magic + version + rsvd + 4 u64/i64 fields +
/// rsvd + crc.
inline constexpr std::size_t kWatermarkBytes = 48;

struct Watermark {
  std::uint64_t sealed_bytes = 0;  ///< durable prefix length, incl. header
  std::uint64_t blocks = 0;        ///< blocks inside the sealed prefix
  std::uint64_t records = 0;       ///< records inside the sealed prefix
  std::int64_t epoch = -1;         ///< last sealed epoch index; -1 = none

  bool operator==(const Watermark&) const = default;
};

enum class WatermarkStatus : std::uint8_t {
  kAbsent = 0,   ///< no sidecar: a plain batch archive
  kValid = 1,    ///< sidecar parsed and its CRC checks out
  kInvalid = 2,  ///< sidecar present but torn/corrupt — fail safe
};

/// `<archive path>.wm`.
std::string watermark_path(const std::string& archive_path);

/// Atomic sidecar update through io::AtomicArchiveWriter (tmp + fsync +
/// rename + dir fsync); fails if the tmp image cannot be made durable.
/// Call only after the described data bytes are themselves durable.
bool write_watermark_file(const std::string& archive_path,
                          const Watermark& wm, std::string& error);

/// Reads and CRC-verifies the sidecar for `archive_path`.
WatermarkStatus read_watermark_file(const std::string& archive_path,
                                    Watermark& out);

/// Removes the sidecar (used when a shard is finalized into a plain
/// sealed archive). Missing file counts as success.
bool remove_watermark_file(const std::string& archive_path);

/// Serialization helpers, exposed for tests.
std::string encode_watermark(const Watermark& wm);
WatermarkStatus decode_watermark(const void* data, std::size_t size,
                                 Watermark& out);

}  // namespace s2s::live
