// s2sd wire protocol: length-prefixed, CRC-guarded binary frames.
//
// Every message — request or response — is one frame:
//
//   Frame       := FrameHeader payload
//   FrameHeader (16 B, little-endian):
//     [ 0.. 3] u32 magic "S2SQ"
//     [ 4.. 5] u16 version = 1
//     [ 6    ] u8  type (MsgType)
//     [ 7    ] u8  flags
//     [ 8..11] u32 payload_bytes
//     [12..15] u32 crc32c over header bytes [4..11] then the payload
//
// The CRC scope mirrors the `.s2sb` block checksum (everything after the
// magic, excluding the CRC field itself) and reuses io::crc32c, so a
// damaged frame is detected before any payload field is trusted. Request
// payloads are fixed-width little-endian structs (decoded with exact
// length checks: a short payload is a protocol error, not a partial
// read); response payloads are JSON text (obs::json), self-describing
// enough for scripts and the CI smoke to consume without this header.
//
// DESIGN.md section 11 is the normative description, including the
// cache-key semantics (archive digest + request type + payload bytes)
// that make responses to cacheable requests pure functions of the frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace s2s::svc {

inline constexpr std::uint32_t kFrameMagic = 0x51533253u;  // "S2SQ"
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Default cap a server enforces on request payloads (requests are tiny
/// fixed-width structs; anything near this is abuse, not a query).
inline constexpr std::size_t kDefaultMaxRequestBytes = 4096;

enum class MsgType : std::uint8_t {
  // Requests.
  kPingEcho = 0x01,           ///< liveness probe; empty payload
  kPairRtt = 0x02,            ///< PairQuery; arg != 0 appends the series
  kPathPrevalence = 0x03,     ///< PairQuery; arg caps returned paths
  kCongestionVerdict = 0x04,  ///< PairQuery (arg unused)
  kDualStackDelta = 0x05,     ///< DualStackQuery
  kFigureDigest = 0x06,       ///< FigureQuery
  // 0x07 and 0x0A are retired request ids (server stats and live
  // status; kMetricsDump carries their facts). Never reuse them: an old
  // client sending one must get a bad_request error frame, not a new
  // meaning.
  kMetricsDump = 0x08,        ///< 1-byte format selector; never cached
  kArchiveSlice = 0x09,       ///< SliceQuery; raw `.s2sb` block slice
  // Responses.
  kOk = 0x80,
  kError = 0x81,
};

/// Request flag: skip the cache lookup (the result is still inserted),
/// so load generators can force cold executions on a warm server.
inline constexpr std::uint8_t kFlagNoCache = 0x01;

/// Request flag: the payload starts with a TraceContext prefix
/// (kTraceContextBytes). Strictly client opt-in — a server never
/// requires it, so old clients interoperate unchanged; every s2sd
/// accepts it, so a client may opt in without probing first. The prefix
/// is stripped before request decoding and before cache-key construction
/// (a traced request hits the same cache entry as an untraced one).
inline constexpr std::uint8_t kFlagTraceContext = 0x02;

/// Stable lowercase name ("pair_rtt", ...); "unknown" for anything else.
/// Used for metric names and the JSON "type" echo, so it never changes
/// meaning across protocol versions.
const char* type_name(MsgType t);

bool is_request(MsgType t);
/// Cacheable requests are pure functions of (archive, payload). The
/// metrics dump and echo are excluded: they describe the serving
/// process, not the data.
bool is_cacheable(MsgType t);

struct FrameHeader {
  std::uint16_t version = 0;
  MsgType type = MsgType::kPingEcho;
  std::uint8_t flags = 0;
  std::uint32_t payload_bytes = 0;
  std::uint32_t crc = 0;
};

enum class HeaderStatus : std::uint8_t { kOk, kBadMagic, kBadVersion };

/// Decodes 16 header bytes. kBadMagic/kBadVersion mean the stream is not
/// speaking this protocol — the connection cannot be resynced and must
/// close after an error frame. payload_bytes is NOT capped here; the
/// server enforces its own limit so it can skip an oversized payload and
/// keep the connection.
HeaderStatus parse_frame_header(const unsigned char* bytes, FrameHeader& out);

/// CRC32C over header bytes [4..11] then the payload.
std::uint32_t frame_crc(const unsigned char* header_bytes,
                        std::string_view payload);

/// Encodes a complete frame (header + payload) with the CRC filled in.
std::string encode_frame(MsgType type, std::uint8_t flags,
                         std::string_view payload);

/// Encodes only the 16-byte header for a payload that will be written
/// separately (the server's writev scatter-gather path: header and
/// payload go out in one sendmsg without concatenating them first).
std::string encode_frame_header(MsgType type, std::uint8_t flags,
                                std::string_view payload);

/// Header for a payload made of several spans written back to back
/// (the zero-copy archive-slice path: an owned prefix plus views into
/// the mmap'd archive). The CRC accumulates over the spans in order, so
/// the wire bytes are identical to a single concatenated payload.
std::string encode_frame_header(MsgType type, std::uint8_t flags,
                                const std::vector<std::string_view>& spans);

// ---------------------------------------------------------------------------
// Request payloads (fixed-width little-endian; decode checks exact size).
// ---------------------------------------------------------------------------

/// kPairRtt / kPathPrevalence / kCongestionVerdict payload (10 bytes):
/// u32 src, u32 dst, u8 family (4 or 6), u8 arg (per-type meaning).
struct PairQuery {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint8_t family = 4;
  std::uint8_t arg = 0;
};

std::string encode_pair_query(const PairQuery& q);
bool decode_pair_query(std::string_view payload, PairQuery& out);

/// kDualStackDelta payload (8 bytes): u32 src, u32 dst.
struct DualStackQuery {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
};

std::string encode_dualstack_query(const DualStackQuery& q);
bool decode_dualstack_query(std::string_view payload, DualStackQuery& out);

/// kFigureDigest payload (1 byte): paper figure selector. 1 = Table 1
/// counts, 2 = Fig 2 routing series, 5 = Fig 5 sub-optimal buckets,
/// 10 = Fig 10 dual-stack ECDF.
struct FigureQuery {
  std::uint8_t figure = 2;
};

std::string encode_figure_query(const FigureQuery& q);
bool decode_figure_query(std::string_view payload, FigureQuery& out);

/// kMetricsDump payload (1 byte): exposition format selector.
struct MetricsDumpQuery {
  static constexpr std::uint8_t kJson = 0;        ///< MetricsSnapshot JSON
  static constexpr std::uint8_t kPrometheus = 1;  ///< OpenMetrics text
  std::uint8_t format = kJson;
};

std::string encode_metrics_dump_query(const MetricsDumpQuery& q);
bool decode_metrics_dump_query(std::string_view payload,
                               MetricsDumpQuery& out);

/// kArchiveSlice payload (16 bytes): i64 t0_s, i64 t1_s — the inclusive
/// time span whose archive blocks the caller wants. The response payload
/// is itself a footerless `.s2sb` image (file header + the raw CRC-
/// guarded blocks whose [first, last] span intersects [t0, t1]), sliced
/// zero-copy out of the server's mmap'd archive; feed it to
/// io::BinRecordMmapReader(data, size) to decode the records.
struct SliceQuery {
  std::int64_t t0_s = 0;
  std::int64_t t1_s = 0;
};

std::string encode_slice_query(const SliceQuery& q);
bool decode_slice_query(std::string_view payload, SliceQuery& out);

// ---------------------------------------------------------------------------
// Trace-context prefix (DESIGN.md section 13).
// ---------------------------------------------------------------------------

/// Fixed-width prefix a request payload carries when kFlagTraceContext is
/// set: u64 trace_id, u64 span_id, little-endian. trace_id identifies the
/// whole request across processes; span_id is the client's attempt span,
/// which becomes the parent of the server's request span.
inline constexpr std::size_t kTraceContextBytes = 16;

struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

/// The prefix bytes to prepend to a request payload.
std::string encode_trace_context(const TraceContext& ctx);

/// Splits `payload` into prefix + rest. Returns false (and leaves `rest`
/// untouched) when the payload is shorter than the prefix — a protocol
/// error, since the flag promised one.
bool strip_trace_context(std::string_view payload, TraceContext& out,
                         std::string_view& rest);

/// kError payload: {"error":code,"message":message}. Codes: bad_frame,
/// bad_crc, bad_request, oversized, busy, not_found, draining, internal.
std::string error_payload(std::string_view code, std::string_view message);

/// kError payload with a retry-after hint appended:
/// {"error":code,"message":message,"retry_after_ms":N}. Servers attach
/// it to `busy` sheds so clients back off for a useful interval instead
/// of guessing.
std::string error_payload(std::string_view code, std::string_view message,
                          int retry_after_ms);

/// Decoded view of a kError payload: the machine-readable code plus the
/// optional retry-after hint (-1 when absent). A tolerant scan of the
/// error_payload() shape — not a general JSON parser.
struct ErrorInfo {
  std::string code;
  int retry_after_ms = -1;
};
ErrorInfo parse_error_payload(std::string_view payload);

/// Admission cost weight of a request (DESIGN.md section 12), roughly
/// proportional to the analysis work behind it: echo/stats are free-ish,
/// single-pair scans are cheap, cross-fleet figure digests dominate.
/// The server's pending-cost budget is denominated in these units.
std::uint32_t request_cost(MsgType t);

}  // namespace s2s::svc
