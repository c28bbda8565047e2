#include "svc/protocol.h"

#include "io/crc32c.h"
#include "io/varint.h"
#include "obs/json.h"

namespace s2s::svc {

const char* type_name(MsgType t) {
  switch (t) {
    case MsgType::kPingEcho: return "ping_echo";
    case MsgType::kPairRtt: return "pair_rtt";
    case MsgType::kPathPrevalence: return "path_prevalence";
    case MsgType::kCongestionVerdict: return "congestion_verdict";
    case MsgType::kDualStackDelta: return "dualstack_delta";
    case MsgType::kFigureDigest: return "figure_digest";
    case MsgType::kMetricsDump: return "metrics_dump";
    case MsgType::kArchiveSlice: return "archive_slice";
    case MsgType::kOk: return "ok";
    case MsgType::kError: return "error";
  }
  return "unknown";
}

bool is_request(MsgType t) {
  switch (t) {
    case MsgType::kPingEcho:
    case MsgType::kPairRtt:
    case MsgType::kPathPrevalence:
    case MsgType::kCongestionVerdict:
    case MsgType::kDualStackDelta:
    case MsgType::kFigureDigest:
    case MsgType::kMetricsDump:
    case MsgType::kArchiveSlice:
      return true;
    case MsgType::kOk:
    case MsgType::kError:
      return false;
  }
  return false;
}

bool is_cacheable(MsgType t) {
  switch (t) {
    case MsgType::kPairRtt:
    case MsgType::kPathPrevalence:
    case MsgType::kCongestionVerdict:
    case MsgType::kDualStackDelta:
    case MsgType::kFigureDigest:
      return true;
    default:
      return false;
  }
}

HeaderStatus parse_frame_header(const unsigned char* bytes, FrameHeader& out) {
  if (io::get_u32le(bytes) != kFrameMagic) return HeaderStatus::kBadMagic;
  out.version = io::get_u16le(bytes + 4);
  out.type = static_cast<MsgType>(bytes[6]);
  out.flags = bytes[7];
  out.payload_bytes = io::get_u32le(bytes + 8);
  out.crc = io::get_u32le(bytes + 12);
  if (out.version != kProtocolVersion) return HeaderStatus::kBadVersion;
  return HeaderStatus::kOk;
}

std::uint32_t frame_crc(const unsigned char* header_bytes,
                        std::string_view payload) {
  std::uint32_t crc = io::crc32c(0, header_bytes + 4, 8);
  return io::crc32c(crc, payload.data(), payload.size());
}

namespace {

std::string header_prefix(MsgType type, std::uint8_t flags,
                          std::uint32_t payload_bytes) {
  std::string out;
  out.reserve(kFrameHeaderBytes);
  io::put_u32le(out, kFrameMagic);
  io::put_u16le(out, kProtocolVersion);
  out.push_back(static_cast<char>(type));
  out.push_back(static_cast<char>(flags));
  io::put_u32le(out, payload_bytes);
  return out;  // 12 bytes; the caller appends the CRC
}

}  // namespace

std::string encode_frame_header(MsgType type, std::uint8_t flags,
                                std::string_view payload) {
  std::string out = header_prefix(
      type, flags, static_cast<std::uint32_t>(payload.size()));
  io::put_u32le(out, frame_crc(
      reinterpret_cast<const unsigned char*>(out.data()), payload));
  return out;
}

std::string encode_frame_header(MsgType type, std::uint8_t flags,
                                const std::vector<std::string_view>& spans) {
  std::uint64_t total = 0;
  for (const std::string_view s : spans) total += s.size();
  std::string out =
      header_prefix(type, flags, static_cast<std::uint32_t>(total));
  std::uint32_t crc = io::crc32c(
      0, reinterpret_cast<const unsigned char*>(out.data()) + 4, 8);
  for (const std::string_view s : spans) {
    crc = io::crc32c(crc, s.data(), s.size());
  }
  io::put_u32le(out, crc);
  return out;
}

std::string encode_frame(MsgType type, std::uint8_t flags,
                         std::string_view payload) {
  std::string out = encode_frame_header(type, flags, payload);
  out.reserve(kFrameHeaderBytes + payload.size());
  out.append(payload);
  return out;
}

std::string encode_pair_query(const PairQuery& q) {
  std::string out;
  io::put_u32le(out, q.src);
  io::put_u32le(out, q.dst);
  out.push_back(static_cast<char>(q.family));
  out.push_back(static_cast<char>(q.arg));
  return out;
}

bool decode_pair_query(std::string_view payload, PairQuery& out) {
  if (payload.size() != 10) return false;
  const auto* p = reinterpret_cast<const unsigned char*>(payload.data());
  out.src = io::get_u32le(p);
  out.dst = io::get_u32le(p + 4);
  out.family = p[8];
  out.arg = p[9];
  return out.family == 4 || out.family == 6;
}

std::string encode_dualstack_query(const DualStackQuery& q) {
  std::string out;
  io::put_u32le(out, q.src);
  io::put_u32le(out, q.dst);
  return out;
}

bool decode_dualstack_query(std::string_view payload, DualStackQuery& out) {
  if (payload.size() != 8) return false;
  const auto* p = reinterpret_cast<const unsigned char*>(payload.data());
  out.src = io::get_u32le(p);
  out.dst = io::get_u32le(p + 4);
  return true;
}

std::string encode_figure_query(const FigureQuery& q) {
  return std::string(1, static_cast<char>(q.figure));
}

bool decode_figure_query(std::string_view payload, FigureQuery& out) {
  if (payload.size() != 1) return false;
  out.figure = static_cast<std::uint8_t>(payload[0]);
  return true;
}

std::string encode_metrics_dump_query(const MetricsDumpQuery& q) {
  return std::string(1, static_cast<char>(q.format));
}

bool decode_metrics_dump_query(std::string_view payload,
                               MetricsDumpQuery& out) {
  if (payload.size() != 1) return false;
  out.format = static_cast<std::uint8_t>(payload[0]);
  return out.format == MetricsDumpQuery::kJson ||
         out.format == MetricsDumpQuery::kPrometheus;
}

std::string encode_slice_query(const SliceQuery& q) {
  std::string out;
  io::put_u64le(out, static_cast<std::uint64_t>(q.t0_s));
  io::put_u64le(out, static_cast<std::uint64_t>(q.t1_s));
  return out;
}

bool decode_slice_query(std::string_view payload, SliceQuery& out) {
  if (payload.size() != 16) return false;
  const auto* p = reinterpret_cast<const unsigned char*>(payload.data());
  out.t0_s = static_cast<std::int64_t>(io::get_u64le(p));
  out.t1_s = static_cast<std::int64_t>(io::get_u64le(p + 8));
  return out.t0_s <= out.t1_s;
}

std::string encode_trace_context(const TraceContext& ctx) {
  std::string out;
  out.reserve(kTraceContextBytes);
  io::put_u64le(out, ctx.trace_id);
  io::put_u64le(out, ctx.span_id);
  return out;
}

bool strip_trace_context(std::string_view payload, TraceContext& out,
                         std::string_view& rest) {
  if (payload.size() < kTraceContextBytes) return false;
  const auto* p = reinterpret_cast<const unsigned char*>(payload.data());
  out.trace_id = io::get_u64le(p);
  out.span_id = io::get_u64le(p + 8);
  rest = payload.substr(kTraceContextBytes);
  return true;
}

std::string error_payload(std::string_view code, std::string_view message) {
  obs::json::Writer w;
  w.begin_object();
  w.key("error").value(code);
  w.key("message").value(message);
  w.end_object();
  return w.str();
}

std::string error_payload(std::string_view code, std::string_view message,
                          int retry_after_ms) {
  obs::json::Writer w;
  w.begin_object();
  w.key("error").value(code);
  w.key("message").value(message);
  w.key("retry_after_ms").value(static_cast<std::int64_t>(retry_after_ms));
  w.end_object();
  return w.str();
}

ErrorInfo parse_error_payload(std::string_view payload) {
  ErrorInfo info;
  const auto find_value = [&](std::string_view key) -> std::string_view {
    const std::string needle = "\"" + std::string(key) + "\":";
    const auto at = payload.find(needle);
    if (at == std::string_view::npos) return {};
    return payload.substr(at + needle.size());
  };
  if (auto v = find_value("error"); !v.empty() && v.front() == '"') {
    v.remove_prefix(1);
    const auto end = v.find('"');
    if (end != std::string_view::npos) info.code = std::string(v.substr(0, end));
  }
  if (auto v = find_value("retry_after_ms"); !v.empty()) {
    int ms = 0;
    bool any = false;
    for (const char c : v) {
      if (c < '0' || c > '9') break;
      ms = ms * 10 + (c - '0');
      any = true;
    }
    if (any) info.retry_after_ms = ms;
  }
  return info;
}

std::uint32_t request_cost(MsgType t) {
  switch (t) {
    case MsgType::kPingEcho:
    case MsgType::kMetricsDump:
      return 1;
    case MsgType::kPairRtt:
    case MsgType::kPathPrevalence:
    case MsgType::kArchiveSlice:
      return 8;
    case MsgType::kCongestionVerdict:
    case MsgType::kDualStackDelta:
      return 16;
    case MsgType::kFigureDigest:
      return 128;
    default:
      return 8;  // unknown requests are rejected before admission anyway
  }
}

}  // namespace s2s::svc
