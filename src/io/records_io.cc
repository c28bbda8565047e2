#include "io/records_io.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <vector>

#include "obs/log.h"

namespace s2s::io {

namespace {

const char* family_token(net::Family f) {
  return f == net::Family::kIPv4 ? "4" : "6";
}

std::optional<net::Family> parse_family(std::string_view token) {
  if (token == "4") return net::Family::kIPv4;
  if (token == "6") return net::Family::kIPv6;
  return std::nullopt;
}

/// Splits `line` on tabs into `out`; returns false if empty.
std::vector<std::string_view> split(std::string_view line, char sep) {
  std::vector<std::string_view> fields;
  std::size_t pos = 0;
  while (pos <= line.size()) {
    const auto next = line.find(sep, pos);
    if (next == std::string_view::npos) {
      fields.push_back(line.substr(pos));
      break;
    }
    fields.push_back(line.substr(pos, next - pos));
    pos = next + 1;
  }
  return fields;
}

template <typename T>
std::optional<T> parse_number(std::string_view token) {
  T value{};
  const auto* begin = token.data();
  const auto* end = begin + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// RTT fields must be finite, non-negative and physically plausible;
/// from_chars happily accepts "nan", "inf" and "-3.0".
std::optional<double> parse_rtt_ms(std::string_view token) {
  const auto value = parse_number<double>(token);
  if (!value || !std::isfinite(*value) || *value < 0.0 ||
      *value > probe::kMaxPlausibleRttMs) {
    return std::nullopt;
  }
  return value;
}

/// Timestamps must sit inside the representable campaign range.
std::optional<std::int64_t> parse_time_s(std::string_view token) {
  const auto value = parse_number<std::int64_t>(token);
  if (!value || *value < 0 || *value > probe::kMaxTimestampS) {
    return std::nullopt;
  }
  return value;
}

std::string format_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

}  // namespace

std::string to_line(const probe::TracerouteRecord& r) {
  std::string out = "T\t";
  out += std::to_string(r.src);
  out += '\t';
  out += std::to_string(r.dst);
  out += '\t';
  out += family_token(r.family);
  out += '\t';
  out += std::to_string(r.time.seconds());
  out += '\t';
  out += r.method == probe::TracerouteMethod::kParis ? "paris" : "classic";
  out += '\t';
  out += r.complete ? '1' : '0';
  out += '\t';
  out += r.src_addr.to_string();
  out += '\t';
  out += r.dst_addr.to_string();
  out += '\t';
  for (std::size_t i = 0; i < r.hops.size(); ++i) {
    if (i > 0) out += ',';
    if (r.hops[i].addr) {
      out += r.hops[i].addr->to_string();
      out += '@';
      out += format_ms(r.hops[i].rtt_ms);
    } else {
      out += '*';
    }
  }
  return out;
}

std::string to_line(const probe::PingRecord& r) {
  std::string out = "P\t";
  out += std::to_string(r.src);
  out += '\t';
  out += std::to_string(r.dst);
  out += '\t';
  out += family_token(r.family);
  out += '\t';
  out += std::to_string(r.time.seconds());
  out += '\t';
  out += r.success ? '1' : '0';
  out += '\t';
  out += format_ms(r.rtt_ms);
  return out;
}

std::optional<probe::TracerouteRecord> parse_traceroute(
    std::string_view line) {
  const auto fields = split(line, '\t');
  if (fields.size() != 10 || fields[0] != "T") return std::nullopt;
  probe::TracerouteRecord rec;
  const auto src = parse_number<std::uint32_t>(fields[1]);
  const auto dst = parse_number<std::uint32_t>(fields[2]);
  const auto family = parse_family(fields[3]);
  const auto time_s = parse_time_s(fields[4]);
  if (!src || !dst || !family || !time_s) return std::nullopt;
  rec.src = *src;
  rec.dst = *dst;
  rec.family = *family;
  rec.time = net::SimTime(*time_s);
  if (fields[5] == "paris") {
    rec.method = probe::TracerouteMethod::kParis;
  } else if (fields[5] == "classic") {
    rec.method = probe::TracerouteMethod::kClassic;
  } else {
    return std::nullopt;
  }
  if (fields[6] != "0" && fields[6] != "1") return std::nullopt;
  rec.complete = fields[6] == "1";
  const auto src_addr = net::IPAddr::parse(fields[7]);
  const auto dst_addr = net::IPAddr::parse(fields[8]);
  if (!src_addr || !dst_addr) return std::nullopt;
  rec.src_addr = *src_addr;
  rec.dst_addr = *dst_addr;

  if (!fields[9].empty()) {
    for (const auto hop_text : split(fields[9], ',')) {
      probe::Hop hop;
      if (hop_text != "*") {
        const auto at = hop_text.rfind('@');
        if (at == std::string_view::npos) return std::nullopt;
        const auto addr = net::IPAddr::parse(hop_text.substr(0, at));
        const auto rtt = parse_rtt_ms(hop_text.substr(at + 1));
        if (!addr || !rtt) return std::nullopt;
        hop.addr = *addr;
        hop.rtt_ms = *rtt;
      }
      rec.hops.push_back(std::move(hop));
    }
  }
  return rec;
}

std::optional<probe::PingRecord> parse_ping(std::string_view line) {
  const auto fields = split(line, '\t');
  if (fields.size() != 7 || fields[0] != "P") return std::nullopt;
  probe::PingRecord rec;
  const auto src = parse_number<std::uint32_t>(fields[1]);
  const auto dst = parse_number<std::uint32_t>(fields[2]);
  const auto family = parse_family(fields[3]);
  const auto time_s = parse_time_s(fields[4]);
  const auto rtt = parse_rtt_ms(fields[6]);
  if (!src || !dst || !family || !time_s || !rtt) return std::nullopt;
  if (fields[5] != "0" && fields[5] != "1") return std::nullopt;
  rec.src = *src;
  rec.dst = *dst;
  rec.family = *family;
  rec.time = net::SimTime(*time_s);
  rec.success = fields[5] == "1";
  rec.rtt_ms = *rtt;
  return rec;
}

void RecordWriter::write(const probe::TracerouteRecord& record) {
  out_ << to_line(record) << '\n';
  ++written_;
}

void RecordWriter::write(const probe::PingRecord& record) {
  out_ << to_line(record) << '\n';
  ++written_;
}

bool RecordReader::next_line(std::string& line) {
  return static_cast<bool>(std::getline(in_, line));
}

void RecordReader::export_metrics(
    std::map<std::string, std::uint64_t>& counters) const {
  counters["s2s.io.records_parsed"] += parsed_;
  counters["s2s.io.malformed_retained"] += malformed_retained();
  counters["s2s.io.malformed_dropped"] += malformed_dropped();
}

void RecordReader::note_malformed(const std::string& line) {
  if (malformed_.size() >= max_samples_) {
    ++dropped_;
    return;
  }
  obs::logf(obs::LogLevel::kWarn, "malformed record at line %zu: %.40s%s",
            lines_, line.c_str(), line.size() > 40 ? "..." : "");
  malformed_.push_back(
      {lines_, line.substr(0, kMaxSampleLength)});
}

}  // namespace s2s::io
