// Text serialization for measurement records.
//
// Campaigns at paper scale are produced faster than they can be analyzed
// interactively; this module persists them as line-oriented TSV so that
// analyses can be re-run without re-simulating (and so real traceroute /
// ping data can be imported into the same pipeline).
//
// Formats (one record per line, '\t'-separated):
//   traceroute:  T <src> <dst> <family> <time_s> <method> <complete>
//                <src_addr> <dst_addr> <hop>[,<hop>...]
//     where <hop> is "addr:rtt_ms" or "*" for an unresponsive hop.
//   ping:        P <src> <dst> <family> <time_s> <success> <rtt_ms>
//
// Parsing is strict: a malformed line yields nullopt and the reader's
// error counter increments, but iteration continues (long campaign files
// survive a truncated tail). Strictness includes the numerics — NaN /
// infinite / negative / implausibly large RTTs and out-of-range
// timestamps are rejected rather than trusted to whatever the decimal
// parser produced, because a single flipped digit in a 10^8-line campaign
// file would otherwise wreck every percentile downstream. The reader
// additionally retains the first few malformed lines verbatim (with line
// numbers) so a corrupt campaign file is debuggable from its own report.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "probe/records.h"

namespace s2s::io {

std::string to_line(const probe::TracerouteRecord& record);
std::string to_line(const probe::PingRecord& record);

std::optional<probe::TracerouteRecord> parse_traceroute(std::string_view line);
std::optional<probe::PingRecord> parse_ping(std::string_view line);

/// Streaming writer usable as a campaign sink.
class RecordWriter {
 public:
  explicit RecordWriter(std::ostream& out) : out_(out) {}

  void write(const probe::TracerouteRecord& record);
  void write(const probe::PingRecord& record);
  std::size_t written() const noexcept { return written_; }

 private:
  std::ostream& out_;
  std::size_t written_ = 0;
};

/// A malformed input line retained for diagnostics.
struct MalformedLine {
  std::size_t line_number = 0;  ///< 1-based position in the stream
  std::string text;             ///< truncated to kMaxSampleLength bytes
};

/// Streaming reader: dispatches each parsed record to the matching sink;
/// malformed lines are counted — and the first few retained verbatim —
/// but never fatal.
///
/// Retention is capped: only the first `max_samples` malformed lines are
/// kept (each truncated to kMaxSampleLength bytes) so a systematically
/// corrupt multi-gigabyte file cannot balloon memory; the full count is
/// always available via errors(). export_metrics() reports the split as
/// `s2s.io.malformed_retained` and `s2s.io.malformed_dropped`, beside
/// `s2s.io.records_parsed`.
class RecordReader {
 public:
  /// Longest retained prefix of a malformed line.
  static constexpr std::size_t kMaxSampleLength = 160;

  explicit RecordReader(std::istream& in, std::size_t max_samples = 10)
      : in_(in), max_samples_(max_samples) {}

  template <typename TraceFn, typename PingFn>
  void read_all(TraceFn&& on_trace, PingFn&& on_ping) {
    std::string line;
    while (next_line(line)) {
      ++lines_;
      if (line.empty()) continue;
      if (line.front() == 'T') {
        if (auto rec = parse_traceroute(line)) {
          ++parsed_;
          on_trace(*rec);
        } else {
          note_malformed(line);
        }
      } else if (line.front() == 'P') {
        if (auto rec = parse_ping(line)) {
          ++parsed_;
          on_ping(*rec);
        } else {
          note_malformed(line);
        }
      } else {
        note_malformed(line);
      }
    }
  }

  /// Total lines consumed (including empty and malformed ones).
  std::size_t lines() const noexcept { return lines_; }
  /// Records parsed and handed to a sink.
  std::size_t parsed() const noexcept { return parsed_; }
  std::size_t errors() const noexcept { return malformed_.size() + dropped_; }
  /// The first `max_samples` malformed lines, for error reports.
  const std::vector<MalformedLine>& malformed() const noexcept {
    return malformed_;
  }
  /// Malformed lines kept as samples vs. counted-only past the cap.
  std::size_t malformed_retained() const noexcept { return malformed_.size(); }
  std::size_t malformed_dropped() const noexcept { return dropped_; }

  /// Adds parsed(), malformed_retained() and malformed_dropped() to
  /// s2s.io.{records_parsed,malformed_retained,malformed_dropped}.
  void export_metrics(std::map<std::string, std::uint64_t>& counters) const;

 private:
  bool next_line(std::string& line);
  void note_malformed(const std::string& line);

  std::istream& in_;
  std::size_t max_samples_;
  std::size_t lines_ = 0;
  std::size_t parsed_ = 0;
  std::size_t dropped_ = 0;
  std::vector<MalformedLine> malformed_;
};

}  // namespace s2s::io
