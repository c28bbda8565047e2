// Slow-query log: one structured JSON line per over-threshold request.
//
// The windowed p99 says *that* the tail moved; the slow-query log says
// *which requests* moved it. Any request whose end-to-end latency
// (admission to response-queued) exceeds the configured threshold emits
// one line through obs::Log at kWarn:
//
//   slow_query {"trace_id":"0x00...2a","type":"figure_digest",
//     "total_us":5123,"queue_us":40,"cache_us":2,"exec_us":5050,
//     "encode_us":20,"write_us":11,"cache":"miss","admission":"admitted",
//     "response":"ok"}
//
// A rate limit keeps a melting server from drowning in its own
// diagnosis (DESIGN.md section 13): at most max_per_interval lines per
// interval_ms; excess entries are counted as suppressed, and the first
// line of the next interval reports how many were dropped. Entries are
// not retained: the log line is the record, and the emitted/suppressed
// counts are exported as s2s.svc.slow_queries.*.
//
// The clock is injectable (monotonic ms) so the rate-limit window is
// deterministic under test. Thread-safe; the serving path calls emit()
// from the event-loop thread, tests poke it from wherever.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

namespace s2s::svc {

struct SlowLogConfig {
  /// End-to-end threshold in microseconds; <= 0 disables the log.
  std::int64_t threshold_us = 0;
  /// Rate limit: at most this many emitted lines per interval.
  std::uint32_t max_per_interval = 10;
  std::int64_t interval_ms = 1000;
};

/// One over-threshold request, phase-by-phase.
struct SlowQueryEntry {
  std::uint64_t trace_id = 0;  ///< 0 when the client sent no trace context
  std::string type;            ///< protocol type_name
  std::int64_t total_us = 0;   ///< admission to response-queued
  std::int64_t queue_us = 0;   ///< admission to dequeue
  std::int64_t cache_us = 0;
  std::int64_t exec_us = 0;
  std::int64_t encode_us = 0;
  std::int64_t write_us = 0;
  std::string cache_status;    ///< "hit" | "miss" | "bypass" | "none"
  std::string admission;       ///< "admitted" | "shed"
  std::string response;        ///< "ok" | error code

  std::string to_json() const;
};

class SlowQueryLog {
 public:
  using ClockFn = std::function<std::int64_t()>;  ///< monotonic ms

  explicit SlowQueryLog(SlowLogConfig config, ClockFn clock = {});
  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  bool enabled() const { return config_.threshold_us > 0; }
  std::int64_t threshold_us() const { return config_.threshold_us; }

  /// Records `entry` if the log is enabled and entry.total_us exceeds
  /// the threshold. Returns true when a line was emitted (not rate
  /// limited).
  bool emit(const SlowQueryEntry& entry);

  std::uint64_t emitted() const;
  std::uint64_t suppressed() const;

 private:
  SlowLogConfig config_;
  ClockFn clock_;
  mutable std::mutex mutex_;
  std::int64_t interval_start_ms_ = 0;
  std::uint32_t interval_emitted_ = 0;
  std::uint64_t interval_suppressed_ = 0;  ///< current interval only
  std::uint64_t emitted_ = 0;
  std::uint64_t suppressed_ = 0;
};

}  // namespace s2s::svc
