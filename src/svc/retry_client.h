// svc::RetryingClient — the resilient layer over svc::Client
// (DESIGN.md section 12).
//
// svc::Client is deliberately a bare wire client: one connection, one
// blocking call, any failure surfaces as-is. This wrapper adds the
// policy every real consumer of a flaky path wants, in one place:
//
//   timeouts      per-attempt deadline via poll() + SO_RCVTIMEO
//   retries       bounded attempts; every current request type is
//                 read-only, so replays are always safe (idempotency is
//                 a property of the protocol, checked here by assertion
//                 on is_request, not by per-call annotation)
//   backoff       exponential with decorrelated jitter (sleep drawn
//                 uniformly from [base, 3*prev], capped), seeded — so
//                 chaos tests replay identically
//   busy hints    a `busy`/`draining` error frame is not a failure but a
//                 schedule: the client sleeps the server-provided
//                 retry_after_ms (when present) before retrying
//   hedging       optionally, when the primary attempt has been silent
//                 for hedge_delay_ms, a second connection races it; the
//                 first complete frame wins, the loser is closed (safe,
//                 again, because requests are read-only)
//   breaker       after breaker_failures consecutive exhausted calls the
//                 client fails fast for breaker_cooldown_ms, then lets
//                 one probe through (half-open)
//
// Counting discipline: RetryStats separates *failed attempts* (transport
// faults, timeouts, corrupted frames — everything the chaos proxy can
// inject) from *busy reschedules* (server admission control doing its
// job). Chaos tests assert exact equality between ChaosStats ground
// truth and failed_attempts; overload tests assert against the busy
// counters. Mixing the two would make both assertions sloppy.
// export_metrics() writes the same numbers as s2s.svc.retry.* counters
// into a tool's RunReport.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "stats/rng.h"
#include "svc/client.h"
#include "svc/protocol.h"

namespace s2s::svc {

struct RetryPolicy {
  /// Per-attempt response deadline; also the connect/send socket timeout.
  int timeout_ms = 2000;
  /// Additional attempts after the first (0 = fail on first failure).
  int max_retries = 3;
  int backoff_base_ms = 5;
  int backoff_cap_ms = 1000;
  /// Seed for the jitter stream (decorrelated backoff is randomized).
  std::uint64_t jitter_seed = 7;

  /// Race a second connection when the primary is silent this long.
  bool hedge = false;
  int hedge_delay_ms = 150;

  /// Consecutive exhausted calls that open the breaker (0 = disabled).
  int breaker_failures = 0;
  int breaker_cooldown_ms = 1000;

  /// Stamp requests with a trace context (kFlagTraceContext): each call
  /// mints a trace id, each attempt/retry/hedge gets its own span whose
  /// id rides the wire, so the server's spans stitch under ours in one
  /// chrome://tracing export — including which hedge won. Off by
  /// default: only servers advertising "trace_context" in kServerStats
  /// understand the flag.
  bool trace = false;
};

struct RetryStats {
  std::uint64_t calls = 0;           ///< logical call() invocations
  std::uint64_t attempts = 0;        ///< request transmissions (no hedges)
  std::uint64_t retries = 0;         ///< attempts after the first per call
  std::uint64_t failed_attempts = 0; ///< transport fault/timeout/bad frame
  std::uint64_t timeouts = 0;        ///< subset of failed: deadline expiry
  std::uint64_t reconnects = 0;      ///< connections opened after the first
  std::uint64_t busy_rescheduled = 0;///< busy/draining frames obeyed
  std::uint64_t busy_hint_ms = 0;    ///< sum of honored retry_after_ms
  std::uint64_t hedges = 0;          ///< hedge connections launched
  std::uint64_t hedge_wins = 0;      ///< hedge delivered the frame first
  std::uint64_t breaker_fast_fails = 0;
  std::uint64_t giveups = 0;         ///< calls that exhausted retries
};

class RetryingClient {
 public:
  RetryingClient(std::string host, std::uint16_t port, RetryPolicy policy);

  /// One logical request with retries/hedging per the policy. Returns
  /// true when a response frame (kOk or a non-retryable kError, e.g.
  /// bad_request) was obtained; false when retries were exhausted or the
  /// breaker is open, with `error` describing the last failure.
  bool call(MsgType type, std::uint8_t flags, std::string_view payload,
            MsgType* response_type, std::string* response_payload,
            std::string& error);

  const RetryStats& stats() const noexcept { return stats_; }
  /// Writes stats() into `counters` under the s2s.svc.retry.* names
  /// (every field but calls and busy_hint_ms).
  void export_metrics(std::map<std::string, std::uint64_t>& counters) const;
  bool breaker_open() const noexcept { return breaker_until_ms_ > 0; }

 private:
  bool ensure_connected(Client& client, bool& first_use, std::string& error);
  /// One wire attempt (possibly hedged). Outcomes: 0 = response frame
  /// obtained, 1 = retryable failure, 2 = busy/draining reschedule
  /// (hint_ms filled when the server sent one). `span_name` labels the
  /// attempt's trace span ("attempt" / "retry") when tracing is on.
  int attempt(MsgType type, std::uint8_t flags, std::string_view payload,
              MsgType* response_type, std::string* response_payload,
              int* hint_ms, std::string& error, const char* span_name);
  void sleep_ms(int ms);
  std::int64_t now_ms() const;

  std::string host_;
  std::uint16_t port_;
  RetryPolicy policy_;
  Client primary_;
  bool ever_connected_ = false;
  stats::Rng rng_;
  RetryStats stats_;
  int consecutive_giveups_ = 0;
  std::int64_t breaker_until_ms_ = 0;  ///< 0 = closed
};

}  // namespace s2s::svc
