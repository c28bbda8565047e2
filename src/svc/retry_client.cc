#include "svc/retry_client.h"

#include <poll.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "obs/trace.h"

namespace s2s::svc {

namespace {

/// Retryable server error codes: admission pushback and transient frame
/// damage. Everything else (bad_request, not_found, internal, ...) is a
/// real answer about the request and must reach the caller.
bool is_reschedule_code(const std::string& code) {
  return code == "busy" || code == "draining";
}

bool is_retryable_frame_code(const std::string& code) {
  return code == "bad_crc" || code == "bad_frame" || code == "oversized";
}

/// Frame-damage codes after which the stream state is untrusted: on
/// `bad_frame` the server closes the connection (no boundary to resync
/// to), and after a recoverable `oversized` it is discarding a phantom
/// payload that would swallow our replay. `bad_crc` keeps the
/// connection — the server skipped exactly one frame.
bool needs_fresh_connection(const std::string& code) {
  return code == "bad_frame" || code == "oversized";
}

}  // namespace

RetryingClient::RetryingClient(std::string host, std::uint16_t port,
                               RetryPolicy policy)
    : host_(std::move(host)),
      port_(port),
      policy_(policy),
      rng_(policy.jitter_seed) {}

void RetryingClient::export_metrics(
    std::map<std::string, std::uint64_t>& counters) const {
  counters["s2s.svc.retry.attempts"] = stats_.attempts;
  counters["s2s.svc.retry.retries"] = stats_.retries;
  counters["s2s.svc.retry.failed_attempts"] = stats_.failed_attempts;
  counters["s2s.svc.retry.timeouts"] = stats_.timeouts;
  counters["s2s.svc.retry.reconnects"] = stats_.reconnects;
  counters["s2s.svc.retry.busy_rescheduled"] = stats_.busy_rescheduled;
  counters["s2s.svc.retry.hedges"] = stats_.hedges;
  counters["s2s.svc.retry.hedge_wins"] = stats_.hedge_wins;
  counters["s2s.svc.retry.breaker_fast_fails"] = stats_.breaker_fast_fails;
  counters["s2s.svc.retry.giveups"] = stats_.giveups;
}

std::int64_t RetryingClient::now_ms() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RetryingClient::sleep_ms(int ms) {
  if (ms <= 0) return;
  timespec ts;
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
  ::nanosleep(&ts, nullptr);
}

bool RetryingClient::ensure_connected(Client& client, bool& first_use,
                                      std::string& error) {
  if (client.connected()) return true;
  if (!client.connect(host_, port_, error, policy_.timeout_ms)) return false;
  if (first_use) {
    first_use = false;
  } else {
    ++stats_.reconnects;
  }
  return true;
}

int RetryingClient::attempt(MsgType type, std::uint8_t flags,
                            std::string_view payload, MsgType* response_type,
                            std::string* response_payload, int* hint_ms,
                            std::string& error, const char* span_name) {
  ++stats_.attempts;

  auto& collector = obs::TraceCollector::global();
  const bool tracing = policy_.trace && collector.enabled();
  // The attempt span nests under call()'s rpc span (thread-local chain)
  // and its ids ride the wire, making the server's request span its
  // child in the merged trace. The hedge span must be declared after it
  // so stack (destruction) order matches nesting order.
  std::optional<obs::TraceSpan> attempt_span;
  std::optional<obs::TraceSpan> hedge_span;
  if (tracing) attempt_span.emplace(span_name, collector);

  const auto traced_frame = [&](const obs::TraceSpan& span) {
    std::string traced =
        encode_trace_context({span.trace_id(), span.span_id()});
    traced.append(payload);
    return encode_frame(type, static_cast<std::uint8_t>(
                                  flags | kFlagTraceContext),
                        traced);
  };

  bool first = !ever_connected_;
  if (!ensure_connected(primary_, first, error)) return 1;
  ever_connected_ = true;

  const std::string frame = attempt_span ? traced_frame(*attempt_span)
                                         : encode_frame(type, flags, payload);
  if (!primary_.send_bytes(frame, error)) {
    primary_.close();
    return 1;
  }

  const std::int64_t start = now_ms();
  const std::int64_t deadline = start + policy_.timeout_ms;
  const std::int64_t hedge_at =
      policy_.hedge ? start + policy_.hedge_delay_ms : deadline + 1;
  Client hedge;
  bool hedge_live = false;
  bool hedge_spent = !policy_.hedge;
  bool primary_live = true;

  while (true) {
    // A frame may already be buffered (e.g. pipelined busy responses).
    Client* winner = nullptr;
    if (primary_live && primary_.has_buffered_frame()) winner = &primary_;
    else if (hedge_live && hedge.has_buffered_frame()) winner = &hedge;

    if (winner == nullptr) {
      const std::int64_t now = now_ms();
      if (now >= deadline) {
        ++stats_.timeouts;
        error = "attempt timed out after " +
                std::to_string(policy_.timeout_ms) + "ms";
        primary_.close();
        if (hedge_live) hedge.close();
        return 1;
      }
      if (!hedge_spent && now >= hedge_at && primary_live) {
        // Primary has been silent past the hedge delay: race a second
        // connection. A hedge that fails to launch is simply dropped —
        // the primary attempt is still in flight.
        hedge_spent = true;
        ++stats_.hedges;
        // The hedge gets its own span (child of the attempt) and its own
        // span id on the wire, so the export shows two server request
        // spans racing under one attempt — and which one won.
        const std::string* hedge_frame = &frame;
        std::string hedge_traced;
        if (attempt_span) {
          hedge_span.emplace("hedge", collector);
          hedge_traced = traced_frame(*hedge_span);
          hedge_frame = &hedge_traced;
        }
        std::string hedge_error;
        bool hedge_first = false;  // hedge connections always count
        if (ensure_connected(hedge, hedge_first, hedge_error) &&
            hedge.send_bytes(*hedge_frame, hedge_error)) {
          hedge_live = true;
        } else {
          if (hedge_span) hedge_span->set_note("launch_failed");
          hedge.close();
        }
      }
      pollfd fds[2];
      nfds_t nfds = 0;
      if (primary_live) fds[nfds++] = {primary_.fd(), POLLIN, 0};
      if (hedge_live) fds[nfds++] = {hedge.fd(), POLLIN, 0};
      if (nfds == 0) return 1;  // both sides died; error already set
      std::int64_t wait = deadline - now;
      if (!hedge_spent) wait = std::min(wait, hedge_at - now);
      const int nready =
          ::poll(fds, nfds, static_cast<int>(std::max<std::int64_t>(wait, 1)));
      if (nready <= 0) continue;  // timeout tick or EINTR; loop re-checks
      for (nfds_t i = 0; i < nfds; ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        winner = (primary_live && fds[i].fd == primary_.fd()) ? &primary_
                                                              : &hedge;
        break;
      }
      if (winner == nullptr) continue;
    }

    MsgType rtype;
    std::string rpayload;
    std::string read_error;
    if (!winner->read_frame(&rtype, &rpayload, read_error)) {
      winner->close();
      if (winner == &primary_) {
        primary_live = false;
        error = read_error;
      } else {
        hedge_live = false;
      }
      if (!primary_live && !hedge_live) return 1;
      continue;  // the other leg of the race is still in flight
    }

    if (winner == &hedge) {
      ++stats_.hedge_wins;
      if (hedge_span) hedge_span->set_note("won");
      primary_.close();
      primary_ = std::move(hedge);
    } else if (hedge_live) {
      if (hedge_span) hedge_span->set_note("lost");
      hedge.close();
    }

    if (rtype == MsgType::kError) {
      const ErrorInfo info = parse_error_payload(rpayload);
      if (is_reschedule_code(info.code)) {
        if (hint_ms != nullptr) *hint_ms = info.retry_after_ms;
        error = "server " + info.code;
        return 2;
      }
      if (is_retryable_frame_code(info.code)) {
        // The request frame arrived damaged in flight (e.g. proxy
        // corruption); the request itself was well-formed, so replay is
        // safe — from a fresh connection when the stream is untrusted.
        error = "server reported " + info.code;
        if (needs_fresh_connection(info.code)) primary_.close();
        return 1;
      }
    }
    if (response_type != nullptr) *response_type = rtype;
    if (response_payload != nullptr) *response_payload = rpayload;
    return 0;
  }
}

bool RetryingClient::call(MsgType type, std::uint8_t flags,
                          std::string_view payload, MsgType* response_type,
                          std::string* response_payload, std::string& error) {
  ++stats_.calls;

  // One trace per logical call: the rpc span mints the trace id every
  // attempt/retry/hedge below shares (and ships to the server).
  auto& collector = obs::TraceCollector::global();
  std::optional<obs::TraceSpan> call_span;
  if (policy_.trace && collector.enabled()) {
    call_span.emplace(std::string("rpc:") + type_name(type), /*trace_id=*/0,
                      /*parent_span_id=*/0, collector);
  }

  if (policy_.breaker_failures > 0 && breaker_until_ms_ > 0) {
    if (now_ms() < breaker_until_ms_) {
      ++stats_.breaker_fast_fails;
      error = "circuit breaker open";
      return false;
    }
    // Cooldown elapsed: half-open, this call is the probe.
  }

  int prev_backoff = policy_.backoff_base_ms;
  std::string last_error = "no attempts made";
  for (int attempt_no = 0; attempt_no <= policy_.max_retries; ++attempt_no) {
    if (attempt_no > 0) {
      ++stats_.retries;
    }
    int hint = -1;
    std::string attempt_error;
    const int outcome =
        attempt(type, flags, payload, response_type, response_payload, &hint,
                attempt_error, attempt_no == 0 ? "attempt" : "retry");
    if (outcome == 0) {
      consecutive_giveups_ = 0;
      breaker_until_ms_ = 0;
      return true;
    }
    last_error = attempt_error;
    if (outcome == 2) {
      ++stats_.busy_rescheduled;
      if (attempt_no == policy_.max_retries) break;
      if (hint >= 0) {
        stats_.busy_hint_ms += static_cast<std::uint64_t>(hint);
        sleep_ms(hint);
      } else {
        sleep_ms(prev_backoff);
      }
      continue;
    }
    ++stats_.failed_attempts;
    if (attempt_no == policy_.max_retries) break;
    // Decorrelated jitter: draw uniformly from [base, 3*prev], capped.
    const int lo = std::max(policy_.backoff_base_ms, 1);
    const int hi = std::max(lo + 1, prev_backoff * 3);
    int sleep = lo + static_cast<int>(rng_.below(
                         static_cast<std::uint64_t>(hi - lo + 1)));
    sleep = std::min(sleep, policy_.backoff_cap_ms);
    prev_backoff = sleep;
    sleep_ms(sleep);
  }

  ++stats_.giveups;
  if (policy_.breaker_failures > 0 &&
      ++consecutive_giveups_ >= policy_.breaker_failures) {
    breaker_until_ms_ = now_ms() + policy_.breaker_cooldown_ms;
  }
  error = "retries exhausted: " + last_error;
  return false;
}

}  // namespace s2s::svc
