#include "svc/slow_log.h"

#include <chrono>
#include <cstdio>

#include "obs/json.h"
#include "obs/log.h"

namespace s2s::svc {

namespace {

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string hex_id(std::uint64_t id) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

}  // namespace

std::string SlowQueryEntry::to_json() const {
  obs::json::Writer w;
  w.begin_object();
  w.key("trace_id").value(hex_id(trace_id));
  w.key("type").value(type);
  w.key("total_us").value(total_us);
  w.key("queue_us").value(queue_us);
  w.key("cache_us").value(cache_us);
  w.key("exec_us").value(exec_us);
  w.key("encode_us").value(encode_us);
  w.key("write_us").value(write_us);
  w.key("cache").value(cache_status);
  w.key("admission").value(admission);
  w.key("response").value(response);
  w.end_object();
  return w.str();
}

SlowQueryLog::SlowQueryLog(SlowLogConfig config, ClockFn clock)
    : config_(config),
      clock_(clock ? std::move(clock) : ClockFn(&steady_now_ms)) {
  if (config_.interval_ms <= 0) config_.interval_ms = 1000;
}

bool SlowQueryLog::emit(const SlowQueryEntry& entry) {
  if (!enabled() || entry.total_us <= config_.threshold_us) return false;

  std::uint64_t carried_suppressed = 0;
  bool log_it = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::int64_t now = clock_();
    if (now - interval_start_ms_ >= config_.interval_ms) {
      interval_start_ms_ = now;
      carried_suppressed = interval_suppressed_;
      interval_suppressed_ = 0;
      interval_emitted_ = 0;
    }
    if (interval_emitted_ < config_.max_per_interval) {
      ++interval_emitted_;
      ++emitted_;
      log_it = true;
    } else {
      ++interval_suppressed_;
      ++suppressed_;
    }
  }
  if (!log_it) return false;

  std::string line = "slow_query ";
  line += entry.to_json();
  if (carried_suppressed > 0) {
    line += " (+";
    line += std::to_string(carried_suppressed);
    line += " suppressed last interval)";
  }
  obs::log_message(obs::LogLevel::kWarn, line);
  return true;
}

std::uint64_t SlowQueryLog::emitted() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return emitted_;
}

std::uint64_t SlowQueryLog::suppressed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return suppressed_;
}

}  // namespace s2s::svc
