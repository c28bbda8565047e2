#include "obs/log.h"

#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <ctime>
#include <mutex>
#include <string>

namespace s2s::obs {

namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kInfo)};
std::mutex g_sink_mutex;
LogSink& sink_slot() {
  static LogSink sink;  // empty = stderr default
  return sink;
}

void default_sink(LogLevel level, std::string_view message) {
  const auto now_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  const std::string stamp = log_timestamp_utc(now_ms);
  std::fprintf(stderr, "s2s %s [%.*s] %.*s\n", stamp.c_str(),
               static_cast<int>(to_string(level).size()),
               to_string(level).data(), static_cast<int>(message.size()),
               message.data());
}

}  // namespace

std::string log_timestamp_utc(std::int64_t now_ms) {
  const std::time_t secs = static_cast<std::time_t>(now_ms / 1000);
  const int ms = static_cast<int>(now_ms % 1000);
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[80];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, ms);
  return buf;
}

std::string_view to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

bool log_enabled(LogLevel level) {
  return static_cast<int>(level) >=
         g_level.load(std::memory_order_relaxed);
}

void set_log_sink(LogSink sink) {
  const std::lock_guard<std::mutex> lock(g_sink_mutex);
  sink_slot() = std::move(sink);
}

void log_message(LogLevel level, std::string_view message) {
  if (!log_enabled(level) || level == LogLevel::kOff) return;
  const std::lock_guard<std::mutex> lock(g_sink_mutex);
  if (sink_slot()) {
    sink_slot()(level, message);
  } else {
    default_sink(level, message);
  }
}

void logf(LogLevel level, const char* fmt, ...) {
  if (!log_enabled(level) || level == LogLevel::kOff) return;
  char buf[1024];
  std::va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n < 0) return;
  log_message(level,
              std::string_view(buf, std::min(sizeof(buf) - 1,
                                             static_cast<std::size_t>(n))));
}

}  // namespace s2s::obs
