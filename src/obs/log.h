// Leveled diagnostics for library code.
//
// Library code must never print unconditionally: a store ingesting a
// hundred-million-record campaign cannot own the process's stderr, and
// tests need silence. Every diagnostic therefore goes through this sink:
// it is leveled (debug < info < warn < error), filtered before any
// formatting work happens, and redirectable — tests install a capturing
// sink or set the level to kOff, embedders forward to their own logger.
// The default sink writes "s2s TIMESTAMP [LEVEL] message" lines to
// stderr, where TIMESTAMP is UTC wall-clock (2026-08-08T12:34:56.789Z)
// so daemon logs correlate with external monitoring without guessing
// the host timezone.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace s2s::obs {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,  ///< threshold only; never attached to a message
};

std::string_view to_string(LogLevel level);

/// Minimum level that reaches the sink (default kInfo).
void set_log_level(LogLevel level);

/// True iff a message at `level` would reach the sink; callers building
/// expensive diagnostics should gate on this first.
bool log_enabled(LogLevel level);

/// Replaces the sink; an empty function restores the stderr default.
using LogSink = std::function<void(LogLevel, std::string_view)>;
void set_log_sink(LogSink sink);

/// Sends a preformatted message (no trailing newline needed).
void log_message(LogLevel level, std::string_view message);

/// The default sink's line prefix for `now_ms` milliseconds since the
/// Unix epoch: "2026-08-08T12:34:56.789Z" (UTC, fixed width). Exposed so
/// tests can pin the format without scraping stderr.
std::string log_timestamp_utc(std::int64_t now_ms);

/// printf-style convenience; formatting is skipped when filtered out.
[[gnu::format(printf, 2, 3)]]
void logf(LogLevel level, const char* fmt, ...);

}  // namespace s2s::obs
