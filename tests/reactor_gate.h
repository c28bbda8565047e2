// A test hook that holds a server's reactor thread at a known point.
//
// The reactor parses every readable connection's frames in one poll
// round before it executes any of them, so which requests are shed
// depends on which frames share a round. Holding the reactor while
// several clients send makes their frames share the next round, in the
// order they arrived, which turns cross-connection admission into a
// deterministic outcome a test can assert on.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "obs/log.h"

namespace s2s {

/// Holds the reactor inside the first log line that contains the armed
/// marker (with ServerConfig::slow_query_us = 1 every request writes a
/// slow-query line). Frames sent while it is held are parsed together
/// in the reactor's next poll round. Release it before the server
/// drains; the destructor releases it and restores the log sink.
class ReactorGate {
 public:
  ReactorGate() {
    obs::set_log_sink([this](obs::LogLevel, std::string_view line) {
      std::unique_lock<std::mutex> lock(mutex_);
      if (marker_.empty() || line.find(marker_) == std::string_view::npos) {
        return;
      }
      marker_.clear();
      held_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return !held_; });
    });
  }
  ~ReactorGate() {
    release();
    obs::set_log_sink({});
  }
  ReactorGate(const ReactorGate&) = delete;
  ReactorGate& operator=(const ReactorGate&) = delete;

  void arm(std::string marker) {
    const std::lock_guard<std::mutex> lock(mutex_);
    marker_ = std::move(marker);
  }
  bool wait_held() {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(30),
                        [this] { return held_; });
  }
  void release() {
    const std::lock_guard<std::mutex> lock(mutex_);
    held_ = false;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::string marker_;
  bool held_ = false;
};

}  // namespace s2s
