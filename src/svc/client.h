// Minimal blocking client for the s2sd protocol: one connection, one
// request/response at a time. Used by tools/s2s_query, the load bench
// and the tests; the raw send_bytes()/read_frame() surface lets tests
// inject malformed frames and observe the server's error frames.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "svc/protocol.h"

namespace s2s::svc {

class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connects (blocking) and arms SO_RCVTIMEO/SO_SNDTIMEO.
  bool connect(const std::string& host, std::uint16_t port,
               std::string& error, int timeout_ms = 10000);
  bool connected() const noexcept { return fd_ >= 0; }
  void close();

  /// Sends one request frame and reads one response frame. Returns false
  /// on a transport failure (error filled); a server error frame is a
  /// *successful* call with *type == MsgType::kError.
  bool call(MsgType type, std::uint8_t flags, std::string_view payload,
            MsgType* response_type, std::string* response_payload,
            std::string& error);

  /// Raw surface for protocol tests.
  bool send_bytes(std::string_view bytes, std::string& error);
  bool read_frame(MsgType* type, std::string* payload, std::string& error);
  /// True when the peer has closed (a clean EOF on the next read).
  bool read_eof();

  /// The connected socket, for poll()-based readiness checks (hedging);
  /// -1 when disconnected.
  int fd() const noexcept { return fd_; }
  /// True when a complete frame is already buffered (read_frame would
  /// return without touching the socket).
  bool has_buffered_frame() const noexcept;

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes received past the last parsed frame
};

}  // namespace s2s::svc
