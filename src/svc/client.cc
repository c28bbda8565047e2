#include "svc/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace s2s::svc {

namespace {

void arm_timeout(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

void arm_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

}  // namespace

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

bool Client::connect(const std::string& host, std::uint16_t port,
                     std::string& error, int timeout_ms) {
  close();
  // A ':' marks an IPv6 literal ("::1", "fe80::…"); everything else is
  // an IPv4 dotted quad, matching the server's bind-address rule.
  const bool v6 = host.find(':') != std::string::npos;
  const int family = v6 ? AF_INET6 : AF_INET;
#ifdef SOCK_CLOEXEC
  fd_ = ::socket(family, SOCK_STREAM | SOCK_CLOEXEC, 0);
#else
  fd_ = ::socket(family, SOCK_STREAM, 0);
#endif
  if (fd_ < 0) {
    error = "socket: " + std::string(std::strerror(errno));
    return false;
  }
  arm_cloexec(fd_);  // no-op where SOCK_CLOEXEC already applied
  sockaddr_storage ss{};
  socklen_t slen = 0;
  if (v6) {
    auto* addr = reinterpret_cast<sockaddr_in6*>(&ss);
    addr->sin6_family = AF_INET6;
    addr->sin6_port = htons(port);
    if (::inet_pton(AF_INET6, host.c_str(), &addr->sin6_addr) != 1) {
      error = "bad host address: " + host;
      close();
      return false;
    }
    slen = sizeof(sockaddr_in6);
  } else {
    auto* addr = reinterpret_cast<sockaddr_in*>(&ss);
    addr->sin_family = AF_INET;
    addr->sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
      error = "bad host address: " + host;
      close();
      return false;
    }
    slen = sizeof(sockaddr_in);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&ss), slen) != 0) {
    error = "connect: " + std::string(std::strerror(errno));
    close();
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  arm_timeout(fd_, timeout_ms);
  return true;
}

bool Client::send_bytes(std::string_view bytes, std::string& error) {
  if (fd_ < 0) {
    error = "not connected";
    return false;
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    error = "send: " + std::string(std::strerror(errno));
    return false;
  }
  return true;
}

bool Client::read_frame(MsgType* type, std::string* payload,
                        std::string& error) {
  if (fd_ < 0) {
    error = "not connected";
    return false;
  }
  char buf[4096];
  while (true) {
    if (buffer_.size() >= kFrameHeaderBytes) {
      FrameHeader header;
      const auto* bytes =
          reinterpret_cast<const unsigned char*>(buffer_.data());
      if (parse_frame_header(bytes, header) != HeaderStatus::kOk) {
        error = "response stream is not framed";
        return false;
      }
      if (buffer_.size() >= kFrameHeaderBytes + header.payload_bytes) {
        const std::string_view body(buffer_.data() + kFrameHeaderBytes,
                                    header.payload_bytes);
        if (frame_crc(bytes, body) != header.crc) {
          error = "response frame checksum mismatch";
          return false;
        }
        if (type != nullptr) *type = header.type;
        if (payload != nullptr) payload->assign(body);
        buffer_.erase(0, kFrameHeaderBytes + header.payload_bytes);
        return true;
      }
    }
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      buffer_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      error = "connection closed by server";
      return false;
    }
    if (errno == EINTR) continue;
    error = "recv: " + std::string(std::strerror(errno));
    return false;
  }
}

bool Client::read_eof() {
  if (fd_ < 0) return true;
  char buf[256];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n == 0) return true;
    if (n > 0) continue;  // discard trailing frames before the close
    if (errno == EINTR) continue;
    return false;  // timeout or hard error: no EOF observed
  }
}

bool Client::has_buffered_frame() const noexcept {
  if (buffer_.size() < kFrameHeaderBytes) return false;
  FrameHeader header;
  const auto* bytes = reinterpret_cast<const unsigned char*>(buffer_.data());
  if (parse_frame_header(bytes, header) != HeaderStatus::kOk) return true;
  return buffer_.size() >= kFrameHeaderBytes + header.payload_bytes;
}

bool Client::call(MsgType type, std::uint8_t flags, std::string_view payload,
                  MsgType* response_type, std::string* response_payload,
                  std::string& error) {
  if (!send_bytes(encode_frame(type, flags, payload), error)) return false;
  return read_frame(response_type, response_payload, error);
}

}  // namespace s2s::svc
