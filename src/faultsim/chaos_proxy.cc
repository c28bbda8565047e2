#include "faultsim/chaos_proxy.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <vector>

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace s2s::faultsim {

namespace {

using Clock = std::chrono::steady_clock;

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

struct Chunk {
  std::string bytes;
  std::size_t off = 0;
  Clock::time_point release;
};

/// One forwarding direction of a relayed connection.
struct Pipe {
  int src = -1;
  int dst = -1;
  std::deque<Chunk> queue;  ///< read, faulted, awaiting release/flush
  Clock::time_point bw_free;  ///< token-bucket horizon (bandwidth cap)
  bool stalled = false;     ///< half-open: drop everything from now on
  bool src_eof = false;     ///< src closed; shutdown dst once drained
  bool dst_shut = false;
};

struct Relay {
  int client_fd = -1;
  int upstream_fd = -1;
  Pipe c2u, u2c;
  bool close_after_flush = false;  ///< truncation: flush prefix, then die
  bool dead = false;
};

}  // namespace

ChaosProxy::ChaosProxy(const ChaosConfig& config)
    : config_(config), rng_(config.seed) {}

ChaosProxy::~ChaosProxy() { stop(); }

bool ChaosProxy::start(std::string& error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    error = "socket: " + std::string(std::strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    error = "bad bind address: " + config_.bind_address;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, 64) < 0) {
    error = "bind/listen: " + std::string(std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  set_nonblocking(listen_fd_);
  if (::pipe(wake_pipe_) != 0) {
    error = "pipe: " + std::string(std::strerror(errno));
    return false;
  }
  set_nonblocking(wake_pipe_[0]);
  set_nonblocking(wake_pipe_[1]);
  stop_requested_.store(false);
  running_.store(true);
  thread_ = std::thread([this] { run(); });
  return true;
}

void ChaosProxy::stop() {
  if (!thread_.joinable()) return;
  stop_requested_.store(true);
  const char b = 'S';
  [[maybe_unused]] const auto r = ::write(wake_pipe_[1], &b, 1);
  thread_.join();
  running_.store(false);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

ChaosStats ChaosProxy::stats() const {
  ChaosStats s;
  s.connections = connections_.load();
  s.blackouts = blackouts_.load();
  s.chunks_forwarded = chunks_forwarded_.load();
  s.bytes_forwarded = bytes_forwarded_.load();
  s.corrupted = corrupted_.load();
  s.truncated = truncated_.load();
  s.resets = resets_.load();
  s.stalls = stalls_.load();
  s.delayed_chunks = delayed_chunks_.load();
  return s;
}

void ChaosProxy::export_metrics(
    std::map<std::string, std::uint64_t>& counters) const {
  const ChaosStats s = stats();
  counters["s2s.chaos.connections"] = s.connections;
  counters["s2s.chaos.blackouts"] = s.blackouts;
  counters["s2s.chaos.corrupted"] = s.corrupted;
  counters["s2s.chaos.truncated"] = s.truncated;
  counters["s2s.chaos.resets"] = s.resets;
  counters["s2s.chaos.stalls"] = s.stalls;
  counters["s2s.chaos.bytes_forwarded"] = s.bytes_forwarded;
}

void ChaosProxy::run() {
  std::vector<std::unique_ptr<Relay>> relays;
  std::size_t accepted = 0;
  std::size_t relayed = 0;  ///< non-blacked-out connections, for stall_first

  const auto uniform = [&](double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return rng_.chance(p);
  };

  const auto close_relay = [&](Relay& r) {
    if (r.dead) return;
    if (r.client_fd >= 0) ::close(r.client_fd);
    if (r.upstream_fd >= 0) ::close(r.upstream_fd);
    r.client_fd = r.upstream_fd = -1;
    r.dead = true;
  };

  // Reads one chunk from pipe.src, applies fault draws, enqueues the
  // survivor (if any) with its release time. Returns false when the
  // relay died (reset, error, EOF handled).
  const auto pump_read = [&](Relay& r, Pipe& p) {
    char buf[4096];
    const ssize_t n = ::recv(p.src, buf, sizeof buf, 0);
    if (n == 0) {
      p.src_eof = true;
      return true;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return true;
      }
      close_relay(r);
      return false;
    }
    if (p.stalled) return true;  // half-open: drop silently, stay open
    std::string bytes(buf, static_cast<std::size_t>(n));

    if (uniform(config_.reset_prob)) {
      resets_.fetch_add(1);
      close_relay(r);
      return false;
    }
    if (uniform(config_.truncate_prob)) {
      truncated_.fetch_add(1);
      // Forward a strict prefix of the chunk, then kill the pair once
      // the prefix has flushed — the peer sees a frame cut mid-byte.
      bytes.resize(bytes.size() / 2);
      r.close_after_flush = true;
    } else if (uniform(config_.stall_prob)) {
      stalls_.fetch_add(1);
      p.stalled = true;
      return true;  // this chunk and everything after it vanishes
    } else if (uniform(config_.corrupt_prob)) {
      corrupted_.fetch_add(1);
      const std::size_t at =
          static_cast<std::size_t>(rng_.below(bytes.size()));
      const auto flip = static_cast<char>(1 + rng_.below(255));
      bytes[at] = static_cast<char>(bytes[at] ^ flip);
    }

    const auto now = Clock::now();
    auto release = now;
    if (config_.latency_ms > 0 || config_.jitter_ms > 0) {
      std::int64_t delay = config_.latency_ms;
      if (config_.jitter_ms > 0) {
        delay += static_cast<std::int64_t>(
            rng_.below(static_cast<std::uint64_t>(config_.jitter_ms)));
      }
      release = now + std::chrono::milliseconds(delay);
    }
    if (config_.bytes_per_sec > 0) {
      if (p.bw_free < now) p.bw_free = now;
      const auto cost = std::chrono::microseconds(
          bytes.size() * 1000000ull / config_.bytes_per_sec);
      release = std::max(release, p.bw_free);
      p.bw_free = release + cost;
    }
    if (release > now) delayed_chunks_.fetch_add(1);

    Chunk chunk;
    chunk.bytes = std::move(bytes);
    chunk.release = release;
    if (!chunk.bytes.empty()) p.queue.push_back(std::move(chunk));
    return true;
  };

  // Flushes released chunks; returns false when the relay died.
  const auto pump_write = [&](Relay& r, Pipe& p, Clock::time_point now) {
    while (!p.queue.empty() && p.queue.front().release <= now) {
      Chunk& c = p.queue.front();
      const ssize_t n = ::send(p.dst, c.bytes.data() + c.off,
                               c.bytes.size() - c.off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        close_relay(r);
        return false;
      }
      c.off += static_cast<std::size_t>(n);
      bytes_forwarded_.fetch_add(static_cast<std::uint64_t>(n));
      if (c.off >= c.bytes.size()) {
        chunks_forwarded_.fetch_add(1);
        p.queue.pop_front();
      }
    }
    if (p.queue.empty()) {
      if (r.close_after_flush) {
        close_relay(r);
        return false;
      }
      if (p.src_eof && !p.dst_shut) {
        ::shutdown(p.dst, SHUT_WR);
        p.dst_shut = true;
      }
    }
    return true;
  };

  std::vector<pollfd> fds;
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    const auto now = Clock::now();

    // Flush released chunks and garbage-collect finished relays first,
    // so poll interest below reflects reality.
    for (auto& r : relays) {
      if (r->dead) continue;
      if (!pump_write(*r, r->c2u, now)) continue;
      if (!pump_write(*r, r->u2c, now)) continue;
      if (r->c2u.src_eof && r->c2u.queue.empty() && r->u2c.src_eof &&
          r->u2c.queue.empty()) {
        close_relay(*r);
      }
    }
    relays.erase(std::remove_if(relays.begin(), relays.end(),
                                [](const auto& r) { return r->dead; }),
                 relays.end());

    // Poll timeout: the nearest chunk release, else a housekeeping tick.
    std::int64_t timeout_ms = 200;
    for (const auto& r : relays) {
      for (const Pipe* p : {&r->c2u, &r->u2c}) {
        if (p->queue.empty()) continue;
        const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
                              p->queue.front().release - now)
                              .count();
        timeout_ms = std::clamp<std::int64_t>(
            std::min<std::int64_t>(timeout_ms, wait), 0, 200);
      }
    }
    if (timeout_ms > 0 && timeout_ms < config_.tick_ms) {
      timeout_ms = config_.tick_ms;
    }

    fds.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    for (const auto& r : relays) {
      for (const Pipe* p : {&r->c2u, &r->u2c}) {
        short events = 0;
        if (!p->src_eof) events |= POLLIN;  // stalled pipes still read
        if (events != 0) fds.push_back({p->src, events, 0});
        if (!p->queue.empty() && p->queue.front().release <= now) {
          fds.push_back({p->dst, POLLOUT, 0});
        }
      }
    }
    const int nready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                              static_cast<int>(timeout_ms));
    if (nready < 0 && errno != EINTR) break;

    for (const auto& pfd : fds) {
      if (pfd.revents == 0) continue;
      if (pfd.fd == wake_pipe_[0]) {
        char buf[64];
        while (::read(wake_pipe_[0], buf, sizeof buf) > 0) {
        }
        continue;
      }
      if (pfd.fd == listen_fd_) {
        while (true) {
          const int cfd = ::accept(listen_fd_, nullptr, nullptr);
          if (cfd < 0) break;
          ++accepted;
          if (accepted <= config_.blackout_first_conns) {
            blackouts_.fetch_add(1);
            ::close(cfd);
            continue;
          }
          if (relays.size() >= config_.max_connections) {
            ::close(cfd);
            continue;
          }
          const int ufd = ::socket(AF_INET, SOCK_STREAM, 0);
          sockaddr_in up{};
          up.sin_family = AF_INET;
          up.sin_port = htons(config_.upstream_port);
          if (ufd < 0 ||
              ::inet_pton(AF_INET, config_.upstream_host.c_str(),
                          &up.sin_addr) != 1 ||
              ::connect(ufd, reinterpret_cast<sockaddr*>(&up), sizeof up) !=
                  0) {
            if (ufd >= 0) ::close(ufd);
            ::close(cfd);
            continue;
          }
          set_nonblocking(cfd);
          set_nonblocking(ufd);
          const int one = 1;
          ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
          ::setsockopt(ufd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
          auto relay = std::make_unique<Relay>();
          relay->client_fd = cfd;
          relay->upstream_fd = ufd;
          relay->c2u = {cfd, ufd, {}, Clock::time_point{}, false, false,
                        false};
          relay->u2c = {ufd, cfd, {}, Clock::time_point{}, false, false,
                        false};
          ++relayed;
          if (relayed <= config_.stall_first_conns) {
            stalls_.fetch_add(1);
            relay->u2c.stalled = true;
          }
          connections_.fetch_add(1);
          relays.push_back(std::move(relay));
        }
        continue;
      }
      // Find the relay pipe this fd belongs to.
      for (auto& r : relays) {
        if (r->dead) continue;
        const bool is_client = pfd.fd == r->client_fd;
        const bool is_upstream = pfd.fd == r->upstream_fd;
        if (!is_client && !is_upstream) continue;
        if (pfd.revents & (POLLERR | POLLNVAL)) {
          close_relay(*r);
          break;
        }
        Pipe& reading = is_client ? r->c2u : r->u2c;
        if ((pfd.revents & (POLLIN | POLLHUP)) && !reading.src_eof) {
          // Drain everything available so level-triggered poll settles.
          while (!r->dead) {
            const std::size_t before = reading.queue.size();
            const bool alive = pump_read(*r, reading);
            if (!alive || reading.src_eof) break;
            if (reading.queue.size() == before && !reading.stalled) break;
            if (reading.stalled) break;
          }
        }
        break;
      }
    }
  }

  for (auto& r : relays) close_relay(*r);
}

}  // namespace s2s::faultsim
