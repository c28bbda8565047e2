#include "svc/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>

#include "obs/log.h"
#include "obs/prometheus.h"
#include "obs/trace.h"

namespace s2s::svc {

namespace {

std::chrono::milliseconds ms(int v) { return std::chrono::milliseconds(v); }

/// Max iovec segments per sendmsg; past this a second readiness round
/// costs less than the iovec array walk.
constexpr int kMaxIovec = 64;

/// listen() backlog per listener.
constexpr int kListenBacklog = 64;
/// Connection cap across all reactors; accepts past it are closed.
constexpr std::size_t kMaxConnections = 256;
/// Oversized payloads up to this are drained so the connection
/// survives; beyond it the connection closes after the error frame.
constexpr std::size_t kMaxDiscardBytes = 1u << 20;
/// Slow-query log rate limit: lines per one-second interval.
constexpr std::uint32_t kSlowLogMaxPerInterval = 10;
/// Ring granularity of the windowed latency views.
constexpr int kWindowSlots = 6;

/// Metric name of each Server::Stat, in enum order.
constexpr const char* kStatNames[] = {
    "s2s.svc.requests",       "s2s.svc.conns_accepted",
    "s2s.svc.conns_reaped",   "s2s.svc.accept_emfile",
    "s2s.svc.busy_rejected",  "s2s.svc.shed.cost",
    "s2s.svc.shed.inflight",  "s2s.svc.shed.client",
    "s2s.svc.protocol_errors", "s2s.svc.bytes_rx",
    "s2s.svc.bytes_tx",
};

epoll_event interest(int fd, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  return ev;
}

}  // namespace

// ---------------------------------------------------------------------------
// Poller
// ---------------------------------------------------------------------------

// Every fd the server creates is CLOEXEC (SIGHUP handlers and tools
// fork/exec helpers): sockets via SOCK_CLOEXEC/accept4, pipes via pipe2,
// the poller via EPOLL_CLOEXEC.
Server::Poller::Poller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {}

Server::Poller::~Poller() {
  if (epfd_ >= 0) ::close(epfd_);
}

void Server::Poller::add(int fd, bool want_read, bool want_write) {
  epoll_event ev = interest(fd, want_read, want_write);
  ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
}

void Server::Poller::update(int fd, bool want_read, bool want_write) {
  epoll_event ev = interest(fd, want_read, want_write);
  ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
}

void Server::Poller::remove(int fd) {
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
}

void Server::Poller::wait(std::vector<Event>& out, int timeout_ms) {
  out.clear();
  epoll_event evs[64];
  const int n = ::epoll_wait(epfd_, evs, 64, timeout_ms);
  for (int i = 0; i < n; ++i) {
    Event e;
    e.fd = evs[i].data.fd;
    e.readable = (evs[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0;
    e.writable = (evs[i].events & EPOLLOUT) != 0;
    e.error = (evs[i].events & EPOLLERR) != 0;
    out.push_back(e);
  }
}

// ---------------------------------------------------------------------------
// Server: lifecycle
// ---------------------------------------------------------------------------

Server::Server(Dataset& dataset, exec::ThreadPool* pool,
               const ServerConfig& config)
    : dataset_(dataset),
      pool_(pool),
      config_(config),
      slow_log_({config.slow_query_us, kSlowLogMaxPerInterval,
                 /*interval_ms=*/1000, /*max_entries=*/128}) {
  if (config_.reactors == 0) config_.reactors = 1;
  for (std::size_t i = 0; i < kRequestTypes; ++i) {
    latency_[i] = std::make_unique<TypeLatency>(static_cast<MsgType>(i + 1),
                                                config_);
  }
}

Server::TypeLatency::TypeLatency(MsgType type, const ServerConfig& config)
    : type(type),
      lifetime(obs::MetricsRegistry::global().histogram(
          std::string("s2s.svc.latency_us.") + type_name(type),
          obs::MetricsRegistry::latency_us_bounds())),
      windowed(obs::MetricsRegistry::latency_us_bounds(),
               config.window_seconds, kWindowSlots),
      slo_threshold_us(config.slo_ms * 1000.0) {}

int Server::open_listener(std::uint16_t& port, bool reuseport,
                          std::string& error) {
  // An address with a ':' is IPv6; "::" with V6ONLY off is the
  // dual-stack wildcard (v4 peers arrive as v4-mapped addresses).
  const bool v6 = config_.bind_address.find(':') != std::string::npos;
  const int family = v6 ? AF_INET6 : AF_INET;
  const int fd =
      ::socket(family, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    error = "socket: " + std::string(std::strerror(errno));
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (reuseport &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
    error = "setsockopt(SO_REUSEPORT): " + std::string(std::strerror(errno));
    ::close(fd);
    return -1;
  }
  sockaddr_storage ss{};
  socklen_t slen = 0;
  if (v6) {
    const int zero = 0;
    ::setsockopt(fd, IPPROTO_IPV6, IPV6_V6ONLY, &zero, sizeof zero);
    auto* a = reinterpret_cast<sockaddr_in6*>(&ss);
    a->sin6_family = AF_INET6;
    a->sin6_port = htons(port);
    if (::inet_pton(AF_INET6, config_.bind_address.c_str(), &a->sin6_addr) !=
        1) {
      error = "bad bind address: " + config_.bind_address;
      ::close(fd);
      return -1;
    }
    slen = sizeof(sockaddr_in6);
  } else {
    auto* a = reinterpret_cast<sockaddr_in*>(&ss);
    a->sin_family = AF_INET;
    a->sin_port = htons(port);
    if (::inet_pton(AF_INET, config_.bind_address.c_str(), &a->sin_addr) !=
        1) {
      error = "bad bind address: " + config_.bind_address;
      ::close(fd);
      return -1;
    }
    slen = sizeof(sockaddr_in);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&ss), slen) < 0) {
    error = "bind: " + std::string(std::strerror(errno));
    ::close(fd);
    return -1;
  }
  if (::listen(fd, kListenBacklog) < 0) {
    error = "listen: " + std::string(std::strerror(errno));
    ::close(fd);
    return -1;
  }
  sockaddr_storage bound{};
  socklen_t blen = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen) == 0) {
    port =
        bound.ss_family == AF_INET6
            ? ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port)
            : ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
  }
  return fd;
}

bool Server::start(std::string& error) {
  const std::size_t n = config_.reactors;
  {
    // The initial snapshot aliases the caller-owned dataset (the
    // deleter is empty); reloads replace it with owning snapshots.
    std::lock_guard<std::mutex> lock(dataset_mutex_);
    dataset_current_ = std::shared_ptr<const Dataset>(
        std::shared_ptr<const void>{}, &dataset_);
  }
  // Accept sharding: with more than one reactor, every reactor gets its
  // own SO_REUSEPORT listener on the same port (reactor 0's resolves an
  // ephemeral port for the rest). A 1-reactor server keeps an exclusive
  // listener, so a second server cannot silently share its port.
  const bool reuseport = n > 1;
  std::uint16_t port = config_.port;
  reactors_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    reactors_.push_back(std::make_unique<Reactor>(*this, i));
    Reactor& r = *reactors_.back();
    if (!r.poller_.ok()) {
      error = "epoll_create1: " + std::string(std::strerror(errno));
      return false;
    }
    if (::pipe2(r.wake_pipe_, O_NONBLOCK | O_CLOEXEC) != 0) {
      error = "pipe: " + std::string(std::strerror(errno));
      return false;
    }
    r.poller_.add(r.wake_pipe_[0], true, false);
    r.listen_fd_ = open_listener(port, reuseport, error);
    if (r.listen_fd_ < 0) return false;
    r.poller_.add(r.listen_fd_, true, false);
  }
  port_ = port;
  start_time_ = Clock::now();
  return true;
}

void Server::serve() {
  if (reactors_.empty()) return;
  std::vector<std::thread> threads;
  threads.reserve(reactors_.size() - 1);
  for (std::size_t i = 1; i < reactors_.size(); ++i) {
    threads.emplace_back([this, i] { reactors_[i]->run(); });
  }
  reactors_[0]->run();
  for (auto& t : threads) t.join();
  // Drain complete on every reactor; listeners close last — the socket
  // stays accept()-able until the final in-flight response is flushed.
  for (const auto& r : reactors_) {
    if (r->listen_fd_ >= 0) {
      ::close(r->listen_fd_);
      r->listen_fd_ = -1;
    }
  }
}

void Server::request_drain() {
  draining_.store(true, std::memory_order_relaxed);
  // write() is async-signal-safe and reactors_ is immutable after
  // start(); this is the SIGTERM handler's body.
  for (const auto& r : reactors_) r->wake();
}

void Server::request_reload() {
  reload_pending_.store(true, std::memory_order_relaxed);
  for (const auto& r : reactors_) r->wake();
}

std::shared_ptr<const Dataset> Server::dataset_snapshot() const {
  std::lock_guard<std::mutex> lock(dataset_mutex_);
  return dataset_current_;
}

void Server::do_reload() {
  // Build the replacement dataset off to the side (sharing the base's
  // network — topology is immutable and expensive) and publish it with
  // a pointer swap only on success. Requests hold the snapshot they
  // started with, so a reload can never tear a response.
  auto fresh = std::make_shared<Dataset>(dataset_.config(), &dataset_.net());
  std::string error;
  if (fresh->load(error)) {
    {
      std::lock_guard<std::mutex> lock(dataset_mutex_);
      dataset_current_ = fresh;
    }
    reloads_.fetch_add(1, std::memory_order_relaxed);
    obs::logf(obs::LogLevel::kInfo,
              "s2sd: archive reloaded (%zu records, digest %016llx)",
              fresh->ingest().records,
              static_cast<unsigned long long>(fresh->digest()));
  } else {
    obs::logf(obs::LogLevel::kWarn, "s2sd: reload failed: %s", error.c_str());
  }
}

void Server::maybe_live_advance() {
  if (config_.live_poll_ms <= 0) return;
  const auto now = Clock::now();
  if (now < next_live_poll_) return;
  next_live_poll_ = now + ms(config_.live_poll_ms);
  const std::shared_ptr<const Dataset> snap = dataset_snapshot();
  if (!snap || !snap->live()) return;
  std::string error;
  auto next = snap->clone_advanced(error);
  if (!next) {
    // Empty error: the watermark simply hasn't moved (or the shard was
    // finalized) — the common idle case, not worth a log line.
    if (!error.empty()) {
      obs::logf(obs::LogLevel::kWarn, "s2sd: delta pickup failed: %s",
                error.c_str());
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(dataset_mutex_);
    dataset_current_ = next;
  }
  live_pickups_.fetch_add(1, std::memory_order_relaxed);
  obs::logf(obs::LogLevel::kInfo,
            "s2sd: live pickup to epoch %lld (%llu sealed bytes, digest "
            "%016llx)",
            static_cast<long long>(next->watermark().epoch),
            static_cast<unsigned long long>(next->watermark().sealed_bytes),
            static_cast<unsigned long long>(next->digest()));
}

// ---------------------------------------------------------------------------
// Server: aggregation across reactors
// ---------------------------------------------------------------------------

std::vector<std::uint64_t> Server::reactor_accepted() const {
  std::vector<std::uint64_t> out;
  out.reserve(reactors_.size());
  for (const auto& r : reactors_) {
    out.push_back(r->stats_[kConnsAccepted].load(std::memory_order_relaxed));
  }
  return out;
}

ResultCache::Stats Server::cache_stats() const {
  ResultCache::Stats out;
  for (const auto& r : reactors_) {
    const ResultCache::Stats s = r->cache_.stats();
    out.hits += s.hits;
    out.misses += s.misses;
    out.insertions += s.insertions;
    out.evictions += s.evictions;
    out.entries += s.entries;
    out.bytes += s.bytes;
  }
  return out;
}

std::uint64_t Server::total(Stat stat) const {
  std::uint64_t sum = 0;
  for (const auto& r : reactors_) {
    sum += r->stats_[stat].load(std::memory_order_relaxed);
  }
  return sum;
}

std::size_t Server::pending_cost() const {
  std::size_t sum = 0;
  for (const auto& r : reactors_) {
    sum += r->pending_cost_.load(std::memory_order_relaxed);
  }
  return sum;
}

double Server::uptime_seconds() const {
  return std::chrono::duration<double>(Clock::now() - start_time_).count();
}

std::map<std::string, obs::WindowedSnapshot> Server::windowed_snapshots()
    const {
  std::map<std::string, obs::WindowedSnapshot> out;
  for (const auto& lat : latency_) {
    out.emplace(std::string("s2s.svc.windowed_us.") + type_name(lat->type),
                lat->windowed.snapshot());
  }
  return out;
}

std::map<std::string, obs::SloStat> Server::slo_stats() const {
  std::map<std::string, obs::SloStat> out;
  for (const auto& lat : latency_) {
    out.emplace(std::string("s2s.svc.slo.") + type_name(lat->type),
                obs::SloStat{lat->slo_threshold_us,
                             lat->slo_good.load(std::memory_order_relaxed),
                             lat->slo_total.load(std::memory_order_relaxed)});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reactor: lifecycle and event loop
// ---------------------------------------------------------------------------

Server::Reactor::Reactor(Server& server, std::size_t index)
    : srv_(server),
      index_(index),
      cache_(server.config_.cache_bytes / server.config_.reactors) {}

Server::Reactor::~Reactor() {
  for (const auto& [fd, conn] : conns_) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

void Server::Reactor::wake() {
  const char b = 'W';
  if (wake_pipe_[1] >= 0) {
    [[maybe_unused]] const auto r = ::write(wake_pipe_[1], &b, 1);
  }
}

void Server::Reactor::run() {
  std::vector<Poller::Event> events;
  std::vector<int> fds;
  bool drain_observed = false;
  bool drain_quiet = false;  ///< last poll round saw no socket events
  Clock::time_point drain_deadline;
  while (true) {
    if (srv_.reload_pending_.exchange(false, std::memory_order_relaxed)) {
      srv_.do_reload();
    }
    // Reactor 0 owns the live-ingest tick; other reactors pick up the
    // published snapshot on their next request like any reload.
    if (index_ == 0) srv_.maybe_live_advance();
    const bool draining = srv_.draining_.load(std::memory_order_relaxed);
    if (draining && !drain_observed) {
      drain_observed = true;
      drain_quiet = false;
      if (listen_fd_ >= 0) {
        // A connection that finished its handshake in the backlog is
        // in-flight too: accept it now, then stop watching the
        // listener. The socket stays open until serve() has seen every
        // reactor quiesce.
        if (!listener_paused_) {
          accept_ready();
          if (!listener_paused_) poller_.remove(listen_fd_);
        }
        listener_paused_ = true;  // and never re-armed during a drain
      }
      // A request sent just before the signal may still be in flight in
      // the kernel, so reads continue during the drain; the deadline
      // bounds how long a chatty client can hold shutdown open.
      drain_deadline = Clock::now() + ms(std::max(
          {srv_.config_.read_timeout_ms, srv_.config_.write_timeout_ms, 100}));
    }
    execute_pending();
    if (draining) {
      fds.clear();
      for (const auto& [fd, conn] : conns_) fds.push_back(fd);
      for (const int fd : fds) {
        const auto it = conns_.find(fd);
        if (it != conns_.end()) flush_out(it->second);
      }
      bool settled = queues_empty();
      for (const auto& [fd, conn] : conns_) {
        if (conn.out_bytes > 0) settled = false;
      }
      // Exit once everything is flushed AND a poll round confirmed no
      // more bytes were in flight — or the drain deadline expires.
      if ((settled && drain_quiet) || Clock::now() >= drain_deadline) break;
    }
    const auto now = Clock::now();
    reap_timeouts(now);
    if (!draining) maybe_rearm_listener(now);
    poller_.wait(events, draining ? 20 : next_timeout_ms(Clock::now()));
    drain_quiet = true;
    for (const auto& ev : events) {
      if (ev.fd == wake_pipe_[0]) {
        char buf[64];
        while (::read(wake_pipe_[0], buf, sizeof buf) > 0) {
        }
        continue;
      }
      drain_quiet = false;
      if (listen_fd_ >= 0 && ev.fd == listen_fd_) {
        if (!srv_.draining_.load(std::memory_order_relaxed)) accept_ready();
        continue;
      }
      if (ev.writable) {
        const auto it = conns_.find(ev.fd);
        if (it != conns_.end()) flush_out(it->second);
      }
      const auto it = conns_.find(ev.fd);
      if (it == conns_.end()) continue;
      if (ev.error) {
        close_conn(ev.fd);
        continue;
      }
      if (ev.readable) handle_readable(it->second);
    }
  }
  // Local teardown: this reactor's connections die here; the listener
  // is closed by serve() once every reactor has quiesced.
  fds.clear();
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (const int fd : fds) close_conn(fd);
}

// ---------------------------------------------------------------------------
// Reactor: accept path
// ---------------------------------------------------------------------------

void Server::Reactor::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of fds: a level-triggered poller would busy-spin on the
        // still-readable listener. Unwatch it and re-arm on a timer.
        count(kAcceptEmfile);
        pause_listener();
      }
      break;  // EAGAIN or transient accept failure
    }
    adopt_fd(fd);
  }
}

void Server::Reactor::adopt_fd(int fd) {
  if (srv_.total_conns_.load(std::memory_order_relaxed) >= kMaxConnections) {
    ::close(fd);
    return;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  Conn conn;
  conn.fd = fd;
  conn.read_deadline_base = conn.write_deadline_base = Clock::now();
  conns_.emplace(fd, std::move(conn));
  poller_.add(fd, true, false);
  count(kConnsAccepted);
  srv_.total_conns_.fetch_add(1, std::memory_order_relaxed);
}

void Server::Reactor::pause_listener() {
  if (listen_fd_ < 0 || listener_paused_) return;
  poller_.remove(listen_fd_);
  listener_paused_ = true;
  accept_rearm_at_ =
      Clock::now() + ms(std::max(srv_.config_.accept_rearm_ms, 1));
}

void Server::Reactor::maybe_rearm_listener(Clock::time_point now) {
  if (!listener_paused_ || listen_fd_ < 0) return;
  if (now < accept_rearm_at_) return;
  // Level-triggered: if the backlog still has connections the next
  // wait() fires immediately; if fds are still exhausted the accept
  // fails again and the listener re-pauses for another interval.
  poller_.add(listen_fd_, true, false);
  listener_paused_ = false;
}

// ---------------------------------------------------------------------------
// Reactor: read path
// ---------------------------------------------------------------------------

void Server::Reactor::handle_readable(Conn& conn) {
  char buf[4096];
  bool progress = false;
  while (true) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<std::size_t>(n));
      count(kBytesRx, static_cast<std::uint64_t>(n));
      progress = true;
      continue;
    }
    if (n == 0) {  // peer closed
      close_conn(conn.fd);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_conn(conn.fd);
    return;
  }
  if (progress) {
    conn.read_deadline_base = Clock::now();
    parse_frames(conn);
  }
}

void Server::Reactor::parse_frames(Conn& conn) {
  std::size_t off = 0;
  while (true) {
    if (conn.discard > 0) {
      const std::size_t n = std::min(conn.discard, conn.in.size() - off);
      off += n;
      conn.discard -= n;
      if (conn.discard > 0) break;  // rest of the oversized payload pending
    }
    if (conn.close_after_flush) {  // stream unframeable; drop the rest
      off = conn.in.size();
      break;
    }
    if (conn.in.size() - off < kFrameHeaderBytes) break;
    const auto* header_bytes =
        reinterpret_cast<const unsigned char*>(conn.in.data() + off);
    FrameHeader header;
    const HeaderStatus status = parse_frame_header(header_bytes, header);
    if (status != HeaderStatus::kOk) {
      // Without a trusted magic/version there is no frame boundary to
      // resync to; answer and close.
      count(kProtocolErrors);
      respond_error(conn, "bad_frame",
                    status == HeaderStatus::kBadMagic
                        ? "bad frame magic; stream is not framed"
                        : "unsupported protocol version",
                    /*close_after=*/true);
      off = conn.in.size();
      break;
    }
    if (header.payload_bytes > srv_.config_.max_request_bytes) {
      count(kProtocolErrors);
      const bool recoverable = header.payload_bytes <= kMaxDiscardBytes;
      respond_error(conn, "oversized", "request payload exceeds limit",
                    /*close_after=*/!recoverable);
      if (!recoverable) {
        off = conn.in.size();
        break;
      }
      off += kFrameHeaderBytes;
      conn.discard = header.payload_bytes;
      continue;
    }
    if (conn.in.size() - off < kFrameHeaderBytes + header.payload_bytes) {
      break;  // incomplete frame; wait for more bytes
    }
    const std::string_view payload(conn.in.data() + off + kFrameHeaderBytes,
                                   header.payload_bytes);
    off += kFrameHeaderBytes + header.payload_bytes;
    if (frame_crc(header_bytes, payload) != header.crc) {
      // The length field was covered by the (failed) CRC but the frame
      // boundary is still coherent: skip exactly this frame and keep the
      // connection.
      count(kProtocolErrors);
      respond_error(conn, "bad_crc", "frame checksum mismatch",
                    /*close_after=*/false);
      continue;
    }
    if (!is_request(header.type)) {
      count(kProtocolErrors);
      respond_error(conn, "bad_request", "unknown or non-request frame type",
                    /*close_after=*/false);
      continue;
    }
    TraceContext trace;
    std::string_view request_payload = payload;
    if ((header.flags & kFlagTraceContext) != 0 &&
        !strip_trace_context(payload, trace, request_payload)) {
      // The flag promised a prefix the payload is too short to hold. The
      // frame boundary is still trusted, so only this request dies.
      count(kProtocolErrors);
      respond_error(conn, "bad_request",
                    "trace-context flag without trace-context prefix",
                    /*close_after=*/false);
      continue;
    }
    admit_request(conn, header.type, header.flags, request_payload, trace);
  }
  conn.in.erase(0, off);
}

// ---------------------------------------------------------------------------
// Reactor: admission and execution
// ---------------------------------------------------------------------------

void Server::Reactor::admit_request(Conn& conn, MsgType type,
                                    std::uint8_t flags,
                                    std::string_view payload,
                                    const TraceContext& trace) {
  const std::uint32_t cost = request_cost(type);
  std::size_t client_pending = 0;
  for (const PendingItem& item : conn.queue) {
    if (!item.shed) ++client_pending;
  }
  const std::size_t pending_count =
      pending_count_.load(std::memory_order_relaxed);
  const std::size_t pending_cost =
      pending_cost_.load(std::memory_order_relaxed);

  const char* reason = nullptr;
  if (srv_.config_.max_client_pending > 0 &&
      client_pending >= srv_.config_.max_client_pending) {
    reason = "per-connection queue full";
    count(kShedClient);
  } else if (pending_count >= srv_.config_.max_inflight) {
    reason = "too many requests in flight";
    count(kShedInflight);
  } else if (srv_.config_.max_pending_cost > 0 && pending_count > 0 &&
             pending_cost + cost > srv_.config_.max_pending_cost) {
    // An empty queue always admits (progress guarantee for requests
    // costlier than the whole budget).
    reason = "pending cost budget exceeded";
    count(kShedCost);
  }

  if (reason != nullptr) {
    count(kBusyRejected);
    // Advertise a retry horizon that grows with budget pressure: base
    // when idle, 2x base when the pending-cost budget is saturated.
    int hint = srv_.config_.busy_retry_after_ms;
    if (srv_.config_.max_pending_cost > 0) {
      hint += static_cast<int>(
          (static_cast<std::uint64_t>(srv_.config_.busy_retry_after_ms) *
           std::min(pending_cost, srv_.config_.max_pending_cost)) /
          srv_.config_.max_pending_cost);
    }
    PendingItem marker;
    marker.type = type;
    marker.shed = true;
    marker.payload = error_payload("busy", reason, hint);
    conn.queue.push_back(std::move(marker));
    return;
  }

  PendingItem item;
  item.type = type;
  item.flags = flags;
  item.payload.assign(payload);
  item.cost = cost;
  item.trace_id = trace.trace_id;
  item.parent_span_id = trace.span_id;
  item.admit_time = Clock::now();
  conn.queue.push_back(std::move(item));
  pending_count_.fetch_add(1, std::memory_order_relaxed);
  pending_cost_.fetch_add(cost, std::memory_order_relaxed);
}

void Server::Reactor::execute_pending() {
  // Round-robin: one item per connection per pass, connections in fd
  // order, so no client's pipelined burst can starve another's queue.
  std::vector<int> fds;
  while (true) {
    fds.clear();
    for (const auto& [fd, conn] : conns_) {
      if (!conn.queue.empty()) fds.push_back(fd);
    }
    if (fds.empty()) return;
    std::sort(fds.begin(), fds.end());
    for (const int fd : fds) {
      const auto it = conns_.find(fd);
      if (it == conns_.end() || it->second.queue.empty()) continue;
      PendingItem item = std::move(it->second.queue.front());
      it->second.queue.pop_front();
      if (!item.shed) {
        pending_count_.fetch_sub(1, std::memory_order_relaxed);
        pending_cost_.fetch_sub(item.cost, std::memory_order_relaxed);
      }
      if (item.shed) {
        respond(it->second, MsgType::kError, item.payload);
        const auto again = conns_.find(fd);
        if (again != conns_.end()) flush_out(again->second);
      } else {
        execute_one(fd, item);
      }
    }
  }
}

bool Server::Reactor::queues_empty() const {
  for (const auto& [fd, conn] : conns_) {
    if (!conn.queue.empty()) return false;
  }
  return true;
}

void Server::Reactor::execute_one(int fd, const PendingItem& item) {
  if (conns_.find(fd) == conns_.end()) return;  // closed meanwhile
  const auto t0 = Clock::now();
  count(kRequests);

  // Every request acquires the dataset snapshot exactly once: digest,
  // execution, and zero-copy slices all see one coherent dataset even
  // when another reactor publishes a reload mid-request.
  const std::shared_ptr<const Dataset> ds = srv_.dataset_snapshot();

  const auto since_us = [](Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
        .count();
  };
  const std::int64_t queue_us =
      item.admit_time.time_since_epoch().count() == 0
          ? 0
          : since_us(item.admit_time, t0);

  auto& collector = obs::TraceCollector::global();
  // Sampling follows the client: only requests that arrived with a
  // trace context get the span machinery (the cross-process trace is
  // the feature; five span commits per untraced request would tax every
  // caller for diagnostics nobody asked for).
  const bool tracing = item.trace_id != 0 && collector.enabled();
  // The server-side half of the request's trace: a child of the
  // client's attempt span.
  std::optional<obs::TraceSpan> request_span;
  if (tracing) {
    request_span.emplace(std::string("server:") + type_name(item.type),
                         item.trace_id, item.parent_span_id, collector);
    // The admission-to-dequeue wait was never live as a stack span (the
    // item sat in a queue), so emit it retroactively.
    obs::SpanEvent wait;
    wait.name = "queue_wait";
    wait.path = request_span->path() + "/queue_wait";
    wait.depth = request_span->depth() + 1;
    wait.start_us = collector.now_us() - queue_us;
    wait.dur_us = queue_us;
    wait.trace_id = request_span->trace_id();
    wait.span_id = collector.new_span_id();
    wait.parent_span_id = request_span->span_id();
    collector.emit_event(std::move(wait));
  }

  // exec::ThreadPool::run is single-batch: concurrent reactors
  // serialize their pooled figure executions (everything else runs on
  // the reactor thread and needs no lock).
  const auto run_execute = [&](MsgType type, std::string_view payload) {
    if (type == MsgType::kFigureDigest && srv_.pool_ != nullptr) {
      std::lock_guard<std::mutex> lock(srv_.pool_mutex_);
      return ds->execute(type, payload, srv_.pool_);
    }
    return ds->execute(type, payload, srv_.pool_);
  };

  std::int64_t cache_us = 0, exec_us = 0;
  const char* cache_status = "none";
  Dataset::Response response;
  std::shared_ptr<const std::string> shared_payload;
  Dataset::ArchiveSlice slice;
  bool use_slice = false;
  if (item.type == MsgType::kServerStats) {
    response = {MsgType::kOk, srv_.stats_payload(*ds)};
  } else if (item.type == MsgType::kMetricsDump) {
    MetricsDumpQuery q;
    if (decode_metrics_dump_query(item.payload, q)) {
      response = {MsgType::kOk, srv_.metrics_dump_payload(q.format)};
    } else {
      response = {MsgType::kError,
                  error_payload("bad_request", "bad metrics_dump payload")};
    }
  } else if (item.type == MsgType::kLiveStatus) {
    // Never cached: the whole point is observing ingest progress.
    response = {MsgType::kOk, srv_.live_status_payload(*ds)};
  } else if (item.type == MsgType::kArchiveSlice) {
    SliceQuery q;
    if (!decode_slice_query(item.payload, q)) {
      response = {MsgType::kError,
                  error_payload("bad_request", "bad archive_slice payload")};
    } else {
      std::optional<obs::TraceSpan> phase;
      if (tracing) phase.emplace("exec", collector);
      const auto t = Clock::now();
      slice = ds->archive_slice(q.t0_s, q.t1_s);
      exec_us = since_us(t, Clock::now());
      if (!slice.ok) {
        response = {MsgType::kError,
                    error_payload("unavailable", slice.error)};
      } else if (slice.bytes > 0xffffffffull) {
        response = {MsgType::kError,
                    error_payload("oversized",
                                  "slice exceeds frame payload limit")};
      } else {
        use_slice = true;
      }
    }
  } else if (is_cacheable(item.type)) {
    const std::string key = ResultCache::make_key(
        ds->digest(), static_cast<std::uint8_t>(item.type), item.payload);
    const bool bypass = (item.flags & kFlagNoCache) != 0;
    {
      std::optional<obs::TraceSpan> phase;
      if (tracing) phase.emplace("cache_lookup", collector);
      const auto t = Clock::now();
      if (!bypass) shared_payload = cache_.find(key);
      cache_us = since_us(t, Clock::now());
    }
    if (shared_payload) {
      cache_status = "hit";
    } else {
      cache_status = bypass ? "bypass" : "miss";
      std::optional<obs::TraceSpan> phase;
      if (tracing) phase.emplace("exec", collector);
      const auto t = Clock::now();
      response = run_execute(item.type, item.payload);
      exec_us = since_us(t, Clock::now());
      if (response.type == MsgType::kOk) {
        // Cache entry and output queue share one immutable string: the
        // insert costs no copy and the response writes zero-copy.
        shared_payload = std::make_shared<const std::string>(
            std::move(response.payload));
        cache_.insert(key, shared_payload);
      }
    }
  } else {
    std::optional<obs::TraceSpan> phase;
    if (tracing) phase.emplace("exec", collector);
    const auto t = Clock::now();
    response = run_execute(item.type, item.payload);
    exec_us = since_us(t, Clock::now());
  }

  const auto us = since_us(t0, Clock::now());
  srv_.latency_of(item.type).lifetime.record(static_cast<double>(us));

  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  MsgType response_type = MsgType::kOk;
  std::string_view response_payload;
  std::int64_t encode_us = 0, write_us = 0;
  {
    std::optional<obs::TraceSpan> phase;
    if (tracing) phase.emplace("encode", collector);
    const auto t = Clock::now();
    if (use_slice) {
      respond_slice(it->second, slice, ds);
    } else if (shared_payload) {
      response_payload = *shared_payload;
      respond_shared(it->second, MsgType::kOk, shared_payload);
    } else {
      response_type = response.type;
      response_payload = response.payload;
      respond(it->second, response.type, response.payload);
    }
    encode_us = since_us(t, Clock::now());
  }
  const auto again = conns_.find(fd);
  if (again != conns_.end()) {
    std::optional<obs::TraceSpan> phase;
    if (tracing) phase.emplace("write", collector);
    const auto t = Clock::now();
    flush_out(again->second);
    write_us = since_us(t, Clock::now());
  }

  const std::int64_t total_us =
      item.admit_time.time_since_epoch().count() == 0
          ? since_us(t0, Clock::now())
          : since_us(item.admit_time, Clock::now());
  finish_request(item, total_us, queue_us, cache_us, exec_us, encode_us,
                 write_us, cache_status, response_type, response_payload);
}

void Server::Reactor::finish_request(
    const PendingItem& item, std::int64_t total_us, std::int64_t queue_us,
    std::int64_t cache_us, std::int64_t exec_us, std::int64_t encode_us,
    std::int64_t write_us, const char* cache_status, MsgType response_type,
    std::string_view response_payload) {
  TypeLatency& lat = srv_.latency_of(item.type);
  lat.windowed.record(static_cast<double>(total_us));
  lat.slo_total.fetch_add(1, std::memory_order_relaxed);
  if (static_cast<double>(total_us) <= lat.slo_threshold_us) {
    lat.slo_good.fetch_add(1, std::memory_order_relaxed);
  }
  if (srv_.slow_log_.enabled() && total_us > srv_.slow_log_.threshold_us()) {
    SlowQueryEntry entry;
    entry.trace_id = item.trace_id;
    entry.type = type_name(item.type);
    entry.total_us = total_us;
    entry.queue_us = queue_us;
    entry.cache_us = cache_us;
    entry.exec_us = exec_us;
    entry.encode_us = encode_us;
    entry.write_us = write_us;
    entry.cache_status = cache_status;
    entry.admission = "admitted";
    entry.response = response_type == MsgType::kOk
                         ? "ok"
                         : parse_error_payload(response_payload).code;
    srv_.slow_log_.emit(entry);
  }
}

// ---------------------------------------------------------------------------
// Reactor: write path
// ---------------------------------------------------------------------------

void Server::Reactor::queue_chunk(Conn& conn, OutChunk chunk) {
  if (chunk.size() == 0) return;
  if (conn.out.empty()) conn.write_deadline_base = Clock::now();
  conn.out_bytes += chunk.size();
  conn.out.push_back(std::move(chunk));
}

void Server::Reactor::respond(Conn& conn, MsgType type,
                              std::string_view payload) {
  OutChunk chunk;
  chunk.owned = encode_frame(type, 0, payload);
  queue_chunk(conn, std::move(chunk));
  update_interest(conn);
}

void Server::Reactor::respond_shared(
    Conn& conn, MsgType type, std::shared_ptr<const std::string> payload) {
  OutChunk header;
  header.owned = encode_frame_header(type, 0, *payload);
  queue_chunk(conn, std::move(header));
  OutChunk body;
  body.view = std::string_view(*payload);
  body.keep = std::move(payload);
  queue_chunk(conn, std::move(body));
  update_interest(conn);
}

void Server::Reactor::respond_slice(Conn& conn,
                                    const Dataset::ArchiveSlice& slice,
                                    std::shared_ptr<const void> keep) {
  // Frame payload = owned 16-byte file header + raw block spans into
  // the mmap'd archive, CRC'd incrementally so nothing is concatenated;
  // the dataset snapshot rides the output queue until the last block
  // byte is flushed.
  std::vector<std::string_view> spans;
  spans.reserve(slice.blocks.size() + 1);
  spans.emplace_back(slice.file_header);
  for (const std::string_view block : slice.blocks) spans.push_back(block);
  OutChunk header;
  header.owned = encode_frame_header(MsgType::kOk, 0, spans);
  queue_chunk(conn, std::move(header));
  OutChunk file_header;
  file_header.owned = slice.file_header;
  queue_chunk(conn, std::move(file_header));
  for (const std::string_view block : slice.blocks) {
    OutChunk chunk;
    chunk.view = block;
    chunk.keep = keep;
    queue_chunk(conn, std::move(chunk));
  }
  update_interest(conn);
}

void Server::Reactor::respond_error(Conn& conn, std::string_view code,
                                    std::string_view message,
                                    bool close_after) {
  if (close_after) conn.close_after_flush = true;
  respond(conn, MsgType::kError, error_payload(code, message));
}

void Server::Reactor::flush_out(Conn& conn) {
  while (conn.out_bytes > 0) {
    iovec iov[kMaxIovec];
    int iovcnt = 0;
    std::size_t skip = conn.out_off;
    for (const OutChunk& chunk : conn.out) {
      if (iovcnt == kMaxIovec) break;
      iov[iovcnt].iov_base = const_cast<char*>(chunk.data() + skip);
      iov[iovcnt].iov_len = chunk.size() - skip;
      ++iovcnt;
      skip = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<decltype(msg.msg_iovlen)>(iovcnt);
    const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      count(kBytesTx, static_cast<std::uint64_t>(n));
      conn.write_deadline_base = Clock::now();
      conn.out_bytes -= static_cast<std::size_t>(n);
      std::size_t left = static_cast<std::size_t>(n);
      while (left > 0) {
        OutChunk& front = conn.out.front();
        const std::size_t avail = front.size() - conn.out_off;
        if (left >= avail) {
          left -= avail;
          conn.out.pop_front();
          conn.out_off = 0;
        } else {
          conn.out_off += left;
          left = 0;
        }
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_conn(conn.fd);
    return;
  }
  if (conn.out_bytes == 0) {
    conn.out.clear();
    conn.out_off = 0;
    if (conn.close_after_flush) {
      close_conn(conn.fd);
      return;
    }
  }
  update_interest(conn);
}

void Server::Reactor::update_interest(Conn& conn) {
  const bool want_read = !conn.close_after_flush;
  const bool want_write = conn.out_bytes > 0;
  poller_.update(conn.fd, want_read, want_write);
}

void Server::Reactor::close_conn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  // The per-connection queue dies with the connection; release what its
  // admitted requests held against this reactor's gates.
  for (const PendingItem& item : it->second.queue) {
    if (!item.shed) {
      pending_count_.fetch_sub(1, std::memory_order_relaxed);
      pending_cost_.fetch_sub(item.cost, std::memory_order_relaxed);
    }
  }
  poller_.remove(fd);
  ::close(fd);
  conns_.erase(it);
  srv_.total_conns_.fetch_sub(1, std::memory_order_relaxed);
}

void Server::Reactor::reap_timeouts(Clock::time_point now) {
  std::vector<int> dead;
  for (const auto& [fd, conn] : conns_) {
    const bool mid_frame = !conn.in.empty() || conn.discard > 0;
    if (mid_frame && srv_.config_.read_timeout_ms > 0 &&
        now - conn.read_deadline_base > ms(srv_.config_.read_timeout_ms)) {
      dead.push_back(fd);
    } else if (conn.out_bytes > 0 && srv_.config_.write_timeout_ms > 0 &&
               now - conn.write_deadline_base >
                   ms(srv_.config_.write_timeout_ms)) {
      dead.push_back(fd);
    }
  }
  for (const int fd : dead) {
    count(kConnsReaped);
    close_conn(fd);
  }
}

int Server::Reactor::next_timeout_ms(Clock::time_point now) const {
  std::int64_t timeout = 1000;  // heartbeat for reap/drain checks
  const auto remaining = [&](Clock::time_point base, int limit_ms) {
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - base)
            .count();
    return static_cast<std::int64_t>(limit_ms) - elapsed;
  };
  for (const auto& [fd, conn] : conns_) {
    if ((!conn.in.empty() || conn.discard > 0) &&
        srv_.config_.read_timeout_ms > 0) {
      timeout = std::min(timeout, remaining(conn.read_deadline_base,
                                            srv_.config_.read_timeout_ms));
    }
    if (conn.out_bytes > 0 && srv_.config_.write_timeout_ms > 0) {
      timeout = std::min(timeout, remaining(conn.write_deadline_base,
                                            srv_.config_.write_timeout_ms));
    }
  }
  if (listener_paused_ && listen_fd_ >= 0) {
    const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
                           accept_rearm_at_ - now)
                           .count();
    timeout = std::min(timeout, std::max<std::int64_t>(until, 0));
  }
  // The live-ingest tick must fire even on an idle server: bound reactor
  // 0's sleep by the poll interval.
  if (index_ == 0 && srv_.config_.live_poll_ms > 0) {
    timeout = std::min(
        timeout, static_cast<std::int64_t>(srv_.config_.live_poll_ms));
  }
  return static_cast<int>(std::max<std::int64_t>(timeout, 0));
}

// ---------------------------------------------------------------------------
// Server: stats and metrics payloads
// ---------------------------------------------------------------------------

std::string Server::stats_payload(const Dataset& dataset) const {
  const ResultCache::Stats cache = cache_stats();
  obs::json::Writer w;
  w.begin_object();
  w.key("type").value("server_stats");
  w.key("server").begin_object();
  w.key("uptime_s").value(uptime_seconds());
  w.key("trace_context").value(true);
  w.key("reactors").value(static_cast<std::uint64_t>(reactors_.size()));
  w.key("reuseport").value(reactors_.size() > 1);
  w.key("active_conns")
      .value(static_cast<std::uint64_t>(
          total_conns_.load(std::memory_order_relaxed)));
  w.key("draining").value(draining_.load(std::memory_order_relaxed));
  w.key("requests").value(total(kRequests));
  w.key("conns_accepted").value(total(kConnsAccepted));
  w.key("conns_reaped").value(total(kConnsReaped));
  w.key("accept_emfile").value(total(kAcceptEmfile));
  w.key("busy_rejected").value(total(kBusyRejected));
  w.key("shed").begin_object();
  w.key("cost").value(total(kShedCost));
  w.key("inflight").value(total(kShedInflight));
  w.key("client").value(total(kShedClient));
  w.key("pending_cost").value(static_cast<std::uint64_t>(pending_cost()));
  w.key("max_pending_cost")
      .value(static_cast<std::uint64_t>(config_.max_pending_cost));
  w.end_object();
  w.key("protocol_errors").value(total(kProtocolErrors));
  w.key("reloads").value(reloads());
  w.key("slow_queries").begin_object();
  w.key("threshold_us")
      .value(static_cast<std::int64_t>(config_.slow_query_us));
  w.key("emitted").value(slow_log_.emitted());
  w.key("suppressed").value(slow_log_.suppressed());
  w.end_object();
  w.key("cache").begin_object();
  w.key("hits").value(cache.hits);
  w.key("misses").value(cache.misses);
  w.key("insertions").value(cache.insertions);
  w.key("evictions").value(cache.evictions);
  w.key("entries").value(cache.entries);
  w.key("bytes").value(cache.bytes);
  w.end_object();
  w.end_object();
  w.key("dataset").begin_object();
  dataset.summary_json(w);
  w.end_object();
  w.end_object();
  return w.str();
}

std::string Server::live_status_payload(const Dataset& dataset) const {
  obs::json::Writer w;
  w.begin_object();
  w.key("type").value("live_status");
  w.key("live").value(dataset.live());
  if (dataset.live()) {
    const live::Watermark& wm = dataset.watermark();
    w.key("watermark_epoch").value(wm.epoch);
    w.key("sealed_bytes").value(wm.sealed_bytes);
    w.key("blocks").value(wm.blocks);
    w.key("records").value(wm.records);
    w.key("ping_epochs")
        .value(static_cast<std::uint64_t>(dataset.ping_epochs()));
    const auto* state = dataset.live_state();
    w.key("pairs_tracked")
        .value(static_cast<std::uint64_t>(state ? state->pairs_tracked() : 0));
    w.key("records_folded").value(state ? state->records_folded() : 0);
    const auto counts = core::count_window_verdicts(
        dataset.pings(), dataset.config().detect,
        dataset.config().detect_min_fraction);
    w.key("assessed_pairs").value(static_cast<std::uint64_t>(counts.assessed));
    w.key("congested_pairs")
        .value(static_cast<std::uint64_t>(counts.consistent));
    // Unsealed bytes sitting past the watermark: the writer's in-flight
    // tail the serving path deliberately cannot see yet.
    struct stat st{};
    if (::stat(dataset.config().archive_path.c_str(), &st) == 0 &&
        static_cast<std::uint64_t>(st.st_size) >= wm.sealed_bytes) {
      w.key("lag_bytes")
          .value(static_cast<std::uint64_t>(st.st_size) - wm.sealed_bytes);
    }
  }
  w.key("delta_pickups").value(live_pickups());
  w.key("poll_ms").value(static_cast<std::int64_t>(config_.live_poll_ms));
  w.end_object();
  return w.str();
}

void Server::export_metrics(std::map<std::string, std::uint64_t>& counters,
                            std::map<std::string, double>& gauges) const {
  static_assert(std::size(kStatNames) == kStatCount);
  for (std::size_t s = 0; s < kStatCount; ++s) {
    counters[kStatNames[s]] = total(static_cast<Stat>(s));
  }
  counters["s2s.svc.reloads"] = reloads();
  for (const auto& [name, slo] : slo_stats()) {
    counters[name + ".good"] = slo.good;
    counters[name + ".total"] = slo.total;
  }
  const ResultCache::Stats cache = cache_stats();
  counters["s2s.svc.cache_hits"] = cache.hits;
  counters["s2s.svc.cache_misses"] = cache.misses;
  counters["s2s.svc.cache_insertions"] = cache.insertions;
  counters["s2s.svc.cache_evictions"] = cache.evictions;
  gauges["s2s.svc.cache_entries"] = static_cast<double>(cache.entries);
  gauges["s2s.svc.cache_bytes"] = static_cast<double>(cache.bytes);
  gauges["s2s.svc.active_conns"] =
      static_cast<double>(total_conns_.load(std::memory_order_relaxed));
  gauges["s2s.svc.pending_cost"] = static_cast<double>(pending_cost());
  gauges["s2s.svc.uptime_s"] = uptime_seconds();
  gauges["s2s.svc.reactors"] = static_cast<double>(reactors_.size());
  const std::shared_ptr<const Dataset> snap = dataset_snapshot();
  if (snap) snap->export_metrics(counters);
  if (snap && snap->live()) {
    const auto* state = snap->live_state();
    counters["s2s.live.delta_pickups"] = live_pickups();
    counters["s2s.live.records_folded"] = state ? state->records_folded() : 0;
    gauges["s2s.live.watermark_epoch"] =
        static_cast<double>(snap->watermark().epoch);
    gauges["s2s.live.sealed_bytes"] =
        static_cast<double>(snap->watermark().sealed_bytes);
    gauges["s2s.live.pairs"] =
        static_cast<double>(state ? state->pairs_tracked() : 0);
  }
}

std::string Server::metrics_dump_payload(std::uint8_t format) const {
  auto snap = obs::MetricsRegistry::global().snapshot();
  export_metrics(snap.counters, snap.gauges);
  const auto windowed = windowed_snapshots();
  const auto slo = slo_stats();

  if (format == MetricsDumpQuery::kPrometheus) {
    return obs::to_prometheus_text(snap, windowed, slo);
  }

  obs::json::Writer w;
  w.begin_object();
  w.key("type").value("metrics_dump");
  w.key("uptime_s").value(uptime_seconds());
  w.key("counters").begin_object();
  for (const auto& [name, v] : snap.counters) w.key(name).value(v);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, v] : snap.gauges) w.key(name).value(v);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : snap.histograms) {
    w.key(name).begin_object();
    w.key("total").value(h.total);
    w.key("overflow").value(h.overflow());
    w.key("p50").value(h.quantile(0.50));
    w.key("p99").value(h.quantile(0.99));
    w.end_object();
  }
  w.end_object();
  w.key("windowed").begin_object();
  for (const auto& [name, win] : windowed) {
    w.key(name).begin_object();
    w.key("window_s").value(win.window_s);
    w.key("total").value(win.hist.total);
    w.key("p50").value(win.hist.quantile(0.50));
    w.key("p99").value(win.hist.quantile(0.99));
    w.end_object();
  }
  w.end_object();
  w.key("slo").begin_object();
  for (const auto& [name, s] : slo) {
    w.key(name).begin_object();
    w.key("threshold_us").value(s.threshold_us);
    w.key("good").value(s.good);
    w.key("total").value(s.total);
    w.key("good_ratio").value(s.good_ratio());
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace s2s::svc
