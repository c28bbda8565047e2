// s2sd's non-blocking TCP serving tier: N reactor threads, each a
// self-contained event loop multiplexing its own connections through
// epoll. The shape follows the per-CPU sharding idiom of kernel net
// drivers: shared-nothing on the hot path, batched syscalls at the
// edges.
//
// Accept sharding (DESIGN.md section 14): with more than one reactor,
// every reactor owns its own SO_REUSEPORT listener bound to the same
// address, and the kernel hashes incoming connections across them. A
// 1-reactor server keeps an exclusive listener.
//
// Per-connection state machine (DESIGN.md section 11):
//
//   reading header -> reading payload -> executing -> writing response
//
// with a read deadline on partially received frames (slow-loris reap), a
// write deadline on stalled response flushes, a bounded request size
// (oversized payloads are drained and answered with an error frame, the
// connection survives), and cost-based admission control on parsed-but-
// unexecuted requests (DESIGN.md section 12), applied per reactor: each
// request type carries a cost weight (figure-digest >> ping), and a
// request is shed with a `busy` error frame — carrying a retry_after_ms
// hint — when the reactor's pending-cost budget, pending-count cap, or
// the per-connection queue bound would be exceeded. Shed decisions are
// made at parse time but answered in arrival order. Admitted requests
// drain round-robin across the reactor's connections (per-client fair
// queueing). A frame whose magic or version is wrong leaves the stream
// unframeable: the server answers with an error frame and closes after
// flushing. A frame with a bad CRC or unknown type has a trusted
// length, so it is skipped and the connection survives.
//
// Responses are queued as scatter-gather chunks and flushed with one
// sendmsg per readiness: the 16-byte frame header and the payload go
// out in a single syscall without concatenation, and payloads that
// already live in shared storage — result-cache hits, archive-slice
// spans into the mmap'd archive — are written zero-copy, pinned by a
// shared_ptr on the output queue until the bytes leave the socket.
//
// Each reactor owns a ResultCache instance (connection affinity makes
// per-reactor caches coherent: a client's repeat query lands on the
// reactor that cached it; at worst a key is computed once per reactor).
// The dataset is shared read-only through an RCU-style shared_ptr
// snapshot: every request acquires the snapshot once, so digest and
// execution always see one coherent dataset, and a SIGHUP reload builds
// a fresh Dataset off-loop and publishes it with a pointer swap —
// in-flight requests (and zero-copy slices) keep the old one alive.
//
// Shutdown is a drain, not an abort: request_drain() (what the SIGTERM
// handler calls; async-signal-safe wake pipes) stops accepting and
// reading, executes every parsed request, flushes every response within
// the write deadline. Every reactor quiesces before serve() closes the
// listeners — the socket stays accept()-able until the last in-flight
// response has been flushed.
//
// Accept failures are not all transient: EMFILE/ENFILE means the
// process is out of fds, and a level-triggered poller would busy-spin
// on the still-readable listener. The reactor unwatches its listener,
// counts s2s.svc.accept_emfile, and re-arms after accept_rearm_ms.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exec/pool.h"
#include "obs/metrics.h"
#include "obs/windowed.h"
#include "svc/dataset.h"
#include "svc/protocol.h"
#include "svc/result_cache.h"
#include "svc/slow_log.h"

namespace s2s::svc {

struct ServerConfig {
  /// Bind address; an address containing ':' listens on AF_INET6 ("::"
  /// with V6ONLY off accepts v4-mapped peers too — dual stack).
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; see Server::port()
  std::size_t max_request_bytes = kDefaultMaxRequestBytes;
  /// Per-reactor parsed-but-unexecuted request cap (count gate).
  std::size_t max_inflight = 64;
  /// Per-reactor pending-cost budget in request_cost() units (0 =
  /// count-only admission). An empty queue always admits one request
  /// regardless of its cost, so expensive queries make progress under
  /// any budget.
  std::size_t max_pending_cost = 4096;
  /// Per-connection bound on admitted-but-unexecuted requests
  /// (0 = unbounded); the fair-queue depth one client may hold.
  std::size_t max_client_pending = 32;
  /// Base retry-after hint attached to busy sheds; the advertised value
  /// scales with how full the pending-cost budget is (base..2x base).
  int busy_retry_after_ms = 25;
  int read_timeout_ms = 5000;
  int write_timeout_ms = 5000;
  /// Event-loop threads. Each runs its own poller, connections, and
  /// result cache; 1 reproduces the single-loop server exactly (the
  /// loop runs inline on the serve() caller, no threads spawned).
  std::size_t reactors = 1;
  /// How long a reactor keeps its listener unwatched after an
  /// EMFILE/ENFILE accept failure before re-arming.
  int accept_rearm_ms = 100;
  std::size_t cache_bytes = 64u << 20;  ///< split across reactors

  // -- Serving-path observability (DESIGN.md section 13) --

  /// Slow-query log threshold on end-to-end latency (admission to
  /// response-queued), microseconds; 0 disables the log.
  std::int64_t slow_query_us = 0;
  /// Windowed latency view width.
  int window_seconds = 60;
  /// Per-type latency SLO threshold (end-to-end, milliseconds); feeds
  /// the good/total counters surfaced by kMetricsDump and the report.
  double slo_ms = 50.0;

  // -- Live ingest (DESIGN.md section 16) --

  /// Delta-pickup poll interval for open-shard archives: every N ms
  /// reactor 0 re-reads the watermark sidecar and, when it advanced,
  /// folds just the newly sealed tail into a cloned dataset and
  /// publishes it RCU-style — no SIGHUP, no full reload. 0 disables
  /// polling (a live archive then only advances on explicit reload).
  int live_poll_ms = 0;
};

class Server {
 public:
  Server(Dataset& dataset, exec::ThreadPool* pool, const ServerConfig& config);
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens (one SO_REUSEPORT listener per reactor when
  /// there is more than one). After success port() is the actual port.
  bool start(std::string& error);
  std::uint16_t port() const noexcept { return port_; }

  /// Runs the reactors until a drain completes: reactors 1..N-1 on
  /// spawned threads, reactor 0 inline on the caller. Returns after
  /// every reactor has quiesced and the listeners are closed.
  void serve();

  /// Async-signal-safe: request a graceful drain / an archive reload.
  void request_drain();
  void request_reload();

  std::size_t reactor_count() const noexcept { return reactors_.size(); }
  /// Per-reactor accepted-connection counts (the reuseport spread is
  /// test-observable through this).
  std::vector<std::uint64_t> reactor_accepted() const;

  /// Aggregates across all reactors. Safe concurrently with serving.
  ResultCache::Stats cache_stats() const;
  std::uint64_t requests_served() const { return total(kRequests); }
  std::uint64_t connections_reaped() const { return total(kConnsReaped); }
  std::uint64_t accept_emfile() const { return total(kAcceptEmfile); }
  std::uint64_t reloads() const noexcept {
    return reloads_.load(std::memory_order_relaxed);
  }
  /// Delta pickups published so far (live archives only).
  std::uint64_t live_pickups() const noexcept {
    return live_pickups_.load(std::memory_order_relaxed);
  }

  /// Seconds since start() succeeded (steady clock).
  double uptime_seconds() const;
  /// Last-N-seconds latency views, keyed "s2s.svc.windowed_us.<type>".
  /// Safe concurrently with the serving loop.
  std::map<std::string, obs::WindowedSnapshot> windowed_snapshots() const;
  /// SLO good/total counters, keyed "s2s.svc.slo.<type>". Safe
  /// concurrently with the serving loop.
  std::map<std::string, obs::SloStat> slo_stats() const;

  /// Writes this server's serving facts into a metrics snapshot's (or a
  /// RunReport's) maps under their s2s.svc.* names: the reactor
  /// counters, reloads, slow-query emitted/suppressed, SLO good/total,
  /// cache totals, and the active_conns / pending_cost / uptime_s /
  /// reactors / cache gauges.
  /// It adds the served snapshot's load facts (Dataset::export_metrics:
  /// s2s.timeline.*, s2s.ping_store.*, s2s.io.*). While that snapshot is
  /// a live shard it writes the s2s.live.* facts too; their presence is
  /// the "this server is live-ingesting" signal tools key off. Values
  /// are this server's and its snapshot's own (DESIGN.md section 13).
  /// Safe concurrently with serving.
  void export_metrics(std::map<std::string, std::uint64_t>& counters,
                      std::map<std::string, double>& gauges) const;

 private:
  using Clock = std::chrono::steady_clock;

  /// The facts each reactor counts, indexing Reactor::stats_ (names in
  /// server.cc's kStatNames, in this order).
  enum Stat : std::size_t {
    kRequests,
    kConnsAccepted,
    kConnsReaped,
    kAcceptEmfile,
    kBusyRejected,
    kShedCost,
    kShedInflight,
    kShedClient,
    kProtocolErrors,
    kBytesRx,
    kBytesTx,
    kStatCount
  };
  /// Sum of one Stat across reactors.
  std::uint64_t total(Stat stat) const;

  /// One parsed request awaiting its turn, or a shed marker. Shed
  /// markers keep rejected requests in arrival order: the busy frame is
  /// emitted when the queue drains, never ahead of earlier answers.
  struct PendingItem {
    MsgType type = MsgType::kPingEcho;
    std::uint8_t flags = 0;
    std::string payload;       ///< request payload; error payload if shed
    std::uint32_t cost = 0;    ///< admission units held (0 when shed)
    bool shed = false;
    /// Client trace context (0/0 when the request carried none); the
    /// prefix was already stripped from `payload`.
    std::uint64_t trace_id = 0;
    std::uint64_t parent_span_id = 0;
    Clock::time_point admit_time;  ///< when admission queued the item
  };

  /// One scatter-gather segment of a connection's output queue: either
  /// owned bytes, or a zero-copy view pinned by `keep` (a cache entry
  /// or a dataset snapshot) until the bytes are flushed.
  struct OutChunk {
    std::string owned;
    std::string_view view{};
    std::shared_ptr<const void> keep;
    const char* data() const noexcept {
      return keep ? view.data() : owned.data();
    }
    std::size_t size() const noexcept {
      return keep ? view.size() : owned.size();
    }
  };

  struct Conn {
    int fd = -1;
    std::string in;            ///< received, not yet parsed
    std::size_t discard = 0;   ///< oversized payload bytes left to drain
    std::deque<OutChunk> out;  ///< queued response segments
    std::size_t out_off = 0;   ///< sent bytes of out.front()
    std::size_t out_bytes = 0; ///< total unsent bytes across out
    std::deque<PendingItem> queue;  ///< admitted + shed, arrival order
    Clock::time_point read_deadline_base;   ///< last read progress
    Clock::time_point write_deadline_base;  ///< last write progress
    bool close_after_flush = false;
  };

  /// Minimal level-triggered readiness poller over epoll.
  class Poller {
   public:
    struct Event {
      int fd = -1;
      bool readable = false;
      bool writable = false;
      bool error = false;
    };

    Poller();
    ~Poller();
    Poller(const Poller&) = delete;
    Poller& operator=(const Poller&) = delete;
    bool ok() const noexcept { return epfd_ >= 0; }
    void add(int fd, bool want_read, bool want_write);
    void update(int fd, bool want_read, bool want_write);
    void remove(int fd);
    void wait(std::vector<Event>& out, int timeout_ms);

   private:
    int epfd_ = -1;
  };

  /// One event-loop shard: poller, connections, admission gates, and a
  /// result cache of its own. All members are single-threaded except
  /// the stat atomics, which other reactors read for the metrics dump.
  class Reactor {
   public:
    Reactor(Server& server, std::size_t index);
    ~Reactor();
    Reactor(const Reactor&) = delete;
    Reactor& operator=(const Reactor&) = delete;

    /// The event loop; returns once a drain completes. Leaves the
    /// listener fd open (Server::serve closes listeners after ALL
    /// reactors have quiesced).
    void run();
    void wake();  ///< async-signal-safe

    Server& srv_;
    const std::size_t index_;
    int listen_fd_ = -1;
    int wake_pipe_[2] = {-1, -1};
    Poller poller_;
    std::unordered_map<int, Conn> conns_;
    ResultCache cache_;

    /// Single writer (the reactor), relaxed readers (stats and the
    /// metrics export from any thread).
    std::atomic<std::size_t> pending_count_{0};
    std::atomic<std::size_t> pending_cost_{0};
    std::array<std::atomic<std::uint64_t>, kStatCount> stats_{};
    void count(Stat stat, std::uint64_t n = 1) {
      stats_[stat].fetch_add(n, std::memory_order_relaxed);
    }

    /// Listener paused after EMFILE/ENFILE; re-armed on a timer.
    bool listener_paused_ = false;
    Clock::time_point accept_rearm_at_;

   private:
    void accept_ready();
    void adopt_fd(int fd);
    void handle_readable(Conn& conn);
    void parse_frames(Conn& conn);
    void admit_request(Conn& conn, MsgType type, std::uint8_t flags,
                       std::string_view payload, const TraceContext& trace);
    void execute_pending();
    void execute_one(int fd, const PendingItem& item);
    bool queues_empty() const;
    /// Appends one output segment, arming the write deadline when the
    /// queue was empty.
    void queue_chunk(Conn& conn, OutChunk chunk);
    void respond(Conn& conn, MsgType type, std::string_view payload);
    /// Zero-copy response: header chunk + a view of the shared payload.
    void respond_shared(Conn& conn, MsgType type,
                        std::shared_ptr<const std::string> payload);
    void respond_slice(Conn& conn, const Dataset::ArchiveSlice& slice,
                       std::shared_ptr<const void> keep);
    void respond_error(Conn& conn, std::string_view code,
                       std::string_view message, bool close_after);
    void flush_out(Conn& conn);
    void update_interest(Conn& conn);
    void close_conn(int fd);
    void pause_listener();
    void maybe_rearm_listener(Clock::time_point now);
    void reap_timeouts(Clock::time_point now);
    int next_timeout_ms(Clock::time_point now) const;
    void finish_request(const PendingItem& item, std::int64_t total_us,
                        std::int64_t queue_us, std::int64_t cache_us,
                        std::int64_t exec_us, std::int64_t encode_us,
                        std::int64_t write_us, const char* cache_status,
                        MsgType response_type, std::string_view response_payload);
  };

  /// Opens one non-blocking listener on bind_address:port. `reuseport`
  /// requests SO_REUSEPORT before bind; `port` is updated from
  /// getsockname (resolves port 0). Returns -1 with `error` set on
  /// failure.
  int open_listener(std::uint16_t& port, bool reuseport, std::string& error);

  /// RCU-style dataset snapshot: acquired once per request, published
  /// by do_reload(). The initial snapshot aliases the caller-owned
  /// Dataset (non-owning); reloaded snapshots own their Dataset.
  std::shared_ptr<const Dataset> dataset_snapshot() const;
  void do_reload();
  /// Reactor 0's live-ingest tick: time-gated watermark poll; on
  /// advance, clone_advanced() off the current snapshot and publish.
  void maybe_live_advance();
  std::size_t pending_cost() const;
  /// kMetricsDump response body for the given format selector.
  std::string metrics_dump_payload(std::uint8_t format) const;

  Dataset& dataset_;
  exec::ThreadPool* pool_;
  ServerConfig config_;

  mutable std::mutex dataset_mutex_;  ///< guards dataset_current_ swap
  std::shared_ptr<const Dataset> dataset_current_;
  /// exec::ThreadPool::run is single-batch; reactors serialize pooled
  /// figure executions through this (cheap relative to the study).
  std::mutex pool_mutex_;

  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::uint16_t port_ = 0;
  std::atomic<bool> draining_{false};
  std::atomic<bool> reload_pending_{false};
  std::atomic<std::size_t> total_conns_{0};
  std::atomic<std::uint64_t> reloads_{0};
  std::atomic<std::uint64_t> live_pickups_{0};
  /// Only touched by reactor 0 (the live-ingest tick owner).
  Clock::time_point next_live_poll_{};

  Clock::time_point start_time_ = Clock::now();

  /// The latency record of one request type. The lifetime histogram
  /// s2s.svc.latency_us.<type> (kept in the registry: it has no typed
  /// twin) times dequeue to the response computed: cache lookup or
  /// execution, not encode or write. The windowed view
  /// s2s.svc.windowed_us.<type> and the SLO counters
  /// s2s.svc.slo.<type>.{good,total} time admission to flush. Every
  /// write is a relaxed atomic, so any thread may read while the
  /// reactors serve.
  struct TypeLatency {
    TypeLatency(MsgType type, const ServerConfig& config);
    const MsgType type;
    const obs::Histogram lifetime;
    obs::WindowedHistogram windowed;
    const double slo_threshold_us;
    std::atomic<std::uint64_t> slo_good{0};
    std::atomic<std::uint64_t> slo_total{0};
  };
  static constexpr std::size_t kRequestTypes =
      static_cast<std::size_t>(MsgType::kArchiveSlice);
  /// One record per request type, MsgType 0x01-0x09 at index type - 1;
  /// the retired 0x07 slot stays null. The reader admits no other type
  /// (is_request).
  std::array<std::unique_ptr<TypeLatency>, kRequestTypes> latency_;
  TypeLatency& latency_of(MsgType type) {
    return *latency_[static_cast<std::size_t>(type) - 1];
  }

  SlowQueryLog slow_log_;  ///< internally synchronized
};

}  // namespace s2s::svc
