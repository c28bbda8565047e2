// faultsim::ChaosProxy — a deterministic in-process TCP fault injector
// for the serving path (DESIGN.md section 12).
//
// PR 1 gave the *offline* pipeline seeded fault injection with exact
// ground-truth accounting; this is the same discipline for the live
// daemon↔client path. The proxy is a byte-level TCP relay: clients
// connect to its listen port, it opens one upstream connection per
// client, and every forwarded chunk may be mutated by a seeded draw.
// Because the draws come from one stats::Rng and every injected fault
// is counted in ChaosStats at the moment of injection, a chaos run is
// reproducible and a test can assert *exact* equality between the
// faults the proxy injected and the failures the retrying client
// observed — not "some errors happened".
//
// Fault taxonomy (each independently drawn per forwarded chunk unless
// noted; a "chunk" is one recv() worth of bytes, so with a serial
// request/response client one chunk is one frame):
//
//   latency + jitter      hold each chunk for latency_ms + U[0,jitter)
//   bandwidth cap         token bucket per direction; chunks queue
//   byte corruption       flip one random byte of the chunk
//   mid-frame truncation  forward a strict prefix, then close the pair
//   connection reset      drop the chunk and close the pair immediately
//   half-open stall       stop forwarding this direction; sockets stay
//                         open (the client's only escape is a timeout)
//   accept blackout       the first `blackout_first_conns` accepted
//                         connections are closed before any byte flows
//                         (deterministic, so reconnect storms can be
//                         counted exactly)
//   deterministic stall   `stall_first_conns` stalls the first N
//                         connections' upstream->client direction (for
//                         hedging tests that need attempt #1 to hang)
//
// The proxy runs its event loop (poll-based, portable) on a thread of
// its own: start() binds and spawns it, stop() drains and joins. Stats
// are atomics, safe to read live; export_metrics() writes them as
// s2s.chaos.* counters into a RunReport.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>

#include "stats/rng.h"

namespace s2s::faultsim {

struct ChaosConfig {
  std::uint64_t seed = 99;

  std::string upstream_host = "127.0.0.1";
  std::uint16_t upstream_port = 0;
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; see ChaosProxy::port()

  /// Base one-way delay applied to every forwarded chunk, plus uniform
  /// jitter in [0, jitter_ms).
  int latency_ms = 0;
  int jitter_ms = 0;
  /// Per-direction bandwidth cap in bytes/second (0 = uncapped).
  std::size_t bytes_per_sec = 0;

  // Per-chunk fault probabilities, drawn in this order: reset, truncate,
  // stall, corrupt. At most one of reset/truncate/stall fires per chunk.
  double reset_prob = 0.0;
  double truncate_prob = 0.0;
  double stall_prob = 0.0;
  double corrupt_prob = 0.0;

  /// Close the first N accepted connections before forwarding anything.
  std::size_t blackout_first_conns = 0;
  /// Stall the upstream->client direction of the first N (non-blacked-
  /// out) connections from the start — attempt #1 hangs, a hedge wins.
  std::size_t stall_first_conns = 0;

  std::size_t max_connections = 256;
  /// Event-loop quantum when chunks are waiting on release times.
  int tick_ms = 2;
};

/// Ground truth of what was injected; every field is incremented at the
/// moment the corresponding fault is applied.
struct ChaosStats {
  std::uint64_t connections = 0;       ///< accepted and relayed
  std::uint64_t blackouts = 0;         ///< accepted then closed unserved
  std::uint64_t chunks_forwarded = 0;  ///< includes corrupted chunks
  std::uint64_t bytes_forwarded = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t truncated = 0;
  std::uint64_t resets = 0;
  std::uint64_t stalls = 0;
  std::uint64_t delayed_chunks = 0;    ///< held for latency/bandwidth
  /// Injected faults a client can observe as a failed attempt: the sum
  /// the chaos tests compare against client retry counters.
  std::uint64_t failure_faults() const {
    return blackouts + truncated + resets + stalls;
  }
};

class ChaosProxy {
 public:
  explicit ChaosProxy(const ChaosConfig& config);
  ~ChaosProxy();
  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  /// Binds the listen socket and spawns the relay thread.
  bool start(std::string& error);
  /// Closes every connection and joins the thread. Idempotent.
  void stop();

  std::uint16_t port() const noexcept { return port_; }
  bool running() const noexcept { return running_.load(); }
  ChaosStats stats() const;
  /// Writes stats() into `counters` under the s2s.chaos.* names (every
  /// field but chunks_forwarded and delayed_chunks). Safe while running.
  void export_metrics(std::map<std::string, std::uint64_t>& counters) const;

 private:
  void run();

  ChaosConfig config_;
  stats::Rng rng_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> blackouts_{0};
  std::atomic<std::uint64_t> chunks_forwarded_{0};
  std::atomic<std::uint64_t> bytes_forwarded_{0};
  std::atomic<std::uint64_t> corrupted_{0};
  std::atomic<std::uint64_t> truncated_{0};
  std::atomic<std::uint64_t> resets_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> delayed_chunks_{0};
};

}  // namespace s2s::faultsim
