// Chunked thread pool for the pair-level analysis passes.
//
// The paper's analyses (Sections 4-6) are embarrassingly parallel over
// server pairs: per-pair FFT congestion detection, per-pair segment
// correlation, per-pair dual-stack RTT deltas. The pool runs an index
// space [0, n) across persistent worker threads; indices are claimed
// dynamically through an atomic cursor, so an expensive shard (one pair
// with a long series) never stalls the cheap ones behind a static
// partition.
//
// Thread-count policy ("ThreadCount"): an explicit request wins; 0 means
// auto — the S2S_THREADS environment variable if set to a positive
// integer, otherwise std::thread::hardware_concurrency(). A pool of 1 is
// the exact serial path: run() executes inline on the caller in index
// order with no workers, no handoff, and no synchronization, so the
// single-threaded configuration is byte-for-byte the code the tests
// golden-compare against.
//
// Determinism contract: the pool guarantees only that every index runs
// exactly once and run() returns after all of them finished. Callers that
// need thread-count-independent output shard their key space with a FIXED
// shard count, compute per-shard partial aggregates, and merge them in
// shard order after run() returns — see exec/parallel_for.h and
// DESIGN.md section 9.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace s2s::exec {

/// std::thread::hardware_concurrency(), never 0.
unsigned hardware_threads();

/// Resolves the effective worker count: `requested` if positive, else the
/// S2S_THREADS environment variable, else hardware_threads(). Always >= 1.
/// S2S_THREADS must be a positive integer no larger than 4096; anything
/// else (non-numeric, zero, negative, overflow) is rejected with a
/// bounded log warning and falls back to hardware_threads().
unsigned resolve_thread_count(unsigned requested = 0);

class ThreadPool {
 public:
  /// `threads` is passed through resolve_thread_count(); the pool spawns
  /// threads-1 persistent workers (the caller of run() is the last lane).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned thread_count() const noexcept { return threads_; }

  /// Runs fn(i) for every i in [0, n) and blocks until all completed.
  /// With thread_count() == 1 (or n <= 1) this is an inline loop on the
  /// calling thread; otherwise index 0 always runs on the calling thread
  /// (exec::ordered_pipeline's committer relies on that) and the rest
  /// are claimed by whichever lane is free. A task that throws poisons the batch: remaining
  /// indices still run (workers cannot abandon claimed work safely), and
  /// the first exception is rethrown to the run() caller. Not reentrant:
  /// run() must not be called from inside a task of the same pool.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  /// Claims and executes indices of the current batch until exhausted.
  void drain(const std::function<void(std::size_t)>& fn, std::size_t n);
  /// Runs fn(i), recording a throw as the batch's error if it is first.
  void execute(const std::function<void(std::size_t)>& fn, std::size_t i);

  const unsigned threads_;
  obs::Counter tasks_;  ///< s2s.exec.tasks, one per executed index

  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers wait for a new batch
  std::condition_variable done_cv_;  ///< run() waits for batch completion
  std::uint64_t batch_serial_ = 0;   ///< bumps once per run() call
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;
  std::atomic<std::size_t> next_{0};   ///< claim cursor for the batch
  std::size_t completed_ = 0;          ///< guarded by mutex_
  std::exception_ptr first_error_;     ///< guarded by mutex_
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// Exclusive use of the process-wide pipeline pool: resolve_thread_count()
/// lanes, created on first use and shared by every load in the process.
/// A lease taken while another is held gets no pool, and its caller runs
/// at width 1 — concurrent loads never queue behind each other.
class PoolLease {
 public:
  PoolLease();
  ~PoolLease();
  PoolLease(const PoolLease&) = delete;
  PoolLease& operator=(const PoolLease&) = delete;

  /// The pool, or null when another lease holds it.
  ThreadPool* pool() const noexcept { return pool_; }

 private:
  ThreadPool* pool_ = nullptr;
};

}  // namespace s2s::exec
