#include "exec/pool.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <deque>
#include <string>

#include "obs/log.h"

namespace s2s::exec {

unsigned hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

namespace {

/// Sanity ceiling for S2S_THREADS: large values are typos or overflow,
/// not a real machine, and each worker pins a stack.
constexpr long kMaxEnvThreads = 4096;

/// Warns once per bad value: a value among the last few distinct ones
/// already warned is quiet, so a hot loop resolving pools cannot flood
/// the log, while a new value always warns and memory stays bounded.
void warn_bad_threads_env(const char* value) {
  static std::mutex mutex;
  static std::deque<std::string> recent;
  const std::lock_guard<std::mutex> lock(mutex);
  if (std::find(recent.begin(), recent.end(), value) != recent.end()) return;
  if (recent.size() == 8) recent.pop_front();
  recent.emplace_back(value);
  obs::logf(obs::LogLevel::kWarn,
            "S2S_THREADS=\"%s\" is not a positive integer <= %ld; "
            "falling back to hardware concurrency (%u)",
            value, kMaxEnvThreads, hardware_threads());
}

}  // namespace

unsigned resolve_thread_count(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("S2S_THREADS")) {
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && errno != ERANGE && parsed > 0 &&
        parsed <= kMaxEnvThreads) {
      return static_cast<unsigned>(parsed);
    }
    warn_bad_threads_env(env);
  }
  return hardware_threads();
}

ThreadPool::ThreadPool(unsigned threads)
    : threads_(resolve_thread_count(threads)) {
  tasks_ = obs::MetricsRegistry::global().counter("s2s.exec.tasks");
  workers_.reserve(threads_ - 1);
  for (unsigned i = 0; i + 1 < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::execute(const std::function<void(std::size_t)>& fn,
                         std::size_t i) {
  try {
    fn(i);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  tasks_.inc();
}

void ThreadPool::drain(const std::function<void(std::size_t)>& fn,
                       std::size_t n) {
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    execute(fn, i);
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_serial = 0;
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || (fn_ != nullptr && batch_serial_ != seen_serial);
      });
      if (shutdown_) return;
      seen_serial = batch_serial_;
      fn = fn_;
      n = n_;
    }
    drain(*fn, n);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++completed_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::run(std::size_t n,
                     const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (threads_ == 1 || n == 1) {
    // Exact serial path: index order, no synchronization.
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
      tasks_.inc();
    }
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    n_ = n;
    next_.store(1, std::memory_order_relaxed);  // index 0 is the caller's
    completed_ = 0;
    first_error_ = nullptr;
    ++batch_serial_;
  }
  work_cv_.notify_all();
  execute(fn, 0);
  drain(fn, n);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return completed_ == workers_.size(); });
    fn_ = nullptr;
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

namespace {

std::mutex& lease_mutex() {
  static std::mutex mutex;
  return mutex;
}

}  // namespace

PoolLease::PoolLease() {
  if (!lease_mutex().try_lock()) return;
  static ThreadPool shared(resolve_thread_count());
  pool_ = &shared;
}

PoolLease::~PoolLease() {
  if (pool_ != nullptr) lease_mutex().unlock();
}

}  // namespace s2s::exec
