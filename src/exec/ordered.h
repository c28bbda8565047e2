// Ordered pipeline: parallel prepare, serial commit in index order.
//
// Some work splits into a pure, per-item half and an order-dependent
// half: decoding an archive block and deriving each record's store key
// is independent of every other block, but folding the records into the
// stores must follow archive order (dedup windows, reorder watermarks,
// first-seen interning ids). ordered_pipeline runs the pure half of
// items [0, n) on every lane of a pool and the ordered half on the
// calling thread alone, strictly in index order:
//
//   * a lane claims the next item, waits until the bounded ring has a
//     free slot for it (at most two per lane are prepared ahead of the
//     commit cursor), prepares it into that slot and marks it ready;
//   * the calling thread is a lane too, and between its own prepares it
//     commits every ready slot from the cursor on, so the commit
//     sequence is 0, 1, 2, ... whichever lane prepared what.
//
// Because commit(i) always sees exactly the effects of commit(0..i-1),
// the committed state is identical at any width; width 1 is the inline
// loop prepare(0) commit(0) prepare(1) commit(1) ... on the caller.
// Commits stay on the caller's thread (and so in its malloc arena):
// whatever the stores allocate is laid out as a serial load would.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <vector>

#include "exec/pool.h"

namespace s2s::exec {

/// Runs prepare(i, slot) for every i in [0, n) on up to `pool`'s lanes
/// and commit(i, slot) on the calling thread in ascending i, each item
/// in the same Slot its prepare filled. Slots are reused round-robin
/// (two per lane), so prepare must overwrite whatever a slot held. `pool` null or of width 1, or n <= 1, runs the
/// inline serial loop. The first exception from either half stops the
/// pipeline and is rethrown once every lane has returned.
template <typename Slot, typename Prepare, typename Commit>
void ordered_pipeline(ThreadPool* pool, std::size_t n, Prepare&& prepare,
                      Commit&& commit) {
  const std::size_t width =
      pool == nullptr ? 1 : std::min<std::size_t>(pool->thread_count(), n);
  if (width <= 1) {
    Slot slot;
    for (std::size_t i = 0; i < n; ++i) {
      prepare(i, slot);
      commit(i, slot);
    }
    return;
  }
  const std::size_t ring = 2 * width;

  struct Shared {
    std::vector<Slot> slots;
    /// ready[k] == i + 1 once item i is prepared into slot k.
    std::vector<std::atomic<std::size_t>> ready;
    std::atomic<std::size_t> next{0};       ///< claim cursor
    std::atomic<std::size_t> committed{0};  ///< items committed
    /// Bumped when an item turns ready, when `committed` advances and
    /// when the pipeline fails; waiting lanes sleep on it.
    std::atomic<std::uint32_t> progress{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr error;

    explicit Shared(std::size_t ring) : slots(ring), ready(ring) {
      for (auto& r : ready) r.store(0, std::memory_order_relaxed);
    }
  } s(ring);

  const auto bump = [&] {
    s.progress.fetch_add(1);
    s.progress.notify_all();
  };
  const auto fail = [&] {
    {
      const std::lock_guard<std::mutex> lock(s.error_mutex);
      if (!s.error) s.error = std::current_exception();
    }
    s.failed.store(true);
    bump();
  };
  // Caller only: commits every ready item from the cursor on.
  const auto commit_ready = [&] {
    std::size_t c = s.committed.load();
    const std::size_t start = c;
    try {
      while (c < n && s.ready[c % ring].load() == c + 1) {
        commit(c, s.slots[c % ring]);
        s.committed.store(++c);
      }
    } catch (...) {
      fail();
    }
    if (c != start) bump();
  };
  // Sleeps until `done()` holds or the pipeline fails; the caller keeps
  // committing while it waits, since every other lane waits on it.
  const auto wait_until = [&](bool caller, auto&& done) {
    for (;;) {
      const std::uint32_t seen = s.progress.load();
      if (caller) commit_ready();
      if (s.failed.load() || done()) return;
      s.progress.wait(seen);
    }
  };
  const auto lane = [&](std::size_t lane_index) {
    const bool caller = lane_index == 0;  // ThreadPool::run's guarantee
    for (;;) {
      if (s.failed.load()) return;
      const std::size_t i = s.next.fetch_add(1);
      if (i >= n) break;
      // Slot i % ring is free once item i - ring is committed.
      wait_until(caller, [&] { return i < s.committed.load() + ring; });
      if (s.failed.load()) return;
      try {
        prepare(i, s.slots[i % ring]);
      } catch (...) {
        fail();
        return;
      }
      s.ready[i % ring].store(i + 1);
      if (!caller) bump();
    }
    if (caller) wait_until(true, [&] { return s.committed.load() == n; });
  };
  pool->run(width, lane);
  if (s.error) std::rethrow_exception(s.error);
}

}  // namespace s2s::exec
