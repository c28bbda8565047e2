#include "obs/windowed.h"

#include <algorithm>
#include <chrono>

namespace s2s::obs {

namespace {

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

WindowedHistogram::WindowedHistogram(std::vector<double> bounds,
                                     int window_seconds, int slots,
                                     ClockFn clock)
    : clock_(clock ? std::move(clock) : ClockFn(&steady_now_ms)) {
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  bounds_ = std::move(bounds);
  slot_count_ = std::max(slots, 1);
  window_seconds = std::max(window_seconds, 1);
  slot_ms_ = std::max<std::int64_t>(
      static_cast<std::int64_t>(window_seconds) * 1000 / slot_count_, 1);
  slots_.reserve(static_cast<std::size_t>(slot_count_));
  for (int i = 0; i < slot_count_; ++i) {
    slots_.push_back(std::make_unique<Slot>(bounds_.size() + 1));
  }
}

void WindowedHistogram::record(double v) {
  const std::int64_t tick = now_tick();
  Slot& slot = *slots_[static_cast<std::size_t>(
      tick % static_cast<std::int64_t>(slot_count_))];
  if (slot.tick.load(std::memory_order_acquire) != tick) {
    // First write of this tick into a recycled slot: zero it once, under
    // the mutex, then publish the new tick so peers skip straight to the
    // fetch_add.
    const std::lock_guard<std::mutex> lock(rotate_mutex_);
    if (slot.tick.load(std::memory_order_relaxed) != tick) {
      slot.cells.clear();
      slot.tick.store(tick, std::memory_order_release);
    }
  }
  slot.cells.add(BucketCells::bucket_of(bounds_, v));
}

WindowedSnapshot WindowedHistogram::snapshot() const {
  WindowedSnapshot snap;
  snap.window_s = window_seconds();
  snap.hist.bounds = bounds_;
  snap.hist.counts.assign(bounds_.size() + 1, 0);
  const std::int64_t tick = now_tick();
  const std::int64_t oldest = tick - static_cast<std::int64_t>(slot_count_) + 1;
  for (const auto& slot : slots_) {
    const std::int64_t slot_tick = slot->tick.load(std::memory_order_acquire);
    if (slot_tick < oldest || slot_tick > tick) continue;
    slot->cells.merge_into(snap.hist.counts);
  }
  for (const auto c : snap.hist.counts) snap.hist.total += c;
  return snap;
}

}  // namespace s2s::obs
