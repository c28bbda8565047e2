// Fold accounting for live archives (DESIGN.md section 16).
//
// A live shard's congestion state is its ping store: a verdict is
// core::window_verdict over the store's trailing week of slots, the same
// function a batch archive answers with, so a live shard and the same
// records loaded as a finished archive serve identical bytes. What the
// store does not know is how far the shard is sealed. IncrementalState
// carries that watermark, plus counters of the ping records the ingest
// took in, and is copied with the stores on every delta pickup.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace s2s::live {

class IncrementalState {
 public:
  /// Counts one ping record the store committed: folded when it filled a
  /// slot, dropped otherwise (failed, invalid, duplicate, off the grid).
  void count(bool folded) noexcept {
    ++(folded ? records_folded_ : records_dropped_);
  }

  /// Advances the sealed-epoch horizon (monotone; lower values are
  /// ignored) and records the store's pair count there.
  void advance_watermark(std::int64_t epoch, std::size_t pairs) noexcept {
    watermark_epoch_ = std::max(watermark_epoch_, epoch);
    pairs_tracked_ = pairs;
  }

  std::int64_t watermark_epoch() const noexcept { return watermark_epoch_; }
  std::size_t pairs_tracked() const noexcept { return pairs_tracked_; }
  std::uint64_t records_folded() const noexcept { return records_folded_; }
  std::uint64_t records_dropped() const noexcept { return records_dropped_; }

 private:
  std::int64_t watermark_epoch_ = -1;
  std::size_t pairs_tracked_ = 0;
  std::uint64_t records_folded_ = 0;
  std::uint64_t records_dropped_ = 0;
};

}  // namespace s2s::live
