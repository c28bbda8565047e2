#include "live/incremental.h"

#include <algorithm>

#include "obs/metrics.h"

namespace s2s::live {

void IncrementalState::count(bool folded) {
  static const obs::Counter folded_total =
      obs::MetricsRegistry::global().counter("s2s.live.records_folded");
  if (!folded) {
    ++records_dropped_;
    return;
  }
  ++records_folded_;
  folded_total.inc();
}

void IncrementalState::advance_watermark(std::int64_t epoch,
                                         std::size_t pairs) {
  watermark_epoch_ = std::max(watermark_epoch_, epoch);
  pairs_tracked_ = pairs;
}

}  // namespace s2s::live
