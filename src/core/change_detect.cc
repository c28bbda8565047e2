#include "core/change_detect.h"

#include <algorithm>

namespace s2s::core {

int edit_distance(const net::AsPath& a, const net::AsPath& b) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  if (n == 0) return static_cast<int>(m);
  if (m == 0) return static_cast<int>(n);
  // Two-row dynamic program.
  std::vector<int> prev(m + 1);
  std::vector<int> cur(m + 1);
  for (std::size_t j = 0; j <= m; ++j) prev[j] = static_cast<int>(j);
  for (std::size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<int>(i);
    for (std::size_t j = 1; j <= m; ++j) {
      const int sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

std::vector<ChangeEvent> detect_changes(const TraceTimeline& timeline,
                                        const PathInterner& interner) {
  std::vector<ChangeEvent> events;
  // Observations sharing an epoch are re-deliveries of the same probe
  // slot; only the first one counts, so a conflicting duplicate cannot
  // manufacture a zero-duration routing flap.
  std::size_t last = 0;
  for (std::size_t i = 1; i < timeline.obs.size(); ++i) {
    if (timeline.obs[i].epoch == timeline.obs[last].epoch) continue;
    const auto from = timeline.global_path(timeline.obs[last]);
    const auto to = timeline.global_path(timeline.obs[i]);
    last = i;
    if (from == to) continue;
    ChangeEvent ev;
    ev.epoch = timeline.obs[i].epoch;
    ev.from_path = from;
    ev.to_path = to;
    ev.distance = edit_distance(interner.path(from), interner.path(to));
    events.push_back(ev);
  }
  return events;
}

}  // namespace s2s::core
