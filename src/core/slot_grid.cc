#include "core/slot_grid.h"

#include <cstddef>

namespace s2s::core {

std::vector<double> interpolate_slots_ms(std::span<const std::uint16_t> slots) {
  std::vector<double> out(slots.size());
  std::ptrdiff_t prev = -1;  // the last sample so far
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i] == kMissingSlot) continue;
    out[i] = slot_ms(slots[i]);
    // Fill the gap (prev, i); a leading gap (prev < 0) copies out[i].
    const double left =
        prev >= 0 ? out[static_cast<std::size_t>(prev)] : out[i];
    const auto end = static_cast<std::ptrdiff_t>(i);
    for (std::ptrdiff_t j = prev + 1; j < end; ++j) {
      const double frac = prev < 0 ? 1.0
                                   : static_cast<double>(j - prev) /
                                         static_cast<double>(end - prev);
      out[static_cast<std::size_t>(j)] = left + frac * (out[i] - left);
    }
    prev = end;
  }
  if (prev < 0) return {};
  // Trailing gap: copy the last sample.
  const auto last = static_cast<std::size_t>(prev);
  std::fill(out.begin() + prev + 1, out.end(), out[last]);
  return out;
}

}  // namespace s2s::core
