// The RTT slot every per-pair series stores: one uint16 per grid epoch,
// holding the RTT in tenths of a millisecond or kMissingSlot.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace s2s::core {

/// An epoch with no sample. Above every value to_slot() produces.
inline constexpr std::uint16_t kMissingSlot = 0xFFFF;

/// An RTT as a slot value: clamped to [0, 6553] ms, in tenths of a ms.
inline std::uint16_t to_slot(double ms) {
  return static_cast<std::uint16_t>(std::min(6553.0, std::max(0.0, ms)) *
                                    10.0);
}

inline double slot_ms(std::uint16_t slot) { return slot / 10.0; }

/// Slots that hold a sample.
inline std::size_t observed_slots(std::span<const std::uint16_t> slots) {
  return slots.size() - static_cast<std::size_t>(std::count(
                           slots.begin(), slots.end(), kMissingSlot));
}

/// Gap-filled copy in ms: linear interpolation between samples, and an
/// edge gap copies the nearest sample. Empty when no slot holds a sample.
std::vector<double> interpolate_slots_ms(std::span<const std::uint16_t> slots);

}  // namespace s2s::core
