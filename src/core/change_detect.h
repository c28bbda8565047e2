// Routing-change detection via AS-path edit distance (paper Section 4.1).
//
// AS paths are treated as token strings (one token per AS hop) and
// compared with Levenshtein distance; any nonzero distance between
// time-consecutive observations of a timeline is a routing change,
// stamped at the later observation's epoch.
#pragma once

#include <cstdint>
#include <vector>

#include "core/timeline.h"
#include "net/asn.h"

namespace s2s::core {

/// Levenshtein distance over ASN tokens (insert/delete/substitute = 1).
int edit_distance(const net::AsPath& a, const net::AsPath& b);

struct ChangeEvent {
  std::uint16_t epoch = 0;       ///< epoch of the *new* path
  std::uint32_t from_path = 0;   ///< global path id before the change
  std::uint32_t to_path = 0;     ///< global path id after
  int distance = 0;              ///< edit distance between the two
};

/// All change events of a timeline, in time order.
std::vector<ChangeEvent> detect_changes(const TraceTimeline& timeline,
                                        const PathInterner& interner);

}  // namespace s2s::core
