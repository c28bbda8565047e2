#include "core/timeline.h"

#include <algorithm>

namespace s2s::core {

namespace {

/// Observation epochs are uint16, so the grid ends at 2^16.
constexpr std::int64_t kEpochEnd = std::int64_t{1} << 16;

}  // namespace

std::uint32_t PathInterner::intern(std::span<const net::Asn> path) {
  const auto it = index_.find(path);
  if (it != index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(paths_.size());
  paths_.emplace_back(path.begin(), path.end());
  index_.emplace(paths_.back(), id);
  return id;
}

void TimelineStore::add(const probe::TracerouteRecord& record) {
  add_paths_.clear();
  commit(prepare(record, add_paths_), add_paths_);
}

PreparedTrace TimelineStore::prepare(const probe::TracerouteRecord& record,
                                     std::vector<net::Asn>& paths) const {
  PreparedTrace p;
  p.fingerprint = fingerprint(record);
  p.key = PairTable<TraceTimeline>::key(record.src, record.dst, record.family);
  p.grid = net::grid_epoch(record.time, config_.start_day, config_.interval_s);
  p.rtt_ms = record.end_to_end_rtt_ms();
  p.family = record.family;
  p.valid = valid_record(record);
  p.complete = record.complete;
  // Inference is the expensive part; skip it for records commit drops
  // before it would look at the path.
  if (p.grid >= 0 && p.grid < kEpochEnd && p.valid && p.complete) {
    const net::Asn src_asn = topo_.ases[topo_.servers[record.src].as_id].asn;
    p.path_offset = static_cast<std::uint32_t>(paths.size());
    p.path = inferrer_.infer_append(record, src_asn, paths);
    p.path_len = static_cast<std::uint32_t>(paths.size() - p.path_offset);
  }
  return p;
}

void TimelineStore::commit(const PreparedTrace& p,
                           const std::vector<net::Asn>& paths) {
  // Quality gate: every record (complete or not) is checked before it can
  // touch the Table 1 accounting, so a garbled or re-delivered stream
  // cannot inflate the paper's completeness statistics.
  if (!gate_.admit(p.fingerprint, p.grid, kEpochEnd, p.valid)) return;
  gate_.accept();
  if (p.complete) gate_.rtt_ms().record(p.rtt_ms);

  auto& counts = table1_.of(p.family);
  ++counts.collected;
  if (!p.complete) return;
  ++counts.complete;

  if (p.path.has_as_loop) {
    ++counts.as_loops;  // excluded from the analyses, as in the paper
    return;
  }
  switch (p.path.quality) {
    case TraceQuality::kCompleteAsLevel: ++counts.complete_as; break;
    case TraceQuality::kMissingAsLevel: ++counts.missing_as; break;
    case TraceQuality::kMissingIpLevel: ++counts.missing_ip; break;
  }

  const auto epoch = static_cast<std::uint16_t>(p.grid);
  max_epoch_ = std::max(max_epoch_, epoch);

  const std::uint32_t global = interner_.intern(
      std::span<const net::Asn>(paths).subspan(p.path_offset, p.path_len));
  TraceTimeline& timeline = timelines_[p.key];
  auto local_it = std::find(timeline.local_paths.begin(),
                            timeline.local_paths.end(), global);
  std::uint16_t local;
  if (local_it == timeline.local_paths.end()) {
    local = static_cast<std::uint16_t>(timeline.local_paths.size());
    timeline.local_paths.push_back(global);
  } else {
    local = static_cast<std::uint16_t>(local_it - timeline.local_paths.begin());
  }

  Observation obs;
  obs.epoch = epoch;
  obs.rtt_tenths = to_slot(p.rtt_ms);
  obs.path = local;
  if (timeline.obs.empty() || timeline.obs.back().epoch <= epoch) {
    timeline.obs.push_back(obs);
  } else {
    // Late arrival: insert in epoch order so the change detector never
    // interprets delivery order as a routing flap.
    const auto pos = std::upper_bound(
        timeline.obs.begin(), timeline.obs.end(), epoch,
        [](std::uint16_t e, const Observation& o) { return e < o.epoch; });
    timeline.obs.insert(pos, obs);
  }
}

}  // namespace s2s::core
