#include "svc/ingest.h"

#include <algorithm>
#include <vector>

#include "exec/ordered.h"
#include "io/crc32c.h"

namespace s2s::svc {

namespace {

/// One block, prepared: its records reduced to the stores' prepared
/// structs (one block holds one record kind), its read counters, and
/// the CRC of its share of the digest range. Vectors keep their capacity
/// across the blocks a slot carries.
struct Slot {
  io::BinReadCounters counters;
  std::vector<core::PreparedTrace> traces;
  std::vector<net::Asn> paths;
  std::vector<core::PreparedPing> pings;
  std::uint32_t crc = 0;
};

}  // namespace

IngestOutcome ingest_blocks(const IngestImage& image, const io::BlockPlan& plan,
                            const IngestTargets& targets,
                            exec::ThreadPool* pool) {
  IngestOutcome out;
  out.crc = image.crc_seed;
  const std::size_t n = plan.offsets.size();
  if (n == 0) {
    out.crc = io::crc32c(out.crc, image.data + image.begin,
                         image.end - image.begin);
    out.counters.truncated = plan.truncated;
    return out;
  }
  // Block k's digest share is [cut[k], cut[k + 1]): its header offset
  // up to the next block's, clamped monotone into [begin, end], so the
  // shares tile the range whatever the plan's offsets are.
  std::vector<std::size_t> cut(n + 1);
  cut[0] = image.begin;
  for (std::size_t k = 1; k < n; ++k) {
    cut[k] = std::clamp(plan.offsets[k], cut[k - 1], image.end);
  }
  cut[n] = image.end;

  exec::ordered_pipeline<Slot>(
      pool, n,
      [&](std::size_t k, Slot& slot) {
        slot.counters = {};
        slot.traces.clear();
        slot.paths.clear();
        slot.pings.clear();
        io::decode_planned(
            image.data, plan, plan.offsets[k],
            [&](const probe::TracerouteRecord& r) {
              slot.traces.push_back(targets.timelines->prepare(r, slot.paths));
            },
            [&](const probe::PingRecord& r) {
              slot.pings.push_back(targets.pings->prepare(r));
            },
            slot.counters);
        slot.crc = io::crc32c(image.data + cut[k], cut[k + 1] - cut[k]);
      },
      [&](std::size_t k, Slot& slot) {
        for (const auto& t : slot.traces) targets.timelines->commit(t, slot.paths);
        for (const auto& p : slot.pings) {
          const bool folded = targets.pings->commit(p);
          if (targets.state != nullptr) targets.state->count(folded);
        }
        out.counters.blocks_read += slot.counters.blocks_read;
        out.counters.corrupt_blocks += slot.counters.corrupt_blocks;
        out.counters.crc_failures += slot.counters.crc_failures;
        out.counters.records_read += slot.counters.records_read;
        out.counters.records_rejected += slot.counters.records_rejected;
        out.crc = io::crc32c_combine(out.crc, slot.crc, cut[k + 1] - cut[k]);
        if (image.mapping != nullptr) {
          image.mapping->release(cut[k], cut[k + 1]);
        }
      });
  out.counters.truncated = plan.truncated;
  return out;
}

}  // namespace s2s::svc
