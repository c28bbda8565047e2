// Ordered parallel ingest of `.s2sb` blocks into the analysis stores
// (DESIGN.md section 17).
//
// A load is one pass over one mapping. io::BlockPlan frames the blocks;
// exec::ordered_pipeline then runs, per block, the pure half on any
// lane — CRC check, column decode, each record's prepare() into
// fixed-size structs, and the CRC32C of the block's byte range for the
// archive digest — and the ordered half on one lane in plan order: each
// store's commit() per record, the read counters, the digest CRC joined
// with crc32c_combine, and the release of the mapped pages the cursor
// has passed. Commit order is plan order, which is the order a
// single-threaded read delivers records in, so every store, interner
// id, counter and digest is byte-identical at any lane count.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/ping_series.h"
#include "core/timeline.h"
#include "exec/pool.h"
#include "io/binrec.h"
#include "io/mmap_file.h"
#include "live/incremental.h"

namespace s2s::svc {

/// The stores one ingest feeds; `state`, set for live shards only,
/// counts the pings the store took in.
struct IngestTargets {
  core::TimelineStore* timelines = nullptr;
  core::PingSeriesStore* pings = nullptr;
  live::IncrementalState* state = nullptr;
};

/// The bytes one ingest covers. The digest CRC spans [begin, end) —
/// the plan's blocks plus whatever lies between and around them (file
/// header, footer) — continued from `crc_seed`, the CRC of the bytes
/// before `begin`.
struct IngestImage {
  const unsigned char* data = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::uint32_t crc_seed = 0;
  /// When set, pages of this mapping behind the commit cursor are
  /// released as the ingest passes them.
  const io::MmapFile* mapping = nullptr;
};

struct IngestOutcome {
  io::BinReadCounters counters;  ///< summed over the plan, tear included
  std::uint32_t crc = 0;         ///< CRC32C of the bytes before `end`
};

/// Feeds every record the plan's read delivers into `targets`, in the
/// read's order, preparing on `pool`'s lanes (null: inline on the
/// caller). Identical stores and outcome at any pool width.
IngestOutcome ingest_blocks(const IngestImage& image, const io::BlockPlan& plan,
                            const IngestTargets& targets,
                            exec::ThreadPool* pool);

}  // namespace s2s::svc
