#include "io/binrec.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <streambuf>

#include "io/crc32c.h"
#include "io/records_io.h"
#include "io/varint.h"

namespace s2s::io {

namespace {

/// Upper bound a decoder trusts for a per-record hop count (traceroute
/// TTLs cap out near 64; anything past 255 in a CRC-valid block is a
/// structural decode bug, not data).
constexpr std::uint64_t kMaxHopsPerRecord = 255;

std::uint8_t family_code(net::Family f) {
  return f == net::Family::kIPv4 ? 4 : 6;
}

bool get_addr(ByteCursor& cur, net::IPAddr& out) {
  std::uint8_t tag = 0;
  if (!cur.get_u8(tag)) return false;
  if (tag == 4) {
    std::uint32_t v = 0;
    if (!cur.get_u32(v)) return false;
    out = net::IPv4Addr(v);
    return true;
  }
  if (tag == 6) {
    net::IPv6Addr::Bytes b{};
    if (!cur.get_bytes(b.data(), b.size())) return false;
    out = net::IPv6Addr(b);
    return true;
  }
  return false;
}

struct PairEntry {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  net::Family family = net::Family::kIPv4;
};

bool decode_pair_dict(ByteCursor& cur, std::size_t record_count,
                      std::vector<PairEntry>& dict) {
  std::uint64_t n = 0;
  if (!cur.get_varint(n)) return false;
  if (n > record_count || (record_count > 0 && n == 0)) return false;
  dict.resize(static_cast<std::size_t>(n));
  for (auto& e : dict) {
    std::uint64_t src = 0, dst = 0;
    std::uint8_t fam = 0;
    if (!cur.get_varint(src) || src > 0xFFFFFFFFull) return false;
    if (!cur.get_varint(dst) || dst > 0xFFFFFFFFull) return false;
    if (!cur.get_u8(fam) || (fam != 4 && fam != 6)) return false;
    e.src = static_cast<std::uint32_t>(src);
    e.dst = static_cast<std::uint32_t>(dst);
    e.family = fam == 4 ? net::Family::kIPv4 : net::Family::kIPv6;
  }
  return true;
}

bool decode_pair_indices(ByteCursor& cur, std::size_t record_count,
                         std::size_t dict_size,
                         std::vector<std::uint32_t>& idx) {
  idx.resize(record_count);
  for (auto& i : idx) {
    std::uint64_t v = 0;
    if (!cur.get_varint(v) || v >= dict_size) return false;
    i = static_cast<std::uint32_t>(v);
  }
  return true;
}

bool decode_times(ByteCursor& cur, std::size_t record_count,
                  std::vector<std::int64_t>& times) {
  times.resize(record_count);
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < record_count; ++i) {
    std::int64_t v = 0;
    if (!cur.get_varint_signed(v)) return false;
    times[i] = i == 0 ? v : prev + v;
    prev = times[i];
  }
  return true;
}

bool decode_bitmap(ByteCursor& cur, std::size_t record_count,
                   std::vector<bool>& bits) {
  bits.resize(record_count);
  for (std::size_t i = 0; i < record_count; i += 8) {
    std::uint8_t byte = 0;
    if (!cur.get_u8(byte)) return false;
    for (std::size_t j = 0; j < 8 && i + j < record_count; ++j) {
      bits[i + j] = (byte >> j) & 1u;
    }
  }
  return true;
}

// -- Block payload decoders --------------------------------------------------

bool decode_ping_payload(const unsigned char* payload, std::size_t size,
                         std::size_t record_count,
                         const PingRecordFn& on_ping,
                         BinReadCounters& counters) {
  ByteCursor cur(payload, size);
  std::vector<PairEntry> dict;
  std::vector<std::uint32_t> idx;
  std::vector<std::int64_t> times;
  std::vector<bool> success;
  if (!decode_pair_dict(cur, record_count, dict)) return false;
  if (!decode_pair_indices(cur, record_count, dict.size(), idx)) return false;
  if (!decode_times(cur, record_count, times)) return false;
  if (!decode_bitmap(cur, record_count, success)) return false;
  if (cur.remaining() != record_count * 4) return false;
  probe::PingRecord r;  // reused across the loop: the sink sees a const&
  for (std::size_t i = 0; i < record_count; ++i) {
    std::uint32_t raw = 0;
    cur.get_u32(raw);
    const auto rtt = decode_rtt_thousandths(raw);
    if (!rtt) {
      ++counters.records_rejected;
      continue;
    }
    r.src = dict[idx[i]].src;
    r.dst = dict[idx[i]].dst;
    r.family = dict[idx[i]].family;
    r.time = net::SimTime(times[i]);
    r.success = success[i];
    r.rtt_ms = *rtt;
    ++counters.records_read;
    on_ping(r);
  }
  return true;
}

bool decode_trace_payload(const unsigned char* payload, std::size_t size,
                          std::size_t record_count,
                          const TraceRecordFn& on_trace,
                          BinReadCounters& counters) {
  ByteCursor cur(payload, size);
  std::vector<PairEntry> dict;
  std::vector<std::uint32_t> idx;
  std::vector<std::int64_t> times;
  std::vector<bool> paris, complete;
  if (!decode_pair_dict(cur, record_count, dict)) return false;
  if (!decode_pair_indices(cur, record_count, dict.size(), idx)) return false;
  if (!decode_times(cur, record_count, times)) return false;
  if (!decode_bitmap(cur, record_count, paris)) return false;
  if (!decode_bitmap(cur, record_count, complete)) return false;
  std::vector<net::IPAddr> src_addrs(record_count), dst_addrs(record_count);
  for (auto& a : src_addrs) {
    if (!get_addr(cur, a)) return false;
  }
  for (auto& a : dst_addrs) {
    if (!get_addr(cur, a)) return false;
  }
  std::vector<std::uint32_t> hop_counts(record_count);
  for (auto& c : hop_counts) {
    std::uint64_t v = 0;
    if (!cur.get_varint(v) || v > kMaxHopsPerRecord) return false;
    c = static_cast<std::uint32_t>(v);
  }
  // One record reused across the loop (the sink sees a const&): clearing
  // the hop vector keeps its capacity, so a block's worth of records
  // costs at most one hop allocation instead of one per record.
  probe::TracerouteRecord r;
  for (std::size_t i = 0; i < record_count; ++i) {
    r.src = dict[idx[i]].src;
    r.dst = dict[idx[i]].dst;
    r.family = dict[idx[i]].family;
    r.time = net::SimTime(times[i]);
    r.method = paris[i] ? probe::TracerouteMethod::kParis
                        : probe::TracerouteMethod::kClassic;
    r.complete = complete[i];
    r.src_addr = src_addrs[i];
    r.dst_addr = dst_addrs[i];
    r.hops.clear();
    r.hops.reserve(hop_counts[i]);
    bool record_ok = true;
    for (std::uint32_t h = 0; h < hop_counts[i]; ++h) {
      std::uint8_t tag = 0;
      if (!cur.get_u8(tag)) return false;
      if (tag == 0) {  // unresponsive: no addr, no RTT (mirrors "*")
        r.hops.emplace_back();
        continue;
      }
      std::uint32_t raw = 0;
      net::IPAddr addr;
      if (tag == 4) {
        // Fused read of the v4 addr + RTT pair: one bounds check for the
        // whole row (the hop loop dominates whole-archive decode).
        unsigned char row[8];
        if (!cur.get_bytes(row, 8)) return false;
        addr = net::IPv4Addr(get_u32le(row));
        raw = get_u32le(row + 4);
      } else if (tag == 6) {
        net::IPv6Addr::Bytes b{};
        if (!cur.get_bytes(b.data(), b.size())) return false;
        if (!cur.get_u32(raw)) return false;
        addr = net::IPv6Addr(b);
      } else {
        return false;
      }
      const auto rtt = decode_rtt_thousandths(raw);
      if (!rtt) {
        record_ok = false;  // row fully consumed; reject the record
        continue;
      }
      auto& hop = r.hops.emplace_back();
      hop.addr = addr;
      hop.rtt_ms = *rtt;
    }
    if (!record_ok) {
      ++counters.records_rejected;
      continue;
    }
    ++counters.records_read;
    on_trace(r);
  }
  return cur.remaining() == 0;
}

/// CRC-checks and decodes one block whose header has already been
/// validated structurally. Returns false when the block must be counted
/// corrupt.
bool decode_block(BlockKind kind, std::size_t record_count,
                  const unsigned char* payload, std::size_t payload_bytes,
                  const TraceRecordFn& on_trace, const PingRecordFn& on_ping,
                  BinReadCounters& counters) {
  if (record_count == 0) return payload_bytes == 0;  // explicit empty block
  return kind == BlockKind::kPing
             ? decode_ping_payload(payload, payload_bytes, record_count,
                                   on_ping, counters)
             : decode_trace_payload(payload, payload_bytes, record_count,
                                    on_trace, counters);
}

/// Parsed block header; `valid` false means the fixed fields are
/// implausible (decode must not trust payload_bytes).
struct BlockHeader {
  BlockKind kind = BlockKind::kPing;
  std::uint16_t record_count = 0;
  std::uint32_t payload_bytes = 0;
  std::uint32_t crc = 0;
  bool valid = false;
};

BlockHeader parse_block_header(const unsigned char* h) {
  BlockHeader out;
  const std::uint8_t kind = h[4];
  out.record_count = get_u16le(h + 6);
  out.payload_bytes = get_u32le(h + 8);
  out.crc = get_u32le(h + 12);
  out.valid = kind <= 1 && out.record_count <= kMaxBlockRecords &&
              out.payload_bytes <= kMaxBlockPayloadBytes;
  out.kind = kind == 0 ? BlockKind::kPing : BlockKind::kTraceroute;
  return out;
}

std::uint32_t block_crc(const unsigned char* header,
                        const unsigned char* payload,
                        std::size_t payload_bytes) {
  std::uint32_t crc = crc32c(0, header + 4, 8);
  return crc32c(crc, payload, payload_bytes);
}

/// What read_block() found at an offset.
enum class BlockStatus : std::uint8_t {
  kBlock,        ///< plausible header, payload in bounds (see crc_ok)
  kFooter,       ///< footer magic: the block region ends here
  kTorn,         ///< the image ends inside the magic, header or payload
  kBadMagic,     ///< neither block nor footer magic
  kImplausible,  ///< block magic, but the fixed fields are out of range
};

/// The block at one offset of an image, or why there is none.
struct BlockView {
  BlockStatus status = BlockStatus::kTorn;
  std::size_t offset = 0;
  BlockKind kind = BlockKind::kPing;
  std::uint16_t record_count = 0;
  const unsigned char* payload = nullptr;
  std::size_t payload_bytes = 0;
  bool crc_ok = false;

  std::size_t end() const noexcept {
    return offset + kBinBlockHeaderBytes + payload_bytes;
  }
};

/// Parses, bounds-checks against `end`, CRC-checks (unless `check_crc`
/// is false: crc_ok then stays false) and classifies the block whose
/// header starts at `pos`. The only reader of block headers.
BlockView read_block(const unsigned char* data, std::size_t end,
                     std::size_t pos, bool check_crc = true) {
  BlockView b;
  b.offset = pos;
  if (pos + 4 > end) return b;
  const std::uint32_t magic = get_u32le(data + pos);
  if (magic == kBinFooterMagic) {
    b.status = BlockStatus::kFooter;
    return b;
  }
  if (magic != kBinBlockMagic) {
    b.status = BlockStatus::kBadMagic;
    return b;
  }
  if (pos + kBinBlockHeaderBytes > end) return b;
  const BlockHeader h = parse_block_header(data + pos);
  if (!h.valid) {
    b.status = BlockStatus::kImplausible;
    return b;
  }
  if (pos + kBinBlockHeaderBytes + h.payload_bytes > end) return b;
  b.status = BlockStatus::kBlock;
  b.kind = h.kind;
  b.record_count = h.record_count;
  b.payload = data + pos + kBinBlockHeaderBytes;
  b.payload_bytes = h.payload_bytes;
  b.crc_ok = check_crc &&
             block_crc(data + pos, b.payload, b.payload_bytes) == h.crc;
  return b;
}

/// First offset in [pos, end) holding a block or footer magic; `end`
/// when there is none.
std::size_t next_magic(const unsigned char* data, std::size_t pos,
                       std::size_t end) {
  for (; pos + 4 <= end; ++pos) {
    const std::uint32_t magic = get_u32le(data + pos);
    if (magic == kBinBlockMagic || magic == kBinFooterMagic) return pos;
  }
  return end;
}

/// The one block walk. Visits what read_block() finds at each offset of
/// [pos, end) in order: after a block it continues at the next header;
/// a footer or a tear ends the walk; a bad magic or an implausible
/// header ends it too unless `resync`, which skips to the next block or
/// footer magic (one damaged block is one visit). `visit` returns false
/// to stop early. Returns the offset the walk stopped at: the footer,
/// the damage, the rejected block, or `end`. With `check_crc` false the
/// walk only frames blocks (every crc_ok is false).
template <typename Visit>
std::size_t walk_blocks(const unsigned char* data, std::size_t pos,
                        std::size_t end, bool resync, Visit&& visit,
                        bool check_crc = true) {
  while (pos < end) {
    const BlockView b = read_block(data, end, pos, check_crc);
    if (!visit(b)) return pos;
    switch (b.status) {
      case BlockStatus::kBlock:
        pos = b.end();
        break;
      case BlockStatus::kBadMagic:
      case BlockStatus::kImplausible:
        if (!resync) return pos;
        pos = next_magic(data, pos + 1, end);
        break;
      case BlockStatus::kFooter:
      case BlockStatus::kTorn:
        return pos;
    }
  }
  return pos;
}

/// Reader accounting for one visited block position: a CRC-valid,
/// decodable block is read; anything else is one corrupt block.
void consume(const BlockView& b, const TraceRecordFn& on_trace,
             const PingRecordFn& on_ping, BinReadCounters& counters) {
  const bool block = b.status == BlockStatus::kBlock;
  if (block && !b.crc_ok) ++counters.crc_failures;
  if (block && b.crc_ok &&
      decode_block(b.kind, b.record_count, b.payload, b.payload_bytes,
                   on_trace, on_ping, counters)) {
    ++counters.blocks_read;
  } else {
    ++counters.corrupt_blocks;
  }
}

/// Frames the blocks of [pos, end) by header chaining: every position
/// the walk visits except a footer, in order. `resync` is the readers'
/// sequential walk (damage is skipped, a tear ends it); without it the
/// walk is plan_block_range's (any damage ends it as a tear). Sets
/// `*footer_seen` when a footer magic ended the walk. With `mapping`
/// (whose image `data` is) the pages the walk has passed are released
/// as it goes: reading one header per block faults in nearly every page
/// of the image, which would otherwise all stay resident until decoded.
BlockPlan plan_walk(const unsigned char* data, std::size_t pos,
                    std::size_t end, bool resync,
                    bool* footer_seen = nullptr,
                    const MmapFile* mapping = nullptr) {
  constexpr std::size_t kReleaseStride = std::size_t{256} << 10;
  BlockPlan plan;
  plan.end = end;
  std::size_t released = pos;
  walk_blocks(
      data, pos, end, resync,
      [&](const BlockView& b) {
        if (mapping != nullptr && b.offset >= released + kReleaseStride) {
          mapping->release(released, b.offset);
          released = b.offset;
        }
        if (b.status == BlockStatus::kFooter) {
          if (footer_seen != nullptr) *footer_seen = true;
          return true;
        }
        if (b.status == BlockStatus::kTorn ||
            (!resync && b.status != BlockStatus::kBlock)) {
          plan.truncated = true;
        }
        plan.offsets.push_back(b.offset);
        return true;
      },
      /*check_crc=*/false);
  return plan;
}

/// Runs a plan on the calling thread: the read it describes.
void read_planned(const unsigned char* data, const BlockPlan& plan,
                  const TraceRecordFn& on_trace, const PingRecordFn& on_ping,
                  BinReadCounters& counters) {
  for (const std::size_t offset : plan.offsets) {
    decode_planned(data, plan, offset, on_trace, on_ping, counters);
  }
  if (plan.truncated) counters.truncated = true;
}

bool parse_file_header(const unsigned char* data, std::size_t size,
                       std::uint16_t& version, std::string& error) {
  if (size < kBinFileHeaderBytes || get_u32le(data) != kBinFileMagic) {
    error = "not an .s2sb stream (bad magic)";
    return false;
  }
  version = get_u16le(data + 4);
  if (version == 0 || version > kBinVersion) {
    error = "unsupported .s2sb version " + std::to_string(version);
    return false;
  }
  return true;
}

/// Recovers a block's encode-time [first, last] span from its times
/// column. Both payload kinds lead with dict, pair indices, then times,
/// so one decoder serves both; the span covers every record in the block
/// (the writer's min/max does too), not just the ones a full decode would
/// deliver.
bool block_time_span(std::size_t record_count, const unsigned char* payload,
                     std::size_t size, std::int64_t& first,
                     std::int64_t& last) {
  first = 0;
  last = 0;
  if (record_count == 0) return true;
  ByteCursor cur(payload, size);
  std::vector<PairEntry> dict;
  std::vector<std::uint32_t> idx;
  std::vector<std::int64_t> times;
  if (!decode_pair_dict(cur, record_count, dict)) return false;
  if (!decode_pair_indices(cur, record_count, dict.size(), idx)) return false;
  if (!decode_times(cur, record_count, times)) return false;
  first = times.front();
  last = times.front();
  for (const auto t : times) {
    first = std::min(first, t);
    last = std::max(last, t);
  }
  return true;
}

/// The footer index entry for a walked block; false when its times
/// column does not decode.
bool index_entry(const BlockView& b, BlockIndexEntry& entry) {
  entry.offset = b.offset;
  entry.record_count = b.record_count;
  entry.kind = b.kind;
  return block_time_span(b.record_count, b.payload, b.payload_bytes,
                         entry.first_time_s, entry.last_time_s);
}

/// The complete footer image (magic, entries, tail) for an index. Shared
/// by BinRecordWriter::finish() and recover_archive() so a rebuilt footer
/// is byte-identical to the one an uninterrupted writer would have sealed
/// the same blocks with.
std::string encode_footer(const std::vector<BlockIndexEntry>& index) {
  std::string footer;
  put_u32le(footer, kBinFooterMagic);
  std::string entries;
  for (const auto& e : index) {
    put_u64le(entries, e.offset);
    put_u64le(entries, static_cast<std::uint64_t>(e.first_time_s));
    put_u64le(entries, static_cast<std::uint64_t>(e.last_time_s));
    put_u32le(entries, e.record_count);
    entries.push_back(static_cast<char>(e.kind));
    entries.append(3, '\0');
  }
  footer += entries;
  put_u32le(footer, static_cast<std::uint32_t>(index.size()));
  put_u32le(footer, crc32c(entries.data(), entries.size()));
  put_u64le(footer, kBinEofMagic);
  return footer;
}

}  // namespace

std::optional<double> decode_rtt_thousandths(std::uint32_t v) {
  if (v == kInvalidRttThousandths ||
      v > static_cast<std::uint32_t>(probe::kMaxPlausibleRttMs * 1000.0)) {
    return std::nullopt;
  }
  return static_cast<double>(v) / 1000.0;
}

std::optional<std::vector<BlockRef>> scan_blocks(const void* data,
                                                 std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint16_t version = 0;
  std::string error;
  if (!parse_file_header(bytes, size, version, error)) return std::nullopt;
  std::vector<BlockRef> out;
  walk_blocks(bytes, kBinFileHeaderBytes, size, /*resync=*/false,
              [&](const BlockView& b) {
                if (b.status != BlockStatus::kBlock) return false;
                out.push_back({b.offset, b.offset + kBinBlockHeaderBytes,
                               b.payload_bytes, b.record_count, b.kind});
                return true;
              });
  return out;
}

std::optional<BlockIndex> index_blocks(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint16_t version = 0;
  std::string error;
  if (!parse_file_header(bytes, size, version, error)) return std::nullopt;
  BlockIndex out;
  bool clean = true;
  out.blocks_end = walk_blocks(
      bytes, kBinFileHeaderBytes, size, /*resync=*/false,
      [&](const BlockView& b) {
        // A sealed archive's blocks end where the footer starts.
        if (b.status == BlockStatus::kFooter) return true;
        BlockIndexEntry entry;
        clean = b.status == BlockStatus::kBlock && b.crc_ok &&
                index_entry(b, entry);
        if (clean) out.entries.push_back(entry);
        return clean;
      });
  if (!clean) return std::nullopt;
  return out;
}

BlockPlan plan_block_range(const void* data, std::size_t size,
                           std::size_t begin_offset, std::size_t end_offset,
                           const MmapFile* mapping) {
  return plan_walk(static_cast<const unsigned char*>(data), begin_offset,
                   std::min(end_offset, size), /*resync=*/false, nullptr,
                   mapping);
}

void decode_planned(const void* data, const BlockPlan& plan,
                    std::size_t offset, const TraceRecordFn& on_trace,
                    const PingRecordFn& on_ping, BinReadCounters& counters) {
  consume(read_block(static_cast<const unsigned char*>(data), plan.end,
                     offset),
          on_trace, on_ping, counters);
}

// ---------------------------------------------------------------------------
// BinRecordWriter
// ---------------------------------------------------------------------------

namespace {

/// An append-only byte column that hands out raw room to write into, so
/// a hop row or a varint costs one capacity check, not one per byte.
class ByteColumn {
 public:
  /// Room for `n` more bytes; write them, then commit() the end.
  unsigned char* room(std::size_t n) {
    if (size_ + n > cap_) grow(size_ + n);
    return data_.get() + size_;
  }
  void commit(const unsigned char* end) {
    size_ = static_cast<std::size_t>(end - data_.get());
  }
  void push(unsigned char byte) {
    *room(1) = byte;
    ++size_;
  }
  unsigned char& back() { return data_[size_ - 1]; }
  void clear() { size_ = 0; }
  std::string_view view() const {
    return {reinterpret_cast<const char*>(data_.get()), size_};
  }

 private:
  void grow(std::size_t need) {
    cap_ = std::max({need, 2 * cap_, std::size_t{256}});
    auto bigger = std::make_unique_for_overwrite<unsigned char[]>(cap_);
    if (size_ > 0) std::memcpy(bigger.get(), data_.get(), size_);
    data_ = std::move(bigger);
  }

  std::unique_ptr<unsigned char[]> data_;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

constexpr std::size_t kMaxVarintBytes = 10;
constexpr std::size_t kMaxAddrBytes = 17;  ///< tag + IPv6 address

unsigned char* put_varint(unsigned char* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<unsigned char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<unsigned char>(v);
  return p;
}

unsigned char* put_u32le(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) *p++ = static_cast<unsigned char>(v >> (8 * i));
  return p;
}

/// A tagged address row.
unsigned char* put_addr(unsigned char* p, const net::IPAddr& addr) {
  if (addr.is_v4()) {
    *p++ = 4;
    return put_u32le(p, addr.v4().value());
  }
  *p++ = 6;
  const auto& b = addr.v6().bytes();
  std::memcpy(p, b.data(), b.size());
  return p + b.size();
}


/// Per-block (src, dst, family) dictionary in first-appearance order, so
/// a block's bytes are a pure function of its record sequence. A flat
/// open-addressing table of entry indices: interning is one hash and a
/// probe or two, and reset() keeps every buffer's capacity.
class PairDict {
 public:
  /// Index of the pair in first-appearance order, added if new.
  std::uint32_t intern(std::uint32_t src, std::uint32_t dst,
                       std::uint8_t fam) {
    if (2 * (entries_.size() + 1) > table_.size()) grow();
    const Key key{src, dst, fam};
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
      const std::uint32_t slot = table_[i];
      if (slot == 0) {
        entries_.push_back(key);
        table_[i] = static_cast<std::uint32_t>(entries_.size());
        return table_[i] - 1;
      }
      if (entries_[slot - 1] == key) return slot - 1;
    }
  }

  void encode(ByteColumn& out) const {
    unsigned char* p =
        out.room((2 * entries_.size() + 1) * kMaxVarintBytes + entries_.size());
    p = put_varint(p, entries_.size());
    for (const Key& e : entries_) {
      p = put_varint(put_varint(p, e.src), e.dst);
      *p++ = e.fam;
    }
    out.commit(p);
  }

  void reset() {
    std::fill(table_.begin(), table_.end(), 0u);
    entries_.clear();
  }

 private:
  struct Key {
    std::uint32_t src;
    std::uint32_t dst;
    std::uint8_t fam;
    bool operator==(const Key&) const = default;
  };

  static std::size_t hash(const Key& k) {
    std::uint64_t h = (std::uint64_t{k.src} << 32 | k.dst) + k.fam;
    h *= 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h >> 32 ^ h);
  }

  void grow() {
    table_.assign(std::max<std::size_t>(64, 2 * table_.size()), 0u);
    const std::size_t mask = table_.size() - 1;
    for (std::size_t e = 0; e < entries_.size(); ++e) {
      std::size_t i = hash(entries_[e]) & mask;
      while (table_[i] != 0) i = (i + 1) & mask;
      table_[i] = static_cast<std::uint32_t>(e + 1);
    }
  }

  std::vector<std::uint32_t> table_;  ///< entry index + 1; 0 = empty
  std::vector<Key> entries_;
};

}  // namespace

/// One open block of one record kind, encoded column by column as its
/// records arrive (DESIGN.md section 10): a record leaves nothing behind
/// but its column bytes, and every column keeps its capacity from block
/// to block.
struct BinRecordWriter::Columns {
  PairDict dict;
  ByteColumn idx;     ///< varint dictionary indices
  ByteColumn times;   ///< zigzag-varint time deltas
  ByteColumn flags;   ///< ping: success; traceroute: paris
  ByteColumn flags2;  ///< traceroute: complete
  ByteColumn rtts;    ///< ping: fixed-point RTTs
  ByteColumn src_addrs;
  ByteColumn dst_addrs;
  ByteColumn hop_counts;
  ByteColumn hops;  ///< traceroute hop rows
  ByteColumn dict_bytes;  ///< the encoded dictionary, at flush
  std::size_t count = 0;
  std::int64_t prev_time = 0;
  std::int64_t first_time = 0;
  std::int64_t last_time = 0;

  /// The columns every kind has: pair index and time delta.
  template <typename Record>
  void begin(const Record& r) {
    const std::int64_t time = r.time.seconds();
    idx.commit(put_varint(idx.room(kMaxVarintBytes),
                          dict.intern(r.src, r.dst, family_code(r.family))));
    times.commit(put_varint(times.room(kMaxVarintBytes),
                            zigzag(count == 0 ? time : time - prev_time)));
    prev_time = time;
    first_time = count == 0 ? time : std::min(first_time, time);
    last_time = count == 0 ? time : std::max(last_time, time);
  }

  /// Sets bit `count` of an LSB-first bitmap column.
  void put_bit(ByteColumn& bits, bool on) const {
    if (count % 8 == 0) bits.push(0);
    if (on) bits.back() |= static_cast<unsigned char>(1u << (count % 8));
  }

  void reset() {
    dict.reset();
    for (ByteColumn* col : {&idx, &times, &flags, &flags2, &rtts, &src_addrs,
                            &dst_addrs, &hop_counts, &hops, &dict_bytes}) {
      col->clear();
    }
    count = 0;
  }
};

BinRecordWriter::BinRecordWriter(std::ostream& out,
                                 const BinWriterConfig& config)
    : out_(out),
      config_(config),
      traces_(std::make_unique<Columns>()),
      pings_(std::make_unique<Columns>()) {
  config_.block_records = std::min(config_.block_records, kMaxBlockRecords);
  if (config_.block_records == 0) config_.block_records = 1;
  if (!config_.resume_index.empty() || config_.resume_offset > 0) {
    index_ = config_.resume_index;
    bytes_written_ = config_.resume_offset;
  }
  if (config_.write_header) {
    std::string header;
    put_u32le(header, kBinFileMagic);
    put_u16le(header, kBinVersion);
    put_u16le(header, 0);  // flags
    put_u64le(header, 0);  // reserved
    out_.write(header.data(), static_cast<std::streamsize>(header.size()));
    bytes_written_ += header.size();
  }
}

BinRecordWriter::~BinRecordWriter() {
  try {
    finish();
  } catch (...) {
    // A throwing ostream in a destructor must not terminate the program;
    // callers that care about write failures call finish() themselves.
  }
}

void BinRecordWriter::write(const probe::TracerouteRecord& record) {
  Columns& c = *traces_;
  c.begin(record);
  c.put_bit(c.flags, record.method == probe::TracerouteMethod::kParis);
  c.put_bit(c.flags2, record.complete);
  c.src_addrs.commit(
      put_addr(c.src_addrs.room(kMaxAddrBytes), record.src_addr));
  c.dst_addrs.commit(
      put_addr(c.dst_addrs.room(kMaxAddrBytes), record.dst_addr));
  c.hop_counts.commit(
      put_varint(c.hop_counts.room(kMaxVarintBytes), record.hops.size()));
  // Hop rows: a tag alone for an unresponsive hop (mirrors "*"), else the
  // tagged address and the fixed-point RTT.
  unsigned char* p = c.hops.room(record.hops.size() * (kMaxAddrBytes + 4));
  for (const probe::Hop& hop : record.hops) {
    if (!hop.addr) {
      *p++ = 0;
      continue;
    }
    p = put_u32le(put_addr(p, *hop.addr), encode_rtt_thousandths(hop.rtt_ms));
  }
  c.hops.commit(p);
  ++written_;
  if (++c.count >= config_.block_records) flush_kind(BlockKind::kTraceroute);
}

void BinRecordWriter::write(const probe::PingRecord& record) {
  Columns& c = *pings_;
  c.begin(record);
  c.put_bit(c.flags, record.success);
  c.rtts.commit(
      put_u32le(c.rtts.room(4), encode_rtt_thousandths(record.rtt_ms)));
  ++written_;
  if (++c.count >= config_.block_records) flush_kind(BlockKind::kPing);
}

void BinRecordWriter::flush_kind(BlockKind kind) {
  Columns& c = kind == BlockKind::kTraceroute ? *traces_ : *pings_;
  if (c.count == 0) return;
  c.dict.encode(c.dict_bytes);
  // The payload is the columns in the block layout's order.
  if (kind == BlockKind::kTraceroute) {
    emit_block(kind,
               {c.dict_bytes.view(), c.idx.view(), c.times.view(),
                c.flags.view(), c.flags2.view(), c.src_addrs.view(), c.dst_addrs.view(),
                c.hop_counts.view(), c.hops.view()},
               c.count, c.first_time, c.last_time);
  } else {
    emit_block(kind,
               {c.dict_bytes.view(), c.idx.view(), c.times.view(),
                c.flags.view(), c.rtts.view()},
               c.count, c.first_time, c.last_time);
  }
  c.reset();
}

void BinRecordWriter::emit_block(
    BlockKind kind, std::initializer_list<std::string_view> payload,
    std::size_t record_count, std::int64_t first_time,
    std::int64_t last_time) {
  std::size_t payload_bytes = 0;
  for (const std::string_view part : payload) payload_bytes += part.size();
  std::string header;
  put_u32le(header, kBinBlockMagic);
  header.push_back(static_cast<char>(kind));
  header.push_back(0);  // reserved
  put_u16le(header, static_cast<std::uint16_t>(record_count));
  put_u32le(header, static_cast<std::uint32_t>(payload_bytes));
  // block_crc over the parts in order: header fields, then the payload.
  std::uint32_t crc = crc32c(0, header.data() + 4, 8);
  for (const std::string_view part : payload) {
    crc = crc32c(crc, part.data(), part.size());
  }
  put_u32le(header, crc);

  BlockIndexEntry entry;
  entry.offset = bytes_written_;
  entry.first_time_s = first_time;
  entry.last_time_s = last_time;
  entry.record_count = static_cast<std::uint32_t>(record_count);
  entry.kind = kind;
  index_.push_back(entry);

  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  for (const std::string_view part : payload) {
    out_.write(part.data(), static_cast<std::streamsize>(part.size()));
  }
  bytes_written_ += header.size() + payload_bytes;
}

void BinRecordWriter::export_metrics(
    std::map<std::string, std::uint64_t>& counters) const {
  counters["s2s.io.binrec.blocks_written"] +=
      index_.size() - config_.resume_index.size();
}

void BinRecordWriter::flush_block() {
  flush_kind(BlockKind::kTraceroute);
  flush_kind(BlockKind::kPing);
}

void BinRecordWriter::finish() {
  if (finished_) return;
  flush_block();
  finished_ = true;
  if (!config_.write_footer) return;
  const std::string footer = encode_footer(index_);
  out_.write(footer.data(), static_cast<std::streamsize>(footer.size()));
  bytes_written_ += footer.size();
}

// ---------------------------------------------------------------------------
// AtomicArchiveWriter and recover_archive
// ---------------------------------------------------------------------------

AtomicArchiveWriter::AtomicArchiveWriter(const std::string& path)
    : path_(path), tmp_(path + ".tmp") {
  out_.open(tmp_, std::ios::binary | std::ios::trunc);
  if (!out_) {
    error_ = tmp_ + ": open failed";
    return;
  }
  ok_ = true;
}

AtomicArchiveWriter::~AtomicArchiveWriter() {
  if (!committed_) abort();
}

void AtomicArchiveWriter::abort() noexcept {
  if (committed_) return;
  if (out_.is_open()) out_.close();
  std::remove(tmp_.c_str());
  ok_ = false;
}

bool AtomicArchiveWriter::commit(std::string& error) {
  if (committed_) return true;
  if (!ok_) {
    error = error_;
    return false;
  }
  out_.flush();
  if (!out_.good()) {
    error = tmp_ + ": write failed";
    abort();
    return false;
  }
  out_.close();
  // Durability order matters: the tmp bytes must be on disk before the
  // rename publishes them, and the rename must be in the directory before
  // the commit is claimed — otherwise a crash can surface the new name
  // with old (or no) bytes behind it.
  const int fd = ::open(tmp_.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    error = tmp_ + ": fsync failed";
    abort();
    return false;
  }
  ::close(fd);
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    error = "rename " + tmp_ + " -> " + path_ + " failed";
    abort();
    return false;
  }
  committed_ = true;
  const auto slash = path_.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path_.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {  // best effort: some filesystems refuse directory fsync
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

RecoverResult recover_archive(const std::string& path) {
  RecoverResult res;
  MmapFile file;
  if (!file.open(path)) {
    res.error = file.error();
    return res;
  }
  const auto* data = file.data();
  const std::size_t size = file.size();
  std::uint16_t version = 0;
  if (!parse_file_header(data, size, version, res.error)) return res;

  // Walk the longest valid prefix: structurally plausible header, payload
  // in bounds, CRC match, and a full decode (null sinks — this pass only
  // proves decodability). The footer span is the writer's min/max over
  // every record's time, including records a decoder would reject for a
  // bad RTT, so index_entry() takes it from the times column.
  std::vector<BlockIndexEntry> index;
  const std::size_t pos = walk_blocks(
      data, kBinFileHeaderBytes, size, /*resync=*/false,
      [&](const BlockView& b) {
        BinReadCounters counters;
        BlockIndexEntry entry;
        if (b.status != BlockStatus::kBlock || !b.crc_ok ||
            !decode_block(b.kind, b.record_count, b.payload, b.payload_bytes,
                          [](const probe::TracerouteRecord&) {},
                          [](const probe::PingRecord&) {}, counters) ||
            !index_entry(b, entry)) {
          return false;
        }
        index.push_back(entry);
        res.records_kept += b.record_count;
        return true;
      });
  res.blocks_kept = index.size();

  // Already sealed and intact? Leave the file untouched.
  const std::string footer = encode_footer(index);
  if (size == pos + footer.size() &&
      std::memcmp(data + pos, footer.data(), footer.size()) == 0) {
    res.ok = true;
    return res;
  }

  AtomicArchiveWriter out(path);
  if (!out.ok()) {
    res.error = out.error();
    return res;
  }
  auto& stream = out.stream();
  stream.write(reinterpret_cast<const char*>(data),
               static_cast<std::streamsize>(kBinFileHeaderBytes));
  stream.write(reinterpret_cast<const char*>(data) + kBinFileHeaderBytes,
               static_cast<std::streamsize>(pos - kBinFileHeaderBytes));
  stream.write(footer.data(), static_cast<std::streamsize>(footer.size()));
  if (!out.commit(res.error)) return res;
  res.ok = true;
  res.repaired = true;
  res.bytes_dropped = size > pos ? size - pos : 0;
  return res;
}

// ---------------------------------------------------------------------------
// BinRecordMmapReader
// ---------------------------------------------------------------------------

BinRecordMmapReader::BinRecordMmapReader(const std::string& path) {
  MmapFile file;
  if (!file.open(path)) {
    error_ = file.error();
    return;
  }
  *this = BinRecordMmapReader(std::move(file));
}

BinRecordMmapReader::BinRecordMmapReader(MmapFile file)
    : file_(std::move(file)) {
  init(file_.data(), file_.size());
}

BinRecordMmapReader::BinRecordMmapReader(const void* data, std::size_t size) {
  init(data, size);
}

void BinRecordMmapReader::init(const void* data, std::size_t size) {
  data_ = static_cast<const unsigned char*>(data);
  size_ = size;
  ok_ = parse_file_header(data_, size_, version_, error_);
  if (!ok_) return;

  // Footer validation: fixed-width tail at EOF -> entry array -> magic.
  // Any inconsistency degrades to the sequential walk for reading, but
  // footer_status_ records the distinction between "never had a footer"
  // (kAbsent: no EOF seal at the tail, e.g. torn or footerless file) and
  // "had one that is damaged" (kInvalid) so tools can fail loudly.
  if (size_ < kBinFileHeaderBytes + 4 + kBinFooterTailBytes) return;
  const unsigned char* tail = data_ + size_ - kBinFooterTailBytes;
  if (get_u64le(tail + 8) != kBinEofMagic) return;
  footer_status_ = FooterStatus::kInvalid;  // seal present; prove validity
  const std::uint32_t entry_count = get_u32le(tail);
  const std::uint32_t entries_crc = get_u32le(tail + 4);
  const std::uint64_t entries_bytes =
      static_cast<std::uint64_t>(entry_count) * kBinFooterEntryBytes;
  if (entries_bytes + 4 + kBinFooterTailBytes + kBinFileHeaderBytes > size_) {
    return;
  }
  const unsigned char* entries = tail - entries_bytes;
  if (get_u32le(entries - 4) != kBinFooterMagic) return;
  if (crc32c(entries, entries_bytes) != entries_crc) return;
  const std::size_t footer_start =
      static_cast<std::size_t>(entries - 4 - data_);
  index_.reserve(entry_count);
  for (std::uint32_t i = 0; i < entry_count; ++i) {
    const unsigned char* e = entries + i * kBinFooterEntryBytes;
    BlockIndexEntry entry;
    entry.offset = get_u64le(e);
    entry.first_time_s = static_cast<std::int64_t>(get_u64le(e + 8));
    entry.last_time_s = static_cast<std::int64_t>(get_u64le(e + 16));
    entry.record_count = get_u32le(e + 24);
    entry.kind = e[28] == 0 ? BlockKind::kPing : BlockKind::kTraceroute;
    if (entry.offset < kBinFileHeaderBytes ||
        entry.offset + kBinBlockHeaderBytes > footer_start) {
      index_.clear();  // poisoned index; fall back to sequential walk
      return;
    }
    index_.push_back(entry);
  }
  footer_status_ = FooterStatus::kValid;
}

BlockPlan BinRecordMmapReader::plan(const MmapFile* mapping) const {
  BlockPlan plan;
  bool footer_seen = false;
  if (!ok_) {
    plan.end = size_;
  } else if (!index_.empty()) {
    plan.end = size_;
    plan.offsets.reserve(index_.size());
    for (const auto& entry : index_) {
      plan.offsets.push_back(static_cast<std::size_t>(entry.offset));
    }
  } else {
    plan = plan_walk(data_, kBinFileHeaderBytes, size_, /*resync=*/true,
                     &footer_seen, mapping);
  }
  // A footer magic ends the walk, yet init() could not validate a footer
  // (that is why we are walking): it was torn off or mangled. Without
  // this, truncating a file mid-footer would look like a clean
  // footerless archive.
  plan.footer = footer_seen && footer_status_ == FooterStatus::kAbsent
                    ? FooterStatus::kInvalid
                    : footer_status_;
  return plan;
}

void BinRecordMmapReader::read_all_impl(const TraceRecordFn& on_trace,
                                        const PingRecordFn& on_ping) {
  const BlockPlan p = plan();
  read_planned(data_, p, on_trace, on_ping, counters_);
  footer_status_ = p.footer;
}

// ---------------------------------------------------------------------------
// Format sniffing and the interchangeable-ingest seam
// ---------------------------------------------------------------------------

namespace {

/// The sniff window is magic + version, not magic alone: a text file that
/// happens to begin with "S2SB" (a hostname column, say) almost certainly
/// continues with printable bytes, which decode as a little-endian version
/// far above 255 and send the file to the text arm. Versions in [1, 255]
/// are claimed as binary even beyond kBinVersion so that a future-format
/// file gets the reader's explicit "unsupported version" error instead of
/// being shredded line-by-line as text.
bool sniff_binary_header(const unsigned char* data, std::size_t size) {
  if (size < 6 || get_u32le(data) != kBinFileMagic) return false;
  const std::uint16_t version = get_u16le(data + 4);
  return version >= 1 && version <= 255;
}

/// A read-only istream buffer over bytes already in memory (a text
/// archive's mapping), so the text reader parses them without a copy.
class MemoryBuf : public std::streambuf {
 public:
  MemoryBuf(const char* data, std::size_t size) {
    char* p = const_cast<char*>(data);
    setg(p, p, p + size);
  }
};

}  // namespace

bool is_binary_record_image(const void* data, std::size_t size) {
  return sniff_binary_header(static_cast<const unsigned char*>(data), size);
}

IngestResult ingest_record_image(const void* data, std::size_t size,
                                 const TraceRecordFn& on_trace,
                                 const PingRecordFn& on_ping) {
  IngestResult result;
  std::size_t delivered = 0;
  const auto count_trace = [&](const probe::TracerouteRecord& r) {
    ++delivered;
    on_trace(r);
  };
  const auto count_ping = [&](const probe::PingRecord& r) {
    ++delivered;
    on_ping(r);
  };
  if (is_binary_record_image(data, size)) {
    result.binary = true;
    BinRecordMmapReader reader(data, size);
    if (!reader.ok()) {
      result.ok = false;
      result.error = reader.error();
      return result;
    }
    reader.read_all(count_trace, count_ping);
    result.blocks_read = reader.blocks_read();
    result.corrupt_blocks = reader.corrupt_blocks();
    result.crc_failures = reader.counters().crc_failures;
    result.records_rejected = reader.counters().records_rejected;
    result.truncated = reader.counters().truncated;
    result.footer = reader.footer_status();
  } else {
    MemoryBuf buf(static_cast<const char*>(data), size);
    std::istream in(&buf);
    RecordReader reader(in);
    reader.read_all(count_trace, count_ping);
    result.malformed_lines = reader.errors();
    result.malformed_retained = reader.malformed_retained();
  }
  result.records = delivered;
  return result;
}

void IngestResult::export_metrics(
    std::map<std::string, std::uint64_t>& counters) const {
  if (!binary) {
    counters["s2s.io.records_parsed"] += records;
    counters["s2s.io.malformed_retained"] += malformed_retained;
    counters["s2s.io.malformed_dropped"] +=
        malformed_lines - malformed_retained;
    return;
  }
  counters["s2s.io.binrec.blocks_read"] += blocks_read;
  counters["s2s.io.binrec.records_read"] += records;
  if (crc_failures > 0) counters["s2s.io.binrec.crc_failures"] += crc_failures;
  if (bytes_mapped > 0) counters["s2s.io.binrec.bytes_mapped"] += bytes_mapped;
}

IngestResult ingest_record_file(const std::string& path,
                                const TraceRecordFn& on_trace,
                                const PingRecordFn& on_ping) {
  MmapFile file;
  if (!file.open(path)) {
    IngestResult result;
    result.ok = false;
    result.error = file.error();
    return result;
  }
  IngestResult result =
      ingest_record_image(file.data(), file.size(), on_trace, on_ping);
  result.bytes_mapped = file.size();
  return result;
}

}  // namespace s2s::io
