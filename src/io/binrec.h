// `.s2sb` — versioned little-endian binary columnar record format.
//
// The text format in records_io re-parses every epoch with strtod and IP
// string parsing on the ingest hot path; at paper scale (16-month
// full-mesh campaigns, short-term campaigns over millions of pairs) that
// parse is the bottleneck before the analysis stores ever see a sample.
// `.s2sb` stores the same records as per-block column segments:
//
//   File   := FileHeader Block* Footer?
//   FileHeader (16 B): magic "S2SB", u16 version=1, u16 flags=0, u64 rsvd
//   Block  := BlockHeader payload
//   BlockHeader (16 B): magic "S2BK", u8 kind (0=ping 1=trace), u8 rsvd,
//                       u16 record_count, u32 payload_bytes, u32 crc32c
//   Footer := magic "S2SF", entry[n] (32 B each: u64 offset,
//             i64 first_time_s, i64 last_time_s, u32 record_count,
//             u8 kind, u8[3] rsvd), tail (16 B: u32 entry_count,
//             u32 entries_crc32c, 8 B magic "S2SB_EOF")
//
// Block payloads are columnar: (src, dst, family) tuples are
// dictionary-coded per block, timestamps are zigzag-varint deltas, RTTs
// are fixed-point u32 columns in microsecond-granularity "thousandths of
// a millisecond" — exactly the %.3f precision of the text format, so a
// record decoded from either format quantizes identically in every store
// (an f32 column was rejected: its rounding differs from the text parse
// near .05 ms tenths boundaries and would break the cross-format
// byte-identical-analysis contract; see DESIGN.md section 10).
//
// The per-block CRC32C covers the header fields after the magic plus the
// payload, so every damaged block is detected and skipped exactly; the
// footer index gives O(1) seek to the block covering any epoch. Every
// walk over the blocks (readers, indexer, repair, corruptor scan) goes
// through one block parser and one loop in binrec.cc; callers differ only
// in what they do on damage. One reader, over a mapping or a borrowed
// image, funnels into the same Record callbacks as the text RecordReader,
// so text and binary archives are drop-in interchangeable at every call
// site.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "io/mmap_file.h"
#include "probe/records.h"

namespace s2s::io {

// ---------------------------------------------------------------------------
// Format constants (DESIGN.md section 10 is the normative table).
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t kBinFileMagic = 0x42533253u;   // "S2SB"
inline constexpr std::uint32_t kBinBlockMagic = 0x4B423253u;  // "S2BK"
inline constexpr std::uint32_t kBinFooterMagic = 0x46533253u; // "S2SF"
inline constexpr std::uint64_t kBinEofMagic =
    0x464F455F42533253ull;                                    // "S2SB_EOF"
inline constexpr std::uint16_t kBinVersion = 1;
inline constexpr std::size_t kBinFileHeaderBytes = 16;
inline constexpr std::size_t kBinBlockHeaderBytes = 16;
inline constexpr std::size_t kBinFooterEntryBytes = 32;
inline constexpr std::size_t kBinFooterTailBytes = 16;
/// Hard caps a reader enforces before trusting a block header.
inline constexpr std::size_t kMaxBlockRecords = 4096;
inline constexpr std::size_t kMaxBlockPayloadBytes = 1u << 26;
/// RTT column sentinel for a non-encodable (non-finite/out-of-range) RTT;
/// decoders reject the record, mirroring the text parser's strictness.
inline constexpr std::uint32_t kInvalidRttThousandths = 0xFFFFFFFFu;

enum class BlockKind : std::uint8_t { kPing = 0, kTraceroute = 1 };

/// Fixed-point RTT encoding shared by writer and decoder: thousandths of
/// a millisecond, round-half-away — the exact grid "%.3f" text uses.
inline std::uint32_t encode_rtt_thousandths(double ms);
/// Inverse; kInvalidRttThousandths and out-of-range values -> nullopt.
std::optional<double> decode_rtt_thousandths(std::uint32_t v);

/// Structural description of one block, from a forward scan of the image
/// (used by the corruption injector and the footer builder; offsets are
/// from the start of the file).
struct BlockRef {
  std::size_t header_offset = 0;
  std::size_t payload_offset = 0;
  std::size_t payload_bytes = 0;
  std::uint16_t record_count = 0;
  BlockKind kind = BlockKind::kPing;
};

/// Walks the blocks of an `.s2sb` image by header chaining (no CRC
/// checks; stops at the footer, EOF, or the first structurally
/// implausible header). Returns nullopt when the file header itself is
/// missing or unsupported.
std::optional<std::vector<BlockRef>> scan_blocks(const void* data,
                                                 std::size_t size);

/// One footer index entry (O(1) seek support: entries are fixed-width
/// and carry the block's time span).
struct BlockIndexEntry {
  std::uint64_t offset = 0;  ///< of the block header
  std::int64_t first_time_s = 0;
  std::int64_t last_time_s = 0;
  std::uint32_t record_count = 0;
  BlockKind kind = BlockKind::kPing;
};

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct BinWriterConfig {
  /// Records per block before an automatic flush (per kind; <= 4096).
  std::size_t block_records = 1024;
  /// Emit the 16-byte file header (off when appending blocks to an
  /// existing archive, e.g. on campaign checkpoint resume).
  bool write_header = true;
  /// Emit the footer index in finish(). Footerless archives stay fully
  /// readable (readers fall back to a sequential block walk); resumed
  /// campaign archives use this so an appended file is byte-identical to
  /// an uninterrupted run's block stream.
  bool write_footer = true;
  /// Open-shard resume (DESIGN.md section 16): seed the writer with the
  /// index of blocks already on disk, so a writer re-opened on a sealed
  /// prefix continues the block stream and its eventual footer covers
  /// the whole file. `resume_offset` is the byte size of that prefix
  /// (the position the stream is about to append at); bytes_written()
  /// continues from it. Used with `write_header = false`.
  std::vector<BlockIndexEntry> resume_index;
  std::size_t resume_offset = 0;
};

/// Streaming `.s2sb` writer with bounded memory: at most one open block
/// per record kind is buffered, as its encoded columns. Usable directly
/// as a campaign sink; call flush_block() at epoch/checkpoint boundaries
/// so blocks align with epochs (that is what makes the footer an epoch
/// index and a truncate-to-boundary resume byte-exact), then finish()
/// once.
class BinRecordWriter {
 public:
  explicit BinRecordWriter(std::ostream& out, const BinWriterConfig& config = {});
  ~BinRecordWriter();

  BinRecordWriter(const BinRecordWriter&) = delete;
  BinRecordWriter& operator=(const BinRecordWriter&) = delete;

  void write(const probe::TracerouteRecord& record);
  void write(const probe::PingRecord& record);

  /// Closes the open block(s) — traceroute first, then ping, so the
  /// block order is a deterministic function of the record stream.
  void flush_block();

  /// flush_block() + footer; idempotent. The destructor calls it, but
  /// call it explicitly when the ostream can fail.
  void finish();

  std::size_t written() const noexcept { return written_; }
  std::size_t blocks_written() const noexcept { return index_.size(); }

  /// Adds the blocks this writer emitted (not the resumed prefix's) to
  /// s2s.io.binrec.blocks_written.
  void export_metrics(std::map<std::string, std::uint64_t>& counters) const;
  /// Bytes emitted so far (header + closed blocks [+ footer]); valid as
  /// a resume boundary right after a flush_block().
  std::size_t bytes_written() const noexcept { return bytes_written_; }

 private:
  /// An open block's columns (binrec.cc).
  struct Columns;

  void flush_kind(BlockKind kind);
  /// Writes one block whose payload is `payload`'s parts, in order.
  void emit_block(BlockKind kind,
                  std::initializer_list<std::string_view> payload,
                  std::size_t record_count, std::int64_t first_time,
                  std::int64_t last_time);

  std::ostream& out_;
  BinWriterConfig config_;
  std::unique_ptr<Columns> traces_;
  std::unique_ptr<Columns> pings_;
  std::vector<BlockIndexEntry> index_;
  std::size_t written_ = 0;
  std::size_t bytes_written_ = 0;
  bool finished_ = false;
};

// ---------------------------------------------------------------------------
// Crash-consistent commit and torn-tail repair (DESIGN.md section 12)
// ---------------------------------------------------------------------------

/// Atomic file commit for archive writers: bytes stream to `path + ".tmp"`,
/// and commit() flushes, fsyncs the tmp file, renames it over `path`, and
/// fsyncs the containing directory. A crash at any point leaves either the
/// previous file or the new one under the final name — never a torn hybrid
/// (the tmp file a crash leaves behind is garbage-collected by the next
/// successful commit to the same path). The destructor aborts (unlinks the
/// tmp file) unless commit() succeeded.
class AtomicArchiveWriter {
 public:
  explicit AtomicArchiveWriter(const std::string& path);
  ~AtomicArchiveWriter();

  AtomicArchiveWriter(const AtomicArchiveWriter&) = delete;
  AtomicArchiveWriter& operator=(const AtomicArchiveWriter&) = delete;

  /// False when the tmp file could not be opened; error() says why.
  bool ok() const noexcept { return ok_; }
  const std::string& error() const noexcept { return error_; }
  /// The stream a BinRecordWriter (or any writer) targets.
  std::ostream& stream() noexcept { return out_; }

  /// flush + fsync(tmp) + rename(tmp, path) + fsync(dir). Idempotent once
  /// successful; on failure the tmp file is removed and `error` explains.
  bool commit(std::string& error);
  /// Discards the tmp file; the target path is untouched.
  void abort() noexcept;

 private:
  std::string path_;
  std::string tmp_;
  std::ofstream out_;
  bool ok_ = false;
  bool committed_ = false;
  std::string error_;
};

/// Outcome of recover_archive().
struct RecoverResult {
  bool ok = false;        ///< the file now ingests clean
  bool repaired = false;  ///< ok and the file was rewritten (else untouched)
  std::size_t blocks_kept = 0;
  std::size_t records_kept = 0;
  std::size_t bytes_dropped = 0;  ///< damaged/stale tail bytes discarded
  std::string error;
};

/// Torn-tail repair: keeps the longest prefix of CRC-valid, decodable
/// blocks, drops everything after it (a half-written block from a crashed
/// writer, a mangled footer, trailing garbage), rebuilds the footer index
/// for the kept blocks, and commits the result atomically via
/// AtomicArchiveWriter. The block region of the repaired file is
/// byte-identical to a strict prefix of the intended archive, and the
/// rebuilt footer is byte-identical to what BinRecordWriter would have
/// emitted for those blocks. A file that is already sealed and intact is
/// left untouched (ok, not repaired); a clean footerless archive gains a
/// footer. Only the unrecoverable cases fail: unreadable file or
/// missing/unsupported file header.
RecoverResult recover_archive(const std::string& path);

// ---------------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------------

using TraceRecordFn = std::function<void(const probe::TracerouteRecord&)>;
using PingRecordFn = std::function<void(const probe::PingRecord&)>;

/// The `.s2sb` reader's counters; the text RecordReader's
/// lines()/errors() analog at block granularity.
struct BinReadCounters {
  std::size_t blocks_read = 0;      ///< CRC-verified and decoded
  std::size_t corrupt_blocks = 0;   ///< skipped: bad CRC/header/structure
  std::size_t crc_failures = 0;     ///< of those, framed but failed the CRC
  std::size_t records_read = 0;     ///< delivered to a callback
  std::size_t records_rejected = 0; ///< per-record decode rejects (bad RTT)
  /// The walk hit EOF mid-header or mid-payload: the file is torn, not
  /// merely carrying damaged blocks. Tools that report archive health
  /// (s2s_recconv info) treat this as a hard failure.
  bool truncated = false;
};

/// Outcome of validating the optional footer index.
enum class FooterStatus : std::uint8_t {
  kAbsent = 0,   ///< no footer (footerless archive, or file torn before it)
  kValid = 1,    ///< entry CRC and offsets check out; index walk enabled
  kInvalid = 2,  ///< footer present but damaged (CRC/structure mismatch)
};

/// The blocks of an image as a footer would index them.
struct BlockIndex {
  std::vector<BlockIndexEntry> entries;
  /// Where the block region ends: the footer's offset in a sealed
  /// image, else the image size.
  std::size_t blocks_end = kBinFileHeaderBytes;
};

/// CRC-verifying block indexer for a footerless image (an open shard's
/// sealed prefix): walks the blocks, checks every CRC, and returns the
/// exact index a footer would carry — the entries BinWriterConfig's
/// `resume_index` wants — and where the blocks end. nullopt when the
/// file header is bad or any block in the range fails its CRC / is torn
/// (an open-shard resume must not build on a damaged prefix; run
/// recover_archive instead).
std::optional<BlockIndex> index_blocks(const void* data, std::size_t size);

/// The block positions one read visits, in visit order, framed by
/// header chaining alone — no CRC check, no decode — so the checks and
/// decodes can then run on any thread. decode_planned() on every offset
/// in order, with the counters summed and `truncated` carried over, is
/// exactly the read the plan was made for (DESIGN.md section 17).
struct BlockPlan {
  std::vector<std::size_t> offsets;  ///< block header positions
  std::size_t end = 0;      ///< bound every block is read against
  bool truncated = false;   ///< the read ends in a tear
  /// Footer outcome of the read (BinRecordMmapReader::plan only).
  FooterStatus footer = FooterStatus::kAbsent;
};

/// CRC-checks and decodes the block a plan visits at `offset`, counting
/// it read or corrupt — one step of the read the plan describes.
/// Thread-safe: it touches only `counters` and the callbacks.
void decode_planned(const void* data, const BlockPlan& plan,
                    std::size_t offset, const TraceRecordFn& on_trace,
                    const PingRecordFn& on_ping, BinReadCounters& counters);

/// The delta-pickup plan: the blocks whose header starts in
/// [begin_offset, end_offset) — a live dataset that already ingested the
/// first W bytes decodes just the newly sealed tail. Offsets must be
/// block boundaries (begin_offset may be kBinFileHeaderBytes for "from
/// the first block"). A block that fails its CRC or decode is counted
/// corrupt and skipped like read_all; a tear or an unframeable header
/// ends the walk as the plan's last position and sets `truncated`. With
/// `mapping` (the mapping `data` points into) the walk releases the
/// pages it has framed (MmapFile::release), so framing never holds the
/// range resident.
BlockPlan plan_block_range(const void* data, std::size_t size,
                           std::size_t begin_offset, std::size_t end_offset,
                           const MmapFile* mapping = nullptr);

/// The `.s2sb` reader, over a mapping or a borrowed in-memory image. Uses
/// the footer index when it validates (exact per-block offsets survive
/// even header corruption); otherwise walks the blocks in sequence,
/// resyncing past an unframeable header to the next block magic, so one
/// damaged block is exactly one corrupt block. Column segments are
/// decoded in place — no line strings, no payload copies.
class BinRecordMmapReader {
 public:
  explicit BinRecordMmapReader(const std::string& path);
  /// Takes over an open mapping (one open serves both the ingest and
  /// later reads of the same bytes).
  explicit BinRecordMmapReader(MmapFile file);
  /// Borrow an already-mapped (or in-memory) image; `data` must outlive
  /// the reader. This is also the unit-test entry for in-memory images.
  BinRecordMmapReader(const void* data, std::size_t size);

  bool ok() const noexcept { return ok_; }
  const std::string& error() const noexcept { return error_; }
  std::uint16_t version() const noexcept { return version_; }
  /// The raw mapped (or borrowed) image. Servers slice response payloads
  /// directly out of these bytes (svc::Dataset::archive_slice), so the
  /// pointers stay valid for the reader's lifetime.
  const unsigned char* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  /// The owned mapping (closed for a borrowed image).
  const MmapFile& file() const noexcept { return file_; }
  /// True when the footer index validated (read_all walks by index).
  bool has_index() const noexcept { return !index_.empty(); }
  const std::vector<BlockIndexEntry>& index() const noexcept {
    return index_;
  }
  /// Distinguishes a footerless archive (normal) from a damaged footer
  /// (the sequential-walk fallback still reads what it can, but the
  /// archive lost its integrity seal and O(1) seek).
  FooterStatus footer_status() const noexcept { return footer_status_; }

  template <typename TraceFn, typename PingFn>
  void read_all(TraceFn&& on_trace, PingFn&& on_ping) {
    read_all_impl(TraceRecordFn(std::forward<TraceFn>(on_trace)),
                  PingRecordFn(std::forward<PingFn>(on_ping)));
  }

  /// The plan of read_all(): the index entries in footer order when the
  /// index validated, else the sequential walk (with its footer
  /// verdict). Empty when !ok(). With `mapping` (the mapping data()
  /// points into) the walk releases the pages it has framed.
  BlockPlan plan(const MmapFile* mapping = nullptr) const;

  const BinReadCounters& counters() const noexcept { return counters_; }
  std::size_t blocks_read() const noexcept { return counters_.blocks_read; }
  std::size_t corrupt_blocks() const noexcept {
    return counters_.corrupt_blocks;
  }
  std::size_t records_read() const noexcept { return counters_.records_read; }

 private:
  void init(const void* data, std::size_t size);
  void read_all_impl(const TraceRecordFn& on_trace,
                     const PingRecordFn& on_ping);

  MmapFile file_;  ///< owns the mapping for the path constructor
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  bool ok_ = false;
  std::uint16_t version_ = 0;
  std::string error_;
  std::vector<BlockIndexEntry> index_;
  FooterStatus footer_status_ = FooterStatus::kAbsent;
  BinReadCounters counters_;
};

// ---------------------------------------------------------------------------
// Format interchangeability helpers
// ---------------------------------------------------------------------------

/// True when the image starts with the `.s2sb` magic followed by a
/// plausible version (1..255). This is the sniff every ingest entry uses
/// to accept text and binary archives interchangeably — the version
/// guard keeps text files that merely begin with the magic bytes on the
/// text arm.
bool is_binary_record_image(const void* data, std::size_t size);

/// Result of a format-agnostic ingest pass (ingest_record_image /
/// ingest_record_file): the union of the text reader's line counters and
/// the binary reader's block counters, whichever arm actually ran.
struct IngestResult {
  bool binary = false;       ///< which arm ran
  bool ok = true;            ///< false: unreadable header/unsupported version
  std::string error;
  std::size_t records = 0;   ///< delivered to callbacks
  std::size_t malformed_lines = 0;   ///< text arm
  std::size_t blocks_read = 0;       ///< binary arm
  std::size_t corrupt_blocks = 0;    ///< binary arm
  std::size_t records_rejected = 0;  ///< binary arm
  std::size_t crc_failures = 0;      ///< binary arm
  bool truncated = false;            ///< binary arm: EOF hit mid-block
  FooterStatus footer = FooterStatus::kAbsent;  ///< binary arm
  std::size_t malformed_retained = 0;  ///< text arm: kept as samples
  std::size_t bytes_mapped = 0;  ///< size of the file the ingest mapped

  /// Adds the arm's counts: as RecordReader's names, or as
  /// s2s.io.binrec.{blocks_read,records_read}, plus .crc_failures and
  /// .bytes_mapped once a block failed its CRC / a file was mapped.
  void export_metrics(std::map<std::string, std::uint64_t>& counters) const;
};

/// Sniffs the format of an in-memory image and streams every record to
/// the callbacks: `.s2sb` blocks through BinRecordMmapReader over the
/// borrowed image, text lines through io::RecordReader over the same
/// bytes, with no copy. Campaigns, stores, benches and examples all
/// ingest through this seam, which is what makes the two formats drop-in
/// interchangeable.
IngestResult ingest_record_image(const void* data, std::size_t size,
                                 const TraceRecordFn& on_trace,
                                 const PingRecordFn& on_ping);

/// File variant: maps the file (text too) and ingests the mapping.
IngestResult ingest_record_file(const std::string& path,
                                const TraceRecordFn& on_trace,
                                const PingRecordFn& on_ping);

inline std::uint32_t encode_rtt_thousandths(double ms) {
  if (!(ms >= 0.0) || ms > probe::kMaxPlausibleRttMs) {
    return kInvalidRttThousandths;  // also catches NaN
  }
  return static_cast<std::uint32_t>(ms * 1000.0 + 0.5);
}

}  // namespace s2s::io
