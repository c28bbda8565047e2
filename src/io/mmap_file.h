// Read-only memory-mapped file: the bytes BinRecordMmapReader and the
// ingest entries (io::ingest_record_file) read in place.
//
// open + fstat + mmap(PROT_READ, MAP_PRIVATE); the block decoder then
// iterates column segments in place without materializing strings or
// copying payloads. POSIX only: CI builds on Linux, and a heap-buffer
// stand-in for other platforms would be code no build ever runs.
#pragma once

#include <cstddef>
#include <string>

namespace s2s::io {

class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile() { close(); }

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;
  MmapFile(MmapFile&& other) noexcept { *this = std::move(other); }
  MmapFile& operator=(MmapFile&& other) noexcept;

  /// Maps `path` read-only. Returns false (and sets error()) on failure;
  /// an empty file maps successfully with size() == 0.
  bool open(const std::string& path);
  void close();

  const unsigned char* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  const std::string& error() const noexcept { return error_; }

  /// Drops the resident pages holding [begin, end) from this process
  /// (MADV_DONTNEED), except the page holding `end` unless end reaches
  /// size(). The bytes stay mapped: a later read faults them back in
  /// from the page cache. A streaming reader calls this behind its
  /// cursor, each call starting where the last ended, so one mapping can
  /// be kept for later reads without pinning the whole file in RSS.
  void release(std::size_t begin, std::size_t end) const noexcept;

 private:
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  std::string error_;
};

}  // namespace s2s::io
