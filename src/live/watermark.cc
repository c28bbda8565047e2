#include "live/watermark.h"

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <vector>

#include "io/binrec.h"
#include "io/crc32c.h"
#include "io/varint.h"

namespace s2s::live {

std::string watermark_path(const std::string& archive_path) {
  return archive_path + ".wm";
}

std::string encode_watermark(const Watermark& wm) {
  std::string out;
  out.reserve(kWatermarkBytes);
  io::put_u32le(out, kWatermarkMagic);
  io::put_u16le(out, kWatermarkVersion);
  io::put_u16le(out, 0);  // reserved
  io::put_u64le(out, wm.sealed_bytes);
  io::put_u64le(out, wm.blocks);
  io::put_u64le(out, wm.records);
  io::put_u64le(out, static_cast<std::uint64_t>(wm.epoch));
  io::put_u32le(out, 0);  // reserved
  // CRC over everything after the magic (version through the reserved
  // word), so any torn or bit-flipped sidecar reads as kInvalid.
  io::put_u32le(out, io::crc32c(out.data() + 4, out.size() - 4));
  return out;
}

WatermarkStatus decode_watermark(const void* data, std::size_t size,
                                 Watermark& out) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  if (size != kWatermarkBytes || io::get_u32le(bytes) != kWatermarkMagic) {
    return WatermarkStatus::kInvalid;
  }
  if (io::get_u16le(bytes + 4) != kWatermarkVersion) {
    return WatermarkStatus::kInvalid;
  }
  const std::uint32_t want = io::get_u32le(bytes + kWatermarkBytes - 4);
  if (io::crc32c(bytes + 4, kWatermarkBytes - 8) != want) {
    return WatermarkStatus::kInvalid;
  }
  out.sealed_bytes = io::get_u64le(bytes + 8);
  out.blocks = io::get_u64le(bytes + 16);
  out.records = io::get_u64le(bytes + 24);
  out.epoch = static_cast<std::int64_t>(io::get_u64le(bytes + 32));
  return WatermarkStatus::kValid;
}

bool write_watermark_file(const std::string& archive_path,
                          const Watermark& wm, std::string& error) {
  // commit() fails unless the tmp image is fsynced before the rename
  // publishes it: a sidecar never describes bytes that are not durable.
  io::AtomicArchiveWriter out(watermark_path(archive_path));
  const std::string image = encode_watermark(wm);
  out.stream().write(image.data(), static_cast<std::streamsize>(image.size()));
  return out.commit(error);
}

WatermarkStatus read_watermark_file(const std::string& archive_path,
                                    Watermark& out) {
  std::ifstream in(watermark_path(archive_path), std::ios::binary);
  if (!in) return WatermarkStatus::kAbsent;
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return decode_watermark(bytes.data(), bytes.size(), out);
}

bool remove_watermark_file(const std::string& archive_path) {
  const std::string path = watermark_path(archive_path);
  return std::remove(path.c_str()) == 0 || errno == ENOENT;
}

}  // namespace s2s::live
