#include "live/open_shard.h"

#include <fcntl.h>
#include <unistd.h>

#include <utility>

#include "io/mmap_file.h"

namespace s2s::live {

OpenShardWriter::OpenShardWriter(const std::string& path,
                                 const OpenShardConfig& config)
    : path_(path) {
  out_.open(path_, std::ios::binary | std::ios::trunc);
  if (!out_) {
    error_ = path_ + ": open failed";
    return;
  }
  io::BinWriterConfig wc;
  wc.block_records = config.block_records;
  writer_ = std::make_unique<io::BinRecordWriter>(out_, wc);
  if (!open_fsync_fd()) return;
  // Publish the empty shard (file header only, epoch -1) so a poller
  // that races the very first seal still reads a valid watermark.
  std::string err;
  if (!sync_and_publish(-1, err)) {
    error_ = err;
    return;
  }
  ok_ = true;
}

OpenShardWriter::~OpenShardWriter() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<OpenShardWriter> OpenShardWriter::resume(
    const std::string& path, const OpenShardConfig& config,
    std::string& error) {
  Watermark wm;
  const WatermarkStatus status = read_watermark_file(path, wm);
  if (status == WatermarkStatus::kAbsent) {
    error = path + ": no watermark sidecar (not an open shard)";
    return nullptr;
  }
  if (status == WatermarkStatus::kInvalid) {
    error = watermark_path(path) + ": corrupt watermark sidecar";
    return nullptr;
  }

  std::optional<io::BlockIndex> indexed;
  {
    io::MmapFile map;
    if (!map.open(path)) {
      error = path + ": " + map.error();
      return nullptr;
    }
    if (map.size() < wm.sealed_bytes) {
      error = path + ": file shorter than the sealed watermark — the "
              "durable prefix itself is torn";
      return nullptr;
    }
    // Re-verify every sealed block; resume must not build on damage the
    // sidecar cannot see (bit rot inside the sealed prefix).
    indexed = io::index_blocks(map.data(),
                               static_cast<std::size_t>(wm.sealed_bytes));
    if (!indexed) {
      error = path + ": sealed prefix fails CRC validation";
      return nullptr;
    }
  }
  // The block region may end before sealed_bytes when finish() already
  // appended a footer; truncating to it strips the footer so appending
  // continues the block stream.
  const std::size_t blocks_end = indexed->blocks_end;
  if (::truncate(path.c_str(), static_cast<off_t>(blocks_end)) != 0) {
    error = path + ": truncate to sealed boundary failed";
    return nullptr;
  }

  auto w = std::unique_ptr<OpenShardWriter>(new OpenShardWriter());
  w->path_ = path;
  w->out_.open(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!w->out_) {
    error = path + ": reopen failed";
    return nullptr;
  }
  w->out_.seekp(static_cast<std::streamoff>(blocks_end));
  for (const auto& e : indexed->entries) w->base_records_ += e.record_count;
  io::BinWriterConfig wc;
  wc.block_records = config.block_records;
  wc.write_header = false;
  wc.resume_index = std::move(indexed->entries);
  wc.resume_offset = blocks_end;
  w->writer_ = std::make_unique<io::BinRecordWriter>(w->out_, wc);
  if (!w->open_fsync_fd()) {
    error = w->error_;
    return nullptr;
  }
  // Republish immediately: if we truncated a footer, the old sidecar's
  // sealed_bytes would point past EOF.
  if (!w->sync_and_publish(wm.epoch, error)) return nullptr;
  w->ok_ = true;
  return w;
}

bool OpenShardWriter::open_fsync_fd() {
  fd_ = ::open(path_.c_str(), O_RDWR);
  if (fd_ < 0) {
    error_ = path_ + ": open for fsync failed";
    return false;
  }
  return true;
}

void OpenShardWriter::write(const probe::TracerouteRecord& record) {
  writer_->write(record);
}

void OpenShardWriter::write(const probe::PingRecord& record) {
  writer_->write(record);
}

bool OpenShardWriter::seal(std::int64_t epoch, std::string& error) {
  writer_->flush_block();
  return sync_and_publish(epoch, error);
}

bool OpenShardWriter::finish(std::string& error) {
  if (finished_) return true;
  writer_->finish();
  if (!sync_and_publish(watermark_.epoch, error)) return false;
  finished_ = true;
  return true;
}

bool OpenShardWriter::sync_and_publish(std::int64_t epoch,
                                       std::string& error) {
  out_.flush();
  if (!out_) {
    error = path_ + ": write failed";
    return false;
  }
  if (fd_ >= 0 && ::fsync(fd_) != 0) {
    error = path_ + ": fsync failed";
    return false;
  }
  Watermark wm;
  wm.sealed_bytes = writer_->bytes_written();
  wm.blocks = writer_->blocks_written();
  wm.records = base_records_ + writer_->written();
  wm.epoch = epoch;
  if (!write_watermark_file(path_, wm, error)) return false;
  watermark_ = wm;
  return true;
}

}  // namespace s2s::live
