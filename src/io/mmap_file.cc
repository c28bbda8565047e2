#include "io/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace s2s::io {

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    close();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    error_ = std::move(other.error_);
  }
  return *this;
}

bool MmapFile::open(const std::string& path) {
  close();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    error_ = path + ": " + std::strerror(errno);
    return false;
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    error_ = path + ": " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ == 0) {  // mmap(0) is EINVAL; an empty archive is still valid
    ::close(fd);
    return true;
  }
  void* addr = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (addr == MAP_FAILED) {
    error_ = path + ": mmap: " + std::strerror(errno);
    size_ = 0;
    return false;
  }
  data_ = static_cast<const unsigned char*>(addr);
  return true;
}

void MmapFile::close() {
  if (data_ != nullptr) ::munmap(const_cast<unsigned char*>(data_), size_);
  data_ = nullptr;
  size_ = 0;
  error_.clear();
}

void MmapFile::release(std::size_t begin, std::size_t end) const noexcept {
  if (data_ == nullptr) return;
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  // The mapping starts page-aligned, so offsets round like addresses;
  // the mapping's last page extends past size_, so an end at size_
  // covers it.
  begin = begin / page * page;
  end = end >= size_ ? (size_ + page - 1) / page * page : end / page * page;
  if (begin >= end) return;
  ::madvise(const_cast<unsigned char*>(data_) + begin, end - begin,
            MADV_DONTNEED);
}

}  // namespace s2s::io
