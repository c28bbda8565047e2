#include "svc/result_cache.h"

#include <algorithm>
#include <utility>

#include "io/varint.h"

namespace s2s::svc {

ResultCache::ResultCache(std::size_t max_bytes)
    : max_bytes_(std::max<std::size_t>(max_bytes, 1)) {}

ResultCache::Value ResultCache::find(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  return it->second->second;
}

void ResultCache::insert(const std::string& key, Value value) {
  if (!value) return;
  const std::size_t cost = entry_bytes(key, value);
  if (cost > max_bytes_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= entry_bytes(key, it->second->second);
    bytes_ += cost;
    it->second->second = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.emplace_front(key, std::move(value));
    index_.emplace(key, lru_.begin());
    bytes_ += cost;
    ++insertions_;
  }
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    const auto& victim = lru_.back();
    bytes_ -= entry_bytes(victim.first, victim.second);
    index_.erase(victim.first);
    lru_.pop_back();
    ++evictions_;
  }
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out;
  out.hits = hits_;
  out.misses = misses_;
  out.insertions = insertions_;
  out.evictions = evictions_;
  out.entries = lru_.size();
  out.bytes = bytes_;
  return out;
}

std::string ResultCache::make_key(std::uint64_t archive_digest,
                                  std::uint8_t type,
                                  std::string_view payload) {
  std::string key;
  key.reserve(9 + payload.size());
  io::put_u64le(key, archive_digest);
  key.push_back(static_cast<char>(type));
  key.append(payload);
  return key;
}

}  // namespace s2s::svc
