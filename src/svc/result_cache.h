// LRU cache for serialized query responses.
//
// The daemon's queries are pure functions of (archive content, request
// bytes) — the analyses are deterministic at any thread count (DESIGN.md
// section 9) — so a response can be cached verbatim under a key that is
// exactly those inputs: the archive digest concatenated with the request
// type and payload bytes. Reloading a changed archive changes the digest,
// which invalidates every prior entry without an explicit flush (stale
// keys simply stop matching and age out of the LRU).
//
// One LRU under one byte budget. The server gives each reactor its own
// instance, so the mutex is uncontended on the serving path; it exists
// because stats() readers (the metrics dump from another reactor, tools,
// benches) race the owning reactor. An entry larger than the whole
// budget is simply not cached.
//
// Values are shared-ownership strings: find() hands back the cached
// std::shared_ptr<const std::string> itself, so the server's writev path
// can point an iovec straight at the cached bytes (the shared_ptr keeps
// the entry alive across an eviction racing the flush) — a warm hit is
// served without copying the payload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace s2s::svc {

class ResultCache {
 public:
  explicit ResultCache(std::size_t max_bytes = 64u << 20);
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Shared-ownership cached value; empty on a miss.
  using Value = std::shared_ptr<const std::string>;

  /// The hit's shared value (the entry becomes most recently used) or
  /// nullptr on a miss. Counts a hit or a miss.
  Value find(const std::string& key);

  /// Inserts or refreshes; evicts least-recently-used entries until the
  /// cache is back under budget (each counted as an eviction). Values
  /// larger than the budget are dropped rather than cycling the whole
  /// cache through the LRU. Null values are ignored.
  void insert(const std::string& key, Value value);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
  };
  /// Safe concurrently with find()/insert(). The server exports the sum
  /// over its reactors' caches as s2s.svc.cache_* (DESIGN.md section 13).
  Stats stats() const;

  /// Builds the canonical cache key: archive digest + request type byte +
  /// request payload bytes.
  static std::string make_key(std::uint64_t archive_digest,
                              std::uint8_t type, std::string_view payload);

 private:
  using Lru = std::list<std::pair<std::string, Value>>;

  static std::size_t entry_bytes(const std::string& key, const Value& value) {
    return key.size() + (value ? value->size() : 0);
  }

  const std::size_t max_bytes_;
  mutable std::mutex mutex_;
  Lru lru_;  ///< front = most recently used
  std::unordered_map<std::string, Lru::iterator> index_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0, misses_ = 0, insertions_ = 0, evictions_ = 0;
};

}  // namespace s2s::svc
