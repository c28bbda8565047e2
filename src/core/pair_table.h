// The one (src, dst, family) table every per-pair analysis store keeps.
//
// A pair is packed into one 64-bit key, (src << 24) | (dst << 4) |
// family, and that key is both the hash-map key and the sharding key of
// DESIGN.md section 9: shard k % n_shards, visited in ascending key
// order. The packing lives here and nowhere else.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/ip.h"
#include "topology/topology.h"

namespace s2s::core {

template <typename V>
class PairTable {
 public:
  using Visitor = std::function<void(topology::ServerId, topology::ServerId,
                                     net::Family, const V&)>;

  static std::uint64_t key(topology::ServerId src, topology::ServerId dst,
                           net::Family family) {
    return (std::uint64_t{src} << 24) | (std::uint64_t{dst} << 4) |
           (family == net::Family::kIPv6 ? 1u : 0u);
  }

  const V* find(topology::ServerId src, topology::ServerId dst,
                net::Family family) const {
    const auto it = map_.find(key(src, dst, family));
    return it == map_.end() ? nullptr : &it->second;
  }

  /// The value under a packed key(), default-constructed on first use.
  V& operator[](std::uint64_t k) { return map_[k]; }

  std::size_t size() const noexcept { return map_.size(); }

  /// Every value, mutable, in hash order.
  template <typename Fn>
  void for_each_value(Fn&& fn) {
    for (auto& [k, value] : map_) fn(value);
  }

  /// Visits every pair as fn(src, dst, family, value), in hash order.
  void for_each(const Visitor& fn) const {
    for (const auto& [k, value] : map_) visit(k, value, fn);
  }

  /// Visits the pairs whose key falls in `shard` (key % n_shards), in
  /// ascending key order, so the hash layout never reaches a shard's
  /// output. Read-only; distinct shards may run concurrently.
  void for_each_shard(std::size_t shard, std::size_t n_shards,
                      const Visitor& fn) const {
    std::vector<std::pair<std::uint64_t, const V*>> keys;
    for (const auto& [k, value] : map_) {
      if (k % n_shards == shard) keys.emplace_back(k, &value);
    }
    std::sort(keys.begin(), keys.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [k, value] : keys) visit(k, *value, fn);
  }

 private:
  static void visit(std::uint64_t k, const V& value, const Visitor& fn) {
    fn(static_cast<topology::ServerId>(k >> 24),
       static_cast<topology::ServerId>((k >> 4) & 0xFFFFFu),
       (k & 1u) ? net::Family::kIPv6 : net::Family::kIPv4, value);
  }

  std::unordered_map<std::uint64_t, V> map_;
};

}  // namespace s2s::core
