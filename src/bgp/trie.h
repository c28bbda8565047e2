// Longest-prefix-match table over disjoint address ranges.
//
// This is the IP-to-ASN mapping core: the paper maps every traceroute hop
// to "the origin AS of the longest matching prefix observed in BGP". The
// inserted prefixes cut the address space into disjoint ranges, and each
// range is labelled with the longest prefix that covers all of it, so a
// lookup is one binary search over the range starts. (`Trie4`/`Trie6`
// keep the names the RIB and its callers know the tables by.)
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "net/prefix.h"

namespace s2s::bgp {

using Uint128 = unsigned __int128;

/// Addresses as unsigned integers whose order is the address order.
inline std::uint32_t range_key(net::IPv4Addr a) noexcept { return a.value(); }
inline Uint128 range_key(const net::IPv6Addr& a) noexcept {
  return (Uint128{a.hi()} << 64) | a.lo();
}

/// LPM table over `Prefix` (net::Prefix4 or net::Prefix6) storing a
/// `Value` per prefix. Inserting the same prefix twice overwrites the
/// value. `insert` is O(ranges) and keeps the table exact; `lookup` is
/// O(log ranges).
template <typename Prefix, typename Addr, typename Key, typename Value>
class PrefixRangeTable {
 public:
  void insert(const Prefix& prefix, const Value& value) {
    const Key lo = range_key(prefix.address());
    const int length = prefix.length();
    const auto [it, added] = index_.try_emplace(
        {lo, length}, static_cast<std::int32_t>(entries_.size()));
    if (!added) {
      entries_[static_cast<std::size_t>(it->second)].value = value;
      return;
    }
    entries_.push_back({value, length});
    const Key host_mask = length >= kBits ? Key{0} : ~Key{0} >> length;
    const Key hi = lo | host_mask;
    const std::size_t first = split(lo);
    const std::size_t last = hi == ~Key{0} ? starts_.size() : split(hi + 1);
    // Every range inside the prefix is covered either by a shorter prefix
    // (which the new one beats) or by a longer one nested inside it.
    for (std::size_t i = first; i < last; ++i) {
      const std::int32_t label = labels_[i];
      if (label < 0 ||
          entries_[static_cast<std::size_t>(label)].length < length) {
        labels_[i] = it->second;
      }
    }
  }

  /// Longest-prefix match; nullopt when no covering prefix exists.
  std::optional<Value> lookup(const Addr& addr) const {
    const auto it =
        std::upper_bound(starts_.begin(), starts_.end(), range_key(addr));
    const std::int32_t label = labels_[static_cast<std::size_t>(
        it - starts_.begin() - 1)];
    if (label < 0) return std::nullopt;
    return entries_[static_cast<std::size_t>(label)].value;
  }

  /// Number of distinct prefixes inserted.
  std::size_t size() const noexcept { return entries_.size(); }

 private:
  static constexpr int kBits = static_cast<int>(sizeof(Key) * 8);

  struct Entry {
    Value value;
    int length;
  };

  /// Index of the range starting at `at`, splitting the range that
  /// contains it when none starts there yet.
  std::size_t split(Key at) {
    const auto it = std::lower_bound(starts_.begin(), starts_.end(), at);
    const auto i = static_cast<std::size_t>(it - starts_.begin());
    if (it != starts_.end() && *it == at) return i;
    const std::int32_t label = labels_[i - 1];
    starts_.insert(it, at);
    labels_.insert(labels_.begin() + static_cast<std::ptrdiff_t>(i), label);
    return i;
  }

  // Range i covers [starts_[i], starts_[i + 1]) and is labelled with the
  // entries_ index of its longest covering prefix, or -1 for none. The
  // first range always starts at address zero.
  std::vector<Key> starts_{Key{0}};
  std::vector<std::int32_t> labels_{-1};
  std::vector<Entry> entries_;
  std::map<std::pair<Key, int>, std::int32_t> index_;
};

using Trie4 = PrefixRangeTable<net::Prefix4, net::IPv4Addr, std::uint32_t,
                               std::uint32_t>;
using Trie6 =
    PrefixRangeTable<net::Prefix6, net::IPv6Addr, Uint128, std::uint32_t>;

}  // namespace s2s::bgp
