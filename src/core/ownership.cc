#include "core/ownership.h"

#include <algorithm>
#include <unordered_set>

#include "obs/trace.h"

namespace s2s::core {

std::size_t OwnershipInference::TripleHash::operator()(
    const Triple& t) const noexcept {
  std::size_t h = 0;
  for (const net::IPAddr& a : t) {
    h ^= std::hash<net::IPAddr>{}(a) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
  }
  return h;
}

void OwnershipInference::label(const net::IPAddr& addr, net::Asn owner,
                               OwnershipHeuristic heuristic) {
  auto& votes = labels_[addr].votes[owner.value()];
  ++votes[static_cast<std::size_t>(heuristic)];
  switch (heuristic) {
    case OwnershipHeuristic::kFirst: ++stats_.labels_first; break;
    case OwnershipHeuristic::kNoIp2As: ++stats_.labels_noip2as; break;
    case OwnershipHeuristic::kCustomer: ++stats_.labels_customer; break;
    case OwnershipHeuristic::kProvider: ++stats_.labels_provider; break;
    case OwnershipHeuristic::kBack: ++stats_.labels_back; break;
    case OwnershipHeuristic::kForward: ++stats_.labels_forward; break;
  }
}

void OwnershipInference::observe_path(std::span<const net::IPAddr> hops) {
  // Edges and triple windows are deduplicated so repeated observations of
  // the same (static) path do not bias the election counts.
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (i + 1 < hops.size()) {
      const auto& x = hops[i];
      const auto& y = hops[i + 1];
      if (x == y) continue;
      auto& out = out_links_[x];
      if (std::find(out.begin(), out.end(), y) == out.end()) {
        out.push_back(y);
        in_links_[y].push_back(x);
        links_.emplace_back(x, y);

        const auto mx = map(x);
        const auto my = map(y);
        // first: both announced by the same AS -> label the earlier hop.
        if (mx && my && *mx == *my) {
          label(x, *mx, OwnershipHeuristic::kFirst);
        }
        // provider: the far side maps to a provider of the near side's AS
        // -> the interface is on the provider's customer-facing router.
        if (mx && my && *mx != *my &&
            relationships_.is_provider_of(*my, *mx)) {
          label(y, *my, OwnershipHeuristic::kProvider);
        }
      }
    }
    if (i >= 1 && i + 1 < hops.size()) {
      const auto& x = hops[i - 1];
      const auto& y = hops[i];
      const auto& z = hops[i + 1];
      if (!seen_triples_.insert({x, y, z}).second) continue;
      const auto mx = map(x);
      const auto my = map(y);
      const auto mz = map(z);
      // noip2as: unmapped hop flanked by the same AS.
      if (!my && mx && mz && *mx == *mz) {
        label(y, *mx, OwnershipHeuristic::kNoIp2As);
      }
      // customer: provider-assigned point-to-point space on the customer's
      // border router.
      if (mx && my && mz && *mx == *my && *my != *mz &&
          relationships_.is_customer_of(*mz, *mx)) {
        label(y, *mz, OwnershipHeuristic::kCustomer);
      }
    }
  }
}

void OwnershipInference::observe_trace(
    const probe::TracerouteRecord& record) {
  for_each_responsive_run(
      record, run_,
      [this](std::span<const net::IPAddr> run) { observe_path(run); });
}

void OwnershipInference::finalize() {
  if (finalized_) return;
  finalized_ = true;
  const obs::TraceSpan stage_span("analysis.congestion.ownership");

  // back: if >=2 in-neighbors of y carry the same candidate owner ASi,
  // extend that label to unlabeled in-neighbors whose address ASi announces.
  for (const auto& [y, ins] : in_links_) {
    if (ins.size() < 3) continue;
    std::map<std::uint32_t, std::size_t> candidate_counts;
    for (const auto& x : ins) {
      const auto it = labels_.find(x);
      if (it == labels_.end()) continue;
      for (const auto& [asn, votes] : it->second.votes) {
        ++candidate_counts[asn];
      }
    }
    for (const auto& [asn, count] : candidate_counts) {
      if (count < 2) continue;
      for (const auto& x : ins) {
        if (labels_.contains(x)) continue;
        const auto mx = map(x);
        if (mx && mx->value() == asn) {
          label(x, net::Asn(asn), OwnershipHeuristic::kBack);
        }
      }
    }
  }

  // forward: if every out-neighbor of an unlabeled x maps to the same
  // owner-labeled ASj, x likely belongs to ASj's border router set.
  for (const auto& [x, outs] : out_links_) {
    if (labels_.contains(x) || outs.size() < 2) continue;
    std::optional<net::Asn> common;
    bool ok = true;
    for (const auto& y : outs) {
      const auto my = map(y);
      if (!my || !labels_.contains(y)) {
        ok = false;
        break;
      }
      if (!common) {
        common = my;
      } else if (*common != *my) {
        ok = false;
        break;
      }
    }
    if (ok && common) label(x, *common, OwnershipHeuristic::kForward);
  }

  // Election.
  stats_.addresses = labels_.size();
  for (const auto& [addr, set] : labels_) {
    if (set.votes.size() == 1) {
      owners_.emplace(addr, net::Asn(set.votes.begin()->first));
      ++stats_.resolved_single;
      continue;
    }
    // Most frequent (candidate, heuristic) label.
    std::uint32_t best_asn = 0;
    std::size_t best_count = 0;
    OwnershipHeuristic best_heuristic = OwnershipHeuristic::kFirst;
    for (const auto& [asn, votes] : set.votes) {
      for (std::size_t h = 0; h < votes.size(); ++h) {
        if (votes[h] > best_count) {
          best_count = votes[h];
          best_asn = asn;
          best_heuristic = static_cast<OwnershipHeuristic>(h);
        }
      }
    }
    if (best_count > 0 && best_heuristic == OwnershipHeuristic::kFirst) {
      owners_.emplace(addr, net::Asn(best_asn));
      ++stats_.resolved_first;
    } else {
      ++stats_.unresolved;
    }
  }
}

std::optional<net::Asn> OwnershipInference::owner(
    const net::IPAddr& addr) const {
  const auto it = owners_.find(addr);
  if (it == owners_.end()) return std::nullopt;
  return it->second;
}

}  // namespace s2s::core
