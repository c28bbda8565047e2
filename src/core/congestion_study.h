// Aggregation of the congestion analysis (paper Sections 5.3 and 5.4):
// unique congested IP-IP links, their classification tallies, crossing-pair
// weights, and the overhead samples behind Figure 9's density curves.
#pragma once

#include <map>
#include <vector>

#include "core/link_classify.h"
#include "core/localize.h"
#include "topology/topology.h"

namespace s2s::core {

struct CongestionStudy {
  struct LinkInfo {
    std::optional<net::IPAddr> near;
    std::optional<net::IPAddr> far;
    LinkClassification cls;
    std::size_t crossing_pairs = 0;  ///< server pairs marking this link
    double overhead_ms = 0.0;        ///< mean across marking pairs
  };
  std::vector<LinkInfo> links;

  // Section 5.3 tallies over unique links:
  std::size_t internal = 0;
  std::size_t interconnection = 0;
  std::size_t unknown = 0;
  std::size_t p2p = 0;
  std::size_t c2p = 0;
  std::size_t public_ixp = 0;
  std::size_t private_interconnect = 0;
  // Crossing-pair-weighted tallies ("interconnection links are more
  // popular" when weighted):
  std::size_t internal_weighted = 0;
  std::size_t interconnection_weighted = 0;

  // Figure 9 overhead samples (per link):
  std::vector<double> overhead_internal;
  std::vector<double> overhead_interconnection;
  std::vector<double> overhead_us_internal;
  std::vector<double> overhead_us_interconnection;

  /// Adds the classified links to s2s.congestion.links_classified.
  void export_metrics(std::map<std::string, std::uint64_t>& counters) const {
    counters["s2s.congestion.links_classified"] += links.size();
  }
};

/// Merges localized congested segments into unique links and classifies
/// them. `topo` supplies server geography for the US-US breakdown only.
CongestionStudy build_congestion_study(
    const std::vector<CongestedSegmentObs>& segments,
    const LinkClassifier& classifier, const topology::Topology& topo);

}  // namespace s2s::core
