#include "core/congestion_study.h"

#include <string>

#include "obs/trace.h"

namespace s2s::core {

namespace {

std::string link_key(const CongestedSegmentObs& obs) {
  std::string key;
  key += obs.near_addr ? obs.near_addr->to_string() : "?";
  key += '|';
  key += obs.far_addr ? obs.far_addr->to_string() : "?";
  return key;
}

}  // namespace

CongestionStudy build_congestion_study(
    const std::vector<CongestedSegmentObs>& segments,
    const LinkClassifier& classifier, const topology::Topology& topo) {
  const obs::TraceSpan stage_span("analysis.congestion.classify");

  CongestionStudy study;

  struct Accum {
    CongestedSegmentObs first;
    std::size_t pairs = 0;
    double overhead_sum = 0.0;
    bool us_us = true;  ///< all marking pairs are US-US
  };
  std::map<std::string, Accum> by_link;
  for (const auto& obs : segments) {
    auto& acc = by_link[link_key(obs)];
    if (acc.pairs == 0) acc.first = obs;
    ++acc.pairs;
    acc.overhead_sum += obs.overhead_ms;
    const auto& src_city = topo.cities[topo.servers[obs.src].city];
    const auto& dst_city = topo.cities[topo.servers[obs.dst].city];
    acc.us_us = acc.us_us && src_city.country == "US" &&
                dst_city.country == "US";
  }

  for (const auto& [key, acc] : by_link) {
    CongestionStudy::LinkInfo info;
    info.near = acc.first.near_addr;
    info.far = acc.first.far_addr;
    info.cls = classifier.classify(info.near, info.far);
    info.crossing_pairs = acc.pairs;
    info.overhead_ms = acc.overhead_sum / static_cast<double>(acc.pairs);
    switch (info.cls.kind) {
      case LinkKind::kInternal:
        ++study.internal;
        study.internal_weighted += acc.pairs;
        study.overhead_internal.push_back(info.overhead_ms);
        if (acc.us_us) study.overhead_us_internal.push_back(info.overhead_ms);
        break;
      case LinkKind::kInterconnection:
        ++study.interconnection;
        study.interconnection_weighted += acc.pairs;
        study.overhead_interconnection.push_back(info.overhead_ms);
        if (acc.us_us) {
          study.overhead_us_interconnection.push_back(info.overhead_ms);
        }
        if (info.cls.rel == InterconnRel::kP2P) ++study.p2p;
        if (info.cls.rel == InterconnRel::kC2P) ++study.c2p;
        if (info.cls.public_ixp) {
          ++study.public_ixp;
        } else {
          ++study.private_interconnect;
        }
        break;
      case LinkKind::kUnknown:
        ++study.unknown;
        break;
    }
    study.links.push_back(std::move(info));
  }
  return study;
}

}  // namespace s2s::core
