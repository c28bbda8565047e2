#include "core/as_path_infer.h"

#include <algorithm>

namespace s2s::core {

InferredPath AsPathInferrer::infer(const probe::TracerouteRecord& record,
                                   net::Asn src_asn) const {
  InferredPath out;
  const PathTraits traits = infer_append(record, src_asn, out.as_path);
  out.quality = traits.quality;
  out.has_as_loop = traits.has_as_loop;
  out.imputed = traits.imputed;
  return out;
}

PathTraits AsPathInferrer::infer_append(const probe::TracerouteRecord& record,
                                        net::Asn src_asn,
                                        std::vector<net::Asn>& out) const {
  PathTraits traits;
  const std::size_t base = out.size();

  // One token per hop (the probing host first): the mapped ASN, or a gap
  // (kUnknownAsn). A gap run is imputed at AS level when the known
  // tokens on both sides agree; consecutive duplicates collapse, runs of
  // gaps to one marker. Streamed: a gap run is settled when the token
  // after it arrives, so no token array is built.
  bool any_unresponsive = false;
  bool any_unmapped = false;
  bool in_gap = false;
  bool gap_has_left = false;  ///< a known token precedes the gap run
  net::Asn gap_left;          ///< that token
  net::Asn last;              ///< last token seen (collapsed or not)
  bool seen_any = false;
  const auto push = [&](net::Asn asn) {
    if (out.size() == base || out.back() != asn) out.push_back(asn);
  };
  const auto token = [&](net::Asn asn) {
    if (!asn.known()) {
      if (!in_gap) {
        in_gap = true;
        gap_has_left = seen_any;
        gap_left = last;
      }
      last = asn;
      seen_any = true;
      return;
    }
    if (in_gap) {
      in_gap = false;
      if (gap_has_left && gap_left == asn) {
        traits.imputed = true;  // the gap takes the flanking ASN
      } else {
        push(net::kUnknownAsn);
      }
    }
    push(asn);
    last = asn;
    seen_any = true;
  };
  token(src_asn);
  for (const auto& hop : record.hops) {
    if (!hop.addr) {
      any_unresponsive = true;
      token(net::kUnknownAsn);
      continue;
    }
    const auto asn = rib_.origin(*hop.addr);
    if (!asn) any_unmapped = true;
    token(asn ? *asn : net::kUnknownAsn);
  }
  if (in_gap) push(net::kUnknownAsn);  // trailing gap: nothing to impute

  traits.quality = any_unresponsive ? TraceQuality::kMissingIpLevel
                   : any_unmapped   ? TraceQuality::kMissingAsLevel
                                    : TraceQuality::kCompleteAsLevel;

  // AS loop: a known ASN re-appears after the path left it. Collapsed
  // paths are a handful of ASes long, so a scan beats any set.
  const auto first = out.begin() + static_cast<std::ptrdiff_t>(base);
  for (auto it = first; it != out.end() && !traits.has_as_loop; ++it) {
    traits.has_as_loop = it->known() && std::find(first, it, *it) != it;
  }
  return traits;
}

}  // namespace s2s::core
