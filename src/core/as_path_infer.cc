#include "core/as_path_infer.h"

#include <algorithm>

namespace s2s::core {

InferredPath AsPathInferrer::infer(const probe::TracerouteRecord& record,
                                   net::Asn src_asn) const {
  InferredPath out;

  // Token per hop: the mapped ASN, or kUnknownAsn for a gap. Track the two
  // gap causes separately for the Table 1 quality class.
  bool any_unresponsive = false;
  bool any_unmapped = false;
  std::vector<net::Asn> tokens;
  tokens.reserve(record.hops.size() + 1);
  tokens.push_back(src_asn);  // the probing host itself
  for (const auto& hop : record.hops) {
    if (!hop.addr) {
      any_unresponsive = true;
      tokens.push_back(net::kUnknownAsn);
      continue;
    }
    const auto asn = rib_.origin(*hop.addr);
    if (!asn) {
      any_unmapped = true;
      tokens.push_back(net::kUnknownAsn);
    } else {
      tokens.push_back(*asn);
    }
  }

  out.quality = any_unresponsive ? TraceQuality::kMissingIpLevel
               : any_unmapped    ? TraceQuality::kMissingAsLevel
                                 : TraceQuality::kCompleteAsLevel;

  // Impute gap runs whose flanking ASNs agree.
  for (std::size_t i = 0; i < tokens.size();) {
    if (tokens[i].known()) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < tokens.size() && !tokens[j].known()) ++j;
    if (i > 0 && j < tokens.size() && tokens[i - 1] == tokens[j]) {
      for (std::size_t k = i; k < j; ++k) tokens[k] = tokens[j];
      out.imputed = true;
    }
    i = j;
  }

  // Collapse consecutive duplicates (runs of kUnknownAsn also collapse to
  // one gap marker).
  for (const net::Asn& asn : tokens) {
    if (out.as_path.empty() || out.as_path.back() != asn) {
      out.as_path.push_back(asn);
    }
  }

  // AS loop: a known ASN re-appears after the path left it. Collapsed
  // paths are a handful of ASes long, so a scan beats any set.
  const auto& path = out.as_path;
  for (auto it = path.begin(); it != path.end() && !out.has_as_loop; ++it) {
    out.has_as_loop = it->known() && std::find(path.begin(), it, *it) != it;
  }
  return out;
}

}  // namespace s2s::core
