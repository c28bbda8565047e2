// AS-path inference from traceroute (paper Sections 2.1 and 4.1).
//
// Each hop IP is mapped to the origin AS of the longest matching announced
// prefix (bgp::Rib). Unresponsive hops and unmapped addresses become gaps;
// a gap is imputed at AS level when the hops on both sides map to the same
// ASN (the paper's imputation rule). Consecutive duplicate ASNs collapse,
// yielding the AS-level path. Traceroutes whose collapsed path visits the
// same AS twice (an AS loop, a classic-traceroute artifact) are flagged so
// the analyses can exclude them, as the paper does.
#pragma once

#include "bgp/rib.h"
#include "net/asn.h"
#include "probe/records.h"

namespace s2s::core {

/// Data-quality class of one traceroute (paper Table 1). Priority order:
/// an unresponsive hop wins over an unmapped address.
enum class TraceQuality : std::uint8_t {
  kCompleteAsLevel,  ///< every hop responsive and mapped
  kMissingAsLevel,   ///< some hop's address has no IP-to-ASN mapping
  kMissingIpLevel,   ///< some hop did not respond
};

struct InferredPath {
  net::AsPath as_path;  ///< collapsed path; kUnknownAsn marks residual gaps
  TraceQuality quality = TraceQuality::kCompleteAsLevel;
  bool has_as_loop = false;  ///< a known ASN repeats non-consecutively
  bool imputed = false;      ///< at least one gap was filled by imputation
};

/// InferredPath without the path itself (see AsPathInferrer::infer_append).
struct PathTraits {
  TraceQuality quality = TraceQuality::kCompleteAsLevel;
  bool has_as_loop = false;
  bool imputed = false;
};

class AsPathInferrer {
 public:
  explicit AsPathInferrer(const bgp::Rib& rib) : rib_(rib) {}

  /// Infers the AS path of a (complete or partial) traceroute. `src_asn`
  /// is the probing server's own AS (the operator knows it), used to
  /// anchor the first hop.
  InferredPath infer(const probe::TracerouteRecord& record,
                     net::Asn src_asn) const;

  /// infer() that appends the collapsed path to `out` (which may already
  /// hold other paths) in one pass over the hops, with no scratch
  /// allocation: a buffer reused across records allocates only while it
  /// grows. Thread-safe (the RIB is read-only).
  PathTraits infer_append(const probe::TracerouteRecord& record,
                          net::Asn src_asn, std::vector<net::Asn>& out) const;

 private:
  const bgp::Rib& rib_;
};

}  // namespace s2s::core
