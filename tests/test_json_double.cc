// Writer::value(double) against the precision search it replaced, byte
// for byte, over edge cases, short decimals and ~1M random bit patterns.
// The reference costs up to ~20 us a value, so this suite runs in the
// slow lane.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"

namespace s2s::obs {
namespace {

/// Writer::value(double)'s former body, kept as the reference: the first
/// %g precision from 1 to 16 that round-trips, else %.17g.
std::string reference_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  for (int prec = 1; prec < 17; ++prec) {
    char probe[40];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    if (std::strtod(probe, nullptr) == v) return probe;
  }
  return buf;
}

std::string written(double v) {
  json::Writer w;
  w.value(v);
  return w.str();
}

TEST(Json, ShortestDoubleMatchesPrecisionSearch) {
  std::vector<double> values = {
      0.0, -0.0, 5e-324, -5e-324, DBL_MIN, DBL_MAX, -DBL_MAX, 1e5, 1.2e5,
      1e-4, 1e-5, 0.1, 1.0 / 3.0, 9007199254740992.0, 9007199254740993.0,
      18014398509481984.0, 1e22, 1e23, 1e100, 9.999999999999999e99,
      1e-100, 123456789012345680.0};
  // Integers at and past 2^53, where not every integer is representable.
  for (std::uint64_t i = 0; i < 64; ++i) {
    values.push_back(static_cast<double>((std::uint64_t{1} << 53) + i * 3));
    values.push_back(static_cast<double>(std::uint64_t{1} << (53 + i % 11)));
  }
  // Short decimals, the values responses mostly carry.
  std::mt19937_64 rng(7);
  for (int i = 0; i < 100000; ++i) {
    const double scale = std::pow(10.0, static_cast<int>(rng() % 9) - 3);
    values.push_back(static_cast<double>(rng() % 100000) / scale);
  }
  // Random bit patterns cover every exponent and full-length mantissas.
  for (int i = 0; i < (1 << 20); ++i) {
    const double v = std::bit_cast<double>(rng());
    if (std::isfinite(v)) values.push_back(v);
  }
  // The reference costs ~20 us a value at large exponents, so the check
  // runs on four lanes.
  constexpr std::size_t kLanes = 4;
  std::vector<std::vector<double>> mismatched(kLanes);
  std::vector<std::thread> lanes;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    lanes.emplace_back([&, lane] {
      for (std::size_t i = lane; i < values.size(); i += kLanes) {
        if (written(values[i]) != reference_double(values[i])) {
          mismatched[lane].push_back(values[i]);
        }
      }
    });
  }
  for (auto& t : lanes) t.join();
  for (const auto& lane : mismatched) {
    for (const double v : lane) {
      ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(v) << ": "
                    << written(v) << " != " << reference_double(v);
    }
  }
}

}  // namespace
}  // namespace s2s::obs
