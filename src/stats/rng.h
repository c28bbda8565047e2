// Deterministic random-number engine for the simulator.
//
// Everything in s2s that draws randomness takes an explicit Rng so that
// campaigns are reproducible from a single seed (benches print their seed).
// The engine is xoshiro256** seeded via SplitMix64, and satisfies
// std::uniform_random_bit_generator so the <random> distributions work.
#pragma once

#include <array>
#include <cstdint>
#include <random>

namespace s2s::stats {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5eedULL) { reseed(seed); }

  /// Re-initialize the state from a single 64-bit seed (SplitMix64 stream).
  void reseed(std::uint64_t seed) {
    for (auto& word : state_) {
      seed += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  /// The full engine state, for checkpointing; restoring it with
  /// set_state() resumes the stream at exactly the same point.
  std::array<std::uint64_t, 4> state() const noexcept {
    return {state_[0], state_[1], state_[2], state_[3]};
  }
  void set_state(const std::array<std::uint64_t, 4>& s) noexcept {
    for (int i = 0; i < 4; ++i) state_[i] = s[static_cast<std::size_t>(i)];
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return (*this)() % n; }
  /// Bernoulli draw.
  bool chance(double p) { return uniform() < p; }
  /// Standard normal via std::normal_distribution.
  double normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(*this);
  }
  /// Lognormal with given parameters of the underlying normal.
  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(*this);
  }
  /// Exponential with the given mean.
  double exponential_mean(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(*this);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace s2s::stats
