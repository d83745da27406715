// Deterministic random number generation.
//
// Every stochastic element in the repository (measurement jitter, load
// models, random scenario generators) draws from an explicitly-seeded Rng
// so that tests and benches are reproducible bit-for-bit. The generator is
// xoshiro256**, seeded through SplitMix64 as its authors recommend.
#pragma once

#include <cstdint>

namespace envnws {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform in [0, 2^64).
  std::uint64_t next_u64();
  /// Uniform in [0, bound).
  std::uint64_t next_below(std::uint64_t bound);
  /// Uniform double in [0, 1).
  double next_double();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Standard normal via Marsaglia polar method.
  double normal();
  /// Normal with the given mean / standard deviation.
  double normal(double mean, double stddev);

 private:
  std::uint64_t state_[4];
  bool have_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace envnws
