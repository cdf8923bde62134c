#ifndef VDB_CORE_RNG_H_
#define VDB_CORE_RNG_H_

#include <cstdint>
#include <random>

namespace vdb {

/// Seeded random source used across the library. All builds, generators and
/// randomized indexes take an explicit seed so every experiment is
/// reproducible run-to-run.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) : engine_(seed) {}

  /// Uniform integer in [0, n).
  std::uint64_t Next(std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(engine_);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform float in [lo, hi).
  float NextFloat(float lo, float hi) {
    return std::uniform_real_distribution<float>(lo, hi)(engine_);
  }

  /// Standard normal sample.
  float NextGaussian() {
    return std::normal_distribution<float>(0.0f, 1.0f)(engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace vdb

#endif  // VDB_CORE_RNG_H_
