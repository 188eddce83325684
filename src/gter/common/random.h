#ifndef GTER_COMMON_RANDOM_H_
#define GTER_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gter {

/// Deterministic, fast PRNG (xoshiro256** seeded via SplitMix64).
/// Every stochastic component in the library (data generation, ITER weight
/// initialization, RSS walks, CliqueRank edge bonuses) draws from an Rng so
/// whole-pipeline runs are reproducible from a single seed.
class Rng {
 public:
  /// Seeds the generator. Identical seeds yield identical streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound). `bound` must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1) with 53 bits of entropy.
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Uniform double in the open interval (0, 1); never returns exactly 0.
  double OpenUniformDouble();

  /// Bernoulli draw with success probability `p` (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Standard normal via Box–Muller (caches the second deviate).
  double Gaussian();

  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Fisher–Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->empty()) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBounded(i + 1));
      // Value-based swap: also works for std::vector<bool> proxies.
      T tmp = (*items)[i];
      (*items)[i] = (*items)[j];
      (*items)[j] = tmp;
    }
  }

  /// Draws `k` distinct indices from [0, n) in increasing probability-correct
  /// manner (Floyd's algorithm); result order is unspecified.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Splits off an independently-seeded child generator; children with
  /// distinct `stream_id`s have independent streams.
  Rng Fork(uint64_t stream_id) const;

 private:
  uint64_t state_[4];
  uint64_t seed_;
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace gter

#endif  // GTER_COMMON_RANDOM_H_
