#include "gter/common/random.h"

#include <algorithm>
#include <cmath>

#include "gter/common/status.h"

namespace gter {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) : seed_(seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  GTER_CHECK(bound > 0);
  // Lemire's nearly-divisionless method.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t t = -bound % bound;
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

double Rng::OpenUniformDouble() {
  double u;
  do {
    u = UniformDouble();
  } while (u <= 0.0);
  return u;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = OpenUniformDouble();
  double u2 = UniformDouble();
  double radius = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = radius * std::sin(theta);
  has_cached_gaussian_ = true;
  return radius * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  GTER_CHECK(k <= n);
  // Floyd's algorithm: expected O(k) insertions, exact distribution.
  std::vector<size_t> result;
  result.reserve(k);
  for (size_t j = n - k; j < n; ++j) {
    size_t t = static_cast<size_t>(NextBounded(j + 1));
    if (std::find(result.begin(), result.end(), t) == result.end()) {
      result.push_back(t);
    } else {
      result.push_back(j);
    }
  }
  return result;
}

Rng Rng::Fork(uint64_t stream_id) const {
  // Derive a child seed from (seed, stream_id) via two SplitMix64 rounds.
  uint64_t mix = seed_ ^ (0xA0761D6478BD642FULL * (stream_id + 1));
  uint64_t s = mix;
  (void)SplitMix64(&s);
  return Rng(SplitMix64(&s));
}

}  // namespace gter
