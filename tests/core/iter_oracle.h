#ifndef GTER_TESTS_CORE_ITER_ORACLE_H_
#define GTER_TESTS_CORE_ITER_ORACLE_H_

// The per-pair ITER sweep (Algorithm 1) that RunIter must reproduce within
// the tolerance DESIGN.md §4 states: every sweep, every pair gathers its
// own score s(p) = Σ_{t∈p} x_t left to right, and every term sums
// p(r_i, r_j)·s(p) over its pairs in ascending PairId. It reads only the
// graph's TermsOfPair, Pt and sizes, and builds its own term → pairs lists
// from them. Serial; the reductions (L2 norm, Σ|Δx|) use RunIter's fixed
// 4096-element chunks, whose partials are added in chunk order. The
// library has no copy of it.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "gter/common/random.h"
#include "gter/core/iter.h"

namespace gter {

/// Σ_i f(i) over [0, n) in RunIter's chunk order.
template <typename PerElement>
double OracleChunkedSum(size_t n, PerElement f) {
  constexpr size_t kChunk = 4096;
  double total = 0.0;
  for (size_t begin = 0; begin < n; begin += kChunk) {
    double acc = 0.0;
    for (size_t i = begin; i < std::min(begin + kChunk, n); ++i) acc += f(i);
    total += acc;
  }
  return total;
}

inline IterResult IterOracle(const BipartiteGraph& graph,
                             const std::vector<double>& edge_probability,
                             const IterOptions& options) {
  IterResult result;
  std::vector<double>& x = result.term_weights;
  std::vector<double>& s = result.pair_scores;
  x.resize(graph.num_terms());
  s.assign(graph.num_pairs(), 0.0);
  Rng rng(options.seed);
  for (double& v : x) v = rng.OpenUniformDouble();
  std::vector<std::vector<PairId>> pairs_of_term(graph.num_terms());
  for (PairId p = 0; p < graph.num_pairs(); ++p) {
    for (TermId t : graph.TermsOfPair(p)) pairs_of_term[t].push_back(p);
  }
  const auto score_pairs = [&] {
    for (PairId p = 0; p < graph.num_pairs(); ++p) {
      double acc = 0.0;
      for (TermId t : graph.TermsOfPair(p)) acc += x[t];
      s[p] = acc;
    }
  };
  for (size_t iteration = 0; iteration < options.max_iterations;
       ++iteration) {
    score_pairs();
    const std::vector<double> x_prev = x;
    for (TermId t = 0; t < graph.num_terms(); ++t) {
      double acc = 0.0;
      for (PairId p : pairs_of_term[t]) acc += edge_probability[p] * s[p];
      x[t] = pairs_of_term[t].empty() ? 0.0 : acc / graph.Pt(t);
    }
    if (options.normalization == IterNormalization::kLogistic) {
      for (double& v : x) v = v / (1.0 + v);
    } else {
      const double norm_sq =
          OracleChunkedSum(x.size(), [&](size_t i) { return x[i] * x[i]; });
      if (norm_sq > 0.0) {
        const double inv = 1.0 / std::sqrt(norm_sq);
        for (double& v : x) v *= inv;
      }
    }
    const double change = OracleChunkedSum(
        x.size(), [&](size_t i) { return std::fabs(x[i] - x_prev[i]); });
    if (options.track_convergence) result.update_trace.push_back(change);
    result.iterations = iteration + 1;
    if (change < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  score_pairs();
  return result;
}

}  // namespace gter

#endif  // GTER_TESTS_CORE_ITER_ORACLE_H_
