#include "gter/core/iter_matrix.h"

#include <cmath>

#include "gter/common/random.h"
#include "gter/common/status.h"
#include "gter/common/thread_pool.h"

namespace gter {
namespace {

// Minimum terms/pairs per parallel chunk.
constexpr size_t kGrain = 256;

double Norm2(const std::vector<double>& v) {
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc);
}

}  // namespace

Result<IterMatrixResult> RunIterMatrixForm(
    const BipartiteGraph& graph, const std::vector<double>& edge_probability,
    const IterMatrixOptions& options, const ExecContext& ctx) {
  GTER_CHECK(edge_probability.size() == graph.num_pairs());
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  const size_t num_terms = graph.num_terms();
  const size_t num_pairs = graph.num_pairs();

  IterMatrixResult result;
  result.pair_scores.assign(num_pairs, 0.0);
  result.term_weights.assign(num_terms, 0.0);
  if (num_pairs == 0) return result;

  // One application of M = Sᵀ D⁻¹ S C to y, via the intermediate x.
  // S is the term×pair incidence (structural); D is diag(P_t); C is
  // diag(p(r_i, r_j)).
  // Both halves of the application are gather-style over fixed adjacency
  // order, so the parallel sweeps stay bit-identical to the serial ones.
  std::vector<double> x(num_terms);
  auto apply = [&](const std::vector<double>& y, std::vector<double>* out) {
    ParallelFor(ctx.pool, 0, num_terms, kGrain,
                [&](size_t lo, size_t hi) {
      for (TermId t = lo; t < hi; ++t) {
        double acc = 0.0;
        for (PairId p : graph.PairsOfTerm(t)) {
          acc += edge_probability[p] * y[p];
        }
        x[t] = acc / graph.Pt(t);
      }
    });
    ParallelFor(ctx.pool, 0, num_pairs, kGrain,
                [&](size_t lo, size_t hi) {
      for (PairId p = lo; p < hi; ++p) {
        double acc = 0.0;
        for (TermId t : graph.TermsOfPair(p)) acc += x[t];
        (*out)[p] = acc;
      }
    });
  };

  // Random non-negative start: cannot be orthogonal to the (non-negative)
  // principal eigenvector of this non-negative matrix.
  Rng rng(options.seed);
  std::vector<double> y(num_pairs);
  for (double& v : y) v = rng.OpenUniformDouble();
  double norm = Norm2(y);
  for (double& v : y) v /= norm;

  std::vector<double> next(num_pairs, 0.0);
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    GTER_RETURN_IF_ERROR(ctx.CheckCancel());
    apply(y, &next);
    double next_norm = Norm2(next);
    result.iterations = iter + 1;
    if (next_norm <= 0.0) {
      // M y = 0: y is in the null space (e.g. all probabilities zero).
      result.eigenvalue = 0.0;
      break;
    }
    double change = 0.0;
    for (size_t p = 0; p < num_pairs; ++p) {
      double v = next[p] / next_norm;
      change += (v - y[p]) * (v - y[p]);
      y[p] = v;
    }
    result.eigenvalue = next_norm;  // Rayleigh quotient for unit y: ‖My‖
    if (std::sqrt(change) < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  // Residual ‖My − λy‖.
  apply(y, &next);
  double residual_sq = 0.0;
  for (size_t p = 0; p < num_pairs; ++p) {
    double d = next[p] - result.eigenvalue * y[p];
    residual_sq += d * d;
  }
  result.residual = std::sqrt(residual_sq);

  result.pair_scores = y;
  ParallelFor(ctx.pool, 0, num_terms, kGrain,
              [&](size_t lo, size_t hi) {
    for (TermId t = lo; t < hi; ++t) {
      double acc = 0.0;
      for (PairId p : graph.PairsOfTerm(t)) {
        acc += edge_probability[p] * y[p];
      }
      result.term_weights[t] = acc / graph.Pt(t);
    }
  });
  return result;
}

}  // namespace gter
