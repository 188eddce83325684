#ifndef GTER_CORE_CLIQUERANK_H_
#define GTER_CORE_CLIQUERANK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gter/common/exec_context.h"
#include "gter/er/pair_space.h"
#include "gter/graph/record_graph.h"

namespace gter {

/// kAuto runs the dense engine on record graphs whose edge density is at
/// least this, and the masked-sparse engine below it.
inline constexpr double kDenseDensityThreshold = 0.25;

/// Which matrix engine evaluates the recurrence M^k = M_t × (M^{k-1} ⊙ M_n).
enum class CliqueRankEngine {
  /// Pick by graph density: masked-sparse below kDenseDensityThreshold,
  /// dense at or above it.
  kAuto,
  /// Each step scatters the iterate into one n×n column-panel scratch and
  /// runs a vectorized dot product per edge (ComputeMaskedProductPanels).
  /// The paper's Eigen formulation ran a full n×n GEMM here; only the
  /// products on the edge pattern are ever read, so only those are formed.
  kDense,
  /// Each step is a Gustavson gather on the CSR pattern with O(n) scratch
  /// (ComputeMaskedProductCsr). Both engines keep the same summation
  /// order, so their p is bit-identical; the switch decides only speed and
  /// memory (masked_multiply.h).
  kMaskedSparse,
};

/// How the per-walk random bonus b ∈ (0,1) of Eq. 12 is realized in the
/// matrix formulation.
enum class BoostMode {
  /// Sample one b per directed edge from the seeded generator (mirrors the
  /// per-walk sampling of RSS).
  kSampled,
  /// Use the closed-form expectation E[(1+b)^α] = (2^{α+1} − 1)/(α + 1).
  kExpected,
};

/// Options for the CliqueRank algorithm (§VI-C).
struct CliqueRankOptions {
  /// Exponent α of the non-linear transition probability (Eq. 11).
  double alpha = 20.0;
  /// Maximum steps S (matrix powers accumulated). A bipartite record graph
  /// runs step 1 only: every later step is exactly zero on its edges.
  size_t max_steps = 20;
  /// Disable to ablate the big-clique boost (then M¹ = M_t).
  bool use_boost = true;
  BoostMode boost_mode = BoostMode::kSampled;
  uint64_t seed = 7;
  CliqueRankEngine engine = CliqueRankEngine::kAuto;
};

/// Output of one CliqueRank run.
struct CliqueRankResult {
  /// Matching probability p(r_i, r_j) per PairId, clamped to [0, 1]
  /// (Eq. 15 averages both walk directions over steps 1..S).
  std::vector<double> pair_probability;
  CliqueRankEngine engine_used = CliqueRankEngine::kAuto;
  double seconds = 0.0;
};

/// Runs CliqueRank over the record graph built from ITER's similarities;
/// `pairs` is the pair space the graph was built from. It reads the graph's
/// stored edge pattern, pair positions and bipartiteness, so a call builds
/// no structure. Matrix kernels run on `ctx.pool` at `ActiveSimdLevel()`;
/// metrics (engine chosen, setup and per-step kernel time, matrix steps
/// run, scratch bytes) go to `ctx.metrics`.
/// Cancellation is polled at entry and once per matrix step in both
/// engines. A graph with no records gives an empty `pair_probability`.
Result<CliqueRankResult> RunCliqueRank(
    const RecordGraph& graph, const PairSpace& pairs,
    const CliqueRankOptions& options = {},
    const ExecContext& ctx = DefaultExecContext());

/// The one-step matrices CliqueRank's recurrence starts from, as value
/// arrays parallel to the record graph's AdjacencyMatrix() (whose structure
/// is M_n, the edge pattern the recurrence lives on), so positions line up
/// with it.
struct CliqueRankSetup {
  /// M_t of Eq. 11/13: row i holds s(i,j)^α / Σ_k s(i,k)^α over i's
  /// neighbors. Rows are stabilized by dividing weights by the row maximum
  /// before powering; rows whose weights are all zero fall back to uniform
  /// transitions.
  std::vector<double> transition;
  /// M_b of Eq. 12, parallel to `transition`: with t = M_t[i,j] and
  /// per-directed-edge bonus B = (1+b)^α, M_b[i,j] = B·t / (1 − t + B·t)
  /// (Eq. 12 after dividing by the row's unboosted normalizer). Equals M_t
  /// when `use_boost` is off; zero entries stay zero. Sampled bonuses are
  /// drawn from `options.seed` in CSR value order.
  std::vector<double> boosted;
};

/// Computes M_t and M_b in one sweep over the graph's rows from its current
/// weights; writes only the two value arrays (shared by both engines;
/// exposed for property tests and ablations).
CliqueRankSetup TransitionAndBoost(const RecordGraph& graph,
                                   const CliqueRankOptions& options);

}  // namespace gter

#endif  // GTER_CORE_CLIQUERANK_H_
