#ifndef GTER_CORE_FUSION_H_
#define GTER_CORE_FUSION_H_

#include <functional>
#include <memory>
#include <vector>

#include "gter/common/exec_context.h"
#include "gter/common/metrics.h"
#include "gter/core/cliquerank.h"
#include "gter/core/clusterer.h"
#include "gter/core/iter.h"
#include "gter/er/dataset.h"
#include "gter/er/pair_space.h"
#include "gter/graph/bipartite_graph.h"

namespace gter {

/// Configuration of the full ITER ⇄ CliqueRank fusion framework (§IV).
struct FusionConfig {
  IterOptions iter;
  CliqueRankOptions cliquerank;
  /// Outer reinforcement rounds; the paper runs 5 (§VII-C).
  size_t rounds = 5;
  /// Matching-probability threshold η; the paper sets 0.98 universally.
  double eta = 0.98;
  /// Clustering endgame applied to the final probabilities (DESIGN.md §4f).
  /// The default is the transitive closure of the p ≥ η decisions.
  ClustererKind clusterer = ClustererKind::kConnectedComponents;
  ClustererOptions clusterer_options;
};

/// Timing and quality snapshot after each reinforcement round.
struct FusionRoundStats {
  size_t round = 0;  // 1-based
  double iter_seconds = 0.0;
  double probability_seconds = 0.0;  // CliqueRank
  double cumulative_seconds = 0.0;
  size_t iter_iterations = 0;
};

/// Output of a full fusion run.
struct FusionResult {
  /// Learned term discrimination power, by TermId.
  std::vector<double> term_weights;
  /// Learned pair similarity s(r_i, r_j), by PairId.
  std::vector<double> pair_scores;
  /// Matching probability p(r_i, r_j), by PairId.
  std::vector<double> pair_probability;
  /// p ≥ η decisions, by PairId.
  std::vector<bool> matches;
  /// Entity partition from the configured clustering endgame: dense
  /// cluster label per record.
  std::vector<uint32_t> cluster_of;
  size_t num_clusters = 0;
  std::vector<FusionRoundStats> round_stats;
  double total_seconds = 0.0;
  /// Σ|Δx| trace of the *first* ITER run (Figure 5).
  std::vector<double> first_iter_trace;
};

/// Declares the pipeline's well-known counters and gauges at zero so a
/// `--metrics_out` JSON dump has a stable schema — consumers see
/// `rss/walks_run` etc. even on runs where that stage never executed.
void DeclarePipelineMetrics(MetricsRegistry* registry);

/// The unsupervised fusion pipeline. Construction builds the candidate pair
/// space and the term–pair bipartite graph; Run() then alternates ITER and
/// CliqueRank for the configured number of rounds:
///
///   p ≡ 1 → ITER → s → record graph → CliqueRank → p → ITER → ...
///
/// and ends with the decisions p ≥ η and the configured clustering endgame.
/// The per-round observer (if set) fires after each CliqueRank with the
/// state so far — the Table V instrumentation hook.
class FusionPipeline {
 public:
  /// `dataset` must outlive the pipeline and should already be
  /// preprocessed (RemoveFrequentTerms). The pair space and the bipartite
  /// graph are built, timed and counted on `ctx`'s sinks.
  FusionPipeline(const Dataset& dataset, FusionConfig config,
                 const ExecContext& ctx = DefaultExecContext());

  /// Observer invoked after round r (1-based) with the in-progress result.
  using RoundObserver =
      std::function<void(size_t round, const FusionResult& snapshot)>;
  void set_round_observer(RoundObserver observer) {
    observer_ = std::move(observer);
  }

  /// Runs the configured number of reinforcement rounds. Every stage
  /// executes on `ctx` (worker pool, metrics/trace sinks, cancellation);
  /// results are bit-identical for any thread count.
  ///
  /// Cancellation is polled at every round boundary and inside every
  /// stage, so a tripped token unwinds within one stage-internal step.
  /// On `Cancelled`/`DeadlineExceeded`, `partial()` holds everything the
  /// run completed (round_stats for finished rounds, the last finished
  /// stage's vectors, total_seconds) — the anytime-resolution contract.
  Result<FusionResult> Run(const ExecContext& ctx = DefaultExecContext());

  /// State accumulated by the last Run(): meaningful after a cancelled
  /// run; moved-from (empty) after a successful one, whose value Run()
  /// returned.
  const FusionResult& partial() const { return partial_; }

  const PairSpace& pairs() const { return pairs_; }
  const BipartiteGraph& bipartite() const { return bipartite_; }
  const Dataset& dataset() const { return dataset_; }

 private:
  const Dataset& dataset_;
  FusionConfig config_;
  PairSpace pairs_;
  BipartiteGraph bipartite_;
  RoundObserver observer_;
  FusionResult partial_;
};

}  // namespace gter

#endif  // GTER_CORE_FUSION_H_
