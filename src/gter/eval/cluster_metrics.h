#ifndef GTER_EVAL_CLUSTER_METRICS_H_
#define GTER_EVAL_CLUSTER_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gter/er/ground_truth.h"

namespace gter {

/// Pairwise clustering quality: precision/recall/F1 over all unordered
/// record pairs, comparing a predicted labeling to the ground truth.
struct ClusterEvaluation {
  double pairwise_precision = 0.0;
  double pairwise_recall = 0.0;
  double pairwise_f1 = 0.0;
  /// Adjusted Rand Index in [-1, 1].
  double adjusted_rand_index = 0.0;
  size_t num_predicted_clusters = 0;
};

/// Evaluates predicted cluster labels (one per record) against the truth.
ClusterEvaluation EvaluateClustering(const std::vector<uint32_t>& predicted,
                                     const GroundTruth& truth);

}  // namespace gter

#endif  // GTER_EVAL_CLUSTER_METRICS_H_
