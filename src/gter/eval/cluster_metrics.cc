#include "gter/eval/cluster_metrics.h"

#include <algorithm>
#include <unordered_map>

#include "gter/common/status.h"

namespace gter {
namespace {

uint64_t PairsOf(uint64_t k) { return k * (k - 1) / 2; }

}  // namespace

ClusterEvaluation EvaluateClustering(const std::vector<uint32_t>& predicted,
                                     const GroundTruth& truth) {
  GTER_CHECK(predicted.size() == truth.num_records());
  const size_t n = predicted.size();

  // Contingency: cells[(pred, true)] = co-occurrence count.
  std::unordered_map<uint64_t, uint64_t> cells;
  std::unordered_map<uint32_t, uint64_t> pred_sizes;
  std::unordered_map<uint32_t, uint64_t> true_sizes;
  for (size_t r = 0; r < n; ++r) {
    uint32_t pc = predicted[r];
    uint32_t tc = truth.entity_of(static_cast<RecordId>(r));
    ++cells[(static_cast<uint64_t>(pc) << 32) | tc];
    ++pred_sizes[pc];
    ++true_sizes[tc];
  }

  uint64_t same_both = 0;  // pairs together in both clusterings (TP)
  for (const auto& [key, count] : cells) same_both += PairsOf(count);
  uint64_t same_pred = 0;
  for (const auto& [key, count] : pred_sizes) same_pred += PairsOf(count);
  uint64_t same_true = 0;
  for (const auto& [key, count] : true_sizes) same_true += PairsOf(count);

  ClusterEvaluation eval;
  eval.num_predicted_clusters = pred_sizes.size();
  eval.pairwise_precision =
      same_pred == 0 ? 0.0 : static_cast<double>(same_both) / same_pred;
  eval.pairwise_recall =
      same_true == 0 ? 0.0 : static_cast<double>(same_both) / same_true;
  double pr = eval.pairwise_precision + eval.pairwise_recall;
  eval.pairwise_f1 =
      pr == 0.0 ? 0.0
                : 2.0 * eval.pairwise_precision * eval.pairwise_recall / pr;

  // Adjusted Rand Index.
  double total_pairs = static_cast<double>(PairsOf(n));
  if (total_pairs > 0.0) {
    double index = static_cast<double>(same_both);
    double expected = static_cast<double>(same_pred) *
                      static_cast<double>(same_true) / total_pairs;
    double max_index =
        (static_cast<double>(same_pred) + static_cast<double>(same_true)) / 2.0;
    double denom = max_index - expected;
    eval.adjusted_rand_index = denom == 0.0 ? 0.0 : (index - expected) / denom;
  }
  return eval;
}

}  // namespace gter
