#ifndef GTER_CORE_RESOLVER_H_
#define GTER_CORE_RESOLVER_H_

#include <string>
#include <vector>

#include "gter/er/dataset.h"
#include "gter/er/pair_space.h"

namespace gter {

/// Uniform interface for every unsupervised pair-scoring method in the
/// library (string baselines, graph-theoretic baselines, and the fusion
/// framework). A scorer maps each candidate pair to a similarity — higher
/// means more likely the same entity. The evaluation harness turns scores
/// into decisions (threshold sweep or the η rule).
class PairScorer {
 public:
  virtual ~PairScorer() = default;

  /// Display name used in reports (e.g. "TF-IDF").
  virtual std::string name() const = 0;

  /// Returns one score per candidate pair (indexed by PairId).
  virtual std::vector<double> Score(const Dataset& dataset,
                                    const PairSpace& pairs) = 0;
};

}  // namespace gter

#endif  // GTER_CORE_RESOLVER_H_
