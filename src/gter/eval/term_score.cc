#include "gter/eval/term_score.h"

namespace gter {

std::vector<double> OracleTermScores(const BipartiteGraph& graph,
                                     const PairSpace& pairs,
                                     const GroundTruth& truth) {
  std::vector<double> scores(graph.num_terms(), 0.0);
  for (TermId t = 0; t < graph.num_terms(); ++t) {
    // The pairs of t are the disjoint union of its sets' pairs.
    size_t adjacent = 0;
    size_t matching = 0;
    for (SetId k : graph.SetsOfTerm(t)) {
      graph.ForEachPairOfSet(k, [&](PairId p) {
        const RecordPair& rp = pairs.pair(p);
        if (truth.IsMatch(rp.a, rp.b)) ++matching;
      });
      adjacent += graph.SetSize(k);
    }
    if (adjacent == 0) continue;
    scores[t] = static_cast<double>(matching) / static_cast<double>(adjacent);
  }
  return scores;
}

}  // namespace gter
