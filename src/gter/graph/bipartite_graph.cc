#include "gter/graph/bipartite_graph.h"

#include <algorithm>

#include "gter/common/metrics.h"
#include "gter/common/status.h"
#include "gter/text/string_metrics.h"

namespace gter {

BipartiteGraph BipartiteGraph::Build(const Dataset& dataset,
                                     const PairSpace& pairs,
                                     const ExecContext& ctx) {
  ScopedTimer timer(ctx.metrics, ctx.trace, "bipartite/build");
  BipartiteGraph g;
  g.EnsureTerms(dataset.vocabulary().size());
  for (const Record& rec : dataset.records()) g.AddRecordTerms(rec.terms);

  // Pair side, allocated once at its exact size: the shared-term counts
  // give the offsets, then each intersection is written into its slot.
  const size_t num_pairs = pairs.size();
  g.pair_offsets_.resize(num_pairs + 1);
  for (PairId p = 0; p < num_pairs; ++p) {
    const RecordPair& rp = pairs.pair(p);
    const size_t shared = SortedIntersectionSize(dataset.record(rp.a).terms,
                                                 dataset.record(rp.b).terms);
    GTER_CHECK(shared > 0);  // a pair node shares at least one term (§V-B)
    g.pair_offsets_[p + 1] = g.pair_offsets_[p] + shared;
  }
  g.pair_terms_.resize(g.pair_offsets_[num_pairs]);
  for (PairId p = 0; p < num_pairs; ++p) {
    const std::vector<TermId>& a = dataset.record(pairs.pair(p).a).terms;
    const std::vector<TermId>& b = dataset.record(pairs.pair(p).b).terms;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          g.pair_terms_.begin() + g.pair_offsets_[p]);
  }

  // Term side: each posting list is reserved to its exact degree, then
  // filled in PairId order, so it is sorted.
  std::vector<size_t> degree(g.num_terms(), 0);
  for (TermId t : g.pair_terms_) ++degree[t];
  for (size_t t = 0; t < degree.size(); ++t) {
    g.term_pairs_[t].reserve(degree[t]);
  }
  for (PairId p = 0; p < num_pairs; ++p) {
    for (TermId t : g.TermsOfPair(p)) g.term_pairs_[t].push_back(p);
  }
  return g;
}

void BipartiteGraph::EnsureTerms(size_t num_terms) {
  if (num_terms <= term_pairs_.size()) return;
  term_pairs_.resize(num_terms);
  nt_.resize(num_terms, 0);
}

void BipartiteGraph::AddRecordTerms(std::span<const TermId> terms) {
  for (TermId t : terms) {
    GTER_CHECK(t < nt_.size());
    ++nt_[t];
  }
}

PairId BipartiteGraph::AddPair(std::span<const TermId> shared_terms) {
  GTER_CHECK(!shared_terms.empty());
  const PairId p = static_cast<PairId>(num_pairs());
  pair_terms_.insert(pair_terms_.end(), shared_terms.begin(),
                     shared_terms.end());
  pair_offsets_.push_back(pair_terms_.size());
  for (TermId t : shared_terms) {
    GTER_CHECK(t < term_pairs_.size());
    term_pairs_[t].push_back(p);
  }
  return p;
}

}  // namespace gter
