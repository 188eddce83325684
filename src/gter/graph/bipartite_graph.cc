#include "gter/graph/bipartite_graph.h"

#include <algorithm>
#include <iterator>

#include "gter/common/metrics.h"
#include "gter/common/status.h"

namespace gter {
namespace {

constexpr SetId kNoSet = UINT32_MAX;

}  // namespace

BipartiteGraph BipartiteGraph::Build(const Dataset& dataset,
                                     const PairSpace& pairs,
                                     const ExecContext& ctx) {
  ScopedTimer timer(ctx.metrics, ctx.trace, "bipartite/build");
  BipartiteGraph g;
  g.EnsureTerms(dataset.vocabulary().size());
  for (const Record& rec : dataset.records()) g.AddRecordTerms(rec.terms);
  g.set_of_.reserve(pairs.size());
  g.next_pair_.reserve(pairs.size());
  std::vector<TermId> shared;
  for (PairId p = 0; p < pairs.size(); ++p) {
    const std::vector<TermId>& a = dataset.record(pairs.pair(p).a).terms;
    const std::vector<TermId>& b = dataset.record(pairs.pair(p).b).terms;
    shared.clear();
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(shared));
    g.AddPair(shared);
  }
  return g;
}

void BipartiteGraph::EnsureTerms(size_t num_terms) {
  if (num_terms <= term_sets_.size()) return;
  term_sets_.resize(num_terms);
  set_of_term_.resize(num_terms, kNoSet);
  nt_.resize(num_terms, 0);
}

void BipartiteGraph::AddRecordTerms(std::span<const TermId> terms) {
  for (TermId t : terms) {
    GTER_CHECK(t < nt_.size());
    ++nt_[t];
  }
}

SetId BipartiteGraph::FindOrAddSet(std::span<const TermId> terms) {
  SetId* slot = nullptr;
  if (terms.size() == 1) {
    slot = &set_of_term_[terms[0]];
    if (*slot != kNoSet) return *slot;
  } else {
    uint64_t h = terms.size();
    for (TermId t : terms) h = (h ^ t) * 0x9E3779B97F4A7C15ull;
    slot = &newest_with_hash_.try_emplace(h, kNoSet).first->second;
    for (SetId k = *slot; k != kNoSet; k = next_with_hash_[k]) {
      if (std::ranges::equal(TermsOfSet(k), terms)) return k;
    }
  }
  const SetId k = static_cast<SetId>(num_sets());
  next_with_hash_.push_back(*slot);
  *slot = k;
  set_terms_.insert(set_terms_.end(), terms.begin(), terms.end());
  set_offsets_.push_back(set_terms_.size());
  first_pair_.push_back(kNoPair);
  last_pair_.push_back(kNoPair);
  set_size_.push_back(0);
  // k exceeds every older id, so each term's set list stays ascending.
  for (TermId t : terms) term_sets_[t].push_back(k);
  return k;
}

PairId BipartiteGraph::AddPair(std::span<const TermId> shared_terms) {
  GTER_CHECK(!shared_terms.empty());
  for (TermId t : shared_terms) GTER_CHECK(t < term_sets_.size());
  const PairId p = static_cast<PairId>(num_pairs());
  const SetId k = FindOrAddSet(shared_terms);
  set_of_.push_back(k);
  next_pair_.push_back(kNoPair);
  if (set_size_[k] == 0) {
    first_pair_[k] = p;
  } else {
    next_pair_[last_pair_[k]] = p;
  }
  last_pair_[k] = p;
  ++set_size_[k];
  num_edges_ += shared_terms.size();
  return p;
}

}  // namespace gter
