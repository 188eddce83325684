#ifndef GTER_GRAPH_BIPARTITE_GRAPH_H_
#define GTER_GRAPH_BIPARTITE_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gter/common/exec_context.h"
#include "gter/er/dataset.h"
#include "gter/er/pair_space.h"

namespace gter {

/// The paper's §V-B bipartite graph between term nodes and record-pair
/// nodes: term t is connected to pair (r_i, r_j) iff t appears in both
/// records. This is the data structure ITER (Algorithm 1) iterates over,
/// both for the batch pipeline and for the incremental ResolverState
/// (DESIGN.md §4g).
///
/// `Build` fills the graph for a whole dataset in one pass; the append API
/// grows it in place:
///
///  - `EnsureTerms` extends the term side as the vocabulary interns new
///    terms (existing TermIds are stable).
///  - `AddRecordTerms` registers one record's term set, bumping N_t — and
///    therefore the Eq. 6 denominator P_t — for each term.
///  - `AddPair` appends one pair node with its shared-term adjacency and
///    mirrors it into the per-term posting lists. PairIds are assigned
///    densely in append order, so vectors indexed by PairId simply grow.
///
/// Adjacency is stored as offsets + a flat array on the pair side (CSR
/// layout) and as per-term posting vectors on the term side; postings stay
/// sorted because pairs are appended in PairId order. P_t is derived on
/// demand from N_t, so appends can never leave it stale.
class BipartiteGraph {
 public:
  /// Builds the graph for every pair in `pairs` over `dataset`, timed as
  /// `bipartite/build` on `ctx`'s sinks. Every pair must share at least one
  /// term (the §V-B rule PairSpace::Build applies).
  static BipartiteGraph Build(const Dataset& dataset, const PairSpace& pairs,
                              const ExecContext& ctx = DefaultExecContext());

  /// Grows the term side to at least `num_terms` (new terms start with
  /// N_t = 0 and no adjacent pairs). Never shrinks.
  void EnsureTerms(size_t num_terms);

  /// Registers one record's sorted-unique term set: N_t increments for each
  /// term. Call exactly once per record, before adding the record's pairs.
  void AddRecordTerms(std::span<const TermId> terms);

  /// Appends a pair node adjacent to `shared_terms` (the sorted shared-term
  /// set of the record pair, must be non-empty) and returns its dense id.
  PairId AddPair(std::span<const TermId> shared_terms);

  size_t num_terms() const { return term_pairs_.size(); }
  size_t num_pairs() const { return pair_offsets_.size() - 1; }
  size_t num_edges() const { return pair_terms_.size(); }

  /// Shared terms of pair node `p`, sorted ascending. The span is
  /// invalidated by the next AddPair.
  std::span<const TermId> TermsOfPair(PairId p) const {
    return {pair_terms_.data() + pair_offsets_[p],
            pair_offsets_[p + 1] - pair_offsets_[p]};
  }

  /// Pair nodes adjacent to term `t`, ascending. The span is invalidated by
  /// the next AddPair touching `t`.
  std::span<const PairId> PairsOfTerm(TermId t) const {
    return {term_pairs_[t].data(), term_pairs_[t].size()};
  }

  /// Normalization denominator of Eq. 6, the paper's P_t = N_t·(N_t−1)/2
  /// (it counts pairs that may not be candidate pairs in two-source
  /// datasets), clamped to ≥ 1 so it is a safe denominator.
  double Pt(TermId t) const {
    const double nt = static_cast<double>(nt_[t]);
    const double pt = nt * (nt - 1.0) / 2.0;
    return pt < 1.0 ? 1.0 : pt;
  }

  /// N_t = number of registered records containing term t.
  uint32_t Nt(TermId t) const { return nt_[t]; }

 private:
  // Pair → terms: offsets + flat adjacency (CSR layout).
  std::vector<size_t> pair_offsets_ = {0};
  std::vector<TermId> pair_terms_;
  // Term → pairs: posting vectors, sorted by construction.
  std::vector<std::vector<PairId>> term_pairs_;
  std::vector<uint32_t> nt_;
};

}  // namespace gter

#endif  // GTER_GRAPH_BIPARTITE_GRAPH_H_
