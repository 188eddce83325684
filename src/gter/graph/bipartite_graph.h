#ifndef GTER_GRAPH_BIPARTITE_GRAPH_H_
#define GTER_GRAPH_BIPARTITE_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "gter/common/exec_context.h"
#include "gter/er/dataset.h"
#include "gter/er/pair_space.h"

namespace gter {

/// Dense id of a distinct shared-term set (see BipartiteGraph).
using SetId = uint32_t;

/// The paper's §V-B bipartite graph between term nodes and record-pair
/// nodes: term t is connected to pair (r_i, r_j) iff t appears in both
/// records. This is the data structure ITER (Algorithm 1) iterates over,
/// both for the batch pipeline and for the incremental ResolverState
/// (DESIGN.md §4g).
///
/// A pair is adjacent to exactly the terms of its shared-term set σ, and
/// pairs repeat sets heavily, so the graph is stored through the sets:
/// each pair keeps its set id, each set its sorted term list and its pairs
/// (ascending), and each term its sets (ascending). Every term of σ is
/// adjacent to every pair of σ, so a term's pairs are the disjoint union of
/// its sets' pairs. Set ids are dense and assigned in first-seen PairId
/// order.
///
/// `Build` fills the graph for a whole dataset; the append API grows it in
/// place, and `Build` is that same append sequence, so both give the same
/// ids:
///
///  - `EnsureTerms` extends the term side as the vocabulary interns new
///    terms (existing TermIds are stable).
///  - `AddRecordTerms` registers one record's term set, bumping N_t — and
///    therefore the Eq. 6 denominator P_t — for each term.
///  - `AddPair` appends one pair node and files it under its set, creating
///    the set if its term list is new. PairIds are assigned densely in
///    append order, so vectors indexed by PairId simply grow.
///
/// P_t is derived on demand from N_t, so appends can never leave it stale.
class BipartiteGraph {
 public:
  /// Builds the graph for every pair in `pairs` over `dataset`, timed as
  /// `bipartite/build` on `ctx`'s sinks. Every pair must share at least one
  /// term (the §V-B rule PairSpace::Build applies).
  static BipartiteGraph Build(const Dataset& dataset, const PairSpace& pairs,
                              const ExecContext& ctx = DefaultExecContext());

  /// Grows the term side to at least `num_terms` (new terms start with
  /// N_t = 0 and no adjacent sets). Never shrinks.
  void EnsureTerms(size_t num_terms);

  /// Registers one record's sorted-unique term set: N_t increments for each
  /// term. Call exactly once per record, before adding the record's pairs.
  void AddRecordTerms(std::span<const TermId> terms);

  /// Appends a pair node adjacent to `shared_terms` (the sorted shared-term
  /// set of the record pair, must be non-empty) and returns its dense id.
  PairId AddPair(std::span<const TermId> shared_terms);

  size_t num_terms() const { return term_sets_.size(); }
  size_t num_pairs() const { return set_of_.size(); }
  size_t num_sets() const { return set_size_.size(); }
  /// Term–pair edges, Σ_σ |σ|·count_σ.
  size_t num_edges() const { return num_edges_; }
  /// Term–set incidences, Σ_σ |σ|: the work of one ITER half-sweep.
  size_t num_incidences() const { return set_terms_.size(); }

  /// Set of pair node `p`.
  SetId SetOf(PairId p) const { return set_of_[p]; }

  /// Terms of set `k`, ascending. The span is invalidated by the next
  /// AddPair.
  std::span<const TermId> TermsOfSet(SetId k) const {
    return {set_terms_.data() + set_offsets_[k],
            set_offsets_[k + 1] - set_offsets_[k]};
  }

  /// Number of pairs in set `k`.
  uint32_t SetSize(SetId k) const { return set_size_[k]; }

  /// Lowest PairId of set `k`.
  PairId FirstPairOfSet(SetId k) const { return first_pair_[k]; }

  /// Calls `fn(p)` for each pair `p` of set `k`, ascending.
  template <typename Fn>
  void ForEachPairOfSet(SetId k, Fn fn) const {
    for (PairId p = first_pair_[k]; p != kNoPair; p = next_pair_[p]) fn(p);
  }

  /// Sets containing term `t`, ascending. The span is invalidated by the
  /// next AddPair.
  std::span<const SetId> SetsOfTerm(TermId t) const { return term_sets_[t]; }

  /// Shared terms of pair node `p`, sorted ascending: its set's terms.
  std::span<const TermId> TermsOfPair(PairId p) const {
    return TermsOfSet(set_of_[p]);
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
  /// The set with term list `terms`, created (empty) if the list is new.
  SetId FindOrAddSet(std::span<const TermId> terms);

  static constexpr PairId kNoPair = UINT32_MAX;

  // Pair → set.
  std::vector<SetId> set_of_;
  // Set → terms: offsets + flat list (CSR layout).
  std::vector<size_t> set_offsets_ = {0};
  std::vector<TermId> set_terms_;
  // Set → pairs as a chain through next_pair_ (by PairId), ascending
  // because pairs are appended in id order; flat arrays, so neither a
  // build nor an append allocates per set.
  std::vector<PairId> first_pair_;
  std::vector<PairId> last_pair_;
  std::vector<uint32_t> set_size_;
  std::vector<PairId> next_pair_;
  // Term → sets, ascending by construction.
  std::vector<std::vector<SetId>> term_sets_;
  std::vector<uint32_t> nt_;
  size_t num_edges_ = 0;

  // Set lookup. A one-term set is found through its term; any other by a
  // hash of its term list, whose collisions chain through
  // next_with_hash_ (by set id) and are settled by comparing the lists.
  // The map is only probed, never iterated, so ids do not depend on its
  // layout.
  std::vector<SetId> set_of_term_;
  std::unordered_map<uint64_t, SetId> newest_with_hash_;
  std::vector<SetId> next_with_hash_;
};

}  // namespace gter

#endif  // GTER_GRAPH_BIPARTITE_GRAPH_H_
