#ifndef GTER_ER_PAIR_SPACE_H_
#define GTER_ER_PAIR_SPACE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "gter/common/exec_context.h"
#include "gter/er/dataset.h"

namespace gter {

/// Dense candidate-pair index within a PairSpace.
using PairId = uint32_t;

inline constexpr PairId kInvalidPairId = static_cast<PairId>(-1);

/// An unordered record pair, stored with a < b.
struct RecordPair {
  RecordId a;
  RecordId b;
};

/// The candidate-pair universe of a dataset: every unordered record pair
/// that shares at least one term (the paper's §V-B rule — pairs with no
/// shared term are excluded from the bipartite graph and considered
/// non-matching), restricted to cross-source pairs for two-source datasets.
///
/// Built through the inverted index, so the cost is Σ_t N_t² over surviving
/// terms — run the frequent-term preprocessing first.
class PairSpace {
 public:
  /// Enumerates the candidate pairs of `dataset`, timed as
  /// `pairspace/build` and counted into `pairspace/pairs` on `ctx`'s sinks.
  static PairSpace Build(const Dataset& dataset,
                         const ExecContext& ctx = DefaultExecContext());

  /// Builds a pair space from an explicit pair list — the adapter for
  /// external blockers (LshBlocking/CanopyBlocking output) and for tests
  /// that need graphs with controlled topology. Pairs are canonicalized to
  /// a < b, deduplicated, and sorted; self-pairs are dropped. Counted into
  /// `pairspace/pairs` on `ctx.metrics`.
  static PairSpace FromPairs(std::vector<RecordPair> pairs,
                             const ExecContext& ctx = DefaultExecContext());

  size_t size() const { return pairs_.size(); }
  const RecordPair& pair(PairId id) const { return pairs_[id]; }
  const std::vector<RecordPair>& pairs() const { return pairs_; }

  /// Id of the pair {a, b}, or kInvalidPairId when the two records share no
  /// term. Order of a and b does not matter.
  PairId Find(RecordId a, RecordId b) const;

  /// Appends the pair {a, b} (canonicalized to a < b) and returns its id; if
  /// the pair is already present, returns the existing id without mutating
  /// the space. This is the incremental-ingest hook: existing PairIds are
  /// stable across Append, so score/probability vectors indexed by PairId
  /// can simply grow. Self-pairs are a checked error. Counts nothing: the
  /// caller counts each step's new pairs once.
  PairId Append(RecordId a, RecordId b);

 private:
  static uint64_t Key(RecordId a, RecordId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  std::vector<RecordPair> pairs_;
  std::unordered_map<uint64_t, PairId> index_;
};

}  // namespace gter

#endif  // GTER_ER_PAIR_SPACE_H_
