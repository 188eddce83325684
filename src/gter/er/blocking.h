#ifndef GTER_ER_BLOCKING_H_
#define GTER_ER_BLOCKING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gter/common/exec_context.h"
#include "gter/er/dataset.h"
#include "gter/er/ground_truth.h"
#include "gter/er/pair_space.h"

namespace gter {

/// Candidate-pair generation beyond the paper's share-one-term rule.
///
/// The bipartite graph of §V-B enumerates every pair sharing a surviving
/// term — quadratic in the posting-list lengths, fine at benchmark scale
/// but not at millions of records. This module provides the standard
/// scalable alternative: MinHash signatures + LSH banding, which emit a
/// pair with probability ≈ 1 − (1 − J^r)^b for Jaccard similarity J. The
/// resulting PairSpace-compatible pair list plugs into the same pipeline.

/// MinHash signatures over term sets.
class MinHasher {
 public:
  /// `num_hashes` permutation approximations (one 64-bit mix each).
  MinHasher(size_t num_hashes, uint64_t seed = 0x5EEDF00D);

  size_t num_hashes() const { return params_.size(); }

  /// Signature of a sorted-unique term-id set.
  std::vector<uint64_t> Signature(const std::vector<TermId>& terms) const;

  /// Fraction of colliding signature slots — an unbiased estimate of the
  /// Jaccard similarity of the underlying sets.
  static double EstimateJaccard(const std::vector<uint64_t>& a,
                                const std::vector<uint64_t>& b);

 private:
  struct Params {
    uint64_t mul;
    uint64_t add;
  };
  std::vector<Params> params_;
};

/// Options for LSH-banded candidate generation.
struct LshBlockingOptions {
  /// Bands × rows-per-band = signature length.
  size_t num_bands = 16;
  size_t rows_per_band = 4;
  uint64_t seed = 0x5EEDF00D;
};

/// Result of a blocking pass.
struct BlockingResult {
  /// Unordered candidate pairs (a < b), deduplicated; for two-source
  /// datasets only cross-source pairs are emitted.
  std::vector<RecordPair> pairs;
  /// Total LSH buckets inspected (diagnostics).
  size_t buckets = 0;
};

/// Runs MinHash-LSH blocking over the dataset's term sets. Metrics go to
/// `ctx.metrics`; cancellation is polled at entry and once per band.
Result<BlockingResult> LshBlocking(
    const Dataset& dataset, const LshBlockingOptions& options = {},
    const ExecContext& ctx = DefaultExecContext());

/// Options for canopy blocking (McCallum, Nigam & Ungar): a cheap
/// similarity (token overlap through the inverted index) partitions
/// records into overlapping canopies; only within-canopy pairs survive.
struct CanopyBlockingOptions {
  /// Records with cheap similarity ≥ loose join the canopy.
  double loose_threshold = 0.2;
  /// Records with cheap similarity ≥ tight are removed from the center
  /// pool (they will not seed further canopies). tight ≥ loose.
  double tight_threshold = 0.5;
  uint64_t seed = 31;
};

/// Runs canopy blocking with overlap-coefficient cheap similarity. Of the
/// within-canopy pairs, only those sharing at least one term are emitted
/// (the §V-B rule): two members each overlap the center, but not always
/// each other. Metrics go to `ctx.metrics` with ambient fallback;
/// cancellation is polled at entry and once per canopy center.
Result<BlockingResult> CanopyBlocking(
    const Dataset& dataset, const CanopyBlockingOptions& options = {},
    const ExecContext& ctx = DefaultExecContext());

/// Recall of a blocking result against the ground-truth matching pairs
/// (cross-source only for two-source data): the fraction of true matches
/// that survived blocking. The universal quality metric for blockers.
double BlockingRecall(const Dataset& dataset, const GroundTruth& truth,
                      const std::vector<RecordPair>& pairs);

}  // namespace gter

#endif  // GTER_ER_BLOCKING_H_
