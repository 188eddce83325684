#ifndef GTER_CORE_RESOLVER_STATE_H_
#define GTER_CORE_RESOLVER_STATE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gter/common/exec_context.h"
#include "gter/core/iter.h"
#include "gter/er/dataset.h"
#include "gter/er/pair_space.h"
#include "gter/graph/bipartite_graph.h"

namespace gter {

/// The resolution model a resolver serves: everything `gterd`'s read
/// handlers consult. `ResolverState` keeps its live copy here, and the
/// batch-trained serving model fills one from a fusion run (DESIGN.md §5c).
struct ServedModel {
  /// Candidate pairs.
  PairSpace pairs;
  /// ITER term weights, indexed by TermId (vocabulary-sized).
  std::vector<double> term_weights;
  /// ITER pair scores, indexed by PairId.
  std::vector<double> pair_scores;
  /// Match probabilities, indexed by PairId.
  std::vector<double> pair_probability;
  /// p ≥ η decisions, indexed by PairId.
  std::vector<bool> matches;
  size_t matched_count = 0;
  /// Dense cluster label per record (stable by smallest member) and the
  /// member lists per label.
  std::vector<uint32_t> cluster_of;
  std::vector<std::vector<RecordId>> cluster_members;
  /// Shared-term inverted index (vocabulary-sized, postings ascending).
  std::vector<std::vector<RecordId>> inverted;
};

/// Options for the incremental resolver state (DESIGN.md §4g).
struct ResolverStateOptions {
  /// Match threshold on the reciprocal-best pair probability.
  double eta = 0.98;
};

/// Per-ingest outcome, the add_record response payload.
struct IngestStats {
  RecordId record = kInvalidRecordId;
  /// Resolved cluster label of the new record (dense, stable by smallest
  /// member) and its size after the ingest.
  uint32_t cluster = 0;
  size_t cluster_size = 1;
  /// Vocabulary terms first seen in this record.
  size_t new_terms = 0;
  /// Candidate pairs the record added (records sharing ≥ 1 term,
  /// cross-source for two-source datasets).
  size_t new_pairs = 0;
  /// Dirty-region passes the converge took (worklist passes plus full
  /// sweeps).
  size_t sweeps = 0;
  /// The full-resweep escape hatch fired during the converge.
  bool used_full_resweep = false;
};

/// Mutable, versioned resolver over a growing dataset — the incremental
/// engine the batch FusionPipeline stages were refactored into (DESIGN.md
/// §4g). Owns updatable views of every pipeline intermediate:
///
///  - the shared-term inverted index (posting upsert per ingest),
///  - the PairSpace and the term ↔ pair BipartiteGraph with its
///    shared-term sets (append + N_t/P_t maintenance),
///  - the ITER term weights / pair scores (dirty-region re-converge via
///    RunIterDirty),
///  - the reciprocal-best pair probabilities, match decisions and
///    connected-component clusters (targeted post-pass).
///
/// Ingesting one record costs O(its neighborhood): discover sharers
/// through the inverted index, append the new pairs, mark the record's
/// terms dirty (their N_t — and so P_t — changed), re-converge
/// from that frontier and refresh only the decisions the touched scores
/// can reach. `BuildBatch` is the same code path with every term dirty, so
/// a batch build and any ingest order converge to the same fixed point —
/// the property the incremental-vs-batch differential suite pins at 1e-10.
///
/// Probability model: ITER's pair score is unnormalized (it grows with the
/// shared-term count), so the match rule scales each score by the best
/// score either endpoint participates in: p(a,b) = s(a,b) / max(M_a, M_b).
/// A pair matches iff p ≥ eta — both records agree the other is (nearly)
/// their best candidate. This is the round-1 fusion semantics (prob ≡ 1
/// inside ITER), kept exactly refreshable per ingest.
///
/// Cancellation: every entry point polls before mutating anything, then
/// per sweep. A cancelled converge leaves the structures valid but the
/// weights mid-flight; the state remembers and the next Converge() (or
/// ingest) recovers by escalating to a full-frontier re-ITER — the same
/// escape hatch the dirty-fraction threshold uses.
///
/// Not internally synchronized: the owner serializes writes (the serving
/// layer ingests under its exclusive lock and reads under shared locks).
class ResolverState {
 public:
  /// Wraps `dataset` (not owned; must outlive the state). Records already
  /// in the dataset are NOT resolved until BuildBatch/IngestExisting runs.
  explicit ResolverState(Dataset* dataset, ResolverStateOptions options = {});

  /// Resolves the first min(limit_records, dataset size) records in one
  /// converge: structural ingest per record, then a single all-dirty
  /// re-ITER (the escape hatch fires immediately → full sweeps) and one
  /// decision pass. Pass a smaller `limit_records` to leave a tail of
  /// already-loaded records for IngestExisting — the replay harness.
  Status BuildBatch(const ExecContext& ctx = DefaultExecContext(),
                    size_t limit_records = std::numeric_limits<size_t>::max());

  /// Tokenizes and appends a record to the dataset, then resolves it
  /// incrementally. The serving-path entry point. Cancellation is polled
  /// before the append and then only inside the converge: once appended,
  /// the record is always structurally ingested, so the dataset never runs
  /// ahead of the state. A cancelled converge leaves the record committed
  /// with its decisions pending (the next ingest or Converge resumes).
  Result<IngestStats> Ingest(uint32_t source, std::string raw_text,
                             const ExecContext& ctx = DefaultExecContext());

  /// Resolves the next already-loaded dataset record past the state's
  /// horizon (records are ingested strictly in id order).
  Result<IngestStats> IngestExisting(
      const ExecContext& ctx = DefaultExecContext());

  /// Drains any pending dirty region (a no-op when converged). After a
  /// cancelled BuildBatch/Ingest this is the resume point.
  Status Converge(const ExecContext& ctx = DefaultExecContext());

  const Dataset& dataset() const { return *dataset_; }
  const ResolverStateOptions& options() const { return options_; }
  /// Records resolved so far (≤ dataset().size()).
  size_t num_records() const { return ingested_records_; }
  const BipartiteGraph& graph() const { return graph_; }

  /// The live model over the resolved records. Its probabilities are the
  /// reciprocal-best ones; its inverted index postings ascend because
  /// ingest order is id order. The accessors below forward to it.
  const ServedModel& model() const { return model_; }
  const PairSpace& pairs() const { return model_.pairs; }
  const std::vector<double>& term_weights() const {
    return model_.term_weights;
  }
  const std::vector<double>& pair_scores() const { return model_.pair_scores; }
  const std::vector<double>& pair_probability() const {
    return model_.pair_probability;
  }
  const std::vector<bool>& matches() const { return model_.matches; }
  size_t matched_count() const { return model_.matched_count; }
  const std::vector<uint32_t>& cluster_of() const { return model_.cluster_of; }
  size_t num_clusters() const { return model_.cluster_members.size(); }
  const std::vector<std::vector<RecordId>>& cluster_members() const {
    return model_.cluster_members;
  }

  /// Monotonic state version: bumps on every structural mutation and every
  /// completed converge.
  uint64_t version() const { return version_; }
  /// True when a cancelled/partial converge left dirty terms pending.
  bool has_pending_dirty() const {
    return pending_full_ || !pending_dirty_.empty();
  }

  // Ingest health counters (surfaced by the stats endpoint).
  uint64_t records_ingested() const { return records_ingested_; }
  uint64_t dirty_reiter_runs() const { return dirty_reiter_runs_; }
  uint64_t full_resweeps() const { return full_resweeps_; }
  size_t last_converge_sweeps() const { return last_converge_sweeps_; }

 private:
  /// Appends record `r`'s structures: posting upsert, neighbor discovery,
  /// pair append, N_t bump, dirty marking. O(neighborhood); no convergence.
  void StructuralIngest(RecordId r);
  /// Structural ingest of the next dataset record plus its converge; no
  /// cancellation poll before the structural step.
  Result<IngestStats> IngestNext(const ExecContext& ctx);
  /// Re-ITER from the pending frontier, then refresh decisions reachable
  /// from the touched scores.
  Status ConvergeAndRefresh(const ExecContext& ctx);
  /// Re-derives the decisions the touched scores can reach. The sparse
  /// pass rebuilds the clusters only when a decision flipped; otherwise
  /// records past the labelled prefix join as singletons.
  void RefreshDecisions(const std::vector<PairId>& touched_pairs,
                        const ExecContext& ctx);
  /// Union-find over every matched pair: O(all pairs).
  void RebuildClusters(const ExecContext& ctx);
  double PairProbabilityOf(PairId p) const;
  /// Grows every vocabulary-indexed structure to the current vocab size.
  void GrowToVocabulary();

  Dataset* dataset_;
  ResolverStateOptions options_;
  BipartiteGraph graph_;
  /// RunIterDirty's worklist marks, kept from converge to converge.
  IterDirtyScratch iter_scratch_;
  ServedModel model_;
  std::vector<std::vector<PairId>> pairs_of_record_;
  /// best_[r] = max s over r's pairs (0 when r has none) — the reciprocal-
  /// best denominator.
  std::vector<double> best_;

  size_t ingested_records_ = 0;
  std::vector<TermId> pending_dirty_;
  bool pending_full_ = false;
  uint64_t version_ = 0;

  uint64_t records_ingested_ = 0;
  uint64_t dirty_reiter_runs_ = 0;
  uint64_t full_resweeps_ = 0;
  size_t last_converge_sweeps_ = 0;
  bool last_used_full_ = false;
};

}  // namespace gter

#endif  // GTER_CORE_RESOLVER_STATE_H_
