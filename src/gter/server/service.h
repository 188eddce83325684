#ifndef GTER_SERVER_SERVICE_H_
#define GTER_SERVER_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "gter/common/exec_context.h"
#include "gter/common/json.h"
#include "gter/core/fusion.h"
#include "gter/core/resolver_state.h"
#include "gter/er/dataset.h"
#include "gter/er/pair_space.h"
#include "gter/server/protocol.h"

namespace gter {

/// Options for building a ResolutionService. Query and ingested text
/// tokenizes with the dataset's own TokenizerOptions.
struct ResolutionServiceOptions {
  /// Fusion configuration for the startup training run. Its `eta` is the
  /// match threshold in both modes; its clusterer options also serve
  /// resolve's `clusterer` override.
  FusionConfig fusion;
  /// Serve from the incremental ResolverState engine (DESIGN.md §4g)
  /// instead of a frozen fusion run: training becomes a ResolverState
  /// batch build and add_record becomes a real ingest — the record joins
  /// the candidate space, ITER re-converges over the dirty region under
  /// the request's context, and the response reports the resolved
  /// cluster.
  bool incremental = false;
};

/// The long-lived resolution model behind gterd: a dataset, the fusion
/// pipeline's learned term weights and match decisions (computed once at
/// startup), the clique (cluster) structure those matches imply, and an
/// inverted index for online scoring. Request handlers are thread-safe:
/// reads (pair_score, resolve, stats) take a shared lock, add_record takes
/// an exclusive one.
///
/// Online scoring uses the fusion model's own similarity: s(q, r) =
/// Σ_{t ∈ q ∩ r} x_t over the learned term weights — the same quantity
/// ITER assigns to candidate pairs, evaluated against arbitrary query
/// text through the inverted index in O(Σ_t |postings(t)|).
///
/// add_record has two behaviours. In the default (batch-trained) mode it
/// ingests a new record into the vocabulary, the inverted index, and a
/// fresh singleton clique without re-running fusion — newly interned
/// terms carry zero weight until the next training run; the record is
/// still immediately visible to resolve/pair_score through the terms it
/// shares with the trained vocabulary. In incremental mode
/// (`options.incremental`) add_record is a full ingest into the
/// ResolverState engine: O(neighborhood) structural update plus a
/// dirty-region re-ITER under the request's deadline, after which the
/// response reports the cluster the record actually resolved into.
class ResolutionService {
 public:
  /// Builds the service: takes ownership of `dataset` (already
  /// preprocessed) and runs the fusion pipeline on it under `ctx`.
  /// Propagates the pipeline's error (including Cancelled /
  /// DeadlineExceeded) on failure.
  static Result<std::unique_ptr<ResolutionService>> Create(
      Dataset dataset, ResolutionServiceOptions options,
      const ExecContext& ctx = DefaultExecContext());

  /// Dispatches one parsed request. Called from worker threads; `ctx`
  /// carries the per-request CancelToken (deadline) and observability
  /// sinks. Handler errors come back as statuses, which the protocol
  /// layer maps onto wire error codes:
  ///   unknown method            -> NotFound
  ///   bad/missing params        -> InvalidArgument
  ///   record id out of range    -> OutOfRange
  ///   tripped deadline/cancel   -> DeadlineExceeded / Cancelled
  ///
  /// Methods: pair_score(a, b), resolve(text[, top_k][, clusterer]),
  /// add_record(text[, source]), stats(), and debug_sleep(ms) — a
  /// diagnostic that idles cooperatively, polling cancellation every
  /// millisecond (what the deadline/disconnect tests lean on).
  ///
  /// resolve's optional `clusterer` selects a clustering endgame by
  /// registry name: the trained probabilities are re-clustered under the
  /// request's ExecContext (so per-request deadlines fire inside the run)
  /// and the answered clique comes from that fresh partition. An unknown
  /// name is InvalidArgument; without the param the partition computed at
  /// training time is served.
  Result<JsonValue> Handle(const GterdRequest& request,
                           const ExecContext& ctx);

  size_t num_records() const;

 private:
  ResolutionService(Dataset dataset, ResolutionServiceOptions options);

  /// Runs fusion and builds the serving indexes (called once by Create).
  Status Train(const ExecContext& ctx);

  Result<JsonValue> PairScore(const JsonValue& params,
                              const ExecContext& ctx) const;
  Result<JsonValue> Resolve(const JsonValue& params,
                            const ExecContext& ctx) const;
  Result<JsonValue> AddRecord(const JsonValue& params, const ExecContext& ctx);
  /// Lifetime counters plus `uptime_s` and — when the context's registry
  /// carries the server's `server/<method>/{queue,work}_us` sliding
  /// histograms — a `live` object of windowed per-method latency
  /// percentiles (schema in DESIGN.md §5c).
  JsonValue Stats(const ExecContext& ctx) const;

  /// Σ_{t ∈ a ∩ b} x_t over two sorted term lists (mu_ held).
  double SharedTermWeight(const std::vector<TermId>& a,
                          const std::vector<TermId>& b) const;

  /// The served model (mu_ held): the incremental engine's live one, or
  /// the batch-trained copy. Read handlers consult only this.
  const ServedModel& model() const {
    return state_ != nullptr ? state_->model() : batch_model_;
  }

  mutable std::shared_mutex mu_;
  Dataset dataset_;
  ResolutionServiceOptions options_;

  /// The incremental engine (set iff options_.incremental). Guarded by
  /// mu_: ingest mutates under the exclusive lock, reads go through
  /// model() under shared locks.
  std::unique_ptr<ResolverState> state_;
  /// The batch-trained model (guarded by mu_; unused in incremental
  /// mode). add_record grows it: zero weights for new terms, postings,
  /// and a singleton cluster per record.
  ServedModel batch_model_;
  /// Per-record source, the clusterers' bipartite input (both modes).
  std::vector<uint32_t> source_of_;
  double train_seconds_ = 0.0;
  /// Service birth (training start); `stats` serves the elapsed time as
  /// `uptime_s`.
  std::chrono::steady_clock::time_point start_time_;

  // Request counters for stats (atomic: bumped outside the lock).
  std::atomic<uint64_t> requests_total_{0};
  std::atomic<uint64_t> requests_failed_{0};
  std::atomic<uint64_t> records_added_{0};
};

}  // namespace gter

#endif  // GTER_SERVER_SERVICE_H_
