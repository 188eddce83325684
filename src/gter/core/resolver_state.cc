#include "gter/core/resolver_state.h"

#include <algorithm>
#include <utility>

#include "gter/common/metrics.h"
#include "gter/common/status.h"
#include "gter/graph/union_find.h"
#include "gter/text/string_metrics.h"

namespace gter {
namespace {

// Weight every term starts from. The prob ≡ 1 logistic ITER map has a
// single positive attractor, so any positive constant converges to the
// same fixed point; a constant (rather than RunIter's random init) keeps
// the batch and streamed arms trivially comparable.
constexpr double kInitialWeight = 0.5;

}  // namespace

ResolverState::ResolverState(Dataset* dataset, ResolverStateOptions options)
    : dataset_(dataset), options_(options) {
  GTER_CHECK(dataset_ != nullptr);
  GrowToVocabulary();
}

void ResolverState::GrowToVocabulary() {
  const size_t vocab = dataset_->vocabulary().size();
  if (vocab <= graph_.num_terms()) return;
  graph_.EnsureTerms(vocab);
  // New terms start at the positive constant like everyone else: the
  // logistic map has one positive attractor, so the value is free — and a
  // term only ever seen in one record has no pairs, so its first sweep
  // parks it at 0 anyway.
  model_.term_weights.resize(vocab, kInitialWeight);
  model_.inverted.resize(vocab);
}

void ResolverState::StructuralIngest(RecordId r) {
  GTER_CHECK(r == ingested_records_);  // strict id order
  const Record& rec = dataset_->record(r);
  GrowToVocabulary();
  graph_.AddRecordTerms(rec.terms);
  pairs_of_record_.emplace_back();
  best_.push_back(0.0);

  // Neighbor discovery through the inverted index: every already-resolved
  // record sharing ≥ 1 term. Postings are scanned before the upsert, so a
  // record never pairs with itself.
  std::vector<RecordId> neighbors;
  for (TermId t : rec.terms) {
    neighbors.insert(neighbors.end(), model_.inverted[t].begin(),
                     model_.inverted[t].end());
  }
  std::sort(neighbors.begin(), neighbors.end());
  neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                  neighbors.end());

  const bool two_source = dataset_->num_sources() == 2;
  for (RecordId b : neighbors) {
    if (two_source && dataset_->record(b).source == rec.source) continue;
    std::vector<TermId> shared =
        SortedIntersection(rec.terms, dataset_->record(b).terms);
    const PairId p = model_.pairs.Append(b, r);
    const PairId g = graph_.AddPair(shared);
    GTER_CHECK(p == g);
    model_.pair_scores.push_back(0.0);
    model_.pair_probability.push_back(0.0);
    model_.matches.push_back(false);
    pairs_of_record_[b].push_back(p);
    pairs_of_record_[r].push_back(p);
  }

  // Posting upsert: r is the largest id, so postings stay sorted.
  for (TermId t : rec.terms) model_.inverted[t].push_back(r);

  // The record's terms are the invalidated frontier: each gained a record
  // (N_t — and so P_t — changed) and possibly new pairs.
  pending_dirty_.insert(pending_dirty_.end(), rec.terms.begin(),
                        rec.terms.end());
  ingested_records_ = r + 1;
  ++version_;
}

double ResolverState::PairProbabilityOf(PairId p) const {
  const RecordPair& rp = model_.pairs.pair(p);
  const double denom = std::max(best_[rp.a], best_[rp.b]);
  return denom > 0.0 ? model_.pair_scores[p] / denom : 0.0;
}

void ResolverState::RefreshDecisions(const std::vector<PairId>& touched_pairs,
                                     const ExecContext& ctx) {
  // Dense fast path: when most scores moved (the full-resweep regime —
  // every batch build lands here), the sparse bookkeeping below would
  // sort two ids per touched pair just to rediscover "everything". One
  // sequential pass over the pair table is cheaper and exact.
  if (touched_pairs.size() >= model_.pairs.size() / 2) {
    std::fill(best_.begin(), best_.end(), 0.0);
    const size_t num_pairs = model_.pairs.size();
    for (PairId p = 0; p < num_pairs; ++p) {
      const RecordPair& rp = model_.pairs.pair(p);
      best_[rp.a] = std::max(best_[rp.a], model_.pair_scores[p]);
      best_[rp.b] = std::max(best_[rp.b], model_.pair_scores[p]);
    }
    model_.matched_count = 0;
    for (PairId p = 0; p < num_pairs; ++p) {
      model_.pair_probability[p] = PairProbabilityOf(p);
      model_.matches[p] = model_.pair_probability[p] >= options_.eta;
      model_.matched_count += model_.matches[p] ? 1 : 0;
    }
    RebuildClusters(ctx);
    return;
  }

  // Records whose reciprocal-best denominator may have moved: endpoints of
  // every pair whose score changed.
  std::vector<RecordId> cand;
  cand.reserve(touched_pairs.size() * 2);
  for (PairId p : touched_pairs) {
    cand.push_back(model_.pairs.pair(p).a);
    cand.push_back(model_.pairs.pair(p).b);
  }
  std::sort(cand.begin(), cand.end());
  cand.erase(std::unique(cand.begin(), cand.end()), cand.end());

  std::vector<RecordId> rescaled;
  for (RecordId r : cand) {
    double b = 0.0;
    for (PairId p : pairs_of_record_[r]) {
      b = std::max(b, model_.pair_scores[p]);
    }
    if (b != best_[r]) {
      best_[r] = b;
      rescaled.push_back(r);
    }
  }

  // Pairs to rescore: the touched scores plus every pair of a record whose
  // denominator changed.
  std::vector<PairId> rescore(touched_pairs);
  for (RecordId r : rescaled) {
    rescore.insert(rescore.end(), pairs_of_record_[r].begin(),
                   pairs_of_record_[r].end());
  }
  std::sort(rescore.begin(), rescore.end());
  rescore.erase(std::unique(rescore.begin(), rescore.end()), rescore.end());

  bool flips = false;
  for (PairId p : rescore) {
    model_.pair_probability[p] = PairProbabilityOf(p);
    const bool match = model_.pair_probability[p] >= options_.eta;
    if (match != model_.matches[p]) {
      flips = true;
      model_.matched_count += match ? 1 : -1;
      model_.matches[p] = match;
    }
  }

  if (flips) {
    RebuildClusters(ctx);
    return;
  }
  // No decision flipped, so the matched pairs are those the partition was
  // built from plus none of the pairs appended since. Each record past the
  // labelled prefix therefore has no match, and its id exceeds every
  // labelled one: the prefix keeps its labels (dense, stable by smallest
  // member) and each new record opens the next label as a singleton.
  for (size_t r = model_.cluster_of.size(); r < ingested_records_; ++r) {
    model_.cluster_of.push_back(
        static_cast<uint32_t>(model_.cluster_members.size()));
    model_.cluster_members.push_back({static_cast<RecordId>(r)});
  }
}

void ResolverState::RebuildClusters(const ExecContext& ctx) {
  ScopedTimer timer(ctx.metrics, ctx.trace, "resolver_state/rebuild_clusters");
  UnionFind uf(ingested_records_);
  const size_t num_pairs = model_.pairs.size();
  for (PairId p = 0; p < num_pairs; ++p) {
    if (!model_.matches[p]) continue;
    const RecordPair& rp = model_.pairs.pair(p);
    uf.Union(rp.a, rp.b);
  }
  model_.cluster_of = uf.ComponentLabels();
  model_.cluster_members.assign(uf.num_components(), {});
  for (RecordId r = 0; r < ingested_records_; ++r) {
    model_.cluster_members[model_.cluster_of[r]].push_back(r);
  }
}

Status ResolverState::ConvergeAndRefresh(const ExecContext& ctx) {
  std::vector<TermId> dirty;
  if (pending_full_) {
    dirty.resize(graph_.num_terms());
    for (size_t t = 0; t < dirty.size(); ++t) {
      dirty[t] = static_cast<TermId>(t);
    }
  } else {
    dirty = pending_dirty_;
  }

  ++dirty_reiter_runs_;
  if (ctx.metrics != nullptr) {
    ctx.metrics->AddCounter("ingest/dirty_reiter_runs");
  }

  Result<IterDirtyResult> swept =
      RunIterDirty(graph_, dirty, &model_.term_weights, &model_.pair_scores,
                   &iter_scratch_, ctx);
  if (!swept.ok()) {
    // Weights are mid-flight: scores of pairs adjacent to moved terms may
    // be stale. Escalate the resume to a full frontier — correct from any
    // intermediate state, and cancellation is the rare path.
    pending_full_ = true;
    return swept.status();
  }
  pending_dirty_.clear();
  pending_full_ = false;
  last_converge_sweeps_ = swept.value().sweeps;
  last_used_full_ = swept.value().used_full_resweep;
  if (swept.value().used_full_resweep) {
    ++full_resweeps_;
    if (ctx.metrics != nullptr) {
      ctx.metrics->AddCounter("ingest/full_resweeps");
    }
  }
  if (ctx.metrics != nullptr) {
    ctx.metrics->SetGauge("ingest/last_converge_sweeps",
                          static_cast<double>(swept.value().sweeps));
  }

  {
    ScopedTimer refresh(ctx.metrics, ctx.trace,
                        "resolver_state/refresh_decisions");
    RefreshDecisions(swept.value().touched_pairs, ctx);
  }
  if (ctx.metrics != nullptr) {
    ctx.metrics->SetGauge(
        "ingest/last_touched_pairs",
        static_cast<double>(swept.value().touched_pairs.size()));
    ctx.metrics->SetGauge("cluster/clusters",
                          static_cast<double>(num_clusters()));
  }
  ++version_;
  return Status::OK();
}

Status ResolverState::BuildBatch(const ExecContext& ctx,
                                 size_t limit_records) {
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  ScopedTimer timer(ctx.metrics, ctx.trace, "resolver_state/build");

  const size_t n = std::min(limit_records, dataset_->size());
  const size_t pairs_before = model_.pairs.size();
  Status polled = Status::OK();
  while (polled.ok() && ingested_records_ < n) {
    if (ingested_records_ % 256 == 0) polled = ctx.CheckCancel();
    if (polled.ok()) StructuralIngest(static_cast<RecordId>(ingested_records_));
  }
  // The appended pairs count once per step, whether or not it was cancelled.
  if (ctx.metrics != nullptr) {
    ctx.metrics->AddCounter("pairspace/pairs",
                            model_.pairs.size() - pairs_before);
  }
  GTER_RETURN_IF_ERROR(polled);
  return ConvergeAndRefresh(ctx);
}

Result<IngestStats> ResolverState::Ingest(uint32_t source,
                                          std::string raw_text,
                                          const ExecContext& ctx) {
  // Poll before mutating anything: a k=0 cancel must leave the state (and
  // the dataset) untouched.
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  if (source >= dataset_->num_sources()) {
    return Status::InvalidArgument("source out of range");
  }
  GTER_CHECK(ingested_records_ == dataset_->size());  // no unresolved tail
  dataset_->AddRecord(source, std::move(raw_text), {}, ctx);
  // No poll between the append and the structural ingest: a cancel there
  // would leave the dataset one record ahead of the state.
  return IngestNext(ctx);
}

Result<IngestStats> ResolverState::IngestExisting(const ExecContext& ctx) {
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  GTER_CHECK(ingested_records_ < dataset_->size());
  return IngestNext(ctx);
}

Result<IngestStats> ResolverState::IngestNext(const ExecContext& ctx) {
  ScopedTimer timer(ctx.metrics, ctx.trace, "resolver_state/ingest");

  const RecordId id = static_cast<RecordId>(ingested_records_);
  IngestStats stats;
  stats.record = id;
  const size_t terms_before = graph_.num_terms();
  const size_t pairs_before = model_.pairs.size();
  {
    ScopedTimer structural(ctx.metrics, ctx.trace,
                           "resolver_state/structural_ingest");
    StructuralIngest(id);
  }
  stats.new_terms = graph_.num_terms() - terms_before;
  stats.new_pairs = model_.pairs.size() - pairs_before;
  ++records_ingested_;
  if (ctx.metrics != nullptr) {
    ctx.metrics->AddCounter("ingest/records");
    ctx.metrics->AddCounter("pairspace/pairs", stats.new_pairs);
  }

  GTER_RETURN_IF_ERROR(ConvergeAndRefresh(ctx));
  stats.sweeps = last_converge_sweeps_;
  stats.used_full_resweep = last_used_full_;
  stats.cluster = model_.cluster_of[id];
  stats.cluster_size = model_.cluster_members[stats.cluster].size();
  return stats;
}

Status ResolverState::Converge(const ExecContext& ctx) {
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  if (!has_pending_dirty()) return Status::OK();
  return ConvergeAndRefresh(ctx);
}

}  // namespace gter
