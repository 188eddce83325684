#include "gter/core/iter.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "gter/common/logging.h"
#include "gter/common/metrics.h"
#include "gter/common/random.h"
#include "gter/common/status.h"

namespace gter {
namespace {

// Chunk width of the Σ reductions (convergence delta, L2 norm): each
// chunk adds left to right, and the partials add in chunk order. The order
// is a function of the length alone.
constexpr size_t kReduceChunk = 4096;

/// Σ_i f(i) over [0, n) via fixed-width chunks.
template <typename PerElement>
double ChunkedSum(size_t n, PerElement f) {
  double total = 0.0;
  for (size_t begin = 0; begin < n; begin += kReduceChunk) {
    const size_t end = std::min(begin + kReduceChunk, n);
    double acc = 0.0;
    for (size_t i = begin; i < end; ++i) acc += f(i);
    total += acc;
  }
  return total;
}

/// Σ_{t∈σ} x_t, accumulated left to right over the set's ascending terms:
/// s(r_i, r_j) of Algorithm 1 lines 3–4 for every pair of σ.
double SetScore(const BipartiteGraph& graph, const std::vector<double>& x,
                SetId k) {
  double acc = 0.0;
  for (TermId t : graph.TermsOfSet(k)) acc += x[t];
  return acc;
}

/// score_σ of every set from x.
void ScoreAllSets(const BipartiteGraph& graph, const std::vector<double>& x,
                  std::vector<double>* score) {
  for (SetId k = 0; k < graph.num_sets(); ++k) {
    (*score)[k] = SetScore(graph, x, k);
  }
}

void Normalize(std::vector<double>* x, IterNormalization kind) {
  if (kind == IterNormalization::kLogistic) {
    // x/(1+x) is the division-safe form of the paper's 1/(1 + 1/x).
    for (double& v : *x) v = v / (1.0 + v);
    return;
  }
  const double* v = x->data();
  const double norm_sq =
      ChunkedSum(x->size(), [v](size_t i) { return v[i] * v[i]; });
  if (norm_sq <= 0.0) return;
  const double inv = 1.0 / std::sqrt(norm_sq);
  for (double& e : *x) e *= inv;
}

}  // namespace

Result<IterResult> RunIter(const BipartiteGraph& graph,
                           const std::vector<double>& edge_probability,
                           const IterOptions& options,
                           const ExecContext& ctx) {
  GTER_CHECK(edge_probability.size() == graph.num_pairs());
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  const size_t num_terms = graph.num_terms();
  const size_t num_pairs = graph.num_pairs();
  const size_t num_sets = graph.num_sets();

  ScopedTimer total_timer(ctx.metrics, ctx.trace, "iter/total");
  if (ctx.metrics != nullptr) ctx.metrics->AddCounter("iter/runs");

  IterResult result;
  result.term_weights.resize(num_terms);
  result.pair_scores.resize(num_pairs);

  // Line 1: random initialization of x_t in (0, 1).
  Rng rng(options.seed);
  for (double& x : result.term_weights) x = rng.OpenUniformDouble();

  std::vector<double>& x = result.term_weights;
  std::vector<double> x_prev(num_terms);
  std::vector<double> set_score(num_sets);

  // W_σ = Σ_{q∈σ} p(r_i, r_j), added in ascending PairId: every pair of σ
  // feeds the same score_σ to every term of σ, so a term's Eq. 6 sum over
  // its pairs is Σ_{σ∋t} W_σ·score_σ.
  std::vector<double> set_weight(num_sets, 0.0);
  for (PairId q = 0; q < num_pairs; ++q) {
    set_weight[graph.SetOf(q)] += edge_probability[q];
  }

  for (size_t iteration = 0; iteration < options.max_iterations; ++iteration) {
    // One cancellation poll per sweep: the natural Algorithm 1 boundary —
    // frequent enough for prompt unwinding, far off the inner hot loops.
    GTER_RETURN_IF_ERROR(ctx.CheckCancel());
    ScopedTimer sweep_timer(ctx.metrics, ctx.trace, "iter/sweep",
                            TraceArg{"sweep", static_cast<double>(iteration)});

    // Lines 3–4: s(r_i, r_j) ← Σ_{t shared} x_t, once per shared-term set.
    ScoreAllSets(graph, x, &set_score);

    x_prev = x;

    // Lines 5–6: x_t ← Σ_p p(r_i, r_j)·s(p) / P_t, as Σ_{σ∋t} W_σ·score_σ
    // over the sets of t in ascending SetId.
    for (TermId t = 0; t < num_terms; ++t) {
      const std::span<const SetId> sets = graph.SetsOfTerm(t);
      double acc = 0.0;
      for (SetId k : sets) acc += set_weight[k] * set_score[k];
      x[t] = sets.empty() ? 0.0 : acc / graph.Pt(t);
    }

    // Line 7: normalization keeps the additive rule bounded.
    Normalize(&x, options.normalization);

    const double* xp = x.data();
    const double* xq = x_prev.data();
    const double change = ChunkedSum(num_terms, [xp, xq](size_t i) {
      return std::fabs(xp[i] - xq[i]);
    });
    if (options.track_convergence) result.update_trace.push_back(change);
    if (ctx.metrics != nullptr) {
      ctx.metrics->AddCounter("iter/sweeps");
      ctx.metrics->Observe("iter/convergence_delta", change);
    }
    result.iterations = iteration + 1;
    if (change < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  if (ctx.metrics != nullptr && result.converged) {
    ctx.metrics->AddCounter("iter/converged");
  }

  // Final pair scores from the converged weights, written once.
  ScoreAllSets(graph, x, &set_score);
  for (PairId p = 0; p < num_pairs; ++p) {
    result.pair_scores[p] = set_score[graph.SetOf(p)];
  }
  return result;
}

namespace {

// Mark bits of RunIterDirty's id lists, one bit per list over a shared
// mark array, so the two lists over sets share IterDirtyScratch::set_mark.
constexpr uint8_t kInPass = 1;   // collected by the current worklist pass
constexpr uint8_t kTouched = 2;  // refreshed by this call (sets only)

// An id list whose members carry one mark bit. Collect() appends unseen
// ids in collection order; clearing costs the list's length, not the mark
// array's, and the destructor clears, so the scratch's marks are zero
// again after every call, a cancelled one included.
class MarkedList {
 public:
  MarkedList(std::vector<uint8_t>* mark, uint8_t bit)
      : mark_(*mark), bit_(bit) {}
  MarkedList(const MarkedList&) = delete;
  MarkedList& operator=(const MarkedList&) = delete;
  ~MarkedList() { Clear(); }

  void Collect(uint32_t id) {
    if (mark_[id] & bit_) return;
    mark_[id] |= bit_;
    ids_.push_back(id);
  }
  void Clear() {
    for (uint32_t id : ids_) mark_[id] &= static_cast<uint8_t>(~bit_);
    ids_.clear();
  }
  const std::vector<uint32_t>& ids() const { return ids_; }
  void Sort() { std::sort(ids_.begin(), ids_.end()); }

 private:
  std::vector<uint8_t>& mark_;
  const uint8_t bit_;
  std::vector<uint32_t> ids_;
};

// RunIterDirty's thresholds (DESIGN.md §4g).

// A term re-enters the frontier while its pass-over-pass change exceeds
// this. Far tighter than IterOptions::tolerance (a global L1 sum): the
// frontier rule is per-term, and the incremental-vs-batch differential
// contract (≤ 1e-10 drift after many ingests) needs each converge to park
// every weight within a hair of the fixed point.
constexpr double kFrontierTolerance = 1e-13;

// Noise-floor guard for the frontier rule. A term's update gathers
// Σ_{σ∋t} count_σ·score_σ before splitting out the self-contribution, so
// its result carries rounding noise proportional to that gathered
// magnitude — for a hub term on 10k pairs the noise floor sits around
// 1e-12, *above* the absolute tolerance, and demanding sub-rounding
// stability would keep such terms jittering in the frontier forever (a
// worklist that never drains). A term therefore re-enters the frontier
// only when its change exceeds
// max(kFrontierTolerance, kNoiseFloor · ε · Σ count_σ·score_σ). The extra
// slack is the update's own conditioning limit, far inside the 1e-10
// differential contract.
constexpr double kNoiseFloor = 256.0;

// Hard pass cap; the worklist normally drains long before this.
constexpr size_t kMaxSweeps = 1000;

// Escape hatch: when the frontier covers more than this fraction of all
// terms, the run degrades to full sweeps (same arithmetic, no frontier
// bookkeeping) — at that size the global sweep is cheaper than tracking.
// Once tripped it stays full for the rest of the run.
constexpr double kFullResweepThreshold = 0.25;

}  // namespace

Result<IterDirtyResult> RunIterDirty(const BipartiteGraph& graph,
                                     const std::vector<TermId>& dirty_terms,
                                     std::vector<double>* term_weights,
                                     std::vector<double>* pair_scores,
                                     IterDirtyScratch* scratch,
                                     const ExecContext& ctx) {
  const size_t num_terms = graph.num_terms();
  const size_t num_sets = graph.num_sets();
  GTER_CHECK(term_weights->size() == num_terms);
  GTER_CHECK(pair_scores->size() == graph.num_pairs());
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());

  ScopedTimer total_timer(ctx.metrics, ctx.trace, "iter/dirty");
  if (ctx.metrics != nullptr) ctx.metrics->AddCounter("iter/dirty_runs");

  std::vector<double>& x = *term_weights;
  std::vector<double>& s = *pair_scores;
  scratch->term_mark.resize(num_terms, 0);
  scratch->set_mark.resize(num_sets, 0);

  // score_σ lives in the score of σ's first pair until the exit copies it
  // to the set's other pairs.
  const auto score = [&](SetId k) -> double& {
    return s[graph.FirstPairOfSet(k)];
  };

  // Frontier: sorted unique dirty terms.
  std::vector<TermId> frontier(dirty_terms);
  std::sort(frontier.begin(), frontier.end());
  frontier.erase(std::unique(frontier.begin(), frontier.end()),
                 frontier.end());
  GTER_CHECK(frontier.empty() || frontier.back() < num_terms);

  IterDirtyResult result;
  MarkedList touched_sets(&scratch->set_mark, kTouched);
  MarkedList frontier_sets(&scratch->set_mark, kInPass);
  MarkedList affected(&scratch->term_mark, kInPass);
  std::vector<TermId> next_frontier;

  // score of one set from the current x (a full gather, so no delta error
  // ever accumulates).
  const auto refresh_set = [&](SetId k) {
    score(k) = SetScore(graph, x, k);
    touched_sets.Collect(k);
  };

  // x of one term from the current set scores: the exact local solve of
  // the prob ≡ 1 Eq. 6 update. The plain sweep x ← h((Σ_{p∋t} s_p)/P_t)
  // feeds x_t back into itself through every adjacent score (s_p contains
  // x_t), and that self-coupling makes weakly supported terms decay
  // HARMONICALLY (x_{n+1} = x_n/(1+x_n) ⇒ x_n ≈ 1/n) — a per-term 1e-13
  // frontier would never drain. Splitting Σ s_p = deg·x_t + C (deg the
  // term's pair count, C the other terms' mass, read off the
  // already-computed scores) and solving the term's own fixed point
  // deg·x² + (P_t + C − deg)·x − C = 0 exactly removes the slow mode: an
  // unsupported term (C = 0) parks at its limit in ONE update, and the
  // remaining cross-term coupling contracts geometrically. The root is the
  // same x the plain sweep converges to, so the global fixed point — the
  // thing the incremental-vs-batch differential pins — is unchanged; only
  // the approach is accelerated. Every pair of σ has score_σ, so
  // deg = Σ_{σ∋t} count_σ and Σ s_p = Σ_{σ∋t} count_σ·score_σ.
  // `scale_out` receives that gathered magnitude — the conditioning of the
  // update, used by the callers' frontier rule: changes below
  // kNoiseFloor · ε · scale are this update's own rounding noise, not
  // signal (a hub term gathering 10k scores cannot be stable past ~1e-12,
  // and chasing it below that keeps the worklist alive forever).
  const auto update_term = [&](TermId t, double* scale_out) {
    const std::span<const SetId> sets = graph.SetsOfTerm(t);
    if (sets.empty()) {
      *scale_out = 0.0;
      return 0.0;
    }
    double deg = 0.0;
    double total = 0.0;
    for (SetId k : sets) {
      const double count = static_cast<double>(graph.SetSize(k));
      deg += count;
      total += count * score(k);
    }
    *scale_out = total;
    const double c = total - deg * x[t];  // cross-term mass
    const double b = graph.Pt(t) + c - deg;
    if (c <= 0.0) return b < 0.0 ? -b / deg : 0.0;
    // Cancellation-free form of (−b + √(b² + 4·deg·c)) / (2·deg).
    return 2.0 * c / (b + std::sqrt(b * b + 4.0 * deg * c));
  };
  constexpr double kEps = 2.220446049250313e-16;  // DBL_EPSILON
  const double noise = kNoiseFloor * kEps;
  // The frontier rule: a move above the update's own noise floor.
  const auto moved = [&](double delta, double scale) {
    return delta > std::max(kFrontierTolerance, noise * scale);
  };

  // Full mode's Jacobi sweep: every set rescored from x, then every term
  // from those scores, in ascending id, so the next frontier is sorted.
  const auto sweep_all = [&] {
    for (SetId k = 0; k < num_sets; ++k) score(k) = SetScore(graph, x, k);
    next_frontier.clear();
    for (TermId t = 0; t < num_terms; ++t) {
      const double old = x[t];
      double scale = 0.0;
      x[t] = update_term(t, &scale);
      if (moved(std::fabs(x[t] - old), scale)) next_frontier.push_back(t);
    }
  };

  // The worklist's Gauss–Seidel pass over the sorted term list: a term that
  // moves writes its weight and re-gathers its own sets at once, so every
  // later term of the pass reads current scores. A Jacobi pass would read
  // scores a pass old wherever a neighbor moved below the frontier rule,
  // and those delays stretch the tails (DESIGN.md §4g).
  const auto gauss_seidel_pass = [&](const std::vector<TermId>& list) {
    next_frontier.clear();
    for (TermId t : list) {
      double scale = 0.0;
      const double v = update_term(t, &scale);
      if (v == x[t]) continue;
      const double delta = std::fabs(v - x[t]);
      x[t] = v;
      for (SetId k : graph.SetsOfTerm(t)) refresh_set(k);
      if (moved(delta, scale)) next_frontier.push_back(t);
    }
  };

  bool full = false;
  while (!frontier.empty() && result.sweeps < kMaxSweeps) {
    GTER_RETURN_IF_ERROR(ctx.CheckCancel());

    if (!full && static_cast<double>(frontier.size()) >
                     kFullResweepThreshold * static_cast<double>(num_terms)) {
      full = true;
      result.used_full_resweep = true;
      if (ctx.metrics != nullptr) ctx.metrics->AddCounter("iter/full_resweeps");
    }

    if (full) {
      sweep_all();
    } else {
      // The frontier plus the terms of its sets. Only the first pass
      // refreshes those sets: a set with a dirty term may hold a stale
      // score, and from then on every pass keeps each score current.
      frontier_sets.Clear();
      affected.Clear();
      for (TermId t : frontier) {
        affected.Collect(t);
        for (SetId k : graph.SetsOfTerm(t)) frontier_sets.Collect(k);
      }
      for (SetId k : frontier_sets.ids()) {
        if (result.sweeps == 0) refresh_set(k);
        for (TermId t : graph.TermsOfSet(k)) affected.Collect(t);
      }
      affected.Sort();
      gauss_seidel_pass(affected.ids());
    }

    frontier.swap(next_frontier);
    ++result.sweeps;
    if (ctx.metrics != nullptr) ctx.metrics->AddCounter("iter/dirty_sweeps");
    GTER_LOG(Debug) << "iter/dirty sweep " << result.sweeps << ": frontier "
                    << frontier.size() << "/" << num_terms
                    << (full ? " (full)" : "");
  }
  result.converged = frontier.empty();

  // Exit invariant s ≡ Σ_{t∈σ} x_t for every pair of σ: each refreshed
  // set's pairs take its score. The worklist passes re-gather a set after
  // every move of its terms, so only full mode, whose last sweep moved
  // terms after its set refresh, rescores here, and it touched every set.
  const auto write_pairs = [&](SetId k) {
    const double v = score(k);
    graph.ForEachPairOfSet(k, [&](PairId p) {
      s[p] = v;
      result.touched_pairs.push_back(p);
    });
  };
  if (full) {
    for (SetId k = 0; k < num_sets; ++k) {
      score(k) = SetScore(graph, x, k);
      write_pairs(k);
    }
  } else {
    touched_sets.Sort();
    for (SetId k : touched_sets.ids()) write_pairs(k);
  }
  return result;
}

}  // namespace gter
