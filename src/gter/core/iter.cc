#include "gter/core/iter.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <unordered_map>

#include "gter/common/logging.h"
#include "gter/common/metrics.h"
#include "gter/common/random.h"
#include "gter/common/status.h"
#include "gter/common/thread_pool.h"

namespace gter {
namespace {

// Chunk width for the parallel reductions (convergence delta, L2 norm).
// Chunk boundaries are a function of this constant alone — never of the
// thread count — and partials are combined serially in chunk order, so the
// reduced value is bit-identical whether the pool has 0 or 64 workers.
constexpr size_t kReduceChunk = 4096;

// Minimum terms/pairs per chunk of the elementwise parallel passes.
constexpr size_t kGrain = 256;

/// Σ_i f(x[i]) over [0, n) via fixed-width chunks; `f` must be pure.
template <typename PerElement>
double ChunkedSum(const ExecContext& ctx, size_t n, PerElement f) {
  const size_t num_chunks = (n + kReduceChunk - 1) / kReduceChunk;
  if (num_chunks <= 1) {
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) acc += f(i);
    return acc;
  }
  std::vector<double> partial(num_chunks, 0.0);
  ParallelFor(ctx, 0, num_chunks, /*grain=*/1, [&](size_t lo, size_t hi) {
    for (size_t chunk = lo; chunk < hi; ++chunk) {
      const size_t begin = chunk * kReduceChunk;
      const size_t end = std::min(begin + kReduceChunk, n);
      double acc = 0.0;
      for (size_t i = begin; i < end; ++i) acc += f(i);
      partial[chunk] = acc;
    }
  });
  double total = 0.0;
  for (double p : partial) total += p;
  return total;
}

/// Σ_i values[idx[i]], accumulated left to right: s(r_i, r_j) of Algorithm
/// 1 lines 3–4, and the dirty-region term update's gathered score mass.
double GatherSum(const double* values, std::span<const uint32_t> idx) {
  double acc = 0.0;
  for (uint32_t i : idx) acc += values[i];
  return acc;
}

/// s(r_i, r_j) ← Σ_{t shared} x_t for every pair (Algorithm 1 lines 3–4).
/// Each pair gathers its own adjacency, so the chunks are independent.
void ScoreAllPairs(const BipartiteGraph& graph, const std::vector<double>& x,
                   std::vector<double>* s, const ExecContext& ctx) {
  ParallelFor(ctx, 0, graph.num_pairs(), kGrain, [&](size_t lo, size_t hi) {
    for (PairId p = lo; p < hi; ++p) {
      (*s)[p] = GatherSum(x.data(), graph.TermsOfPair(p));
    }
  });
}

/// The pairs grouped by their shared-term set. s(r_i, r_j) of Algorithm 1
/// lines 3–4 depends on a pair only through that set, so one ordered sum
/// per set stands for every pair in it, bit for bit: each set's terms are
/// one pair's TermsOfPair, the same ascending list every pair of the set
/// has.
struct TermSets {
  /// Set id of each pair, by PairId.
  std::vector<uint32_t> set_of;
  /// The first pair (lowest PairId) with each set, by set id.
  std::vector<PairId> first_pair;
};

/// Set ids are assigned in first-seen PairId order. A pair with one shared
/// term is keyed by that term; any other pair by a hash of its term list,
/// whose collisions are resolved by comparing the lists. The hash map is
/// only probed, never iterated, so the ids do not depend on its layout.
TermSets GroupByTermSet(const BipartiteGraph& graph) {
  constexpr uint32_t kNone = UINT32_MAX;
  TermSets sets;
  sets.set_of.resize(graph.num_pairs());
  std::vector<uint32_t> of_single_term(graph.num_terms(), kNone);
  // Hash → the newest set with that hash; older ones chain through
  // next_with_hash (by set id).
  std::unordered_map<uint64_t, uint32_t> newest_with_hash;
  std::vector<uint32_t> next_with_hash;
  const auto new_set = [&](PairId p, uint32_t chain) {
    sets.first_pair.push_back(p);
    next_with_hash.push_back(chain);
    return static_cast<uint32_t>(sets.first_pair.size() - 1);
  };
  for (PairId p = 0; p < graph.num_pairs(); ++p) {
    const std::span<const TermId> terms = graph.TermsOfPair(p);
    uint32_t id = kNone;
    if (terms.size() == 1) {
      uint32_t& slot = of_single_term[terms[0]];
      if (slot == kNone) slot = new_set(p, kNone);
      id = slot;
    } else {
      uint64_t h = terms.size();
      for (TermId t : terms) h = (h ^ t) * 0x9E3779B97F4A7C15ull;
      uint32_t& newest = newest_with_hash.try_emplace(h, kNone).first->second;
      for (id = newest; id != kNone; id = next_with_hash[id]) {
        if (std::ranges::equal(graph.TermsOfPair(sets.first_pair[id]),
                               terms)) {
          break;
        }
      }
      if (id == kNone) {
        id = new_set(p, newest);
        newest = id;
      }
    }
    sets.set_of[p] = id;
  }
  return sets;
}

/// s of every set from x: the left-to-right GatherSum of its term list.
void ScoreSets(const BipartiteGraph& graph, const TermSets& sets,
               const std::vector<double>& x, std::vector<double>* score,
               const ExecContext& ctx) {
  ParallelFor(ctx, 0, sets.first_pair.size(), kGrain,
              [&](size_t lo, size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      (*score)[k] = GatherSum(x.data(), graph.TermsOfPair(sets.first_pair[k]));
    }
  });
}

void Normalize(std::vector<double>* x, IterNormalization kind,
               const ExecContext& ctx) {
  if (kind == IterNormalization::kLogistic) {
    // x/(1+x) is the division-safe form of the paper's 1/(1 + 1/x).
    // Elementwise, so the parallel version is trivially bit-identical.
    ParallelFor(ctx, 0, x->size(), kGrain, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        (*x)[i] = (*x)[i] / (1.0 + (*x)[i]);
      }
    });
    return;
  }
  const double* v = x->data();
  double norm_sq =
      ChunkedSum(ctx, x->size(), [v](size_t i) { return v[i] * v[i]; });
  if (norm_sq <= 0.0) return;
  const double inv = 1.0 / std::sqrt(norm_sq);
  ParallelFor(ctx, 0, x->size(), kGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) (*x)[i] *= inv;
  });
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

  ScopedTimer total_timer(ctx.metrics, ctx.trace, "iter/total");
  if (ctx.metrics != nullptr) ctx.metrics->AddCounter("iter/runs");

  IterResult result;
  result.term_weights.resize(num_terms);
  result.pair_scores.assign(num_pairs, 0.0);

  // Line 1: random initialization of x_t in (0, 1).
  Rng rng(options.seed);
  for (double& x : result.term_weights) x = rng.OpenUniformDouble();

  std::vector<double>& x = result.term_weights;
  std::vector<double> x_prev(num_terms);
  const TermSets sets = GroupByTermSet(graph);
  std::vector<double> set_score(sets.first_pair.size());

  // Both sweeps are gather-style — every output element reads only from the
  // previous phase's vector and accumulates its own adjacency in storage
  // order — so the parallel chunks are independent and bit-identical to the
  // serial sweep.
  for (size_t iteration = 0; iteration < options.max_iterations; ++iteration) {
    // One cancellation poll per sweep: the natural Algorithm 1 boundary —
    // frequent enough for prompt unwinding, far off the inner hot loops.
    GTER_RETURN_IF_ERROR(ctx.CheckCancel());
    ScopedTimer sweep_timer(ctx.metrics, ctx.trace, "iter/sweep",
                            TraceArg{"sweep", static_cast<double>(iteration)});

    // Lines 3–4: s(r_i, r_j) ← Σ_{t shared} x_t, once per shared-term set.
    ScoreSets(graph, sets, x, &set_score, ctx);

    x_prev = x;

    // Lines 5–6: x_t ← Σ_p p(r_i, r_j)·s(p) / P_t, over the pairs of t in
    // ascending PairId.
    ParallelFor(ctx, 0, num_terms, kGrain, [&](size_t lo, size_t hi) {
      for (TermId t = lo; t < hi; ++t) {
        auto adjacent = graph.PairsOfTerm(t);
        double acc = 0.0;
        for (PairId p : adjacent) {
          acc += edge_probability[p] * set_score[sets.set_of[p]];
        }
        x[t] = adjacent.empty() ? 0.0 : acc / graph.Pt(t);
      }
    });

    // Line 7: normalization keeps the additive rule bounded.
    Normalize(&x, options.normalization, ctx);

    const double* xp = x.data();
    const double* xq = x_prev.data();
    const double change = ChunkedSum(ctx, num_terms, [xp, xq](size_t i) {
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
  ScoreSets(graph, sets, x, &set_score, ctx);
  std::vector<double>& s = result.pair_scores;
  ParallelFor(ctx, 0, num_pairs, kGrain, [&](size_t lo, size_t hi) {
    for (PairId p = lo; p < hi; ++p) s[p] = set_score[sets.set_of[p]];
  });
  return result;
}

namespace {

// Worklist scratch for RunIterDirty: a mark byte per element plus the id
// list in collection order. Collect() appends unseen ids; the caller sorts
// where the order matters.
struct MarkedList {
  std::vector<uint8_t> mark;
  std::vector<uint32_t> ids;

  explicit MarkedList(size_t n) : mark(n, 0) {}
  void Collect(uint32_t id) {
    if (mark[id]) return;
    mark[id] = 1;
    ids.push_back(id);
  }
  void Clear() {
    for (uint32_t id : ids) mark[id] = 0;
    ids.clear();
  }
};

// RunIterDirty's thresholds (DESIGN.md §4g). The stall sweep count is an
// IterDirtyOptions field, so tests can keep a converge on its worklist.

// A term re-enters the frontier while its pass-over-pass change exceeds
// this. Far tighter than IterOptions::tolerance (a global L1 sum): the
// frontier rule is per-term, and the incremental-vs-batch differential
// contract (≤ 1e-10 drift after many ingests) needs each converge to park
// every weight within a hair of the fixed point.
constexpr double kFrontierTolerance = 1e-13;

// Noise-floor guard for the frontier rule. A term's update gathers
// Σ_{p∋t} s_p before splitting out the self-contribution, so its result
// carries rounding noise proportional to that gathered magnitude — for a
// hub term with 10k adjacent pairs the noise floor sits around 1e-12,
// *above* the absolute tolerance, and demanding sub-rounding stability
// would keep such terms jittering in the frontier forever (a worklist that
// never drains). A term therefore re-enters the frontier only when its
// change exceeds max(kFrontierTolerance, kNoiseFloor · ε · Σ s_p). The
// extra slack is the update's own conditioning limit, far inside the
// 1e-10 differential contract.
constexpr double kNoiseFloor = 256.0;

// Stall detector threshold, a backstop for a worklist that cycles on
// numerical dust the per-term frontier rule cannot park. The signature is
// a pass whose largest |Δx| sits below this (far under any real signal,
// far over the stationary state's exact zeros) while the frontier
// persists; IterDirtyOptions::stall_sweeps such passes escalate the run.
// A run that contracts less than about 20x per pass also spends three
// passes in that band, and trips it too (DESIGN.md §4g).
constexpr double kStallDelta = 1e-9;

// Parking rule for the post-stall full mode. The full map contracts
// geometrically toward bitwise stationarity, but grinding out the last
// decades of dust costs a dozen extra sweeps for nothing: once a full
// sweep's largest move falls below this, the run parks and reports
// converged — the remaining distance to the fixed point is this times a
// contraction-ratio factor, far inside the 1e-10 differential contract.
// Applies only after a stall escalation; escape-hatch full runs (every
// batch build) still run to exact stationarity.
constexpr double kStallParkDelta = 1e-12;

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
                                     const IterDirtyOptions& options,
                                     std::vector<double>* term_weights,
                                     std::vector<double>* pair_scores,
                                     const ExecContext& ctx) {
  const size_t num_terms = graph.num_terms();
  const size_t num_pairs = graph.num_pairs();
  GTER_CHECK(term_weights->size() == num_terms);
  GTER_CHECK(pair_scores->size() == num_pairs);
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());

  ScopedTimer total_timer(ctx.metrics, ctx.trace, "iter/dirty");
  if (ctx.metrics != nullptr) ctx.metrics->AddCounter("iter/dirty_runs");

  std::vector<double>& x = *term_weights;
  std::vector<double>& s = *pair_scores;

  // Frontier: sorted unique dirty terms.
  std::vector<TermId> frontier(dirty_terms);
  std::sort(frontier.begin(), frontier.end());
  frontier.erase(std::unique(frontier.begin(), frontier.end()),
                 frontier.end());
  GTER_CHECK(frontier.empty() || frontier.back() < num_terms);

  IterDirtyResult result;
  std::vector<uint8_t> term_touched(num_terms, 0);
  std::vector<uint8_t> pair_touched(num_pairs, 0);
  MarkedList frontier_pairs(num_pairs);
  MarkedList affected(num_terms);
  std::vector<TermId> next_frontier;

  // s of one pair from the current x (a full gather, so no delta error
  // ever accumulates).
  const auto refresh_pair = [&](PairId p) {
    s[p] = GatherSum(x.data(), graph.TermsOfPair(p));
    pair_touched[p] = 1;
  };

  // x of one term from the current s: the exact local solve of the prob ≡ 1
  // Eq. 6 update. The plain sweep x ← h((Σ_{p∋t} s_p)/P_t) feeds x_t back
  // into itself through every adjacent score (s_p contains x_t), and that
  // self-coupling makes weakly supported terms decay HARMONICALLY (x_{n+1}
  // = x_n/(1+x_n) ⇒ x_n ≈ 1/n) — a per-term 1e-13 frontier would never
  // drain. Splitting Σ s_p = deg·x_t + C (C = the other terms' mass, read
  // off the already-computed scores) and solving the term's own fixed
  // point deg·x² + (P_t + C − deg)·x − C = 0 exactly removes the slow
  // mode: an unsupported term (C = 0) parks at its limit in ONE update,
  // and the remaining cross-term coupling contracts geometrically. The
  // root is the same x the plain sweep converges to, so the global fixed
  // point — the thing the incremental-vs-batch differential pins — is
  // unchanged; only the approach is accelerated.
  // `scale_out` receives the gathered magnitude Σ_{p∋t} s_p — the
  // conditioning of the update, used by the callers' frontier rule: changes
  // below kNoiseFloor · ε · scale are this update's own rounding noise, not
  // signal (a hub term gathering 10k scores cannot be stable past ~1e-12,
  // and chasing it below that keeps the worklist alive forever).
  const auto update_term = [&](TermId t, double* scale_out) {
    auto adjacent = graph.PairsOfTerm(t);
    if (adjacent.empty()) {
      *scale_out = 0.0;
      return 0.0;
    }
    const double deg = static_cast<double>(adjacent.size());
    const double total = GatherSum(s.data(), adjacent);
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

  // Full mode's Jacobi sweep: every term from the current s, chunked at the
  // fixed reduction width with per-chunk frontier collection concatenated
  // in chunk order, so the next frontier is sorted and thread-count
  // independent. Returns the largest |Δx| (serial chunk-order max).
  const auto sweep_all_terms = [&] {
    next_frontier.clear();
    const size_t num_chunks = (num_terms + kReduceChunk - 1) / kReduceChunk;
    std::vector<std::vector<TermId>> movers(num_chunks);
    std::vector<double> chunk_max(num_chunks, 0.0);
    ParallelFor(ctx, 0, num_chunks, /*grain=*/1, [&](size_t lo, size_t hi) {
      for (size_t chunk = lo; chunk < hi; ++chunk) {
        const size_t begin = chunk * kReduceChunk;
        const size_t end = std::min(begin + kReduceChunk, num_terms);
        for (TermId t = begin; t < end; ++t) {
          const double old = x[t];
          double scale = 0.0;
          x[t] = update_term(t, &scale);
          const double delta = std::fabs(x[t] - old);
          chunk_max[chunk] = std::max(chunk_max[chunk], delta);
          if (moved(delta, scale)) movers[chunk].push_back(t);
        }
      }
    });
    for (const auto& chunk : movers) {
      next_frontier.insert(next_frontier.end(), chunk.begin(), chunk.end());
    }
    double max_delta = 0.0;
    for (double m : chunk_max) max_delta = std::max(max_delta, m);
    return max_delta;
  };

  // The worklist's Gauss–Seidel pass over the sorted term list: a term that
  // moves writes its weight and re-gathers its own pairs at once, so every
  // later term of the pass reads current scores. A Jacobi pass would read
  // scores a pass old wherever a neighbor moved below the frontier rule,
  // and those delays stretch the tails (DESIGN.md §4g). The pass is serial
  // over ascending ids, so it is bitwise the same at any thread count.
  // Returns the largest |Δx|, the signal the stall detector watches.
  const auto gauss_seidel_pass = [&](const std::vector<TermId>& list) {
    next_frontier.clear();
    double max_delta = 0.0;
    for (TermId t : list) {
      double scale = 0.0;
      const double v = update_term(t, &scale);
      if (v == x[t]) continue;
      const double delta = std::fabs(v - x[t]);
      x[t] = v;
      term_touched[t] = 1;
      for (PairId p : graph.PairsOfTerm(t)) refresh_pair(p);
      max_delta = std::max(max_delta, delta);
      if (moved(delta, scale)) next_frontier.push_back(t);
    }
    return max_delta;
  };

  bool full = false;
  bool dust_parked = false;
  size_t dust_sweeps = 0;
  while (result.sweeps < kMaxSweeps) {
    if (frontier.empty() || dust_parked) break;
    GTER_RETURN_IF_ERROR(ctx.CheckCancel());
    double sweep_max = 0.0;

    if (!full && static_cast<double>(frontier.size()) >
                     kFullResweepThreshold * static_cast<double>(num_terms)) {
      full = true;
      result.used_full_resweep = true;
      if (ctx.metrics != nullptr) ctx.metrics->AddCounter("iter/full_resweeps");
    }

    if (full) {
      // Degraded mode: every pair rescored, then the term sweep over every
      // term — no frontier bookkeeping.
      ScoreAllPairs(graph, x, &s, ctx);
      sweep_max = sweep_all_terms();
      // Post-stall parking: the full map is past the interesting decades —
      // once its largest move is numerical dust, park instead of grinding
      // to exact stationarity. Escape-hatch full runs (stall_escalated
      // false) are unaffected and still land bitwise on the fixed point.
      if (result.stall_escalated && sweep_max < kStallParkDelta) {
        dust_parked = true;
      }
    } else {
      // The frontier plus the terms of its pairs. Only the first pass
      // refreshes those pairs: new pairs enter with s = 0, and from then on
      // every pass keeps each score current.
      frontier_pairs.Clear();
      affected.Clear();
      for (TermId t : frontier) {
        affected.Collect(t);
        for (PairId p : graph.PairsOfTerm(t)) frontier_pairs.Collect(p);
      }
      for (PairId p : frontier_pairs.ids) {
        if (result.sweeps == 0) refresh_pair(p);
        for (TermId t : graph.TermsOfPair(p)) affected.Collect(t);
      }
      std::sort(affected.ids.begin(), affected.ids.end());
      sweep_max = gauss_seidel_pass(affected.ids);

      // Stall detection: after `stall_sweeps` consecutive passes whose
      // largest move is dust while the frontier persists, escalate
      // (sticky) to full synchronous sweeps, which reach a
      // bitwise-stationary fixed point — the same one the batch build
      // lands on.
      if (sweep_max < kStallDelta) {
        ++dust_sweeps;
        if (dust_sweeps >= options.stall_sweeps && !next_frontier.empty()) {
          full = true;
          result.used_full_resweep = true;
          result.stall_escalated = true;
          if (ctx.metrics != nullptr) {
            ctx.metrics->AddCounter("iter/stall_escalations");
          }
        }
      } else {
        dust_sweeps = 0;
      }
    }

    frontier.swap(next_frontier);
    ++result.sweeps;
    if (ctx.metrics != nullptr) ctx.metrics->AddCounter("iter/dirty_sweeps");
    GTER_LOG(Debug) << "iter/dirty sweep " << result.sweeps << ": frontier "
                    << frontier.size() << "/" << num_terms << " max_delta "
                    << sweep_max << (full ? " (full)" : "");
  }
  result.converged = frontier.empty() || dust_parked;

  // Exit invariant s ≡ Σ_{t∈p} x_t. The worklist passes re-gather a pair
  // after every move of its terms, so only full mode, whose last sweep
  // moved terms after its pair refresh, rescores here.
  if (full) {
    ScoreAllPairs(graph, x, &s, ctx);
    std::fill(term_touched.begin(), term_touched.end(), 1);
    std::fill(pair_touched.begin(), pair_touched.end(), 1);
  }

  for (TermId t = 0; t < num_terms; ++t) {
    if (term_touched[t]) result.touched_terms.push_back(t);
  }
  for (PairId p = 0; p < num_pairs; ++p) {
    if (pair_touched[p]) result.touched_pairs.push_back(p);
  }
  return result;
}

}  // namespace gter
