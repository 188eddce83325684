#include "gter/core/fusion.h"

#include "gter/common/status.h"
#include "gter/common/timer.h"
#include "gter/graph/record_graph.h"

namespace gter {

void DeclarePipelineMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) return;
  for (const char* name :
       {"dataset/records", "dataset/tokens", "pairspace/pairs",
        "iter/runs", "iter/sweeps", "iter/converged",
        "rss/walks_run", "rss/early_stops", "rss/target_hits",
        "cliquerank/runs", "cliquerank/engine_dense",
        "cliquerank/engine_masked", "cliquerank/steps",
        "fusion/rounds", "fusion/matches", "cluster/endgame_runs",
        "iter/dirty_runs", "iter/dirty_sweeps", "iter/full_resweeps",
        "ingest/records", "ingest/dirty_reiter_runs",
        "ingest/full_resweeps"}) {
    registry->DeclareCounter(name);
  }
  registry->SetGauge("cliquerank/scratch_bytes", 0.0);
  registry->SetGauge("cluster/clusters", 0.0);
  registry->SetGauge("ingest/last_converge_sweeps", 0.0);
  registry->SetGauge("ingest/last_touched_pairs", 0.0);
}

FusionPipeline::FusionPipeline(const Dataset& dataset, FusionConfig config,
                               const ExecContext& ctx)
    : dataset_(dataset),
      config_(config),
      pairs_(PairSpace::Build(dataset, ctx)),
      bipartite_(BipartiteGraph::Build(dataset, pairs_, ctx)) {}

Result<FusionResult> FusionPipeline::Run(const ExecContext& ctx) {
  GTER_CHECK(config_.rounds >= 1);
  ScopedTimer total_timer(ctx.metrics, ctx.trace, "fusion/total");
  Stopwatch total_watch;
  // The run accumulates into partial_, so a cancelled run leaves everything
  // completed so far readable through partial().
  partial_ = FusionResult();
  FusionResult& result = partial_;
  // A cancelled stage unwinds here; stamp the elapsed time onto the
  // partial result before propagating the status.
  auto fail = [&](Status status) {
    result.total_seconds = total_watch.ElapsedSeconds();
    return Result<FusionResult>(std::move(status));
  };
  // §V-C: p(r_i, r_j) is initialized to 1 before CliqueRank derives it.
  result.pair_probability.assign(pairs_.size(), 1.0);
  // G_r's structure is fixed by the pair space: round 1 builds it inside
  // its probability stage, and later rounds only rewrite its weights.
  RecordGraph graph;

  for (size_t round = 1; round <= config_.rounds; ++round) {
    if (Status s = ctx.CheckCancel(); !s.ok()) return fail(std::move(s));
    ScopedTimer round_timer(ctx.metrics, ctx.trace, "fusion/round",
                            TraceArg{"round", static_cast<double>(round)});
    FusionRoundStats stats;
    stats.round = round;

    Stopwatch iter_watch;
    IterOptions iter_options = config_.iter;
    // Track convergence on the first round only (Figure 5 uses the initial
    // randomly-initialized run).
    iter_options.track_convergence =
        config_.iter.track_convergence && round == 1;
    Result<IterResult> iter_run =
        RunIter(bipartite_, result.pair_probability, iter_options, ctx);
    if (!iter_run.ok()) return fail(iter_run.status());
    IterResult iter = std::move(iter_run).value();
    stats.iter_seconds = iter_watch.ElapsedSeconds();
    stats.iter_iterations = iter.iterations;
    if (round == 1 && iter_options.track_convergence) {
      result.first_iter_trace = iter.update_trace;
    }
    result.term_weights = std::move(iter.term_weights);
    result.pair_scores = std::move(iter.pair_scores);

    Stopwatch prob_watch;
    if (round == 1) {
      graph = RecordGraph::Build(dataset_.size(), pairs_, result.pair_scores);
    } else {
      graph.SetWeights(result.pair_scores);
    }
    Result<CliqueRankResult> cr =
        RunCliqueRank(graph, pairs_, config_.cliquerank, ctx);
    if (!cr.ok()) return fail(cr.status());
    result.pair_probability = std::move(cr).value().pair_probability;
    // The last stage that reads G_r also releases it, so the graph's whole
    // life is timed as the probability stage.
    if (round == config_.rounds) graph = RecordGraph();
    stats.probability_seconds = prob_watch.ElapsedSeconds();
    stats.cumulative_seconds = total_watch.ElapsedSeconds();
    result.round_stats.push_back(stats);
    if (ctx.metrics != nullptr) ctx.metrics->AddCounter("fusion/rounds");

    if (observer_) observer_(round, result);
  }

  // The paper's decision rule (§VI): a pair matches iff p ≥ η.
  result.matches.resize(pairs_.size());
  size_t matched = 0;
  for (PairId p = 0; p < pairs_.size(); ++p) {
    result.matches[p] = result.pair_probability[p] >= config_.eta;
    matched += result.matches[p];
  }
  if (ctx.metrics != nullptr) {
    ctx.metrics->AddCounter("fusion/matches", matched);
  }

  // The clustering endgame: turn pairwise probabilities into entities.
  // A cancellation inside the clusterer still leaves the matches readable
  // through partial() — the endgame only adds to the result.
  ClusterProblem problem;
  problem.num_records = dataset_.size();
  problem.pairs = &pairs_;
  problem.pair_probability = &result.pair_probability;
  problem.eta = config_.eta;
  std::vector<uint32_t> source_of;
  if (dataset_.num_sources() > 1) {
    source_of.reserve(dataset_.size());
    for (const Record& r : dataset_.records()) source_of.push_back(r.source);
    problem.source_of = &source_of;
  }
  Result<Clustering> clustered =
      Cluster(config_.clusterer, problem, config_.clusterer_options, ctx);
  if (!clustered.ok()) return fail(clustered.status());
  result.num_clusters = clustered.value().num_clusters;
  result.cluster_of = std::move(clustered).value().cluster_of;
  if (ctx.metrics != nullptr) {
    ctx.metrics->SetGauge("cluster/clusters",
                          static_cast<double>(result.num_clusters));
  }

  result.total_seconds = total_watch.ElapsedSeconds();
  return std::move(partial_);
}

}  // namespace gter
