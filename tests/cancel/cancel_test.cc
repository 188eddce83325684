// Cancellation contract of the refactored pipeline (DESIGN.md §4e):
//
//  1. Property sweep: for EVERY stage entry point and ANY cancel point k
//     (CancelAfterPolls trips the token on the (k+1)-th poll), the run
//     either finishes cleanly or unwinds with Cancelled — never crashes,
//     never returns a third status, serial and pooled alike. k = 0 must
//     always cancel (every stage polls at entry).
//  2. Deadlines: an expired deadline surfaces as DeadlineExceeded from the
//     full pipeline; a far-future deadline changes nothing — the run is
//     bitwise identical to an uncancellable one.
//  3. Cancel-then-rerun: a cancelled run leaves no residue — rerunning
//     with the Reset token reproduces the baseline byte for byte.
//  4. Thread differential: the full pipeline is bitwise identical with no
//     pool, a 1-thread pool, and an 8-thread pool (the determinism half of
//     the ExecContext contract).

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gter/common/exec_context.h"
#include "gter/common/random.h"
#include "gter/common/thread_pool.h"
#include "gter/core/clusterer.h"
#include "gter/core/correlation_clustering.h"
#include "gter/core/fusion.h"
#include "gter/core/rss.h"
#include "gter/datagen/datagen.h"
#include "gter/er/blocking.h"
#include "gter/er/preprocess.h"

namespace gter {
namespace {

/// One small benchmark world shared by every harness: a preprocessed
/// Restaurant dataset plus the derived pair space, bipartite graph, and
/// similarity-weighted record graph.
struct CancelWorld {
  GeneratedDataset data = MakeData();
  PairSpace pairs = PairSpace::Build(data.dataset);
  BipartiteGraph bipartite = BipartiteGraph::Build(data.dataset, pairs);
  std::vector<double> uniform = std::vector<double>(pairs.size(), 1.0);
  RecordGraph graph = RecordGraph::Build(
      data.dataset.size(), pairs,
      RunIter(bipartite, uniform).value().pair_scores);
  // Varied edge weights for the clustering endgames: at η = 0.5 about half
  // the edges are eligible, so every endgame's merge/matching loop runs.
  std::vector<double> varied = MakeVaried(pairs.size());

  static GeneratedDataset MakeData() {
    auto data = GenerateBenchmark(BenchmarkKind::kRestaurant, 0.15, 3);
    RemoveFrequentTerms(&data.dataset);
    return data;
  }

  static std::vector<double> MakeVaried(size_t n) {
    Rng rng(17);
    std::vector<double> out(n);
    for (double& p : out) p = rng.UniformDouble();
    return out;
  }

  ClusterProblem Problem() const {
    ClusterProblem problem;
    problem.num_records = data.dataset.size();
    problem.pairs = &pairs;
    problem.pair_probability = &varied;
    problem.eta = 0.5;
    return problem;
  }
};

FusionConfig SmallConfig() {
  FusionConfig config;
  config.rounds = 3;
  config.cliquerank.max_steps = 10;
  return config;
}

/// Every cancellable entry point, as a uniform Status-returning closure.
using StageFn = std::function<Status(const ExecContext&)>;

std::vector<std::pair<std::string, StageFn>> Stages(const CancelWorld& w) {
  std::vector<std::pair<std::string, StageFn>> stages;
  stages.emplace_back("iter", [&w](const ExecContext& ctx) {
    return RunIter(w.bipartite, w.uniform, {}, ctx).status();
  });
  stages.emplace_back("rss", [&w](const ExecContext& ctx) {
    RssOptions options;
    options.num_walks = 20;
    options.max_steps = 5;
    return RunRss(w.graph, w.pairs, options, ctx).status();
  });
  stages.emplace_back("cliquerank_dense", [&w](const ExecContext& ctx) {
    CliqueRankOptions options;
    options.engine = CliqueRankEngine::kDense;
    options.max_steps = 10;
    return RunCliqueRank(w.graph, w.pairs, options, ctx).status();
  });
  stages.emplace_back("cliquerank_masked", [&w](const ExecContext& ctx) {
    CliqueRankOptions options;
    options.engine = CliqueRankEngine::kMaskedSparse;
    options.max_steps = 10;
    return RunCliqueRank(w.graph, w.pairs, options, ctx).status();
  });
  stages.emplace_back("clustering", [&w](const ExecContext& ctx) {
    std::vector<double> probability(w.pairs.size(), 0.4);
    return CorrelationCluster(w.data.dataset.size(), w.pairs, probability, {},
                              ctx)
        .status();
  });
  // Every registered clustering endgame is a cancellable entry point of
  // its own (the Clusterer contract, DESIGN.md §4f).
  for (ClustererKind kind : AllClustererKinds()) {
    stages.emplace_back(std::string("cluster_") + ClustererKindName(kind),
                        [&w, kind](const ExecContext& ctx) {
                          return Cluster(kind, w.Problem(), {}, ctx).status();
                        });
  }
  stages.emplace_back("lsh_blocking", [&w](const ExecContext& ctx) {
    return LshBlocking(w.data.dataset, {}, ctx).status();
  });
  stages.emplace_back("canopy_blocking", [&w](const ExecContext& ctx) {
    return CanopyBlocking(w.data.dataset, {}, ctx).status();
  });
  stages.emplace_back("fusion", [&w](const ExecContext& ctx) {
    FusionPipeline pipeline(w.data.dataset, SmallConfig());
    return pipeline.Run(ctx).status();
  });
  return stages;
}

TEST(CancelPropertyTest, AnyCancelPointYieldsOkOrCancellation) {
  CancelWorld w;
  ThreadPool pool(4);
  Rng rng(2026);
  for (const auto& [name, fn] : Stages(w)) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      CancelToken token;
      ExecContext ctx;
      ctx.pool = p;
      ctx.cancel = &token;

      // k = 0: the entry poll trips — every stage must refuse to start.
      token.CancelAfterPolls(0);
      Status immediate = fn(ctx);
      ASSERT_FALSE(immediate.ok()) << name << " pool=" << (p != nullptr);
      EXPECT_TRUE(IsCancellation(immediate))
          << name << ": " << immediate.ToString();

      // Random later cancel points: the only legal outcomes are a clean
      // finish (the run used fewer than k polls) or a clean cancellation.
      for (int trial = 0; trial < 6; ++trial) {
        const int64_t k = static_cast<int64_t>(rng.NextBounded(300));
        token.Reset();
        token.CancelAfterPolls(k);
        Status status = fn(ctx);
        EXPECT_TRUE(status.ok() || IsCancellation(status))
            << name << " k=" << k << " pool=" << (p != nullptr) << ": "
            << status.ToString();
      }
    }
  }
}

TEST(CancelDeadlineTest, ExpiredDeadlineSurfacesAsDeadlineExceeded) {
  CancelWorld w;
  CancelToken token;
  token.SetTimeout(-1.0);  // already expired when the run starts
  FusionPipeline pipeline(w.data.dataset, SmallConfig());
  Result<FusionResult> run = pipeline.Run(ExecContext::WithCancel(&token));
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelDeadlineTest, FarFutureDeadlineLeavesTheRunBitIdentical) {
  CancelWorld w;
  FusionResult baseline =
      FusionPipeline(w.data.dataset, SmallConfig()).Run().value();
  CancelToken token;
  token.SetTimeout(3600.0);
  FusionResult timed = FusionPipeline(w.data.dataset, SmallConfig())
                           .Run(ExecContext::WithCancel(&token))
                           .value();
  EXPECT_EQ(baseline.term_weights, timed.term_weights);
  EXPECT_EQ(baseline.pair_scores, timed.pair_scores);
  EXPECT_EQ(baseline.pair_probability, timed.pair_probability);
  EXPECT_EQ(baseline.matches, timed.matches);
}

TEST(CancelRerunTest, CancelThenRerunReproducesTheBaseline) {
  CancelWorld w;
  FusionResult baseline =
      FusionPipeline(w.data.dataset, SmallConfig()).Run().value();

  CancelToken token;
  token.CancelAfterPolls(5);  // deep enough to start, early enough to trip
  FusionPipeline cancelled_pipeline(w.data.dataset, SmallConfig());
  Result<FusionResult> cancelled =
      cancelled_pipeline.Run(ExecContext::WithCancel(&token));
  ASSERT_FALSE(cancelled.ok());
  ASSERT_TRUE(IsCancellation(cancelled.status()));
  // The anytime contract: whatever the cancelled run did finish is exposed
  // with consistent shapes.
  const FusionResult& partial = cancelled_pipeline.partial();
  for (size_t size : {partial.pair_scores.size(),
                      partial.pair_probability.size()}) {
    EXPECT_TRUE(size == 0 || size == w.pairs.size());
  }

  token.Reset();
  FusionResult rerun = FusionPipeline(w.data.dataset, SmallConfig())
                           .Run(ExecContext::WithCancel(&token))
                           .value();
  EXPECT_EQ(baseline.term_weights, rerun.term_weights);
  EXPECT_EQ(baseline.pair_scores, rerun.pair_scores);
  EXPECT_EQ(baseline.pair_probability, rerun.pair_probability);
  EXPECT_EQ(baseline.matches, rerun.matches);
}

TEST(CancelRerunTest, ClusterersAreDeterministicAfterACancelledAttempt) {
  // Per-endgame cancel-then-rerun: a k = 0 attempt must cancel (entry
  // poll), and rerunning with the reset token reproduces an uncancelled
  // baseline exactly — no endgame keeps state across attempts.
  CancelWorld w;
  for (ClustererKind kind : AllClustererKinds()) {
    SCOPED_TRACE(ClustererKindName(kind));
    Clustering baseline = Cluster(kind, w.Problem()).value();

    CancelToken token;
    token.CancelAfterPolls(0);
    ExecContext ctx = ExecContext::WithCancel(&token);
    Result<Clustering> cancelled = Cluster(kind, w.Problem(), {}, ctx);
    ASSERT_FALSE(cancelled.ok());
    EXPECT_TRUE(IsCancellation(cancelled.status()))
        << cancelled.status().ToString();

    token.Reset();
    Clustering rerun = Cluster(kind, w.Problem(), {}, ctx).value();
    EXPECT_EQ(baseline.cluster_of, rerun.cluster_of);
    EXPECT_EQ(baseline.num_clusters, rerun.num_clusters);

    // A mid-run trip must also leave no residue.
    token.Reset();
    token.CancelAfterPolls(2);
    Result<Clustering> mid = Cluster(kind, w.Problem(), {}, ctx);
    if (mid.ok()) {
      EXPECT_EQ(baseline.cluster_of, mid.value().cluster_of);
    } else {
      EXPECT_TRUE(IsCancellation(mid.status()));
    }
    token.Reset();
    Clustering again = Cluster(kind, w.Problem(), {}, ctx).value();
    EXPECT_EQ(baseline.cluster_of, again.cluster_of);
  }
}

TEST(FusionThreadDifferentialTest, PipelineIsBitIdenticalAcrossThreadCounts) {
  CancelWorld w;
  FusionResult serial =
      FusionPipeline(w.data.dataset, SmallConfig()).Run().value();
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  FusionResult one = FusionPipeline(w.data.dataset, SmallConfig())
                         .Run(ExecContext::WithPool(&pool1))
                         .value();
  FusionResult eight = FusionPipeline(w.data.dataset, SmallConfig())
                           .Run(ExecContext::WithPool(&pool8))
                           .value();
  EXPECT_EQ(serial.term_weights, one.term_weights);
  EXPECT_EQ(serial.pair_scores, one.pair_scores);
  EXPECT_EQ(serial.pair_probability, one.pair_probability);
  EXPECT_EQ(serial.matches, one.matches);
  EXPECT_EQ(serial.term_weights, eight.term_weights);
  EXPECT_EQ(serial.pair_scores, eight.pair_scores);
  EXPECT_EQ(serial.pair_probability, eight.pair_probability);
  EXPECT_EQ(serial.matches, eight.matches);
  // The clustering endgame inherits the determinism contract.
  EXPECT_EQ(serial.cluster_of, one.cluster_of);
  EXPECT_EQ(serial.cluster_of, eight.cluster_of);
  EXPECT_EQ(serial.num_clusters, eight.num_clusters);
}

}  // namespace
}  // namespace gter
