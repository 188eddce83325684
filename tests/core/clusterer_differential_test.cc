// Differential suite pinning the Clusterer refactor: routing correlation
// clustering through the strategy interface must be bitwise-identical to
// calling CorrelationCluster directly (the pre-refactor path), over the
// same Erdős–Rényi graph corpus the engine differentials use, at 1 and 8
// threads. A second case pins connected components against a plain
// union-find closure of the p ≥ η pairs.

#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "gter/common/random.h"
#include "gter/common/thread_pool.h"
#include "gter/core/clusterer.h"
#include "gter/core/correlation_clustering.h"
#include "gter/er/pair_space.h"
#include "gter/graph/union_find.h"

namespace gter {
namespace {

struct ErdosRenyiWorld {
  PairSpace pairs;
  std::vector<double> prob;

  ErdosRenyiWorld(size_t n, double density, uint64_t seed) {
    Rng rng(seed);
    std::vector<RecordPair> edges;
    for (uint32_t a = 0; a < n; ++a) {
      for (uint32_t b = a + 1; b < n; ++b) {
        if (rng.UniformDouble() < density) edges.push_back({a, b});
      }
    }
    pairs = PairSpace::FromPairs(std::move(edges));
    prob.resize(pairs.size());
    for (double& p : prob) p = rng.UniformDouble();
  }
};

class ClustererDifferential
    : public ::testing::TestWithParam<std::tuple<size_t, double, uint64_t>> {
};

TEST_P(ClustererDifferential, CorrelationViaInterfaceIsBitIdentical) {
  auto [n, density, seed] = GetParam();
  ErdosRenyiWorld world(n, density, seed);
  const double eta = 0.6;

  // The pre-refactor path: CorrelationCluster called directly with the
  // together-threshold at η.
  CorrelationClusteringOptions direct_options;
  direct_options.together_threshold = eta;
  CorrelationClusteringResult direct =
      CorrelationCluster(n, world.pairs, world.prob, direct_options).value();

  ClusterProblem problem;
  problem.num_records = n;
  problem.pairs = &world.pairs;
  problem.pair_probability = &world.prob;
  problem.eta = eta;

  // Serial and 8-thread contexts must both reproduce the direct call
  // exactly — labels are integers, so "bitwise" is plain equality.
  Clustering serial = Cluster(ClustererKind::kCorrelation, problem).value();
  EXPECT_EQ(serial.cluster_of, direct.cluster_of);

  ThreadPool pool(8);
  Clustering pooled = Cluster(ClustererKind::kCorrelation, problem, {},
                              ExecContext::WithPool(&pool))
                          .value();
  EXPECT_EQ(pooled.cluster_of, direct.cluster_of);
  EXPECT_EQ(pooled.num_clusters, serial.num_clusters);
}

TEST_P(ClustererDifferential, ConnectedComponentsMatchesUnionFindClosure) {
  auto [n, density, seed] = GetParam();
  ErdosRenyiWorld world(n, density, seed);
  const double eta = 0.6;

  // The historical endgame: union every p ≥ η pair, label by component.
  UnionFind uf(n);
  for (PairId p = 0; p < world.pairs.size(); ++p) {
    if (world.prob[p] >= eta) {
      uf.Union(world.pairs.pair(p).a, world.pairs.pair(p).b);
    }
  }
  std::vector<uint32_t> expected = uf.ComponentLabels();

  ClusterProblem problem;
  problem.num_records = n;
  problem.pairs = &world.pairs;
  problem.pair_probability = &world.prob;
  problem.eta = eta;
  Clustering clustering =
      Cluster(ClustererKind::kConnectedComponents, problem).value();
  EXPECT_EQ(clustering.cluster_of, expected);
}

INSTANTIATE_TEST_SUITE_P(
    DensitySweep, ClustererDifferential,
    ::testing::Combine(::testing::Values<size_t>(24, 60),
                       ::testing::Values(0.05, 0.15, 0.35, 0.6),
                       ::testing::Values<uint64_t>(1, 2, 3, 4, 5, 6)),
    [](const auto& info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(info.param));
      name += "_d";
      name += std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
      name += "_s";
      name += std::to_string(std::get<2>(info.param));
      return name;
    });

}  // namespace
}  // namespace gter
