// Partition-validity property suite over every registered clustering
// endgame (DESIGN.md §4f). Each clusterer runs over seeded random
// similarity graphs across a density sweep and must uphold the interface
// contract:
//   * the output is a true partition — one dense label per record, labels
//     in first-occurrence (smallest-member) order, no empty cluster;
//   * identical problems yield identical partitions (determinism);
//   * the unique-mapping endgame upholds the bipartite contract — no two
//     records of the same source share an entity, every record has at
//     most one partner (entities of size ≤ 2).

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "gter/common/random.h"
#include "gter/core/clusterer.h"
#include "gter/er/pair_space.h"

namespace gter {
namespace {

/// A seeded random similarity graph: each of the n·(n−1)/2 pairs joins the
/// candidate space with probability `density`; weights are uniform in
/// [0, 1] and sources alternate between two datasets (record parity), so
/// roughly a quarter of edges straddle the bipartite cut at any η.
struct RandomWorld {
  PairSpace pairs;
  std::vector<double> prob;
  std::vector<uint32_t> sources;

  RandomWorld(size_t n, double density, uint64_t seed) {
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
    sources.resize(n);
    for (uint32_t r = 0; r < n; ++r) sources[r] = r % 2;
  }

  ClusterProblem Problem(size_t n, double eta,
                         bool with_sources) const {
    ClusterProblem problem;
    problem.num_records = n;
    problem.pairs = &pairs;
    problem.pair_probability = &prob;
    problem.eta = eta;
    if (with_sources) problem.source_of = &sources;
    return problem;
  }
};

/// The partition contract: labels dense in [0, num_clusters), assigned in
/// first-occurrence order (record 0 is always label 0, and label k+1 first
/// appears after label k). Density in that order implies no empty cluster.
void ExpectValidPartition(const Clustering& clustering, size_t n) {
  ASSERT_EQ(clustering.cluster_of.size(), n);
  uint32_t seen = 0;
  for (size_t r = 0; r < n; ++r) {
    const uint32_t label = clustering.cluster_of[r];
    ASSERT_LE(label, seen) << "label order broken at record " << r;
    if (label == seen) ++seen;
  }
  EXPECT_EQ(clustering.num_clusters, seen);
}

// (records, density, seed) — densities from near-empty to near-complete.
class ClustererProperty
    : public ::testing::TestWithParam<std::tuple<size_t, double, uint64_t>> {
};

TEST_P(ClustererProperty, EveryEndgameYieldsAValidDeterministicPartition) {
  auto [n, density, seed] = GetParam();
  RandomWorld world(n, density, seed);
  // η = 0.5 keeps about half the edges eligible, so the matching sweeps
  // and the merge loops all do real work.
  const double eta = 0.5;

  for (ClustererKind kind : AllClustererKinds()) {
    SCOPED_TRACE(ClustererKindName(kind));
    for (bool with_sources : {false, true}) {
      SCOPED_TRACE(with_sources ? "two sources" : "single source");
      ClusterProblem problem = world.Problem(n, eta, with_sources);
      Clustering first = Cluster(kind, problem).value();
      ExpectValidPartition(first, n);

      // Determinism: the same problem re-clusters identically.
      Clustering second = Cluster(kind, problem).value();
      EXPECT_EQ(first.cluster_of, second.cluster_of);
      EXPECT_EQ(first.num_clusters, second.num_clusters);
    }
  }
}

TEST_P(ClustererProperty, CleanCleanEndgamesUpholdTheBipartiteContract) {
  auto [n, density, seed] = GetParam();
  RandomWorld world(n, density, seed);
  ClusterProblem problem = world.Problem(n, 0.5, /*with_sources=*/true);
  Clustering clustering =
      Cluster(ClustererKind::kUniqueMapping, problem).value();

  std::vector<std::vector<RecordId>> members(clustering.num_clusters);
  for (RecordId r = 0; r < n; ++r) {
    members[clustering.cluster_of[r]].push_back(r);
  }
  for (const std::vector<RecordId>& entity : members) {
    // ≤ 1 partner per record: entities never exceed two records.
    ASSERT_LE(entity.size(), 2u);
    if (entity.size() == 2) {
      // No two same-source records in one entity.
      EXPECT_NE(world.sources[entity[0]], world.sources[entity[1]])
          << "records " << entity[0] << " and " << entity[1];
    }
  }
}

TEST_P(ClustererProperty, MatchedPairsAreEligibleEdges) {
  auto [n, density, seed] = GetParam();
  RandomWorld world(n, density, seed);
  const double eta = 0.5;
  ClusterProblem problem = world.Problem(n, eta, /*with_sources=*/true);

  // Every 2-record entity unique mapping forms must be backed by a
  // candidate edge at or above the threshold — it never invents pairs.
  std::set<std::pair<RecordId, RecordId>> eligible;
  for (PairId p = 0; p < world.pairs.size(); ++p) {
    if (world.prob[p] < eta) continue;
    const RecordPair& rp = world.pairs.pair(p);
    if (world.sources[rp.a] == world.sources[rp.b]) continue;
    eligible.insert({rp.a, rp.b});
  }
  Clustering clustering =
      Cluster(ClustererKind::kUniqueMapping, problem).value();
  std::vector<std::vector<RecordId>> members(clustering.num_clusters);
  for (RecordId r = 0; r < n; ++r) {
    members[clustering.cluster_of[r]].push_back(r);
  }
  for (const std::vector<RecordId>& entity : members) {
    if (entity.size() != 2) continue;
    EXPECT_TRUE(eligible.count({entity[0], entity[1]}))
        << "entity {" << entity[0] << ", " << entity[1]
        << "} has no eligible edge";
  }
}

INSTANTIATE_TEST_SUITE_P(
    DensitySweep, ClustererProperty,
    ::testing::Combine(::testing::Values<size_t>(17, 40, 90),
                       ::testing::Values(0.02, 0.15, 0.5, 0.9),
                       ::testing::Values<uint64_t>(1, 2, 3)),
    [](const auto& info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(info.param));
      name += "_d";
      name += std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
      name += "_s";
      name += std::to_string(std::get<2>(info.param));
      return name;
    });

TEST(ClustererEdgeCases, EmptyGraphYieldsAllSingletons) {
  PairSpace pairs = PairSpace::FromPairs({});
  std::vector<double> prob;
  ClusterProblem problem;
  problem.num_records = 5;
  problem.pairs = &pairs;
  problem.pair_probability = &prob;
  for (ClustererKind kind : AllClustererKinds()) {
    SCOPED_TRACE(ClustererKindName(kind));
    Clustering clustering = Cluster(kind, problem).value();
    EXPECT_EQ(clustering.num_clusters, 5u);
    EXPECT_EQ(clustering.cluster_of, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  }
}

TEST(ClustererEdgeCases, ZeroRecordsYieldZeroClusters) {
  PairSpace pairs = PairSpace::FromPairs({});
  std::vector<double> prob;
  ClusterProblem problem;
  problem.num_records = 0;
  problem.pairs = &pairs;
  problem.pair_probability = &prob;
  for (ClustererKind kind : AllClustererKinds()) {
    SCOPED_TRACE(ClustererKindName(kind));
    Clustering clustering = Cluster(kind, problem).value();
    EXPECT_EQ(clustering.num_clusters, 0u);
    EXPECT_TRUE(clustering.cluster_of.empty());
  }
}

TEST(ClustererEdgeCases, HierarchicalThresholdSweepIsMonotonic) {
  // Lowering the merge threshold only ever merges more: the number of
  // clusters is non-increasing as the knob loosens.
  RandomWorld world(60, 0.3, 77);
  size_t previous = 0;
  bool first = true;
  for (double threshold : {1.01, 0.9, 0.7, 0.5, 0.3, 0.1, 0.0}) {
    ClustererOptions options;
    options.merge_threshold = threshold;
    Clustering clustering = Cluster(ClustererKind::kHierarchical,
                                    world.Problem(60, 0.5, false), options)
                                .value();
    if (!first) {
      EXPECT_LE(clustering.num_clusters, previous)
          << "threshold " << threshold;
    }
    previous = clustering.num_clusters;
    first = false;
  }
  // Above any edge weight nothing merges; the partition is all singletons.
  ClustererOptions options;
  options.merge_threshold = 1.01;
  Clustering top = Cluster(ClustererKind::kHierarchical,
                          world.Problem(60, 0.5, false), options)
                       .value();
  EXPECT_EQ(top.num_clusters, 60u);
}

TEST(ClustererRegistry, NamesRoundTripAndUnknownNamesAreRejected) {
  for (ClustererKind kind : AllClustererKinds()) {
    Result<ClustererKind> parsed = ParseClustererKind(ClustererKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  // Besides a name that was never registered, the one-partner matchers
  // that older gterd clients may still send are rejected like any other.
  for (const char* name : {"kmeans", "row_assignment", "column_assignment",
                           "best_match", "reciprocal_match", "exact_match"}) {
    SCOPED_TRACE(name);
    Result<ClustererKind> bad = ParseClustererKind(name);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace gter
