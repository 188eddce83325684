#include "gter/graph/bipartite_graph.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/bipartite_graph_equal.h"
#include "gter/common/random.h"
#include "gter/text/string_metrics.h"

namespace gter {
namespace {

// Three records: 0 "a b", 1 "a c", 2 "b c" → pairs (0,1) via a,
// (0,2) via b, (1,2) via c.
struct Fixture {
  Dataset ds{"test"};
  Fixture() {
    ds.AddRecord(0, "a b");
    ds.AddRecord(0, "a c");
    ds.AddRecord(0, "b c");
  }
};

TEST(BipartiteGraphTest, StructureMatchesSharedTerms) {
  Fixture f;
  PairSpace pairs = PairSpace::Build(f.ds);
  BipartiteGraph graph = BipartiteGraph::Build(f.ds, pairs);
  EXPECT_EQ(graph.num_pairs(), 3u);
  EXPECT_EQ(graph.num_terms(), f.ds.vocabulary().size());
  EXPECT_EQ(graph.num_edges(), 3u);  // each pair shares exactly one term

  PairId p01 = pairs.Find(0, 1);
  auto terms = graph.TermsOfPair(p01);
  ASSERT_EQ(terms.size(), 1u);
  EXPECT_EQ(terms[0], f.ds.vocabulary().Lookup("a"));
}

TEST(BipartiteGraphTest, TermToSetAdjacency) {
  Fixture f;
  PairSpace pairs = PairSpace::Build(f.ds);
  BipartiteGraph graph = BipartiteGraph::Build(f.ds, pairs);
  EXPECT_EQ(graph.num_sets(), 3u);  // {a}, {b}, {c}
  EXPECT_EQ(graph.num_incidences(), 3u);
  TermId a = f.ds.vocabulary().Lookup("a");
  auto sets = graph.SetsOfTerm(a);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(graph.SetSize(sets[0]), 1u);
  EXPECT_EQ(PairsOfSet(graph, sets[0]),
            std::vector<PairId>{pairs.Find(0, 1)});
  EXPECT_EQ(graph.SetOf(pairs.Find(0, 1)), sets[0]);
}

// Pairs with the same shared terms share one set: ids in first-seen PairId
// order, each set's pairs ascending, each term's sets ascending.
TEST(BipartiteGraphTest, PairsWithEqualSharedTermsShareASet) {
  Dataset ds("test");
  ds.AddRecord(0, "z w");    // 0
  ds.AddRecord(0, "x y z");  // 1
  ds.AddRecord(0, "x y");    // 2
  ds.AddRecord(0, "x y");    // 3
  // Sorted: (0,1) shares {z}; (1,2), (1,3), (2,3) share {x, y}.
  PairSpace pairs = PairSpace::FromPairs({{2, 3}, {0, 1}, {1, 3}, {1, 2}});
  BipartiteGraph graph = BipartiteGraph::Build(ds, pairs);
  ASSERT_EQ(graph.num_sets(), 2u);
  EXPECT_EQ(graph.num_edges(), 7u);       // 1 + 3 pairs × 2 terms
  EXPECT_EQ(graph.num_incidences(), 3u);  // {z} and {x, y}
  EXPECT_EQ(graph.SetOf(pairs.Find(0, 1)), 0u);
  EXPECT_EQ(graph.SetOf(pairs.Find(1, 2)), 1u);
  EXPECT_EQ(graph.SetOf(pairs.Find(1, 3)), 1u);
  EXPECT_EQ(graph.SetOf(pairs.Find(2, 3)), 1u);
  const std::vector<PairId> xy_pairs = {pairs.Find(1, 2), pairs.Find(1, 3),
                                        pairs.Find(2, 3)};
  EXPECT_EQ(PairsOfSet(graph, 1), xy_pairs);
  EXPECT_EQ(graph.SetSize(1), 3u);
  const TermId x = ds.vocabulary().Lookup("x");
  const TermId y = ds.vocabulary().Lookup("y");
  const TermId z = ds.vocabulary().Lookup("z");
  const std::vector<TermId> xy = {std::min(x, y), std::max(x, y)};
  EXPECT_TRUE(std::ranges::equal(graph.TermsOfSet(1), xy));
  EXPECT_TRUE(std::ranges::equal(graph.TermsOfPair(pairs.Find(2, 3)), xy));
  const std::vector<SetId> z_sets = {0};
  EXPECT_TRUE(std::ranges::equal(graph.SetsOfTerm(z), z_sets));
  EXPECT_TRUE(graph.SetsOfTerm(ds.vocabulary().Lookup("w")).empty());
}

TEST(BipartiteGraphTest, MultiTermPair) {
  Dataset ds("test");
  ds.AddRecord(0, "x y z");
  ds.AddRecord(0, "x y w");
  PairSpace pairs = PairSpace::Build(ds);
  BipartiteGraph graph = BipartiteGraph::Build(ds, pairs);
  auto terms = graph.TermsOfPair(0);
  EXPECT_EQ(terms.size(), 2u);  // x and y
  EXPECT_TRUE(std::is_sorted(terms.begin(), terms.end()));
}

TEST(BipartiteGraphTest, PaperPtFormula) {
  // Term "t" in 4 records → P_t = 4·3/2 = 6 regardless of materialized
  // pair count.
  Dataset ds("test");
  for (int i = 0; i < 4; ++i) ds.AddRecord(0, "t");
  PairSpace pairs = PairSpace::Build(ds);
  BipartiteGraph graph = BipartiteGraph::Build(ds, pairs);
  TermId t = ds.vocabulary().Lookup("t");
  EXPECT_DOUBLE_EQ(graph.Pt(t), 6.0);
  EXPECT_EQ(graph.Nt(t), 4u);

  // Two-source: "t" in 2+2 records has only 4 cross pairs, and P_t still
  // counts all 4·3/2 = 6 record pairs.
  Dataset two("two", 2);
  two.AddRecord(0, "t");
  two.AddRecord(0, "t");
  two.AddRecord(1, "t");
  two.AddRecord(1, "t");
  PairSpace cross = PairSpace::Build(two);
  ASSERT_EQ(cross.size(), 4u);
  BipartiteGraph two_graph = BipartiteGraph::Build(two, cross);
  TermId t2 = two.vocabulary().Lookup("t");
  ASSERT_EQ(two_graph.SetsOfTerm(t2).size(), 1u);
  EXPECT_EQ(two_graph.SetSize(two_graph.SetsOfTerm(t2)[0]), 4u);
  EXPECT_DOUBLE_EQ(two_graph.Pt(t2), 6.0);
}

TEST(BipartiteGraphTest, PtFloorIsOne) {
  // df=1 terms form no pairs; P_t must stay ≥ 1 to be a safe denominator.
  Dataset ds("test");
  ds.AddRecord(0, "solo shared");
  ds.AddRecord(0, "shared");
  PairSpace pairs = PairSpace::Build(ds);
  BipartiteGraph graph = BipartiteGraph::Build(ds, pairs);
  TermId solo = ds.vocabulary().Lookup("solo");
  EXPECT_DOUBLE_EQ(graph.Pt(solo), 1.0);
  EXPECT_TRUE(graph.SetsOfTerm(solo).empty());
}

// Build and the append API fill the same storage: a two-source world with
// a PairSpace::FromPairs pair list, built once in one pass and once record
// by record and pair by pair, agrees on every id.
TEST(BipartiteGraphTest, BuildMatchesAppendApi) {
  Dataset ds("two", 2);
  ds.AddRecord(0, "acme widget blue 42");
  ds.AddRecord(0, "acme gadget red");
  ds.AddRecord(0, "solo");
  ds.AddRecord(1, "acme widget 42");
  ds.AddRecord(1, "gadget red large");
  ds.AddRecord(1, "blue red acme");
  // Every cross-source pair that shares a term, listed out of order.
  std::vector<RecordPair> list = {{4, 1}, {0, 3}, {0, 5}, {1, 5}, {1, 3}};
  PairSpace pairs = PairSpace::FromPairs(list);
  BipartiteGraph built = BipartiteGraph::Build(ds, pairs);

  BipartiteGraph appended;
  appended.EnsureTerms(ds.vocabulary().size());
  for (const Record& rec : ds.records()) appended.AddRecordTerms(rec.terms);
  for (PairId p = 0; p < pairs.size(); ++p) {
    const RecordPair& rp = pairs.pair(p);
    std::vector<TermId> shared =
        SortedIntersection(ds.record(rp.a).terms, ds.record(rp.b).terms);
    ASSERT_EQ(appended.AddPair(shared), p);
  }

  ASSERT_EQ(built.num_terms(), ds.vocabulary().size());
  ExpectSameGraph(built, appended);
  EXPECT_EQ(built.Nt(ds.vocabulary().Lookup("acme")), 4u);
  size_t acme_pairs = 0;
  for (SetId k : built.SetsOfTerm(ds.vocabulary().Lookup("acme"))) {
    acme_pairs += built.SetSize(k);
  }
  EXPECT_EQ(acme_pairs, 4u);
}

// Random worlds over small vocabularies, so pairs repeat term lists. Every
// pair's set holds exactly the terms its records share, no two sets hold
// the same list (a set lookup that trusted its hash would merge two lists
// or split one), each set's pairs are the pairs filed under it, and each
// term's sets are exactly the sets containing it, ascending.
TEST(BipartiteGraphPropertyTest, SetsPartitionPairsByTheirSharedTerms) {
  Rng rng(2024);
  for (int world = 0; world < 20; ++world) {
    SCOPED_TRACE(world);
    Dataset ds("random", world % 2 == 0 ? 1 : 2);
    const int vocabulary = 4 + world;
    const int records = 30 + 3 * world;
    for (int r = 0; r < records; ++r) {
      std::string text;
      const int length = 1 + static_cast<int>(rng.NextBounded(5));
      for (int i = 0; i < length; ++i) {
        text += 'w';
        text += std::to_string(rng.NextBounded(vocabulary));
        text += ' ';
      }
      ds.AddRecord(static_cast<uint32_t>(r % ds.num_sources()), text);
    }
    const PairSpace pairs = PairSpace::Build(ds);
    const BipartiteGraph graph = BipartiteGraph::Build(ds, pairs);
    ASSERT_EQ(graph.num_pairs(), pairs.size());

    std::map<std::vector<TermId>, SetId> set_of_list;
    std::vector<PairId> filed;  // every set's pairs
    for (SetId k = 0; k < graph.num_sets(); ++k) {
      const auto terms = graph.TermsOfSet(k);
      ASSERT_FALSE(terms.empty());
      EXPECT_TRUE(std::is_sorted(terms.begin(), terms.end()));
      EXPECT_TRUE(set_of_list
                      .emplace(std::vector<TermId>(terms.begin(), terms.end()),
                               k)
                      .second)
          << "two sets hold one term list";
      const std::vector<PairId> set_pairs = PairsOfSet(graph, k);
      ASSERT_FALSE(set_pairs.empty());
      EXPECT_EQ(set_pairs.size(), graph.SetSize(k));
      EXPECT_EQ(graph.FirstPairOfSet(k), set_pairs.front());
      EXPECT_TRUE(std::is_sorted(set_pairs.begin(), set_pairs.end()));
      for (PairId p : set_pairs) EXPECT_EQ(graph.SetOf(p), k);
      filed.insert(filed.end(), set_pairs.begin(), set_pairs.end());
    }
    // Each pair is filed under exactly one set.
    std::sort(filed.begin(), filed.end());
    std::vector<PairId> all(graph.num_pairs());
    std::iota(all.begin(), all.end(), 0);
    EXPECT_EQ(filed, all);
    size_t edges = 0;
    SetId next_new = 0;
    for (PairId p = 0; p < graph.num_pairs(); ++p) {
      const RecordPair& rp = pairs.pair(p);
      const std::vector<TermId> shared =
          SortedIntersection(ds.record(rp.a).terms, ds.record(rp.b).terms);
      EXPECT_TRUE(std::ranges::equal(graph.TermsOfSet(graph.SetOf(p)), shared))
          << "pair " << p;
      EXPECT_TRUE(std::ranges::equal(graph.TermsOfPair(p), shared));
      // Ids are assigned in first-seen PairId order.
      EXPECT_LE(graph.SetOf(p), next_new);
      if (graph.SetOf(p) == next_new) ++next_new;
      edges += shared.size();
    }
    EXPECT_EQ(next_new, graph.num_sets());
    EXPECT_EQ(graph.num_edges(), edges);
    for (TermId t = 0; t < graph.num_terms(); ++t) {
      std::vector<SetId> want;
      for (SetId k = 0; k < graph.num_sets(); ++k) {
        if (std::ranges::binary_search(graph.TermsOfSet(k), t)) {
          want.push_back(k);
        }
      }
      EXPECT_TRUE(std::ranges::equal(graph.SetsOfTerm(t), want)) << t;
    }
  }
}

}  // namespace
}  // namespace gter
