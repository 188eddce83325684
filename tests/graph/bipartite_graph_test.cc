#include "gter/graph/bipartite_graph.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

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

TEST(BipartiteGraphTest, TermToPairAdjacency) {
  Fixture f;
  PairSpace pairs = PairSpace::Build(f.ds);
  BipartiteGraph graph = BipartiteGraph::Build(f.ds, pairs);
  TermId a = f.ds.vocabulary().Lookup("a");
  auto adj = graph.PairsOfTerm(a);
  ASSERT_EQ(adj.size(), 1u);
  EXPECT_EQ(adj[0], pairs.Find(0, 1));
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
  EXPECT_EQ(two_graph.PairsOfTerm(t2).size(), 4u);
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
  EXPECT_TRUE(graph.PairsOfTerm(solo).empty());
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
  ASSERT_EQ(appended.num_terms(), built.num_terms());
  ASSERT_EQ(appended.num_pairs(), built.num_pairs());
  ASSERT_EQ(appended.num_edges(), built.num_edges());
  for (TermId t = 0; t < built.num_terms(); ++t) {
    EXPECT_EQ(appended.Nt(t), built.Nt(t)) << t;
    EXPECT_EQ(appended.Pt(t), built.Pt(t)) << t;
    auto a = built.PairsOfTerm(t);
    auto b = appended.PairsOfTerm(t);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << t;
  }
  for (PairId p = 0; p < built.num_pairs(); ++p) {
    auto a = built.TermsOfPair(p);
    auto b = appended.TermsOfPair(p);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << p;
  }
  EXPECT_EQ(built.Nt(ds.vocabulary().Lookup("acme")), 4u);
  EXPECT_EQ(built.PairsOfTerm(ds.vocabulary().Lookup("acme")).size(), 4u);
}

}  // namespace
}  // namespace gter
