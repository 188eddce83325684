#include "gter/text/tfidf.h"

#include <cmath>

#include <gtest/gtest.h>

namespace gter {
namespace {

TEST(TfIdfTest, DocumentFrequencies) {
  // doc0: {0,1}, doc1: {1,2}, doc2: {1}
  std::vector<std::vector<TermId>> docs = {{0, 1}, {1, 2}, {1}};
  TfIdfModel model;
  model.Build(docs, 3);
  EXPECT_EQ(model.DocFrequency(0), 1u);
  EXPECT_EQ(model.DocFrequency(1), 3u);
  EXPECT_EQ(model.DocFrequency(2), 1u);
}

TEST(TfIdfTest, IdfFormula) {
  std::vector<std::vector<TermId>> docs = {{0}, {0}, {1}};
  TfIdfModel model;
  model.Build(docs, 2);
  EXPECT_NEAR(model.Idf(0), std::log(4.0 / 2.0), 1e-12);
  EXPECT_NEAR(model.Idf(1), std::log(4.0 / 1.0), 1e-12);
}

TEST(TfIdfTest, UnseenTermHasZeroIdf) {
  std::vector<std::vector<TermId>> docs = {{0}};
  TfIdfModel model;
  model.Build(docs, 3);
  EXPECT_DOUBLE_EQ(model.Idf(2), 0.0);
}

TEST(TfIdfTest, VectorsAreL2Normalized) {
  std::vector<std::vector<TermId>> docs = {{0, 1, 1}, {1, 2}};
  TfIdfModel model;
  model.Build(docs, 3);
  for (size_t d = 0; d < 2; ++d) {
    const auto& vec = model.VectorOf(d);
    double norm = 0.0;
    for (double w : vec.weights) norm += w * w;
    EXPECT_NEAR(norm, 1.0, 1e-12);
  }
}

TEST(TfIdfTest, CosineSelfSimilarityIsOne) {
  std::vector<std::vector<TermId>> docs = {{0, 1, 2}, {3, 4}};
  TfIdfModel model;
  model.Build(docs, 5);
  EXPECT_NEAR(model.Cosine(0, 0), 1.0, 1e-12);
}

TEST(TfIdfTest, DisjointDocsHaveZeroCosine) {
  std::vector<std::vector<TermId>> docs = {{0, 1}, {2, 3}};
  TfIdfModel model;
  model.Build(docs, 4);
  EXPECT_DOUBLE_EQ(model.Cosine(0, 1), 0.0);
}

TEST(TfIdfTest, RareSharedTermScoresHigherThanCommon) {
  // Docs 0 & 1 share rare term 0; docs 2 & 3 share term 1, which appears
  // everywhere. Pair (0,1) must score higher.
  std::vector<std::vector<TermId>> docs = {
      {0, 1, 2}, {0, 1, 3}, {1, 4, 5}, {1, 6, 7}};
  TfIdfModel model;
  model.Build(docs, 8);
  EXPECT_GT(model.Cosine(0, 1), model.Cosine(2, 3));
}

TEST(TfIdfTest, TermFrequencyMatters) {
  // doc0 repeats term 0 three times; doc1 once. Both share term 0 with
  // doc2. The repeated-use doc is more aligned with doc2's direction when
  // doc2 is dominated by term 0.
  std::vector<std::vector<TermId>> docs = {{0, 0, 0, 1}, {0, 1, 1, 1}, {0}};
  TfIdfModel model;
  model.Build(docs, 2);
  EXPECT_GT(model.Cosine(0, 2), model.Cosine(1, 2));
}

TEST(SparseDotTest, HandlesEmptyVectors) {
  TfIdfVector a, b;
  EXPECT_DOUBLE_EQ(SparseDot(a, b), 0.0);
  a.terms = {1};
  a.weights = {1.0};
  EXPECT_DOUBLE_EQ(SparseDot(a, b), 0.0);
}

TEST(TfIdfTest, EmptyDocumentGetsEmptyVector) {
  std::vector<std::vector<TermId>> docs = {{}, {0}};
  TfIdfModel model;
  model.Build(docs, 1);
  EXPECT_TRUE(model.VectorOf(0).terms.empty());
  EXPECT_DOUBLE_EQ(model.Cosine(0, 1), 0.0);
}

}  // namespace
}  // namespace gter
