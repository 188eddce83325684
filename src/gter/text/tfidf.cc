#include "gter/text/tfidf.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "gter/common/status.h"

namespace gter {
namespace {

/// Term frequencies of one document: sorted unique terms and their counts.
struct DocTf {
  std::vector<TermId> terms;
  std::vector<uint32_t> counts;
};

DocTf Compress(const std::vector<TermId>& doc) {
  std::vector<TermId> sorted(doc);
  std::sort(sorted.begin(), sorted.end());
  DocTf tf;
  for (size_t i = 0; i < sorted.size();) {
    size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    tf.terms.push_back(sorted[i]);
    tf.counts.push_back(static_cast<uint32_t>(j - i));
    i = j;
  }
  return tf;
}

}  // namespace

void TfIdfModel::Build(const std::vector<std::vector<TermId>>& docs,
                       size_t vocab_size) {
  df_.assign(vocab_size, 0);
  vectors_.assign(docs.size(), {});
  std::vector<DocTf> tfs;
  tfs.reserve(docs.size());
  for (const std::vector<TermId>& doc : docs) {
    DocTf tf = Compress(doc);
    for (TermId t : tf.terms) {
      GTER_CHECK(t < vocab_size);
      ++df_[t];
    }
    tfs.push_back(std::move(tf));
  }
  for (size_t d = 0; d < docs.size(); ++d) {
    const DocTf& tf = tfs[d];
    TfIdfVector& vec = vectors_[d];
    vec.terms.reserve(tf.terms.size());
    vec.weights.reserve(tf.terms.size());
    double norm_sq = 0.0;
    for (size_t i = 0; i < tf.terms.size(); ++i) {
      double w = static_cast<double>(tf.counts[i]) * Idf(tf.terms[i]);
      if (w <= 0.0) continue;
      vec.terms.push_back(tf.terms[i]);
      vec.weights.push_back(w);
      norm_sq += w * w;
    }
    if (norm_sq > 0.0) {
      double inv = 1.0 / std::sqrt(norm_sq);
      for (auto& w : vec.weights) w *= inv;
    }
  }
}

double TfIdfModel::Idf(TermId t) const {
  GTER_CHECK(t < df_.size());
  if (df_[t] == 0) return 0.0;
  return std::log(static_cast<double>(num_docs() + 1) /
                  static_cast<double>(df_[t]));
}

double TfIdfModel::Cosine(size_t doc_a, size_t doc_b) const {
  GTER_CHECK(doc_a < vectors_.size() && doc_b < vectors_.size());
  return SparseDot(vectors_[doc_a], vectors_[doc_b]);
}

double SparseDot(const TfIdfVector& a, const TfIdfVector& b) {
  double dot = 0.0;
  size_t i = 0, j = 0;
  while (i < a.terms.size() && j < b.terms.size()) {
    if (a.terms[i] < b.terms[j]) {
      ++i;
    } else if (a.terms[i] > b.terms[j]) {
      ++j;
    } else {
      dot += a.weights[i] * b.weights[j];
      ++i;
      ++j;
    }
  }
  return dot;
}

}  // namespace gter
