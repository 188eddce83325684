#ifndef GTER_TEXT_TFIDF_H_
#define GTER_TEXT_TFIDF_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gter/text/vocabulary.h"

namespace gter {

/// Sparse TF-IDF vector: parallel arrays of term id and weight, sorted by
/// term id, L2-normalized.
struct TfIdfVector {
  std::vector<TermId> terms;
  std::vector<double> weights;
};

/// TF-IDF weighting model over a corpus of token lists (duplicates allowed —
/// term frequency is counted). IDF uses the smoothed form
/// `log((n + 1) / df(t))` that the TW-IDF baseline (Eq. 4) also uses.
class TfIdfModel {
 public:
  /// Builds document frequencies and per-document normalized vectors.
  /// `vocab_size` must be at least 1 + max term id appearing in `docs`.
  void Build(const std::vector<std::vector<TermId>>& docs, size_t vocab_size);

  size_t num_docs() const { return vectors_.size(); }

  /// Document frequency of a term (0 for unseen ids < vocab size).
  uint32_t DocFrequency(TermId t) const { return df_[t]; }

  /// Smoothed inverse document frequency `log((n + 1) / df)`; 0 when df==0.
  double Idf(TermId t) const;

  /// The L2-normalized TF-IDF vector of document `doc`.
  const TfIdfVector& VectorOf(size_t doc) const { return vectors_[doc]; }

  /// Cosine similarity between two documents of the corpus, in [0, 1].
  double Cosine(size_t doc_a, size_t doc_b) const;

 private:
  std::vector<uint32_t> df_;
  std::vector<TfIdfVector> vectors_;
};

/// Dot product of two sparse vectors sorted by term id.
double SparseDot(const TfIdfVector& a, const TfIdfVector& b);

}  // namespace gter

#endif  // GTER_TEXT_TFIDF_H_
