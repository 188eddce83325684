#ifndef GTER_DATAGEN_PRODUCT_GEN_H_
#define GTER_DATAGEN_PRODUCT_GEN_H_

#include <cstdint>

#include "gter/datagen/datagen.h"
#include "gter/datagen/noise.h"

namespace gter {

/// Product-like benchmark: a two-source dataset mirroring Abt-Buy
/// (1081 + 1092 records, 1092 cross-source matches). Each product carries a
/// brand, a unique alphanumeric model code (the "pslx350h"-style
/// discriminative term from the paper's introduction), a category, and
/// noisy descriptive text that differs substantially between the two
/// sources — which is why plain Jaccard does poorly here while IDF-weighted
/// measures do better.
struct ProductGenConfig {
  size_t num_source0 = 1081;  // "abt"
  size_t num_source1 = 1092;  // "buy"
  size_t num_matches = 1092;  // cross-source matching pairs
  uint64_t seed = 2018;
  /// Real product listings are the noisiest of the three domains (the
  /// paper's round-1 Product F1 is only 0.543): descriptions diverge
  /// heavily across shops and the discriminative model code is frequently
  /// absent from one side's listing.
  double model_drop_prob = 0.25;
  NoiseOptions noise{/*typo_prob=*/0.10, /*abbreviate_prob=*/0.06,
                     /*drop_prob=*/0.10};
};

GeneratedDataset GenerateProduct(const ProductGenConfig& config = {},
                                 const ExecContext& ctx = DefaultExecContext());

}  // namespace gter

#endif  // GTER_DATAGEN_PRODUCT_GEN_H_
