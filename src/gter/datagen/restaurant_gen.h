#ifndef GTER_DATAGEN_RESTAURANT_GEN_H_
#define GTER_DATAGEN_RESTAURANT_GEN_H_

#include <cstdint>

#include "gter/datagen/datagen.h"
#include "gter/datagen/noise.h"

namespace gter {

/// Restaurant-like benchmark: a single-source dataset of restaurant records
/// (name + address + city + phone + cuisine) where a minority of entities
/// appear twice with surface variations — mirroring the Fodors/Zagat
/// Restaurant dataset (858 records, 106 duplicate pairs). The 10-digit
/// phone token is the discriminative anchor, as in the paper's motivation.
struct RestaurantGenConfig {
  size_t num_records = 858;
  size_t num_duplicate_pairs = 106;
  uint64_t seed = 2018;
  /// Probability that a new restaurant is a franchise sibling of an
  /// earlier one — same name and cuisine, different address and phone.
  /// These are the benchmark's hard non-matches: high textual similarity,
  /// different entity.
  double franchise_prob = 0.2;
  NoiseOptions noise{/*typo_prob=*/0.15, /*abbreviate_prob=*/0.12,
                     /*drop_prob=*/0.18};
};

GeneratedDataset GenerateRestaurant(
    const RestaurantGenConfig& config = {},
    const ExecContext& ctx = DefaultExecContext());

}  // namespace gter

#endif  // GTER_DATAGEN_RESTAURANT_GEN_H_
