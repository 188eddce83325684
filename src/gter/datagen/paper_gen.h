#ifndef GTER_DATAGEN_PAPER_GEN_H_
#define GTER_DATAGEN_PAPER_GEN_H_

#include <cstdint>

#include "gter/datagen/datagen.h"
#include "gter/datagen/noise.h"

namespace gter {

/// Paper-like benchmark: a single-source bibliography dataset mirroring
/// Cora (1865 citation strings; 96 clusters of ≥3 records; the largest
/// entity has 192 records). Citation variants abbreviate author names and
/// venues, truncate titles, and drop years — the big-clique structure this
/// dataset contributes is exactly what CliqueRank's boost targets.
struct PaperGenConfig {
  size_t num_records = 1865;
  /// Size of the largest citation cluster.
  size_t largest_cluster = 192;
  /// Number of clusters with at least 3 records.
  size_t num_big_clusters = 96;
  /// Power-law exponent shaping big-cluster sizes.
  double size_exponent = 1.15;
  uint64_t seed = 2018;
  NoiseOptions noise;
};

GeneratedDataset GeneratePaper(const PaperGenConfig& config = {},
                               const ExecContext& ctx = DefaultExecContext());

}  // namespace gter

#endif  // GTER_DATAGEN_PAPER_GEN_H_
