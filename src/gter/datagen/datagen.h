#ifndef GTER_DATAGEN_DATAGEN_H_
#define GTER_DATAGEN_DATAGEN_H_

#include <cstdint>
#include <string>

#include "gter/common/exec_context.h"
#include "gter/er/dataset.h"
#include "gter/er/ground_truth.h"

namespace gter {

/// A synthetic benchmark dataset plus its ground truth.
struct GeneratedDataset {
  Dataset dataset;
  GroundTruth truth;
};

/// The three benchmark families of §VII-A. The originals (Riddle
/// Restaurant, Leipzig Abt-Buy, UMass Cora) are not redistributable here;
/// the generators reproduce their published statistics and the structural
/// properties the algorithms exploit (see DESIGN.md §3).
enum class BenchmarkKind { kRestaurant, kProduct, kPaper };

/// Human-readable name ("Restaurant", "Product", "Paper").
std::string BenchmarkName(BenchmarkKind kind);

/// Generates a benchmark at `scale` (1.0 = the paper's sizes: 858 records /
/// 1081+1092 records / 1865 records). Smaller scales shrink record and
/// match counts proportionally while preserving the cluster-size shape.
/// Every record is counted into `ctx.metrics` as it is added.
GeneratedDataset GenerateBenchmark(
    BenchmarkKind kind, double scale = 1.0, uint64_t seed = 2018,
    const ExecContext& ctx = DefaultExecContext());

}  // namespace gter

#endif  // GTER_DATAGEN_DATAGEN_H_
