#include "gter/datagen/datagen.h"

#include <algorithm>
#include <cmath>

#include "gter/common/status.h"
#include "gter/datagen/paper_gen.h"
#include "gter/datagen/product_gen.h"
#include "gter/datagen/restaurant_gen.h"

namespace gter {
namespace {

size_t Scaled(size_t value, double scale) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(static_cast<double>(value) * scale)));
}

}  // namespace

std::string BenchmarkName(BenchmarkKind kind) {
  switch (kind) {
    case BenchmarkKind::kRestaurant:
      return "Restaurant";
    case BenchmarkKind::kProduct:
      return "Product";
    case BenchmarkKind::kPaper:
      return "Paper";
  }
  return "Unknown";
}

GeneratedDataset GenerateBenchmark(BenchmarkKind kind, double scale,
                                   uint64_t seed, const ExecContext& ctx) {
  GTER_CHECK(scale > 0.0);
  switch (kind) {
    case BenchmarkKind::kRestaurant: {
      RestaurantGenConfig config;
      config.num_records = Scaled(config.num_records, scale);
      config.num_duplicate_pairs = Scaled(config.num_duplicate_pairs, scale);
      config.num_duplicate_pairs =
          std::min(config.num_duplicate_pairs, config.num_records / 2);
      config.seed = seed;
      return GenerateRestaurant(config, ctx);
    }
    case BenchmarkKind::kProduct: {
      ProductGenConfig config;
      config.num_source0 = Scaled(config.num_source0, scale);
      config.num_source1 = Scaled(config.num_source1, scale);
      config.num_matches = Scaled(config.num_matches, scale);
      config.num_matches = std::min(config.num_matches, config.num_source1);
      config.seed = seed;
      return GenerateProduct(config, ctx);
    }
    case BenchmarkKind::kPaper: {
      PaperGenConfig config;
      config.num_records = Scaled(config.num_records, scale);
      config.largest_cluster =
          std::min(Scaled(config.largest_cluster, scale), config.num_records);
      config.num_big_clusters = Scaled(config.num_big_clusters, scale);
      config.seed = seed;
      return GeneratePaper(config, ctx);
    }
  }
  GTER_CHECK(false);
  return GeneratedDataset{Dataset("unreachable"),
                          GroundTruth(std::vector<EntityId>{})};
}

}  // namespace gter
