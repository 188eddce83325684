#include "gter/datagen/product_gen.h"

#include <algorithm>
#include <unordered_set>

#include "gter/common/status.h"
#include "gter/datagen/vocab_bank.h"

namespace gter {
namespace {

struct ProductEntity {
  std::string brand;
  std::string series;  // semi-discriminative product-line word
  std::string model;   // unique across entities
  std::string category;
  std::vector<std::string> adjectives;
  /// Description phrasing both shops share for this product ("stainless
  /// steel finish", "energy star"). Real cross-shop listings overlap on a
  /// sizable part of their wording; without this, synthetic matches would
  /// share only the name tokens and the learned similarity would have far
  /// less margin than on real Abt-Buy text.
  std::vector<std::string> description_core;
};

/// Shared pools for entity construction. The `series` word ("bravia",
/// "viera") is the mid-frequency discriminative signal real product names
/// carry beyond the unique model code: when a listing omits the model —
/// which Abt-Buy listings frequently do — brand+series+category is what a
/// matcher can still learn from. One series covers ~4 entities.
struct ProductFactory {
  std::vector<std::string> series_pool;
  /// Description vocabulary: the 40 stock words plus a generated pool
  /// sized to the dataset. Real listing descriptions draw on thousands of
  /// distinct mid-frequency words; with a tiny vocabulary every word's
  /// pair count P_t explodes and Eq. 6 crushes its weight to nothing, so
  /// shared descriptions would carry no matching evidence at all.
  std::vector<std::string> common_pool;

  ProductFactory(size_t num_entities, Rng* rng) {
    std::unordered_set<std::string> used;
    size_t want = num_entities / 2 + 2;
    series_pool.reserve(want);
    while (series_pool.size() < want) {
      std::string w = VocabBank::MakeSurname(rng);
      if (used.insert(w).second) series_pool.push_back(w);
    }
    common_pool = VocabBank::ProductCommonWords();
    size_t want_common = common_pool.size() + num_entities / 2;
    while (common_pool.size() < want_common) {
      std::string w = VocabBank::MakeSurname(rng);
      if (used.insert(w).second) common_pool.push_back(w);
    }
  }

  ProductEntity Make(Rng* rng, std::unordered_set<std::string>* used_models) {
    ProductEntity e;
    const auto& brands = VocabBank::Brands();
    e.brand = brands[rng->NextBounded(brands.size())];
    e.series = series_pool[rng->NextBounded(series_pool.size())];
    do {
      e.model = VocabBank::MakeModelCode(rng);
    } while (!used_models->insert(e.model).second);
    const auto& categories = VocabBank::ProductCategories();
    e.category = categories[rng->NextBounded(categories.size())];
    const auto& adjectives = VocabBank::ProductAdjectives();
    size_t count = 1 + rng->NextBounded(2);
    for (size_t i = 0; i < count; ++i) {
      e.adjectives.push_back(adjectives[rng->NextBounded(adjectives.size())]);
    }
    size_t core = 5 + rng->NextBounded(4);
    for (size_t i = 0; i < core; ++i) {
      e.description_core.push_back(
          common_pool[rng->NextBounded(common_pool.size())]);
    }
    return e;
  }
};

/// Renders one record for a source. The two sources use independent random
/// description words so matching records overlap mainly on brand + model +
/// category — the discriminative core — and the model code itself is
/// missing from a listing with `model_drop_prob` (as in real Abt-Buy).
void EmitRecord(const ProductEntity& e, uint32_t source,
                const std::vector<std::string>& common_pool,
                double model_drop_prob, const NoiseOptions& noise, Rng* rng,
                Dataset* dataset, const ExecContext& ctx) {
  std::vector<std::string> tokens;
  tokens.push_back(e.brand);
  tokens.push_back(e.series);
  if (!rng->Bernoulli(model_drop_prob)) {
    std::string model = e.model;
    if (rng->Bernoulli(0.02)) model = InjectTypo(model, rng);
    tokens.push_back(model);
  }
  tokens.push_back(e.category);
  for (const auto& adj : e.adjectives) {
    if (rng->Bernoulli(0.7)) tokens.push_back(adj);
  }
  // Shared phrasing: each core description word survives in a given
  // listing with probability 0.65, so matched listings overlap on ~3–5 of
  // them while unrelated listings only collide by chance.
  for (const auto& word : e.description_core) {
    if (rng->Bernoulli(0.65)) tokens.push_back(word);
  }
  // Long, shop-specific marketing copy: the Abt side writes paragraphs,
  // the Buy side a sentence or two. These unshared words are what pushes
  // the Jaccard similarity of true matches down into the noise range on
  // the real Abt-Buy data (the paper's Jaccard row is only 0.332 there).
  size_t extra = (source == 0 ? 12 : 4) + rng->NextBounded(source == 0 ? 8 : 4);
  for (size_t i = 0; i < extra; ++i) {
    tokens.push_back(common_pool[rng->NextBounded(common_pool.size())]);
  }
  std::vector<std::string> noisy = ApplyNoise(tokens, noise, rng);
  std::string name = e.brand + " " + e.series + " " + e.model + " " + e.category;
  dataset->AddRecord(source, JoinTokens(noisy), {name}, ctx);
}

}  // namespace

GeneratedDataset GenerateProduct(const ProductGenConfig& config,
                                 const ExecContext& ctx) {
  GTER_CHECK(config.num_source0 >= 2 && config.num_source1 >= 2);
  Rng rng(config.seed);
  Dataset dataset("Product", /*num_sources=*/2);
  std::vector<EntityId> entity_of;
  std::unordered_set<std::string> used_models;

  // Decompose the match count into entities with (1 abt, 1 buy) records —
  // X of them — and entities with (1 abt, 2 buy) — Y of them — so that
  // X + 2Y = num_matches while fitting in both sources (the real Abt-Buy
  // has more matches than Abt records because some products appear twice
  // on the Buy side).
  size_t x = config.num_matches;
  size_t y = 0;
  while (x + y + 5 > config.num_source0 && x >= 2) {
    x -= 2;
    y += 1;
  }
  GTER_CHECK(x + 2 * y == config.num_matches);
  GTER_CHECK(x + 2 * y <= config.num_source1);
  const size_t abt_matched = x + y;
  const size_t buy_matched = x + 2 * y;
  const size_t abt_singles = config.num_source0 - abt_matched;
  const size_t buy_singles = config.num_source1 - buy_matched;

  EntityId next_entity = 0;
  struct Pending {
    ProductEntity entity;
    EntityId id;
    size_t buy_copies;  // 0 for a buy-side singleton's abt? see below
    bool has_abt;
  };
  const size_t num_entities = x + y + abt_singles + buy_singles;
  ProductFactory factory(num_entities, &rng);
  std::vector<Pending> plan;
  for (size_t i = 0; i < x; ++i) {
    plan.push_back({factory.Make(&rng, &used_models), next_entity++, 1, true});
  }
  for (size_t i = 0; i < y; ++i) {
    plan.push_back({factory.Make(&rng, &used_models), next_entity++, 2, true});
  }
  for (size_t i = 0; i < abt_singles; ++i) {
    plan.push_back({factory.Make(&rng, &used_models), next_entity++, 0, true});
  }
  for (size_t i = 0; i < buy_singles; ++i) {
    plan.push_back({factory.Make(&rng, &used_models), next_entity++, 1, false});
  }
  rng.Shuffle(&plan);

  for (const Pending& p : plan) {
    if (p.has_abt) {
      EmitRecord(p.entity, /*source=*/0, factory.common_pool,
                 config.model_drop_prob, config.noise, &rng, &dataset, ctx);
      entity_of.push_back(p.id);
    }
    for (size_t c = 0; c < p.buy_copies; ++c) {
      EmitRecord(p.entity, /*source=*/1, factory.common_pool,
                 config.model_drop_prob, config.noise, &rng, &dataset, ctx);
      entity_of.push_back(p.id);
    }
  }
  return {std::move(dataset), GroundTruth(std::move(entity_of))};
}

}  // namespace gter
