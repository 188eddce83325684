#include "gter/datagen/restaurant_gen.h"

#include <algorithm>
#include <unordered_set>

#include "gter/common/status.h"
#include "gter/datagen/vocab_bank.h"

namespace gter {
namespace {

/// Canonical attributes of one restaurant entity.
struct RestaurantEntity {
  std::vector<std::string> name;  // generic word + distinctive words
  std::string street_number;
  std::string street;
  std::string street_suffix;  // full form
  std::string city;
  std::string phone;
  std::string cuisine;
};

/// Samplers shared across entities. Real benchmark token frequencies are
/// bimodal: a handful of very frequent values (generic name words, city
/// names, cuisine labels — all removed by the frequent-term preprocessing)
/// and a long near-unique tail (distinctive name words, street names,
/// street numbers, phone numbers) where accidental overlaps between
/// distinct restaurants are rare. Mid-frequency tokens must stay rare:
/// each one that survives preprocessing ties its df sharers into a
/// uniform-weight clique that CliqueRank — by the paper's own design —
/// cannot distinguish from a true entity clique.
struct EntityFactory {
  /// Frequent categorical values: df ≈ n/|bank| ≥ 0.17·n, safely above
  /// the default 0.12·n removal cap at every scale.
  static constexpr size_t kNumGenerics = 4;
  static constexpr size_t kNumCities = 4;
  static constexpr size_t kNumCuisines = 4;
  static constexpr size_t kNumSuffixes = 4;

  /// Near-unique pools, deduplicated against each other so a street name
  /// never equals a restaurant name word. Streets are sampled from a pool
  /// of 40·n distinct names, so the expected number of cross-entity street
  /// collisions is ≈ n/80 — the "hard false positive" budget that keeps
  /// precision paper-like rather than perfect.
  std::vector<std::string> distinctive_names;  // globally unique
  std::vector<std::string> street_pool;        // distinct values
  size_t next_distinctive = 0;

  /// MakeSurname can produce ~264k distinct strings. The rejection loops
  /// below collect *distinct* values, so the wanted pool sizes must stay
  /// well under that bound or the loops never terminate (40·n alone
  /// exceeds the space past ~6.6k records — generation used to hang at
  /// scale ≳ 7.7). Capping keeps the draw count near-linear; past the
  /// cap the street-collision rate grows with n² / 120k instead of n/80,
  /// which only makes the hard-false-positive budget scale-proportional
  /// sooner.
  static constexpr size_t kMaxNamePool = 100000;
  static constexpr size_t kMaxStreetPool = 120000;

  EntityFactory(size_t num_records, Rng* rng) {
    std::unordered_set<std::string> used;
    size_t want_names = std::min(num_records * 3 + 16, kMaxNamePool);
    distinctive_names.reserve(want_names);
    while (distinctive_names.size() < want_names) {
      std::string w = VocabBank::MakeSurname(rng);
      if (used.insert(w).second) distinctive_names.push_back(w);
    }
    size_t want_streets = std::min(num_records * 40, kMaxStreetPool);
    street_pool.reserve(want_streets);
    while (street_pool.size() < want_streets) {
      std::string w = VocabBank::MakeSurname(rng);
      if (used.insert(w).second) street_pool.push_back(w);
    }
  }

  RestaurantEntity Make(Rng* rng) {
    RestaurantEntity e;
    // Name: one generic word ("grill") plus 1–2 globally-unique
    // distinctive words — the paper's "discriminative terms".
    e.name.push_back(
        VocabBank::RestaurantNameWords()[rng->NextBounded(kNumGenerics)]);
    size_t extra = 1 + rng->NextBounded(2);
    for (size_t i = 0; i < extra && next_distinctive < distinctive_names.size();
         ++i) {
      e.name.push_back(distinctive_names[next_distinctive++]);
    }
    e.street_number = std::to_string(1 + rng->NextBounded(99999));
    e.street = street_pool[rng->NextBounded(street_pool.size())];
    const auto& suffixes = VocabBank::StreetSuffixes();
    e.street_suffix = suffixes[rng->NextBounded(kNumSuffixes)];
    e.city = VocabBank::Cities()[rng->NextBounded(kNumCities)];
    e.phone = VocabBank::MakePhone(rng);
    e.cuisine = VocabBank::Cuisines()[rng->NextBounded(kNumCuisines)];
    return e;
  }
};

/// Renders one record of the entity. `variant` 0 is the canonical form;
/// variant 1 applies the noise model (the "other source's" rendering).
void EmitRecord(const RestaurantEntity& e, int variant, bool allow_short,
                const NoiseOptions& noise, Rng* rng, Dataset* dataset,
                const ExecContext& ctx) {
  std::vector<std::string> name = e.name;
  std::string suffix = e.street_suffix;
  std::string cuisine = e.cuisine;
  std::string street = e.street;
  std::string number = e.street_number;
  std::string phone = e.phone;
  if (variant == 1) {
    name = ApplyNoise(name, noise, rng);
    // Address conventions differ across sources: abbreviate the suffix
    // half of the time, occasionally typo the street or disagree on the
    // street number and even the phone (digit typos in one guide).
    if (rng->Bernoulli(0.5)) suffix = VocabBank::AbbreviateStreetSuffix(suffix);
    if (rng->Bernoulli(noise.typo_prob)) street = InjectTypo(street, rng);
    if (rng->Bernoulli(0.12)) number = std::to_string(1 + rng->NextBounded(99999));
    if (rng->Bernoulli(0.08)) phone = InjectTypo(phone, rng);
    // Cuisine labels disagree frequently between guides (drawn from the
    // same frequent bank so the label stays above the removal cap).
    if (rng->Bernoulli(0.3)) {
      cuisine = VocabBank::Cuisines()[rng->NextBounded(
          EntityFactory::kNumCuisines)];
    }
  }
  std::string name_text = JoinTokens(name);
  std::string address = number + " " + street + " " + suffix;
  // Short listings: one guide sometimes prints only the name, city and
  // phone — the weakly-evidenced matches that pull the benchmark's
  // similarity distributions together. Franchise families always get full
  // directory entries (chains are well covered), which keeps their records
  // anchored to their true duplicates.
  if (allow_short && variant == 1 && rng->Bernoulli(0.25)) {
    std::vector<std::string> fields = {name_text, "", e.city, phone, ""};
    std::string text = name_text + " " + e.city + " " + phone;
    dataset->AddRecord(0, std::move(text), std::move(fields), ctx);
    return;
  }
  std::vector<std::string> fields = {name_text, address, e.city, phone,
                                     cuisine};
  std::string text =
      name_text + " " + address + " " + e.city + " " + phone + " " + cuisine;
  dataset->AddRecord(0, std::move(text), std::move(fields), ctx);
}

}  // namespace

GeneratedDataset GenerateRestaurant(const RestaurantGenConfig& config,
                                    const ExecContext& ctx) {
  GTER_CHECK(config.num_records >= 2 * config.num_duplicate_pairs);
  Rng rng(config.seed);
  Dataset dataset("Restaurant", /*num_sources=*/1);
  std::vector<EntityId> entity_of;

  const size_t num_dups = config.num_duplicate_pairs;
  const size_t num_singles = config.num_records - 2 * num_dups;
  const size_t num_entities = num_dups + num_singles;

  // Interleave duplicated and singleton entities so record ids are not
  // correlated with match status.
  std::vector<bool> is_dup(num_entities, false);
  for (size_t i = 0; i < num_dups; ++i) is_dup[i] = true;
  rng.Shuffle(&is_dup);

  EntityFactory factory(config.num_records, &rng);

  // Phase 1: construct entities. Franchises: some restaurants share their
  // name (and kitchen) with a sibling at a different address — the classic
  // hard case of the real Restaurant benchmark where textual similarity
  // alone mismatches. Both the franchise and its one-time original are
  // *duplicated* entities: every involved record then has a true-match
  // anchor through phone/address, so the cross-franchise name edges are
  // dominated in the record graph — the structure CliqueRank exploits and
  // plain string similarity cannot. (A singleton franchise would instead
  // be an unresolvable mutual-best pair for any similarity-driven walk.)
  std::vector<RestaurantEntity> entities(num_entities);
  std::vector<bool> in_family(num_entities, false);
  std::vector<size_t> free_originals;  // dup entities not yet franchised
  for (size_t i = 0; i < num_entities; ++i) {
    entities[i] = factory.Make(&rng);
    if (is_dup[i] && !free_originals.empty() &&
        rng.Bernoulli(config.franchise_prob)) {
      size_t pick = rng.NextBounded(free_originals.size());
      size_t original = free_originals[pick];
      free_originals[pick] = free_originals.back();
      free_originals.pop_back();  // one franchise per original
      entities[i].name = entities[original].name;
      entities[i].cuisine = entities[original].cuisine;
      in_family[i] = true;
      in_family[original] = true;
    } else if (is_dup[i]) {
      free_originals.push_back(i);
    }
  }

  // Phase 2: emit records.
  EntityId next_entity = 0;
  for (size_t i = 0; i < num_entities; ++i) {
    bool allow_short = !in_family[i];
    EmitRecord(entities[i], /*variant=*/0, allow_short, config.noise, &rng,
               &dataset, ctx);
    entity_of.push_back(next_entity);
    if (is_dup[i]) {
      EmitRecord(entities[i], /*variant=*/1, allow_short, config.noise, &rng,
                 &dataset, ctx);
      entity_of.push_back(next_entity);
    }
    ++next_entity;
  }
  return {std::move(dataset), GroundTruth(std::move(entity_of))};
}

}  // namespace gter
