#include "gter/datagen/paper_gen.h"

#include <algorithm>
#include <cmath>

#include "gter/common/status.h"
#include "gter/datagen/vocab_bank.h"

namespace gter {
namespace {

struct PaperEntity {
  std::vector<std::string> author_surnames;  // 1–3
  std::vector<char> author_initials;         // parallel
  std::vector<std::string> title;            // 5–8 words
  std::string venue;
  std::string year;
};

PaperEntity MakeEntity(Rng* rng) {
  PaperEntity e;
  size_t num_authors = 1 + rng->NextBounded(3);
  for (size_t i = 0; i < num_authors; ++i) {
    e.author_surnames.push_back(VocabBank::MakeSurname(rng));
    e.author_initials.push_back(
        static_cast<char>('a' + rng->NextBounded(26)));
  }
  const auto& topics = VocabBank::TitleTopicWords();
  const auto& fillers = VocabBank::TitleFillerWords();
  // Long titles (9–14 words) give candidate pairs diverse overlap counts.
  // That diversity matters: identical overlap compositions produce exactly
  // tied edge weights, and CliqueRank's boosted walk saturates every tied
  // row-maximum edge — real citation text never ties this way.
  size_t title_len = 9 + rng->NextBounded(6);
  for (size_t i = 0; i < title_len; ++i) {
    if (i % 2 == 0) {
      e.title.push_back(topics[rng->NextBounded(topics.size())]);
    } else {
      e.title.push_back(fillers[rng->NextBounded(fillers.size())]);
    }
  }
  const auto& venues = VocabBank::VenueWords();
  e.venue = venues[rng->NextBounded(venues.size())];
  e.year = std::to_string(1985 + rng->NextBounded(16));
  return e;
}

/// Renders one citation string of the entity with the usual bibliography
/// variation: author format, title noise, venue context, optional year.
void EmitRecord(const PaperEntity& e, const NoiseOptions& noise, Rng* rng,
                Dataset* dataset, const ExecContext& ctx) {
  std::vector<std::string> tokens;
  // Author list; the surname is the stable anchor, the rendering varies.
  size_t author_format = rng->NextBounded(3);
  for (size_t i = 0; i < e.author_surnames.size(); ++i) {
    std::string surname = e.author_surnames[i];
    if (rng->Bernoulli(noise.typo_prob)) surname = InjectTypo(surname, rng);
    std::string initial(1, e.author_initials[i]);
    switch (author_format) {
      case 0:
        tokens.push_back(initial);
        tokens.push_back(surname);
        break;
      case 1:
        tokens.push_back(surname);
        tokens.push_back(initial);
        break;
      default:
        tokens.push_back(surname);  // surname only
        break;
    }
  }
  // Title, possibly truncated ("..." style citations) and noisy.
  std::vector<std::string> title = e.title;
  if (rng->Bernoulli(0.15) && title.size() > 4) {
    title.resize(4 + rng->NextBounded(title.size() - 4));
  }
  title = ApplyNoise(title, noise, rng);
  tokens.insert(tokens.end(), title.begin(), title.end());
  // Venue with optional boilerplate context.
  static const std::vector<std::string> kContext = {
      "proceedings", "international", "conference", "workshop", "journal"};
  if (rng->Bernoulli(0.5)) {
    size_t count = 1 + rng->NextBounded(2);
    for (size_t i = 0; i < count; ++i) {
      tokens.push_back(kContext[rng->NextBounded(kContext.size())]);
    }
  }
  tokens.push_back(e.venue);
  if (rng->Bernoulli(0.8)) tokens.push_back(e.year);

  std::string author_field = JoinTokens(
      std::vector<std::string>(e.author_surnames.begin(),
                               e.author_surnames.end()));
  dataset->AddRecord(0, JoinTokens(tokens),
                     {author_field, JoinTokens(e.title), e.venue, e.year}, ctx);
}

/// Cluster sizes: the largest is `largest`, big-cluster sizes decay as a
/// power law down to 3, and the remaining mass is 1–2 record clusters.
std::vector<size_t> PlanClusterSizes(const PaperGenConfig& config, Rng* rng) {
  std::vector<size_t> sizes;
  size_t total = 0;
  for (size_t i = 0; i < config.num_big_clusters; ++i) {
    double raw = static_cast<double>(config.largest_cluster) *
                 std::pow(static_cast<double>(i + 1), -config.size_exponent);
    size_t size = std::max<size_t>(3, static_cast<size_t>(std::llround(raw)));
    if (total + size > config.num_records) break;
    sizes.push_back(size);
    total += size;
  }
  // Fill the remainder with small clusters, mostly of size 2: Cora-style
  // bibliography benchmarks have almost no singleton citations — a highly
  // cited paper is cited (and mis-rendered) repeatedly. This matters
  // algorithmically: a record whose row maximum is a true match edge
  // suppresses all its weak edges under the α-powered transitions, so few
  // singletons ⇒ few saturated false positives.
  while (total < config.num_records) {
    size_t remaining = config.num_records - total;
    size_t size = (remaining >= 2 && rng->Bernoulli(0.9)) ? 2 : 1;
    sizes.push_back(size);
    total += size;
  }
  GTER_CHECK(total == config.num_records);
  return sizes;
}

}  // namespace

GeneratedDataset GeneratePaper(const PaperGenConfig& config,
                               const ExecContext& ctx) {
  GTER_CHECK(config.num_records >= config.largest_cluster);
  Rng rng(config.seed);
  Dataset dataset("Paper", /*num_sources=*/1);

  std::vector<size_t> sizes = PlanClusterSizes(config, &rng);
  // Emit records in shuffled order so cluster membership is not contiguous
  // in record ids.
  std::vector<EntityId> emission;  // one slot per record, holding entity id
  for (EntityId e = 0; e < sizes.size(); ++e) {
    for (size_t k = 0; k < sizes[e]; ++k) emission.push_back(e);
  }
  rng.Shuffle(&emission);

  std::vector<PaperEntity> entities;
  entities.reserve(sizes.size());
  for (size_t e = 0; e < sizes.size(); ++e) entities.push_back(MakeEntity(&rng));

  std::vector<EntityId> entity_of;
  entity_of.reserve(emission.size());
  for (EntityId e : emission) {
    EmitRecord(entities[e], config.noise, &rng, &dataset, ctx);
    entity_of.push_back(e);
  }
  return {std::move(dataset), GroundTruth(std::move(entity_of))};
}

}  // namespace gter
