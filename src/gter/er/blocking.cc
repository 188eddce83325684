#include "gter/er/blocking.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "gter/common/metrics.h"
#include "gter/common/random.h"
#include "gter/common/status.h"
#include "gter/text/string_metrics.h"

namespace gter {
namespace {

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

uint64_t PairKey(RecordId a, RecordId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace

MinHasher::MinHasher(size_t num_hashes, uint64_t seed) {
  GTER_CHECK(num_hashes >= 1);
  Rng rng(seed);
  params_.resize(num_hashes);
  for (auto& p : params_) {
    p.mul = rng.Next() | 1;  // odd multiplier keeps the map bijective
    p.add = rng.Next();
  }
}

std::vector<uint64_t> MinHasher::Signature(
    const std::vector<TermId>& terms) const {
  std::vector<uint64_t> sig(params_.size(),
                            std::numeric_limits<uint64_t>::max());
  for (TermId t : terms) {
    for (size_t h = 0; h < params_.size(); ++h) {
      uint64_t v = Mix64(params_[h].mul * (static_cast<uint64_t>(t) + 1) +
                         params_[h].add);
      if (v < sig[h]) sig[h] = v;
    }
  }
  return sig;
}

double MinHasher::EstimateJaccard(const std::vector<uint64_t>& a,
                                  const std::vector<uint64_t>& b) {
  GTER_CHECK(a.size() == b.size());
  if (a.empty()) return 0.0;
  size_t equal = 0;
  for (size_t i = 0; i < a.size(); ++i) equal += a[i] == b[i];
  return static_cast<double>(equal) / static_cast<double>(a.size());
}

Result<BlockingResult> LshBlocking(const Dataset& dataset,
                                   const LshBlockingOptions& options,
                                   const ExecContext& ctx) {
  GTER_CHECK(options.num_bands >= 1 && options.rows_per_band >= 1);
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  ScopedTimer total_timer(ctx.metrics, ctx.trace, "blocking/lsh");
  const bool two_source = dataset.num_sources() == 2;
  MinHasher hasher(options.num_bands * options.rows_per_band, options.seed);

  std::vector<std::vector<uint64_t>> signatures(dataset.size());
  for (const Record& rec : dataset.records()) {
    signatures[rec.id] = hasher.Signature(rec.terms);
  }

  BlockingResult result;
  std::unordered_set<uint64_t> emitted;
  for (size_t band = 0; band < options.num_bands; ++band) {
    // One poll per band: each band hashes the full dataset, the natural
    // unit of progress for this stage.
    GTER_RETURN_IF_ERROR(ctx.CheckCancel());
    ScopedTraceSpan band_span(ctx.trace, "blocking/band", "blocking",
                              TraceArg{"band", static_cast<double>(band)});
    std::unordered_map<uint64_t, std::vector<RecordId>> buckets;
    for (RecordId r = 0; r < dataset.size(); ++r) {
      if (dataset.record(r).terms.empty()) continue;
      uint64_t key = 0x9E3779B97F4A7C15ULL * (band + 1);
      for (size_t row = 0; row < options.rows_per_band; ++row) {
        key = Mix64(key ^ signatures[r][band * options.rows_per_band + row]);
      }
      buckets[key].push_back(r);
    }
    result.buckets += buckets.size();
    for (const auto& [key, members] : buckets) {
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          RecordId a = members[i], b = members[j];
          if (a > b) std::swap(a, b);
          if (two_source &&
              dataset.record(a).source == dataset.record(b).source) {
            continue;
          }
          if (emitted.insert(PairKey(a, b)).second) {
            result.pairs.push_back(RecordPair{a, b});
          }
        }
      }
    }
  }
  if (ctx.metrics != nullptr) {
    ctx.metrics->AddCounter("blocking/lsh_pairs", result.pairs.size());
    ctx.metrics->AddCounter("blocking/lsh_buckets", result.buckets);
  }
  return result;
}

Result<BlockingResult> CanopyBlocking(const Dataset& dataset,
                                      const CanopyBlockingOptions& options,
                                      const ExecContext& ctx) {
  GTER_CHECK(options.tight_threshold >= options.loose_threshold);
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  ScopedTimer total_timer(ctx.metrics, ctx.trace, "blocking/canopy");
  const bool two_source = dataset.num_sources() == 2;
  auto inverted = dataset.BuildInvertedIndex();
  Rng rng(options.seed);

  std::vector<uint32_t> pool(dataset.size());
  for (uint32_t r = 0; r < dataset.size(); ++r) pool[r] = r;
  rng.Shuffle(&pool);
  std::vector<bool> removed(dataset.size(), false);

  BlockingResult result;
  std::unordered_set<uint64_t> emitted;
  std::vector<uint32_t> overlap(dataset.size(), 0);
  std::vector<uint32_t> touched;
  for (uint32_t center : pool) {
    if (removed[center]) continue;
    // One poll per canopy seeded: a canopy sweeps the inverted index, the
    // natural unit of progress for this stage.
    GTER_RETURN_IF_ERROR(ctx.CheckCancel());
    removed[center] = true;
    // Cheap similarity of every record against the center in one inverted-
    // index sweep: overlap coefficient = |A∩B| / min(|A|,|B|).
    touched.clear();
    for (TermId t : dataset.record(center).terms) {
      for (RecordId r : inverted[t]) {
        if (r == center) continue;
        if (overlap[r] == 0) touched.push_back(r);
        ++overlap[r];
      }
    }
    ++result.buckets;  // one canopy
    size_t center_size = dataset.record(center).terms.size();
    std::vector<uint32_t> members;
    for (uint32_t r : touched) {
      size_t min_size =
          std::min(center_size, dataset.record(r).terms.size());
      double cheap = min_size == 0
                         ? 0.0
                         : static_cast<double>(overlap[r]) /
                               static_cast<double>(min_size);
      overlap[r] = 0;
      if (cheap < options.loose_threshold) continue;
      members.push_back(r);
      if (cheap >= options.tight_threshold) removed[r] = true;
    }
    members.push_back(center);
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        RecordId a = members[i], b = members[j];
        if (a > b) std::swap(a, b);
        if (two_source &&
            dataset.record(a).source == dataset.record(b).source) {
          continue;
        }
        // Both overlap the center, but a candidate pair must share a term
        // with each other (§V-B).
        if (SortedIntersectionSize(dataset.record(a).terms,
                                   dataset.record(b).terms) == 0) {
          continue;
        }
        if (emitted.insert(PairKey(a, b)).second) {
          result.pairs.push_back(RecordPair{a, b});
        }
      }
    }
  }
  if (ctx.metrics != nullptr) {
    ctx.metrics->AddCounter("blocking/canopy_pairs", result.pairs.size());
    ctx.metrics->AddCounter("blocking/canopies", result.buckets);
  }
  return result;
}

double BlockingRecall(const Dataset& dataset, const GroundTruth& truth,
                      const std::vector<RecordPair>& pairs) {
  std::unordered_set<uint64_t> have;
  have.reserve(pairs.size() * 2);
  for (const RecordPair& rp : pairs) {
    RecordId a = rp.a, b = rp.b;
    if (a > b) std::swap(a, b);
    have.insert(PairKey(a, b));
  }
  uint64_t total = 0, covered = 0;
  for (const auto& cluster : truth.clusters()) {
    for (size_t i = 0; i < cluster.size(); ++i) {
      for (size_t j = i + 1; j < cluster.size(); ++j) {
        RecordId a = cluster[i], b = cluster[j];
        if (dataset.num_sources() == 2 &&
            dataset.record(a).source == dataset.record(b).source) {
          continue;
        }
        if (a > b) std::swap(a, b);
        ++total;
        covered += have.count(PairKey(a, b));
      }
    }
  }
  return total == 0 ? 1.0
                    : static_cast<double>(covered) / static_cast<double>(total);
}

}  // namespace gter
