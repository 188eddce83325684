#include "gter/er/pair_space.h"

#include <algorithm>

#include "gter/common/metrics.h"
#include "gter/common/status.h"

namespace gter {

PairSpace PairSpace::Build(const Dataset& dataset, const ExecContext& ctx) {
  ScopedTimer timer(ctx.metrics, ctx.trace, "pairspace/build");
  PairSpace space;
  const bool two_source = dataset.num_sources() == 2;
  auto inverted = dataset.BuildInvertedIndex();
  for (const auto& posting : inverted) {
    for (size_t i = 0; i < posting.size(); ++i) {
      for (size_t j = i + 1; j < posting.size(); ++j) {
        RecordId a = posting[i];
        RecordId b = posting[j];
        if (a > b) std::swap(a, b);
        if (two_source &&
            dataset.record(a).source == dataset.record(b).source) {
          continue;
        }
        uint64_t key = Key(a, b);
        if (space.index_.find(key) != space.index_.end()) continue;
        space.index_.emplace(key, static_cast<PairId>(space.pairs_.size()));
        space.pairs_.push_back(RecordPair{a, b});
      }
    }
  }
  if (ctx.metrics != nullptr) {
    ctx.metrics->AddCounter("pairspace/pairs", space.pairs_.size());
  }
  return space;
}

PairSpace PairSpace::FromPairs(std::vector<RecordPair> pairs,
                               const ExecContext& ctx) {
  for (RecordPair& rp : pairs) {
    if (rp.a > rp.b) std::swap(rp.a, rp.b);
  }
  std::sort(pairs.begin(), pairs.end(), [](RecordPair x, RecordPair y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
  PairSpace space;
  for (const RecordPair& rp : pairs) {
    if (rp.a == rp.b) continue;
    uint64_t key = Key(rp.a, rp.b);
    auto [it, inserted] =
        space.index_.emplace(key, static_cast<PairId>(space.pairs_.size()));
    if (inserted) space.pairs_.push_back(rp);
  }
  if (ctx.metrics != nullptr) {
    ctx.metrics->AddCounter("pairspace/pairs", space.pairs_.size());
  }
  return space;
}

PairId PairSpace::Append(RecordId a, RecordId b) {
  if (a > b) std::swap(a, b);
  GTER_CHECK(a != b);
  uint64_t key = Key(a, b);
  auto [it, inserted] =
      index_.emplace(key, static_cast<PairId>(pairs_.size()));
  if (inserted) pairs_.push_back(RecordPair{a, b});
  return it->second;
}

PairId PairSpace::Find(RecordId a, RecordId b) const {
  if (a > b) std::swap(a, b);
  auto it = index_.find(Key(a, b));
  return it == index_.end() ? kInvalidPairId : it->second;
}

}  // namespace gter
