#include "gter/text/string_metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <unordered_map>

#include "gter/common/cpu.h"

namespace gter {
namespace {

/// One step of Hyyrö's block formulation of Myers' algorithm: advances the
/// vertical delta words (Pv = +1 rows, Mv = -1 rows) of one 64-row block by
/// one text column. `hin` ∈ {-1, 0, +1} is the horizontal delta entering at
/// the block's bottom row; the return is the horizontal delta leaving at the
/// row marked by `hout_bit` (the block's top row — or, in the final block,
/// bit (m-1) mod 64, the pattern's true last row).
inline int AdvanceBlock(uint64_t* pv, uint64_t* mv, uint64_t eq, int hin,
                        uint64_t hout_bit) {
  const uint64_t hin_neg = (hin < 0) ? 1u : 0u;
  const uint64_t xv = eq | *mv;
  eq |= hin_neg;
  const uint64_t xh = (((eq & *pv) + *pv) ^ *pv) | eq;
  uint64_t ph = *mv | ~(xh | *pv);
  uint64_t mh = *pv & xh;
  int hout = 0;
  if (ph & hout_bit) hout = 1;
  else if (mh & hout_bit) hout = -1;
  ph = (ph << 1) | static_cast<uint64_t>(hin > 0 ? 1 : 0);
  mh = (mh << 1) | hin_neg;
  *pv = mh | ~(xv | ph);
  *mv = ph & xv;
  return hout;
}

/// Single-word Myers (pattern length ≤ 64): the common case for record
/// fields, one AdvanceBlock-shaped update per text byte with everything in
/// registers.
size_t MyersSingleWord(std::string_view pattern, std::string_view text) {
  uint64_t peq[256] = {};
  for (size_t i = 0; i < pattern.size(); ++i) {
    peq[static_cast<unsigned char>(pattern[i])] |= uint64_t{1} << i;
  }
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  size_t score = pattern.size();
  const uint64_t last = uint64_t{1} << (pattern.size() - 1);
  for (char c : text) {
    const uint64_t eq = peq[static_cast<unsigned char>(c)];
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    if (ph & last) ++score;
    else if (mh & last) --score;
    // The DP's first row is D[0][j] = j: a permanent +1 enters at the
    // bottom, hence the forced low bit of Ph.
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  return score;
}

/// Blocked Myers for patterns longer than 64 bytes.
size_t MyersBlocked(std::string_view pattern, std::string_view text) {
  const size_t m = pattern.size();
  const size_t num_blocks = (m + 63) / 64;
  std::vector<uint64_t> peq(256 * num_blocks, 0);
  for (size_t i = 0; i < m; ++i) {
    peq[static_cast<unsigned char>(pattern[i]) * num_blocks + i / 64] |=
        uint64_t{1} << (i % 64);
  }
  std::vector<uint64_t> pv(num_blocks, ~uint64_t{0});
  std::vector<uint64_t> mv(num_blocks, 0);
  const uint64_t top_bit = uint64_t{1} << 63;
  const uint64_t last_bit = uint64_t{1} << ((m - 1) % 64);
  size_t score = m;
  for (char c : text) {
    const uint64_t* eq = peq.data() +
                         static_cast<size_t>(static_cast<unsigned char>(c)) *
                             num_blocks;
    int h = 1;  // first DP row: D[0][j] - D[0][j-1] = +1
    for (size_t blk = 0; blk + 1 < num_blocks; ++blk) {
      h = AdvanceBlock(&pv[blk], &mv[blk], eq[blk], h, top_bit);
    }
    h = AdvanceBlock(&pv[num_blocks - 1], &mv[num_blocks - 1],
                     eq[num_blocks - 1], h, last_bit);
    score = static_cast<size_t>(static_cast<int64_t>(score) + h);
  }
  return score;
}

}  // namespace

size_t LevenshteinDistanceDp(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);  // b is the shorter string
  if (b.empty()) return a.size();
  std::vector<size_t> row(b.size() + 1);
  std::iota(row.begin(), row.end(), 0);
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t up = row[j];
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, diag + cost});
      diag = up;
    }
  }
  return row[b.size()];
}

size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);  // b becomes the pattern
  if (b.empty()) return a.size();
  if (b.size() <= 64) return MyersSingleWord(b, a);
  return MyersBlocked(b, a);
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(LevenshteinDistance(a, b)) /
                   static_cast<double>(longest);
}

namespace {

/// Reusable match-flag buffers for the Jaro core. A fresh pair of
/// `vector<bool>` per call dominates the cost of comparing short tokens;
/// batch callers reuse one of these across an entire candidate list.
struct JaroScratch {
  std::vector<unsigned char> a_matched;
  std::vector<unsigned char> b_matched;
};

double JaroSimilarityWithScratch(std::string_view a, std::string_view b,
                                 JaroScratch* scratch) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  size_t window =
      std::max(a.size(), b.size()) / 2 >= 1 ? std::max(a.size(), b.size()) / 2 - 1 : 0;
  scratch->a_matched.assign(a.size(), 0);
  scratch->b_matched.assign(b.size(), 0);
  std::vector<unsigned char>& a_matched = scratch->a_matched;
  std::vector<unsigned char>& b_matched = scratch->b_matched;
  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    size_t lo = i > window ? i - window : 0;
    size_t hi = std::min(b.size(), i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (!b_matched[j] && a[i] == b[j]) {
        a_matched[i] = 1;
        b_matched[j] = 1;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;
  // Count transpositions among matched characters.
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  double m = static_cast<double>(matches);
  return (m / a.size() + m / b.size() + (m - transpositions / 2.0) / m) / 3.0;
}

double JaroWinklerWithScratch(std::string_view a, std::string_view b,
                              double prefix_scale, JaroScratch* scratch) {
  double jaro = JaroSimilarityWithScratch(a, b, scratch);
  size_t prefix = 0;
  size_t limit = std::min({a.size(), b.size(), static_cast<size_t>(4)});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + prefix * prefix_scale * (1.0 - jaro);
}

}  // namespace

double JaroSimilarity(std::string_view a, std::string_view b) {
  JaroScratch scratch;
  return JaroSimilarityWithScratch(a, b, &scratch);
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b,
                             double prefix_scale) {
  JaroScratch scratch;
  return JaroWinklerWithScratch(a, b, prefix_scale, &scratch);
}

void JaroWinklerSimilarityBatch(std::string_view a,
                                const std::vector<std::string>& b,
                                std::vector<double>* out,
                                double prefix_scale) {
  out->resize(b.size());
#if GTER_HAVE_AVX512
  if (ActiveSimdLevel() >= SimdLevel::kAvx512 && a.size() <= 64) {
    // Per-candidate dispatch: the masked kernel covers candidates that fit
    // one zmm (≤ 64 bytes — virtually all record tokens); longer ones fall
    // back to the scalar window walk with the shared scratch.
    JaroScratch scratch;
    for (size_t j = 0; j < b.size(); ++j) {
      (*out)[j] = b[j].size() <= 64
                      ? internal::JaroWinklerAvx512(a, b[j], prefix_scale)
                      : JaroWinklerWithScratch(a, b[j], prefix_scale, &scratch);
    }
    return;
  }
#endif
  JaroScratch scratch;
  for (size_t j = 0; j < b.size(); ++j) {
    (*out)[j] = JaroWinklerWithScratch(a, b[j], prefix_scale, &scratch);
  }
}

size_t SortedIntersectionSize(const std::vector<uint32_t>& a,
                              const std::vector<uint32_t>& b) {
  size_t i = 0, j = 0, count = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

std::vector<uint32_t> SortedIntersection(const std::vector<uint32_t>& a,
                                         const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      out.push_back(a[i]);
      ++i;
      ++j;
    }
  }
  return out;
}

double JaccardSimilarity(const std::vector<uint32_t>& a,
                         const std::vector<uint32_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t inter = SortedIntersectionSize(a, b);
  size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

double OverlapCoefficient(const std::vector<uint32_t>& a,
                          const std::vector<uint32_t>& b) {
  if (a.empty() || b.empty()) return a.empty() && b.empty() ? 1.0 : 0.0;
  size_t inter = SortedIntersectionSize(a, b);
  return static_cast<double>(inter) /
         static_cast<double>(std::min(a.size(), b.size()));
}

double DiceCoefficient(const std::vector<uint32_t>& a,
                       const std::vector<uint32_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t inter = SortedIntersectionSize(a, b);
  return 2.0 * static_cast<double>(inter) /
         static_cast<double>(a.size() + b.size());
}

double TrigramJaccard(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  auto grams = [](std::string_view s) {
    std::unordered_map<std::string, int> bag;
    if (s.size() < 3) {
      bag[std::string(s)]++;
      return bag;
    }
    for (size_t i = 0; i + 3 <= s.size(); ++i) {
      bag[std::string(s.substr(i, 3))]++;
    }
    return bag;
  };
  auto ga = grams(a);
  auto gb = grams(b);
  size_t inter = 0, uni = 0;
  for (const auto& [gram, count] : ga) {
    auto it = gb.find(gram);
    int other = it == gb.end() ? 0 : it->second;
    inter += std::min(count, other);
    uni += std::max(count, other);
  }
  for (const auto& [gram, count] : gb) {
    if (ga.find(gram) == ga.end()) uni += count;
  }
  return uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

double MongeElkanSimilarity(const std::vector<std::string>& a,
                            const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  std::vector<double> sims;
  auto directed = [&sims](const std::vector<std::string>& from,
                          const std::vector<std::string>& to) {
    double total = 0.0;
    for (const std::string& token : from) {
      JaroWinklerSimilarityBatch(token, to, &sims);
      double best = 0.0;
      for (double sim : sims) best = std::max(best, sim);
      total += best;
    }
    return total / static_cast<double>(from.size());
  };
  return (directed(a, b) + directed(b, a)) / 2.0;
}

double SoftTfIdfSimilarity(const std::vector<std::string>& a,
                           const std::vector<double>& weights_a,
                           const std::vector<std::string>& b,
                           const std::vector<double>& weights_b,
                           double theta) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  // CLOSE(θ; a, b): tokens of `a` with some token of `b` above θ; each
  // contributes w_a(t) · w_b(best) · sim(best).
  double dot = 0.0;
  std::vector<double> sims;
  for (size_t i = 0; i < a.size(); ++i) {
    JaroWinklerSimilarityBatch(a[i], b, &sims);
    double best_sim = 0.0;
    size_t best_j = 0;
    for (size_t j = 0; j < b.size(); ++j) {
      if (sims[j] > best_sim) {
        best_sim = sims[j];
        best_j = j;
      }
    }
    if (best_sim >= theta) {
      dot += weights_a[i] * weights_b[best_j] * best_sim;
    }
  }
  double norm_a = 0.0, norm_b = 0.0;
  for (double w : weights_a) norm_a += w * w;
  for (double w : weights_b) norm_b += w * w;
  if (norm_a <= 0.0 || norm_b <= 0.0) return 0.0;
  return dot / (std::sqrt(norm_a) * std::sqrt(norm_b));
}

}  // namespace gter
