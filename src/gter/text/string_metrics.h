#ifndef GTER_TEXT_STRING_METRICS_H_
#define GTER_TEXT_STRING_METRICS_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace gter {

/// Classic string metrics used by the distance-based baselines (§II-A of the
/// paper) and as features for the learning-based analogues.
///
/// All similarity functions return values in [0, 1]; distances return raw
/// edit counts.

/// Levenshtein edit distance (insert/delete/substitute, unit costs) by
/// Myers/Hyyrö's bit-parallel algorithm: O(|a|·⌈|b|/64⌉) time. It computes
/// the classic DP exactly, 64 cells per word, over bytes (UTF-8 included —
/// both count byte edits); the "simd"-labelled property tests pin it to
/// `LevenshteinDistanceDp` over randomized byte strings.
size_t LevenshteinDistance(std::string_view a, std::string_view b);

/// Classic row DP: O(|a|·|b|) time, O(min(|a|,|b|)) space. The reference
/// implementation the tests check `LevenshteinDistance` against.
size_t LevenshteinDistanceDp(std::string_view a, std::string_view b);

/// 1 - distance / max(|a|, |b|); 1.0 for two empty strings.
double LevenshteinSimilarity(std::string_view a, std::string_view b);

/// Jaro similarity in [0, 1].
double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro–Winkler similarity with prefix scale (default 0.1, max prefix 4).
double JaroWinklerSimilarity(std::string_view a, std::string_view b,
                             double prefix_scale = 0.1);

/// Batched Jaro–Winkler: out[j] = JaroWinklerSimilarity(a, b[j]). One
/// internal match-flag scratch is reused across the whole batch, replacing
/// the two `vector<bool>` allocations the per-call entry point pays per
/// comparison. Results are bit-identical to the per-call function; this is
/// what the token-set metrics (Monge–Elkan, SoftTFIDF) and pair scoring
/// call in their best-match inner loops. `out` is resized to b.size().
void JaroWinklerSimilarityBatch(std::string_view a,
                                const std::vector<std::string>& b,
                                std::vector<double>* out,
                                double prefix_scale = 0.1);

/// Token-set Jaccard similarity |A∩B| / |A∪B|; 1.0 for two empty sets.
/// Token vectors MUST be sorted and deduplicated (Dataset stores them so).
double JaccardSimilarity(const std::vector<uint32_t>& a,
                         const std::vector<uint32_t>& b);

/// Overlap coefficient |A∩B| / min(|A|, |B|); tokens sorted & deduplicated.
double OverlapCoefficient(const std::vector<uint32_t>& a,
                          const std::vector<uint32_t>& b);

/// Dice coefficient 2|A∩B| / (|A|+|B|); tokens sorted & deduplicated.
double DiceCoefficient(const std::vector<uint32_t>& a,
                       const std::vector<uint32_t>& b);

/// Size of the intersection of two sorted, deduplicated id vectors.
size_t SortedIntersectionSize(const std::vector<uint32_t>& a,
                              const std::vector<uint32_t>& b);

/// Intersection of two sorted, deduplicated id vectors.
std::vector<uint32_t> SortedIntersection(const std::vector<uint32_t>& a,
                                         const std::vector<uint32_t>& b);

/// Jaccard over character 3-gram multisets of raw strings — a typo-robust
/// metric used in ML feature vectors.
double TrigramJaccard(std::string_view a, std::string_view b);

/// Monge–Elkan hybrid similarity [Monge & Elkan 1996, the paper's ref 1]:
/// mean over tokens of `a` of the best Jaro–Winkler match in `b`,
/// symmetrized by averaging both directions. Tolerant of token reordering
/// and per-token typos. Returns 1 for two empty token lists.
double MongeElkanSimilarity(const std::vector<std::string>& a,
                            const std::vector<std::string>& b);

/// SoftTFIDF [Cohen, Ravikumar & Fienberg 2003, the paper's ref 15] —
/// the strongest name-matching metric of their comparison: a TF-IDF cosine
/// where tokens also match approximately (Jaro–Winkler above `theta`),
/// weighted by their similarity.
///
/// `weights_a`/`weights_b` are the normalized per-token TF-IDF weights
/// parallel to the token lists.
double SoftTfIdfSimilarity(const std::vector<std::string>& a,
                           const std::vector<double>& weights_a,
                           const std::vector<std::string>& b,
                           const std::vector<double>& weights_b,
                           double theta = 0.9);

namespace internal {
#if GTER_HAVE_AVX512
/// Mask-parallel Jaro–Winkler (string_metrics_avx512.cc): `b` lives in one
/// byte-masked zmm, each a[i] scans its match window with a 64-bit compare
/// mask, and the first unmatched equal char falls out of a tzcnt — the same
/// (i, j) pairing as the scalar window walk, so the result is bit-identical
/// to JaroWinklerSimilarity. Requires |a| ≤ 64 and |b| ≤ 64.
double JaroWinklerAvx512(std::string_view a, std::string_view b,
                         double prefix_scale);
#endif
}  // namespace internal

}  // namespace gter

#endif  // GTER_TEXT_STRING_METRICS_H_
