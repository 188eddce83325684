// Property tests for LevenshteinDistance (Myers' bit-parallel algorithm)
// vs the classic row DP. The two must return IDENTICAL distances on every
// input — Myers computes the same dynamic program, 64 cells per machine
// word — so the whole contract is exact equality: 10k seeded random
// byte-string pairs (lengths 0..200, spanning the single-word / blocked
// switch at 64, with bytes above 127), plus crafted edge cases.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "gter/common/random.h"
#include "gter/text/string_metrics.h"

namespace gter {
namespace {

std::string RandomBytes(Rng* rng, size_t max_len) {
  const size_t len = rng->NextBounded(max_len + 1);
  std::string s(len, '\0');
  // Full byte range: exercises the unsigned-char Peq indexing (a signed
  // char would index negatively for bytes above 127).
  for (char& c : s) c = static_cast<char>(rng->NextBounded(256));
  return s;
}

/// A mutated copy of `base` — distances between related strings exercise
/// different DP bands than independent random pairs.
std::string Mutate(std::string s, Rng* rng) {
  const size_t edits = rng->NextBounded(8);
  for (size_t e = 0; e < edits && !s.empty(); ++e) {
    const size_t pos = rng->NextBounded(s.size());
    switch (rng->NextBounded(3)) {
      case 0:  // substitute
        s[pos] = static_cast<char>(rng->NextBounded(256));
        break;
      case 1:  // delete
        s.erase(pos, 1);
        break;
      default:  // insert
        s.insert(pos, 1, static_cast<char>(rng->NextBounded(256)));
        break;
    }
  }
  return s;
}

TEST(LevenshteinMyers, MatchesDpOnRandomPairs) {
  Rng rng(20180405);
  for (int i = 0; i < 5000; ++i) {
    // Lengths up to 200 cover 1-, 2-, and 4-block patterns.
    const std::string a = RandomBytes(&rng, 200);
    const std::string b = RandomBytes(&rng, 200);
    ASSERT_EQ(LevenshteinDistance(a, b), LevenshteinDistanceDp(a, b))
        << "random pair " << i << " |a|=" << a.size() << " |b|=" << b.size();
  }
}

TEST(LevenshteinMyers, MatchesDpOnMutatedPairs) {
  Rng rng(77);
  for (int i = 0; i < 5000; ++i) {
    const std::string a = RandomBytes(&rng, 150);
    const std::string b = Mutate(a, &rng);
    ASSERT_EQ(LevenshteinDistance(a, b), LevenshteinDistanceDp(a, b))
        << "mutated pair " << i;
  }
}

TEST(LevenshteinMyers, EmptyStrings) {
  EXPECT_EQ(LevenshteinDistance("", ""), 0u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
  const std::string long_one(300, 'x');
  EXPECT_EQ(LevenshteinDistance(long_one, ""), 300u);
}

TEST(LevenshteinMyers, EqualStrings) {
  EXPECT_EQ(LevenshteinDistance("a", "a"), 0u);
  const std::string s = "arnie mortons of chicago 435 s la cienega blvd";
  EXPECT_EQ(LevenshteinDistance(s, s), 0u);
  const std::string block_edge(64, 'q');
  EXPECT_EQ(LevenshteinDistance(block_edge, block_edge), 0u);
  const std::string multi_block(200, 'q');
  EXPECT_EQ(LevenshteinDistance(multi_block, multi_block), 0u);
}

TEST(LevenshteinMyers, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(LevenshteinDistance("abc", "abcd"), 1u);  // prefix
  EXPECT_EQ(LevenshteinDistance("abcd", "bcd"), 1u);  // suffix
}

TEST(LevenshteinMyers, Utf8BytesCountAsBytes) {
  // Both implementations are byte-level: "é" (2 bytes in UTF-8) vs "e"
  // costs 2 (one substitute + one delete), identically in both.
  const std::string accented = "caf\xc3\xa9";
  const std::string plain = "cafe";
  EXPECT_EQ(LevenshteinDistance(accented, plain),
            LevenshteinDistanceDp(accented, plain));
  EXPECT_EQ(LevenshteinDistance(accented, plain), 2u);
}

TEST(LevenshteinMyers, BlockBoundaryLengths) {
  // Pattern lengths straddling the 64-byte word boundary and multiples.
  Rng rng(3);
  for (size_t len : {63u, 64u, 65u, 127u, 128u, 129u, 192u}) {
    std::string a(len, 'a');
    for (char& c : a) c = static_cast<char>('a' + rng.NextBounded(4));
    const std::string b = Mutate(a, &rng);
    ASSERT_EQ(LevenshteinDistance(a, b), LevenshteinDistanceDp(a, b))
        << "len " << len;
  }
}

}  // namespace
}  // namespace gter
