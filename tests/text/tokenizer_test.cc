#include "gter/text/tokenizer.h"

#include <gtest/gtest.h>

namespace gter {
namespace {

TEST(TokenizerTest, SplitsOnWhitespaceAfterNormalization) {
  auto tokens = Tokenize("Golden Dragon, 123 Main St.");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0], "golden");
  EXPECT_EQ(tokens[1], "dragon");
  EXPECT_EQ(tokens[2], "123");
  EXPECT_EQ(tokens[4], "st");
}

TEST(TokenizerTest, EmptyStringYieldsNoTokens) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("   ...  ").empty());
}

TEST(TokenizerTest, MinTokenLengthFilters) {
  TokenizerOptions options;
  options.min_token_length = 2;
  auto tokens = Tokenize("a bc def g", options);
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "bc");
  EXPECT_EQ(tokens[1], "def");
}

TEST(TokenizerTest, DuplicatesPreserved) {
  auto tokens = Tokenize("la la land");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], tokens[1]);
}

}  // namespace
}  // namespace gter
