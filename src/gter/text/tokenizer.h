#ifndef GTER_TEXT_TOKENIZER_H_
#define GTER_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

#include "gter/text/normalizer.h"

namespace gter {

/// Options for whitespace tokenization applied after normalization.
struct TokenizerOptions {
  NormalizerOptions normalizer;
  /// Tokens shorter than this are dropped (single characters are almost
  /// always noise in the benchmark domains).
  size_t min_token_length = 1;
};

/// Splits `text` into normalized tokens.
std::vector<std::string> Tokenize(std::string_view text,
                                  const TokenizerOptions& options);

/// Tokenizes with default options.
std::vector<std::string> Tokenize(std::string_view text);

}  // namespace gter

#endif  // GTER_TEXT_TOKENIZER_H_
