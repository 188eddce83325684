#include "gter/text/tokenizer.h"

#include <sstream>

namespace gter {

std::vector<std::string> Tokenize(std::string_view text,
                                  const TokenizerOptions& options) {
  std::string normalized = Normalize(text, options.normalizer);
  std::vector<std::string> tokens;
  std::istringstream stream(normalized);
  std::string token;
  while (stream >> token) {
    if (token.size() >= options.min_token_length) {
      tokens.push_back(std::move(token));
    }
  }
  return tokens;
}

std::vector<std::string> Tokenize(std::string_view text) {
  return Tokenize(text, TokenizerOptions{});
}

}  // namespace gter
