#include "serve/protocol.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string_view>

namespace texrheo::serve {
namespace {

/// Parses all of `token` as a decimal T. Rejects '+', '-' for an unsigned
/// T, any other character, and values T cannot hold. A floating T reads
/// fixed or scientific notation only (no hex), and a value that overflows
/// or underflows is rejected; "inf" and "nan" parse, for the caller to
/// refuse.
template <typename T>
bool ParseWholeDecimal(std::string_view token, T* value) {
  const char* last = token.data() + token.size();
  auto [end, ec] = std::from_chars(token.data(), last, *value);
  return ec == std::errc() && end == last;
}

}  // namespace

std::vector<std::string> SplitProtocolTokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(std::move(token));
  return tokens;
}

std::vector<std::string> SplitCommaList(const std::string& s) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) parts.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

StatusOr<std::vector<std::pair<std::string, double>>> ParseIngredientSpec(
    const std::string& spec) {
  std::vector<std::pair<std::string, double>> out;
  if (spec == "-") return out;
  for (const std::string& part : SplitCommaList(spec)) {
    size_t eq = part.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("expected name=ratio, got '" + part +
                                     "'");
    }
    double value = 0.0;
    if (!ParseWholeDecimal(std::string_view(part).substr(eq + 1), &value) ||
        !std::isfinite(value)) {
      return Status::InvalidArgument("bad ratio in '" + part + "'");
    }
    out.emplace_back(part.substr(0, eq), value);
  }
  return out;
}

StatusOr<TextureQuery> ParseQueryCommand(
    const std::vector<std::string>& tokens, size_t* top_n,
    SimilarityMode* mode) {
  if (tokens.size() < 2) {
    return Status::InvalidArgument(
        "usage: " + tokens[0] +
        " <name=ratio,...|-> [terms=a,b]" +
        (top_n != nullptr ? " [n=N] [mode=kl|embed|lexical|fused]" : ""));
  }
  std::vector<std::string> terms;
  if (top_n != nullptr) *top_n = 0;
  for (size_t i = 2; i < tokens.size(); ++i) {
    const std::string& opt = tokens[i];
    if (opt.rfind("terms=", 0) == 0) {
      terms = SplitCommaList(opt.substr(6));
    } else if (top_n != nullptr && opt.rfind("n=", 0) == 0) {
      uint32_t n = 0;
      if (!ParseWholeDecimal(std::string_view(opt).substr(2), &n)) {
        return Status::InvalidArgument(
            "n= takes a whole decimal count below 2^32, got '" + opt + "'");
      }
      *top_n = n;
    } else if (mode != nullptr && opt.rfind("mode=", 0) == 0) {
      TEXRHEO_ASSIGN_OR_RETURN(*mode, ParseSimilarityMode(opt.substr(5)));
    } else {
      return Status::InvalidArgument("unknown option '" + opt + "'");
    }
  }
  TEXRHEO_ASSIGN_OR_RETURN(auto ingredients, ParseIngredientSpec(tokens[1]));
  return QueryFromIngredients(ingredients, std::move(terms));
}

StatusOr<int> ParseTopicIndex(const std::string& token) {
  int topic = 0;
  if (!ParseWholeDecimal(token, &topic)) {
    return Status::InvalidArgument("bad topic index '" + token + "'");
  }
  return topic;
}

StatusOr<core::LinkageMethod> ParseLinkageMethod(const std::string& name) {
  if (name == "gaussian-kl") return core::LinkageMethod::kGaussianKL;
  if (name == "neg-log-density") return core::LinkageMethod::kNegLogDensity;
  if (name == "mahalanobis") return core::LinkageMethod::kMahalanobis;
  if (name == "euclidean") return core::LinkageMethod::kEuclidean;
  return Status::InvalidArgument("unknown linkage method '" + name + "'");
}

void AppendFixed(std::string* out, const char* fmt, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), fmt, v);
  *out += buf;
}

}  // namespace texrheo::serve
