#ifndef TEXRHEO_SERVE_PROTOCOL_H_
#define TEXRHEO_SERVE_PROTOCOL_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "core/linkage.h"
#include "serve/query_engine.h"
#include "util/status.h"

namespace texrheo::serve {

/// Text-level parsing of the line protocol (see server.h for the grammar).
/// Shared by the replica server (which executes commands against a
/// QueryEngine) and the router front tier (which parses just enough of a
/// command to compute its routing key and forwards the line verbatim) —
/// one grammar, two consumers, zero drift.

/// Parses all of `token` as a decimal T. Rejects '+', '-' for an unsigned
/// T, any other character (leading whitespace included), and values T
/// cannot hold. A floating T reads fixed or scientific notation only (no
/// hex), and a value that overflows or underflows to zero is rejected,
/// while a subnormal one parses exactly; "inf" and "nan" parse, for the
/// caller to refuse. The wire's ratios and counts and the ingest record's
/// ratios all parse through this.
template <typename T>
bool ParseWholeDecimal(std::string_view token, T* value) {
  const char* last = token.data() + token.size();
  auto [end, ec] = std::from_chars(token.data(), last, *value);
  return ec == std::errc() && end == last;
}

/// Parses all of `token` as a ratio's number: a finite ParseWholeDecimal
/// double whose sign bit is clear. "-0" is refused with every other
/// signed value: it reads as -0.0, which `< 0.0` lets through and which
/// prints back as "-0". The wire's ratios and the ingest record's ratios
/// both parse through this; the callers bound the value above.
bool ParseRatio(std::string_view token, double* value);

/// Whitespace-splits one protocol line into tokens.
std::vector<std::string> SplitProtocolTokens(const std::string& line);

/// Splits "a,b,c" into parts; empty segments are dropped.
std::vector<std::string> SplitCommaList(const std::string& s);

/// Parses "name=ratio,name=ratio" ("-" = none) into ingredient pairs.
StatusOr<std::vector<std::pair<std::string, double>>> ParseIngredientSpec(
    const std::string& spec);

/// Builds a TextureQuery from positional <ingredients> plus key=value
/// options (terms=..., n=..., mode=...). `top_n` (optional) receives n=
/// when the command supports it (SIMILAR); 0 = unset. `mode` (optional)
/// receives mode= the same way and is left untouched when absent, so the
/// caller's default (kl) survives; commands that pass nullptr (PREDICT)
/// reject mode= as an unknown option.
StatusOr<TextureQuery> ParseQueryCommand(
    const std::vector<std::string>& tokens, size_t* top_n,
    SimilarityMode* mode = nullptr);

/// Parses a topic index argument.
StatusOr<int> ParseTopicIndex(const std::string& token);

/// Parses a NEAREST method= value.
StatusOr<core::LinkageMethod> ParseLinkageMethod(const std::string& name);

/// Appends `v` in fixed notation with `precision` (0 to 17) decimals, as
/// printf's "%.*f" in the "C" locale writes it (reply fields). Every finite
/// value keeps all its integer digits.
void AppendFixed(std::string* out, double v, int precision);

}  // namespace texrheo::serve

#endif  // TEXRHEO_SERVE_PROTOCOL_H_
