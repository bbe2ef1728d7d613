// Small string helpers shared across the library (no dependency on any
// other sqopt module).
#ifndef SQOPT_COMMON_STRING_UTIL_H_
#define SQOPT_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace sqopt {

// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

// Splits `s` on `delim`, optionally trimming each piece. Empty pieces are
// kept (callers that don't want them can filter).
std::vector<std::string> Split(std::string_view s, char delim,
                               bool trim = true);

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

// True if `s` begins with the given prefix.
bool StartsWith(std::string_view s, std::string_view prefix);

// ASCII lowercase copy.
std::string ToLower(std::string_view s);

// True if `s` parses fully as a signed integer / floating point literal.
bool LooksLikeInteger(std::string_view s);
bool LooksLikeDouble(std::string_view s);

}  // namespace sqopt

#endif  // SQOPT_COMMON_STRING_UTIL_H_
