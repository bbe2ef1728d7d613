#include "common/string_util.h"

#include <cctype>
#include <cstdlib>

namespace sqopt {

namespace {

bool IsSpace(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

}  // namespace

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() && IsSpace(s[begin])) ++begin;
  size_t end = s.size();
  while (end > begin && IsSpace(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string> Split(std::string_view s, char delim, bool trim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      std::string_view piece = s.substr(start, i - start);
      if (trim) piece = StripWhitespace(piece);
      out.emplace_back(piece);
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(
      std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool LooksLikeInteger(std::string_view s) {
  s = StripWhitespace(s);
  if (s.empty()) return false;
  size_t i = (s[0] == '+' || s[0] == '-') ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

bool LooksLikeDouble(std::string_view s) {
  s = StripWhitespace(s);
  if (s.empty()) return false;
  std::string buf(s);
  char* end = nullptr;
  std::strtod(buf.c_str(), &end);
  return end == buf.c_str() + buf.size();
}

}  // namespace sqopt
