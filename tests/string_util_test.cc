#include "common/string_util.h"

#include <gtest/gtest.h>

namespace sqopt {
namespace {

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b  "), "a b");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace("\tx\n"), "x");
  EXPECT_EQ(StripWhitespace("no-trim"), "no-trim");
}

TEST(StringUtilTest, SplitBasic) {
  std::vector<std::string> parts = Split("a, b , c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  std::vector<std::string> parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringUtilTest, SplitNoTrim) {
  std::vector<std::string> parts = Split(" a ,b", ',', /*trim=*/false);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], " a ");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("select x", "select"));
  EXPECT_FALSE(StartsWith("sel", "select"));
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToLower("123-X"), "123-x");
}

TEST(StringUtilTest, LooksLikeInteger) {
  EXPECT_TRUE(LooksLikeInteger("42"));
  EXPECT_TRUE(LooksLikeInteger("-7"));
  EXPECT_TRUE(LooksLikeInteger("+3"));
  EXPECT_FALSE(LooksLikeInteger("4.2"));
  EXPECT_FALSE(LooksLikeInteger("x"));
  EXPECT_FALSE(LooksLikeInteger(""));
  EXPECT_FALSE(LooksLikeInteger("-"));
}

TEST(StringUtilTest, LooksLikeDouble) {
  EXPECT_TRUE(LooksLikeDouble("4.2"));
  EXPECT_TRUE(LooksLikeDouble("-0.5"));
  EXPECT_TRUE(LooksLikeDouble("1e3"));
  EXPECT_TRUE(LooksLikeDouble("42"));  // integers are valid doubles
  EXPECT_FALSE(LooksLikeDouble("abc"));
  EXPECT_FALSE(LooksLikeDouble("1.2.3"));
}

}  // namespace
}  // namespace sqopt
