#include "util/strings.h"

#include <gtest/gtest.h>

namespace gaa::util {
namespace {

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(Trim("  hello \t\r\n"), "hello");
  EXPECT_EQ(Trim("hello"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t "), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(Split, KeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Split, SingleFieldWithoutSeparator) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(SplitWhitespace, CollapsesRuns) {
  auto parts = SplitWhitespace("  a \t b\n\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitWhitespace, EmptyAndBlank) {
  EXPECT_TRUE(SplitWhitespace("").empty());
  EXPECT_TRUE(SplitWhitespace("   \t\n").empty());
}

TEST(EqualsIgnoreCase, Basics) {
  EXPECT_TRUE(EqualsIgnoreCase("Order", "ORDER"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abcd"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
}

TEST(ToLowerStartsEnds, Basics) {
  EXPECT_EQ(ToLower("MiXeD123"), "mixed123");
  EXPECT_TRUE(StartsWith("pre_cond_time", "pre_cond_"));
  EXPECT_FALSE(StartsWith("pre", "pre_cond_"));
  EXPECT_TRUE(EndsWith("file.html", ".html"));
  EXPECT_FALSE(EndsWith("html", ".html"));
}

TEST(Join, Basics) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(ParseInt, AcceptsAndRejects) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt("-7").value(), -7);
  EXPECT_EQ(ParseInt(" 13 ").value(), 13);
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("12x").has_value());
  EXPECT_FALSE(ParseInt("4 2").has_value());
}

TEST(ParseDouble, AcceptsAndRejects) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-0.25").value(), -0.25);
  EXPECT_FALSE(ParseDouble("abc").has_value());
  EXPECT_FALSE(ParseDouble("1.2.3").has_value());
}

TEST(UrlDecode, DecodesEscapes) {
  EXPECT_EQ(UrlDecode("%2Fetc%2Fpasswd").value(), "/etc/passwd");
  EXPECT_EQ(UrlDecode("a+b").value(), "a b");
  EXPECT_EQ(UrlDecode("plain").value(), "plain");
  EXPECT_EQ(UrlDecode("x%0Ay").value(), "x\ny");
}

TEST(UrlDecode, RejectsMalformedEscapes) {
  EXPECT_FALSE(UrlDecode("%").has_value());
  EXPECT_FALSE(UrlDecode("%2").has_value());
  EXPECT_FALSE(UrlDecode("%zz").has_value());
  EXPECT_FALSE(UrlDecode("abc%").has_value());
}

TEST(CountChar, CountsSlashes) {
  EXPECT_EQ(CountChar("///a//", '/'), 5u);
  EXPECT_EQ(CountChar("", '/'), 0u);
}

TEST(ReplaceAll, Basics) {
  EXPECT_EQ(ReplaceAll("a%ip-b%ip", "%ip", "1.2.3.4"), "a1.2.3.4-b1.2.3.4");
  EXPECT_EQ(ReplaceAll("abc", "x", "y"), "abc");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");  // non-overlapping
}

TEST(IsPrintableAscii, DetectsControlBytes) {
  EXPECT_TRUE(IsPrintableAscii("GET / HTTP/1.1"));
  EXPECT_FALSE(IsPrintableAscii(std::string("a\x01b")));
  EXPECT_FALSE(IsPrintableAscii("caf\xc3\xa9"));
}

TEST(Base64, EncodeKnownVectors) {
  EXPECT_EQ(Base64Encode(""), "");
  EXPECT_EQ(Base64Encode("f"), "Zg==");
  EXPECT_EQ(Base64Encode("fo"), "Zm8=");
  EXPECT_EQ(Base64Encode("foo"), "Zm9v");
  EXPECT_EQ(Base64Encode("foobar"), "Zm9vYmFy");
  EXPECT_EQ(Base64Encode("alice:wonder"), "YWxpY2U6d29uZGVy");
}

TEST(Base64, DecodeKnownVectors) {
  EXPECT_EQ(Base64Decode("Zm9vYmFy").value(), "foobar");
  EXPECT_EQ(Base64Decode("Zg==").value(), "f");
  EXPECT_EQ(Base64Decode("").value(), "");
}

TEST(Base64, RejectsGarbage) {
  EXPECT_FALSE(Base64Decode("a").has_value());       // bad length
  EXPECT_FALSE(Base64Decode("a!aa").has_value());    // bad character
  EXPECT_FALSE(Base64Decode("=aaa").has_value());    // padding first
  EXPECT_FALSE(Base64Decode("ab=c").has_value());    // data after padding
}

TEST(AppendJsonEscaped, EscapesQuotesBackslashesAndControlBytes) {
  std::string out = "[";
  AppendJsonEscaped("a\"b\\c\nd\re\tf\x01g", &out);
  EXPECT_EQ(out, "[a\\\"b\\\\c\\nd\\re\\tf\\u0001g");
}

// Property: decode(encode(x)) == x over assorted binary strings.
class Base64RoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(Base64RoundTrip, Identity) {
  int seed = GetParam();
  std::string data;
  for (int i = 0; i < seed * 7 + 1; ++i) {
    data.push_back(static_cast<char>((seed * 131 + i * 17) & 0xff));
  }
  auto round = Base64Decode(Base64Encode(data));
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(*round, data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Base64RoundTrip, ::testing::Range(0, 24));

}  // namespace
}  // namespace gaa::util
