#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace gaa::util {

namespace {
bool IsSpaceByte(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' ||
         c == '\v';
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string_view Trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && IsSpaceByte(s[b])) ++b;
  while (e > b && IsSpaceByte(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && IsSpaceByte(s[i])) ++i;
    std::size_t start = i;
    while (i < s.size() && !IsSpaceByte(s[i])) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  }
  return true;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::optional<std::int64_t> ParseInt(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return std::nullopt;
  std::int64_t value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

std::optional<double> ParseDouble(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return std::nullopt;
  std::string buf(s);
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  return value;
}

std::optional<std::string> UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '%') {
      if (i + 2 >= s.size()) return std::nullopt;
      int hi = HexDigit(s[i + 1]);
      int lo = HexDigit(s[i + 2]);
      if (hi < 0 || lo < 0) return std::nullopt;
      out.push_back(static_cast<char>(hi * 16 + lo));
      i += 2;
    } else if (c == '+') {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::size_t CountChar(std::string_view s, char ch) {
  std::size_t n = 0;
  for (char c : s)
    if (c == ch) ++n;
  return n;
}

std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t hit = s.find(from, pos);
    if (hit == std::string_view::npos) {
      out.append(s.substr(pos));
      break;
    }
    out.append(s.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
  return out;
}

namespace {
constexpr char kB64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

int B64Value(char c) {
  if (c >= 'A' && c <= 'Z') return c - 'A';
  if (c >= 'a' && c <= 'z') return c - 'a' + 26;
  if (c >= '0' && c <= '9') return c - '0' + 52;
  if (c == '+') return 62;
  if (c == '/') return 63;
  return -1;
}
}  // namespace

void AppendJsonEscaped(std::string_view text, std::string* out) {
  for (char c : text) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

std::string Base64Encode(std::string_view data) {
  std::string out;
  out.reserve((data.size() + 2) / 3 * 4);
  std::size_t i = 0;
  while (i + 3 <= data.size()) {
    unsigned v = (static_cast<unsigned char>(data[i]) << 16) |
                 (static_cast<unsigned char>(data[i + 1]) << 8) |
                 static_cast<unsigned char>(data[i + 2]);
    out.push_back(kB64Alphabet[(v >> 18) & 63]);
    out.push_back(kB64Alphabet[(v >> 12) & 63]);
    out.push_back(kB64Alphabet[(v >> 6) & 63]);
    out.push_back(kB64Alphabet[v & 63]);
    i += 3;
  }
  std::size_t rem = data.size() - i;
  if (rem == 1) {
    unsigned v = static_cast<unsigned char>(data[i]) << 16;
    out.push_back(kB64Alphabet[(v >> 18) & 63]);
    out.push_back(kB64Alphabet[(v >> 12) & 63]);
    out.append("==");
  } else if (rem == 2) {
    unsigned v = (static_cast<unsigned char>(data[i]) << 16) |
                 (static_cast<unsigned char>(data[i + 1]) << 8);
    out.push_back(kB64Alphabet[(v >> 18) & 63]);
    out.push_back(kB64Alphabet[(v >> 12) & 63]);
    out.push_back(kB64Alphabet[(v >> 6) & 63]);
    out.push_back('=');
  }
  return out;
}

std::optional<std::string> Base64Decode(std::string_view encoded) {
  if (encoded.size() % 4 != 0) return std::nullopt;
  std::string out;
  out.reserve(encoded.size() / 4 * 3);
  for (std::size_t i = 0; i < encoded.size(); i += 4) {
    int pad = 0;
    unsigned v = 0;
    for (int j = 0; j < 4; ++j) {
      char c = encoded[i + j];
      if (c == '=') {
        // Padding is only legal in the last two positions of the last group.
        if (i + 4 != encoded.size() || j < 2) return std::nullopt;
        ++pad;
        v <<= 6;
        continue;
      }
      if (pad > 0) return std::nullopt;  // data after padding
      int d = B64Value(c);
      if (d < 0) return std::nullopt;
      v = (v << 6) | static_cast<unsigned>(d);
    }
    out.push_back(static_cast<char>((v >> 16) & 0xff));
    if (pad < 2) out.push_back(static_cast<char>((v >> 8) & 0xff));
    if (pad < 1) out.push_back(static_cast<char>(v & 0xff));
  }
  return out;
}

bool IsPrintableAscii(std::string_view s) {
  for (char c : s) {
    auto u = static_cast<unsigned char>(c);
    if (u < 0x20 || u > 0x7e) return false;
  }
  return true;
}

}  // namespace gaa::util
