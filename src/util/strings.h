// Small string utilities shared by the policy parser, the HTTP substrate and
// the configuration readers.  All functions are pure and allocation-conscious.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gaa::util {

/// Strip ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// Split on a single character; empty fields are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// Split on runs of ASCII whitespace; no empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Case-insensitive ASCII comparison.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// ASCII lower-case copy.
std::string ToLower(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Join with separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Parse a decimal signed integer; rejects trailing garbage.
std::optional<std::int64_t> ParseInt(std::string_view s);

/// Parse a decimal double; rejects trailing garbage.
std::optional<double> ParseDouble(std::string_view s);

/// Percent-decode a URL component ("%2e" -> "."); returns nullopt on bad
/// escapes.  Used both by the HTTP parser and by attack-signature tests.
std::optional<std::string> UrlDecode(std::string_view s);

/// Count occurrences of `ch` in `s` (DoS signature: many '/' characters).
std::size_t CountChar(std::string_view s, char ch);

/// Replace all occurrences of `from` with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// True if every byte is printable ASCII (0x20..0x7e).  Ill-formed request
/// detection uses this.
bool IsPrintableAscii(std::string_view s);

/// Append `text` to `out` escaped for the inside of a JSON string literal:
/// `"`, `\`, `\n`, `\r` and `\t` get their short escapes, every other
/// control byte a `\u00XX` one.  Safe for untrusted bytes (e.g. names read
/// from another process's shared memory).
void AppendJsonEscaped(std::string_view text, std::string* out);

/// Standard base64 (RFC 4648) — used by HTTP Basic authentication.
std::string Base64Encode(std::string_view data);
std::optional<std::string> Base64Decode(std::string_view encoded);

}  // namespace gaa::util
