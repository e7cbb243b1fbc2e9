#ifndef CLOUDYBENCH_UTIL_STRING_UTIL_H_
#define CLOUDYBENCH_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace cloudybench::util {

/// Removes leading and trailing whitespace.
std::string_view TrimView(std::string_view s);
std::string Trim(std::string_view s);

/// Splits on `sep`, trimming each piece; empty pieces are kept.
std::vector<std::string> Split(std::string_view s, char sep);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

std::string ToLower(std::string_view s);

/// Parses integers/doubles/bools with explicit success reporting (no
/// exceptions). Returns false and leaves *out untouched on failure.
bool ParseInt64(std::string_view s, int64_t* out);
bool ParseDouble(std::string_view s, double* out);
bool ParseBool(std::string_view s, bool* out);

/// printf-style formatting into std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Human formatting used throughout bench output: 12345.678 -> "12345.7".
std::string FormatDouble(double v, int precision);

/// Formats bytes as "128MB", "10GB", etc.
std::string FormatBytes(int64_t bytes);

/// Escapes `s` for use inside a JSON string literal: quote, backslash,
/// \n and \t get their short escapes, other control characters \u00XX.
std::string JsonEscape(std::string_view s);

}  // namespace cloudybench::util

#endif  // CLOUDYBENCH_UTIL_STRING_UTIL_H_
