#pragma once
// Small string helpers shared by the CLI and report formatting.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rooftune::util {

/// Split on a delimiter; empty fields are preserved.
std::vector<std::string> split(const std::string& text, char delimiter);

/// Strip leading/trailing ASCII whitespace.
std::string trim(const std::string& text);

/// ASCII lowercase copy.
std::string to_lower(const std::string& text);

bool starts_with(const std::string& text, const std::string& prefix);

/// printf-style formatting into std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// "1234567.8" → "1,234,567.8" (thousands separators for report tables).
std::string with_thousands(double value, int decimals);

// Report cells appended in place, each what snprintf would print for the
// spec named, without a format string to interpret per cell.

/// `text` left-aligned in `width` columns: "%-*s".
void append_left(std::string& out, std::string_view text, std::size_t width);

/// `text` right-aligned in `width` columns: "%*s".
void append_right(std::string& out, std::string_view text, std::size_t width);

/// `value` right-aligned in `width` columns: "%*llu" (width 0: "%llu").
void append_uint(std::string& out, unsigned long long value, std::size_t width);

/// `value` with `precision` (at most 200) decimals, right-aligned in
/// `width` columns: "%*.*f".
void append_fixed(std::string& out, double value, std::size_t width, int precision);

/// A whole file's bytes, read into one string sized up front; nullopt when
/// the file cannot be opened or read (each caller words its own error).
std::optional<std::string> read_text_file(const std::string& path);

/// Replace the file at `path` with `text`; false when it cannot be opened,
/// or when writing or closing it fails (a full disk, /dev/full), so a
/// caller never reports a file it did not write (each caller words its own
/// error).
[[nodiscard]] bool write_text_file(const std::string& path, std::string_view text);

}  // namespace rooftune::util
