#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace rooftune::util {

std::vector<std::string> split(const std::string& text, char delimiter) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : text) {
    if (c == delimiter) {
      parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  parts.push_back(current);
  return parts;
}

std::string trim(const std::string& text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

std::string to_lower(const std::string& text) {
  std::string out = text;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

void append_left(std::string& out, std::string_view text, std::size_t width) {
  out += text;
  if (text.size() < width) out.append(width - text.size(), ' ');
}

void append_right(std::string& out, std::string_view text, std::size_t width) {
  if (text.size() < width) out.append(width - text.size(), ' ');
  out += text;
}

void append_uint(std::string& out, unsigned long long value, std::size_t width) {
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof buf, value).ptr;
  append_right(out, std::string_view(buf, static_cast<std::size_t>(end - buf)), width);
}

void append_fixed(std::string& out, double value, std::size_t width, int precision) {
  // DBL_MAX has 309 integral digits; a sign, a point and up to 200
  // decimals fit.
  char buf[512];
  const char* end =
      std::to_chars(buf, buf + sizeof buf, value, std::chars_format::fixed, precision).ptr;
  append_right(out, std::string_view(buf, static_cast<std::size_t>(end - buf)), width);
}

bool starts_with(const std::string& text, const std::string& prefix) {
  return text.size() >= prefix.size() && text.compare(0, prefix.size(), prefix) == 0;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(out.data(), out.size(), fmt, args);
    out.resize(static_cast<std::size_t>(needed));
  }
  va_end(args);
  return out;
}

std::string with_thousands(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  std::string digits = buf;
  const std::size_t dot = digits.find('.');
  std::size_t int_end = (dot == std::string::npos) ? digits.size() : dot;
  std::size_t int_begin = (!digits.empty() && digits[0] == '-') ? 1 : 0;
  std::string out = digits.substr(0, int_begin);
  const std::size_t n = int_end - int_begin;
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0 && (n - i) % 3 == 0) out += ',';
    out += digits[int_begin + i];
  }
  out += digits.substr(int_end);
  return out;
}

std::optional<std::string> read_text_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  std::string text;
  if (std::fseek(file, 0, SEEK_END) == 0) {
    const long size = std::ftell(file);
    if (size > 0) text.resize(static_cast<std::size_t>(size));
    std::rewind(file);
  }
  text.resize(std::fread(text.data(), 1, text.size(), file));
  // Whatever an unsized (or growing) file holds past the size read above.
  char chunk[1 << 14];
  for (std::size_t n; (n = std::fread(chunk, 1, sizeof chunk, file)) > 0;) {
    text.append(chunk, n);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) return std::nullopt;
  return text;
}

bool write_text_file(const std::string& path, std::string_view text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const bool written = std::fwrite(text.data(), 1, text.size(), file) == text.size();
  // fclose flushes the stdio buffer: a short write can surface only here.
  const bool closed = std::fclose(file) == 0;
  return written && closed;
}

}  // namespace rooftune::util
