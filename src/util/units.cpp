#include "util/units.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace rooftune::util {

Bytes parse_bytes(const std::string& text) {
  if (text.empty()) throw std::invalid_argument("parse_bytes: empty string");

  // Leading whitespace and '+' are accepted, as strtod does.
  std::size_t pos = 0;
  while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) ++pos;
  if (pos < text.size() && text[pos] == '+') ++pos;
  double magnitude = 0.0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data() + pos, last, magnitude);
  if (ec != std::errc()) {
    throw std::invalid_argument("parse_bytes: no leading number in '" + text + "'");
  }
  pos = static_cast<std::size_t>(end - text.data());
  if (magnitude < 0.0) throw std::invalid_argument("parse_bytes: negative size '" + text + "'");

  while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) ++pos;
  std::string suffix = text.substr(pos);

  double scale = 1.0;
  if (suffix.empty() || suffix == "B" || suffix == "b") {
    scale = 1.0;
  } else if (suffix == "K" || suffix == "KiB" || suffix == "kiB" || suffix == "k") {
    scale = 1024.0;
  } else if (suffix == "M" || suffix == "MiB" || suffix == "m") {
    scale = 1024.0 * 1024.0;
  } else if (suffix == "G" || suffix == "GiB" || suffix == "g") {
    scale = 1024.0 * 1024.0 * 1024.0;
  } else {
    throw std::invalid_argument("parse_bytes: unknown suffix '" + suffix + "'");
  }
  // from_chars reads "nan" and "inf", and a large magnitude times its
  // scale can pass 2^64: neither is a byte count.
  const double bytes = std::round(magnitude * scale);
  if (!std::isfinite(bytes) || bytes >= 18446744073709551616.0) {
    throw std::invalid_argument("parse_bytes: size '" + text + "' is out of range");
  }
  return Bytes{static_cast<std::uint64_t>(bytes)};
}

std::string format_bytes(Bytes b) {
  const double v = static_cast<double>(b.value);
  char buf[64];
  if (b.value >= Bytes::GiB(1).value) {
    std::snprintf(buf, sizeof buf, "%.1f GiB", v / (1024.0 * 1024.0 * 1024.0));
  } else if (b.value >= Bytes::MiB(1).value) {
    std::snprintf(buf, sizeof buf, "%.1f MiB", v / (1024.0 * 1024.0));
  } else if (b.value >= Bytes::KiB(1).value) {
    std::snprintf(buf, sizeof buf, "%.1f KiB", v / 1024.0);
  } else {
    std::snprintf(buf, sizeof buf, "%llu B", static_cast<unsigned long long>(b.value));
  }
  return buf;
}

std::string format_seconds(Seconds s) {
  char buf[64];
  const double v = s.value;
  if (v < 0.0) {
    std::string out = format_seconds(Seconds{-v});
    out.insert(out.begin(), '-');
    return out;
  }
  if (v < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.1fus", v * 1e6);
  } else if (v < 1.0) {
    std::snprintf(buf, sizeof buf, "%.2fms", v * 1e3);
  } else if (v < 120.0) {
    std::snprintf(buf, sizeof buf, "%.2fs", v);
  } else {
    const auto whole = static_cast<long>(v);
    std::snprintf(buf, sizeof buf, "%ldm%02lds", whole / 60, whole % 60);
  }
  return buf;
}

}  // namespace rooftune::util
