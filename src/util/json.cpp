#include "util/json.hpp"

#include <charconv>
#include <cmath>

namespace rooftune::util {

namespace {

/// Append `raw` to `out` with JSON string escapes; runs of bytes that need
/// none (multi-byte UTF-8 included) are appended whole.
void append_escaped(std::string& out, std::string_view raw) {
  static constexpr char kHex[] = "0123456789abcdef";
  const char* run = raw.data();
  const char* const end = run + raw.size();
  for (const char* p = run; p != end; ++p) {
    const auto c = static_cast<unsigned char>(*p);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(run, static_cast<std::size_t>(p - run));
    run = p + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(u, sizeof u);
      }
    }
  }
  out.append(run, static_cast<std::size_t>(end - run));
}

template <typename Int>
void append_integer(std::string& out, Int v) {
  char buf[24];  // 20 digits and a sign
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace

void JsonWriter::before_value() {
  if (after_key_) {
    after_key_ = false;
    return;  // value directly follows "key":
  }
  if (depth_ > 0) {
    if (needs_comma_) out_ += ',';
    needs_comma_ = true;
  }
}

void JsonWriter::open(char bracket) {
  before_value();
  out_ += bracket;
  ++depth_;
  needs_comma_ = false;
}

void JsonWriter::close(char bracket) {
  out_ += bracket;
  --depth_;
  needs_comma_ = true;
}

JsonWriter& JsonWriter::begin_object() {
  open('{');
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  close('}');
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  open('[');
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  close(']');
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  before_value();
  out_ += '"';
  append_escaped(out_, name);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  out_ += '"';
  append_escaped(out_, v);
  out_ += '"';
  return *this;
}

void JsonWriter::number(double v, int precision) {
  before_value();
  if (!std::isfinite(v)) {
    out_ += "null";  // JSON has no Inf/NaN
    return;
  }
  char buf[32];  // "-d.dddddddddddddddde-308" at precision 17
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::general, precision)
                       .ptr);
}

JsonWriter& JsonWriter::value(double v) {
  number(v, 12);
  return *this;
}

JsonWriter& JsonWriter::value_exact(double v) {
  number(v, 17);
  return *this;
}

JsonWriter& JsonWriter::raw_value(std::string_view json) {
  before_value();
  out_ += json;
  return *this;
}

JsonWriter& JsonWriter::line_break() {
  out_ += '\n';
  return *this;
}

JsonWriter& JsonWriter::value(long long v) {
  before_value();
  append_integer(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(unsigned long long v) {
  before_value();
  append_integer(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  out_ += "null";
  return *this;
}

}  // namespace rooftune::util
