#include "util/json_parse.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <system_error>

namespace rooftune::util {

using detail::JsonMember;
using detail::JsonNode;

// ---- parser -------------------------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(JsonDocument& doc)
      : doc_(doc), s_(doc.text_.data()), size_(doc.text_.size()) {}

  void parse_document() {
    parse_value(0);
    skip_whitespace();
    if (pos_ != size_) fail("trailing characters after document");
  }

 private:
  using Type = JsonValue::Type;

  [[noreturn]] void fail(const std::string& message) const {
    throw std::invalid_argument("parse_json at offset " + std::to_string(pos_) +
                                ": " + message);
  }

  static bool is_space(char c) {
    // std::isspace in the "C" locale.
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
  }

  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  void skip_whitespace() {
    while (pos_ < size_ && is_space(s_[pos_])) ++pos_;
  }

  char peek() const {
    if (pos_ >= size_) fail("unexpected end of input");
    return s_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(std::string_view literal) {
    if (std::string_view(s_ + pos_, size_ - pos_).substr(0, literal.size()) != literal) {
      return false;
    }
    pos_ += literal.size();
    return true;
  }

  std::uint32_t add_node(Type type, std::size_t offset) {
    JsonNode node;
    node.type = type;
    node.offset = static_cast<std::uint32_t>(offset);
    doc_.nodes_.push_back(node);
    return static_cast<std::uint32_t>(doc_.nodes_.size() - 1);
  }

  std::uint32_t parse_value(std::size_t depth) {
    skip_whitespace();
    const std::size_t start = pos_;
    const char c = peek();
    switch (c) {
      case '{': return parse_container(Type::Object, depth + 1);
      case '[': return parse_container(Type::Array, depth + 1);
      case '"': {
        const std::string_view text = parse_string();
        const std::uint32_t index = add_node(Type::String, start);
        doc_.nodes_[index].chars = text.data();
        doc_.nodes_[index].size = static_cast<std::uint32_t>(text.size());
        return index;
      }
      case 't':
      case 'f': {
        if (!consume_literal(c == 't' ? "true" : "false")) fail("invalid literal");
        const std::uint32_t index = add_node(Type::Boolean, start);
        doc_.nodes_[index].boolean = c == 't';
        return index;
      }
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return add_node(Type::Null, start);
      default:
        if (c == '-' || is_digit(c)) {
          const double value = parse_number();
          const std::uint32_t index = add_node(Type::Number, start);
          doc_.nodes_[index].number = value;
          return index;
        }
        fail("unexpected character");
    }
  }

  /// An object or array at depth `depth`: its node, then its values'
  /// nodes; its members go to the member table when it closes.
  std::uint32_t parse_container(Type type, std::size_t depth) {
    if (depth > kMaxJsonDepth) {
      fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
    }
    const bool object = type == Type::Object;
    const char close = object ? '}' : ']';
    const std::uint32_t self = add_node(type, pos_);
    ++pos_;  // the opening bracket, seen by parse_value
    auto& pending = doc_.pending_;
    const std::size_t mark = pending.size();
    skip_whitespace();
    if (peek() == close) {
      ++pos_;
    } else {
      for (;;) {
        std::string_view key;
        if (object) {
          skip_whitespace();
          if (peek() != '"') fail("expected object key string");
          key = parse_string();
          skip_whitespace();
          expect(':');
        }
        const std::uint32_t value = parse_value(depth);
        pending.push_back({key.data(), static_cast<std::uint32_t>(key.size()), value});
        skip_whitespace();
        const char c = take();
        if (c == close) break;
        if (c != ',') {
          --pos_;
          fail(object ? "expected ',' or '}' in object" : "expected ',' or ']' in array");
        }
      }
    }
    auto first = pending.begin() + static_cast<std::ptrdiff_t>(mark);
    auto last = pending.end();
    if (object) last = sort_members(first, last);
    JsonNode& node = doc_.nodes_[self];
    node.first = static_cast<std::uint32_t>(doc_.members_.size());
    node.size = static_cast<std::uint32_t>(last - first);
    doc_.members_.insert(doc_.members_.end(), first, last);
    pending.resize(mark);
    return self;
  }

  /// Sorted key order, first of each run of duplicate keys kept — the
  /// members a std::map would hold.  Node indices grow in document order,
  /// so breaking ties on them keeps duplicates in order without the buffer
  /// std::stable_sort would allocate.
  static std::vector<JsonMember>::iterator sort_members(
      std::vector<JsonMember>::iterator first, std::vector<JsonMember>::iterator last) {
    std::sort(first, last, [](const JsonMember& a, const JsonMember& b) {
      const int order = a.key_view().compare(b.key_view());
      return order != 0 ? order < 0 : a.value < b.value;
    });
    return std::unique(first, last, [](const JsonMember& a, const JsonMember& b) {
      return a.key_view() == b.key_view();
    });
  }

  /// The string at pos_ (an opening quote).  Unescaped strings are views
  /// into the text; escaped ones are decoded into the side buffer, whose
  /// capacity (the text size) bounds every decoding, so views into it stay
  /// valid for the whole parse.
  std::string_view parse_string() {
    ++pos_;  // the opening quote, seen by the caller
    const std::size_t start = pos_;
    for (;;) {
      if (pos_ >= size_) fail("unexpected end of input");
      const char c = s_[pos_++];
      if (c == '"') return {s_ + start, pos_ - 1 - start};
      if (c == '\\') {
        --pos_;
        break;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
    }
    std::string& out = doc_.decoded_;
    if (out.capacity() < size_) out.reserve(size_);
    const std::size_t out_start = out.size();
    out.append(s_ + start, pos_ - start);
    for (;;) {
      const char c = take();
      if (c == '"') break;
      if (c == '\\') {
        const char esc = take();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': append_code_point(out); break;
          default:
            --pos_;
            fail("invalid escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      } else {
        out += c;
      }
    }
    return {out.data() + out_start, out.size() - out_start};
  }

  void append_code_point(std::string& out) {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = take();
      code <<= 4;
      if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
      else fail("invalid \\u escape");
    }
    // UTF-8 encode the BMP code point (surrogate pairs unsupported — the
    // writers never emit them).
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  void skip_digits() {
    while (pos_ < size_ && is_digit(s_[pos_])) ++pos_;
  }

  /// JSON number grammar, then std::from_chars over exactly those bytes.
  double parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!is_digit(peek())) fail("invalid number");
    skip_digits();
    if (pos_ < size_ && s_[pos_] == '.') {
      ++pos_;
      if (pos_ >= size_ || !is_digit(s_[pos_])) {
        fail("digits required after decimal point");
      }
      skip_digits();
    }
    if (pos_ < size_ && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < size_ && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (pos_ >= size_ || !is_digit(s_[pos_])) fail("digits required in exponent");
      skip_digits();
    }
    double value = 0.0;
    const auto [end, ec] = std::from_chars(s_ + start, s_ + pos_, value);
    if (ec == std::errc::result_out_of_range) {
      // e.g. "1e99999": syntactically valid JSON but unrepresentable.
      fail("number out of double range");
    }
    if (ec != std::errc() || end != s_ + pos_) fail("invalid number");
    return value;
  }

  JsonDocument& doc_;
  const char* s_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---- JsonDocument ------------------------------------------------------------

void JsonDocument::parse(std::string_view text) {
  text_.assign(text);
  decoded_.clear();
  nodes_.clear();
  members_.clear();
  pending_.clear();
  if (text_.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("parse_json at offset 0: document larger than 4 GiB");
  }
  try {
    JsonParser(*this).parse_document();
  } catch (...) {
    nodes_.clear();
    members_.clear();
    throw;
  }
}

JsonValue JsonDocument::root() const {
  if (nodes_.empty()) return {};
  return JsonValue(this, nodes_.data(), nullptr);
}

JsonValue parse_json(std::string_view text) {
  auto doc = std::make_shared<const JsonDocument>(text);
  JsonValue root = doc->root();
  root.owner_ = std::move(doc);
  return root;
}

// ---- JsonValue accessors -----------------------------------------------------

namespace {

const char* type_name(JsonValue::Type type) {
  switch (type) {
    case JsonValue::Type::Null: return "null";
    case JsonValue::Type::Boolean: return "boolean";
    case JsonValue::Type::Number: return "number";
    case JsonValue::Type::String: return "string";
    case JsonValue::Type::Array: return "array";
    case JsonValue::Type::Object: return "object";
  }
  return "?";
}

}  // namespace

JsonValue::Type JsonValue::type() const {
  return node_ == nullptr ? Type::Null : node_->type;
}

void JsonValue::fail(const std::string& what) const {
  throw std::runtime_error(
      node_ == nullptr ? "JsonValue: " + what
                       : "JsonValue at offset " + std::to_string(node_->offset) +
                             ": " + what);
}

const JsonNode& JsonValue::expect(Type wanted, const char* name) const {
  if (type() != wanted) {
    fail(std::string("not a ") + name + " (found " + type_name(type()) + ")");
  }
  return *node_;
}

JsonValue JsonValue::child(std::uint32_t node_index) const {
  return JsonValue(doc_, doc_->nodes_.data() + node_index, owner_);
}

bool JsonValue::as_bool() const { return expect(Type::Boolean, "boolean").boolean; }

double JsonValue::as_number() const { return expect(Type::Number, "number").number; }

std::int64_t JsonValue::as_int() const {
  const double n = as_number();
  if (std::floor(n) != n) fail("number is not integral");
  // [-2^63, 2^63): every double in it converts exactly.
  if (!(n >= -9223372036854775808.0 && n < 9223372036854775808.0)) {
    fail("number " + std::to_string(n) + " is out of the int64 range");
  }
  return static_cast<std::int64_t>(n);
}

int JsonValue::as_i32() const {
  const std::int64_t n = as_int();
  if (n < std::numeric_limits<int>::min() || n > std::numeric_limits<int>::max()) {
    fail("number " + std::to_string(n) + " is out of the int range");
  }
  return static_cast<int>(n);
}

std::uint64_t JsonValue::as_u64() const {
  const double n = as_number();
  if (std::floor(n) != n) fail("number is not integral");
  if (!(n >= 0.0 && n < 18446744073709551616.0)) {
    fail("number " + std::to_string(n) + " is out of the uint64 range");
  }
  return static_cast<std::uint64_t>(n);
}

JsonString JsonValue::as_string() const {
  const JsonNode& node = expect(Type::String, "string");
  return JsonString(std::string_view(node.chars, node.size));
}

JsonValue::ArrayView JsonValue::as_array() const {
  const JsonNode& node = expect(Type::Array, "array");
  return ArrayView(*this, doc_->members_.data() + node.first, node.size);
}

JsonValue::ObjectView JsonValue::as_object() const {
  const JsonNode& node = expect(Type::Object, "object");
  return ObjectView(*this, doc_->members_.data() + node.first, node.size);
}

const JsonMember* JsonValue::find(std::string_view key) const {
  const JsonMember* first = doc_->members_.data() + node_->first;
  const JsonMember* last = first + node_->size;
  const JsonMember* it = std::lower_bound(
      first, last, key,
      [](const JsonMember& m, std::string_view k) { return m.key_view() < k; });
  return it != last && it->key_view() == key ? it : nullptr;
}

JsonValue JsonValue::at(std::string_view key) const {
  const JsonNode& node = expect(Type::Object, "object");
  if (const JsonMember* m = find(key)) return child(m->value);
  throw std::out_of_range("JsonValue at offset " + std::to_string(node.offset) +
                          ": missing key '" + std::string(key) + "'");
}

bool JsonValue::has(std::string_view key) const {
  return type() == Type::Object && find(key) != nullptr;
}

JsonValue JsonValue::at(std::size_t index) const {
  const JsonNode& node = expect(Type::Array, "array");
  if (index >= node.size) {
    throw std::out_of_range("JsonValue at offset " + std::to_string(node.offset) +
                            ": index " + std::to_string(index) + " out of range");
  }
  return child(doc_->members_[node.first + index].value);
}

std::size_t JsonValue::size() const {
  const Type t = type();
  if (t != Type::Array && t != Type::Object) fail("not a container");
  return node_->size;
}

// ---- error locations ---------------------------------------------------------

std::string parse_error_location(std::string_view text,
                                 const std::string& error_what) {
  const std::string marker = "at offset ";
  const auto pos = error_what.find(marker);
  if (pos == std::string::npos) return {};
  const std::size_t offset = static_cast<std::size_t>(
      std::strtoull(error_what.c_str() + pos + marker.size(), nullptr, 10));
  std::size_t line = 1;
  std::size_t column = 1;
  for (std::size_t i = 0; i < offset && i < text.size(); ++i) {
    if (text[i] == '\n') {
      ++line;
      column = 1;
    } else {
      ++column;
    }
  }
  return " (line " + std::to_string(line) + ", column " +
         std::to_string(column) + ")";
}

}  // namespace rooftune::util
