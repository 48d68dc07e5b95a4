#pragma once
// The read side of util/json.hpp's writer: one flat parser under every
// artifact reader (trace journals, exports, profiles, checkpoints, search
// spaces, roofline models, telemetry sidecars).
//
// A parse fills one contiguous node array per document.  Strings are views
// into the document's own copy of the text; escaped strings are decoded
// into a side buffer.  Numbers are read with std::from_chars.  JsonValue is
// a small handle into that array, so walking a document allocates nothing.
//
// Semantics the readers rely on:
//   - object members iterate in sorted key order, and the first of two
//     duplicate keys wins (what a std::map of the members would give);
//   - nesting deeper than kMaxJsonDepth is rejected, not recursed into;
//   - every error names a byte offset ("at offset N"), which
//     parse_error_location turns into a line and column.  Accessor errors
//     (wrong type, missing key, integer out of range) name the offset of
//     the value they were asked about.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace rooftune::util {

/// Deepest array/object nesting parse_json accepts.
inline constexpr std::size_t kMaxJsonDepth = 512;

class JsonDocument;

namespace detail {
struct JsonNode;
struct JsonMember;
}  // namespace detail

/// A string value or member key: a view into its document, which converts
/// to std::string where a caller keeps a copy.
class JsonString : public std::string_view {
 public:
  JsonString() = default;
  explicit JsonString(std::string_view text) : std::string_view(text) {}

  // NOLINTNEXTLINE(google-explicit-constructor): callers store it as a string.
  operator std::string() const { return std::string(data(), size()); }

  friend std::string operator+(std::string_view a, std::string_view b) {
    std::string out;
    out.reserve(a.size() + b.size());
    out.append(a).append(b);
    return out;
  }
};

/// Handle to one value of a parsed document.  Handles reached from a
/// parse_json result keep that document alive; handles reached from
/// JsonDocument::root() borrow it and must not outlive it or its next
/// parse().  A default-constructed handle is null.
class JsonValue {
 public:
  enum class Type : std::uint8_t { Null, Boolean, Number, String, Array, Object };

  struct Member;
  template <class Item>
  class View;
  using ArrayView = View<JsonValue>;
  using ObjectView = View<Member>;

  JsonValue() = default;

  [[nodiscard]] Type type() const;
  [[nodiscard]] bool is_null() const { return type() == Type::Null; }

  /// Typed accessors; throw std::runtime_error on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// Integral numbers only; throws std::runtime_error for fractions and for
  /// values outside int64_t / int / uint64_t (negative ones for as_u64).
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] int as_i32() const;
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] JsonString as_string() const;
  [[nodiscard]] ArrayView as_array() const;
  [[nodiscard]] ObjectView as_object() const;

  /// Object member access; throws std::out_of_range for missing keys.
  [[nodiscard]] JsonValue at(std::string_view key) const;
  [[nodiscard]] bool has(std::string_view key) const;

  /// Array element access; throws std::out_of_range.
  [[nodiscard]] JsonValue at(std::size_t index) const;
  /// Element or member count; throws std::runtime_error for scalars.
  [[nodiscard]] std::size_t size() const;

  /// Throw std::runtime_error("JsonValue at offset N: " + what), naming
  /// this value's byte offset: a reader's refusal of a well-formed value
  /// then gets a line and column from read_located like any syntax error.
  [[noreturn]] void fail(const std::string& what) const;

 private:
  friend class JsonDocument;
  friend JsonValue parse_json(std::string_view text);

  JsonValue(const JsonDocument* doc, const detail::JsonNode* node,
            std::shared_ptr<const JsonDocument> owner)
      : doc_(doc), node_(node), owner_(std::move(owner)) {}

  [[nodiscard]] const detail::JsonNode& expect(Type type, const char* name) const;
  [[nodiscard]] JsonValue child(std::uint32_t node_index) const;
  template <class Item>
  [[nodiscard]] Item item(const detail::JsonMember& member) const;
  [[nodiscard]] const detail::JsonMember* find(std::string_view key) const;

  const JsonDocument* doc_ = nullptr;
  const detail::JsonNode* node_ = nullptr;
  std::shared_ptr<const JsonDocument> owner_;  // set when reached from parse_json
};

namespace detail {

/// One value.  Containers own `size` consecutive entries of the document's
/// member table, starting at `first`; for arrays the keys are empty.
struct JsonNode {
  JsonValue::Type type = JsonValue::Type::Null;
  std::uint32_t offset = 0;  // byte offset in the text, for errors
  std::uint32_t size = 0;    // string length, or element/member count
  union {
    double number = 0.0;
    bool boolean;
    const char* chars;
    std::uint32_t first;
  };
};

/// An object member (or, with no key, an array element).
struct JsonMember {
  const char* key = nullptr;
  std::uint32_t key_size = 0;
  std::uint32_t value = 0;  // node index
  [[nodiscard]] std::string_view key_view() const { return {key, key_size}; }
};

}  // namespace detail

/// A parsed document: the text it was parsed from, its node array and its
/// member table.  parse() may be called again to read another document
/// into the same buffers, which then allocates only when it outgrows them.
class JsonDocument {
 public:
  JsonDocument() = default;
  explicit JsonDocument(std::string_view text) { parse(text); }
  JsonDocument(const JsonDocument&) = delete;
  JsonDocument& operator=(const JsonDocument&) = delete;

  /// Parse a complete JSON document, replacing the previous one.  Throws
  /// std::invalid_argument "parse_json at offset N: ..." on malformed input
  /// (including trailing garbage); the document is then empty.
  void parse(std::string_view text);

  /// The top-level value (null for an empty document).  Borrows *this.
  [[nodiscard]] JsonValue root() const;

 private:
  friend class JsonValue;
  friend class JsonParser;

  std::string text_;
  std::string decoded_;  // unescaped strings; capacity >= text_.size()
  std::vector<detail::JsonNode> nodes_;
  std::vector<detail::JsonMember> members_;
  std::vector<detail::JsonMember> pending_;  // members of open containers
};

/// One object member, as iterated: the key and its value.
struct JsonValue::Member {
  JsonString key;
  JsonValue value;
};

/// The elements of an array (as JsonValue) or the members of an object (as
/// Member, in sorted key order).  Iterators borrow the view.
template <class Item>
class JsonValue::View {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Item;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Item;

    iterator() = default;
    Item operator*() const { return parent_->item<Item>(*member_); }
    iterator& operator++() {
      ++member_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++member_;
      return old;
    }
    bool operator==(const iterator& other) const { return member_ == other.member_; }

   private:
    friend class View;
    iterator(const JsonValue* parent, const detail::JsonMember* member)
        : parent_(parent), member_(member) {}
    const JsonValue* parent_ = nullptr;
    const detail::JsonMember* member_ = nullptr;
  };

  [[nodiscard]] iterator begin() const { return {&parent_, first_}; }
  [[nodiscard]] iterator end() const { return {&parent_, first_ + size_}; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Unchecked: i < size().
  [[nodiscard]] Item operator[](std::size_t i) const {
    return parent_.item<Item>(first_[i]);
  }

 private:
  friend class JsonValue;
  View(JsonValue parent, const detail::JsonMember* first, std::size_t size)
      : parent_(std::move(parent)), first_(first), size_(size) {}
  JsonValue parent_;
  const detail::JsonMember* first_;
  std::size_t size_;
};

template <class Item>
Item JsonValue::item(const detail::JsonMember& member) const {
  if constexpr (std::is_same_v<Item, Member>) {
    return {JsonString(member.key_view()), child(member.value)};
  } else {
    return child(member.value);
  }
}

/// Parse a complete JSON document into a handle that owns a copy of it.
/// Throws std::invalid_argument with a byte offset on malformed input
/// (including trailing garbage and nesting deeper than kMaxJsonDepth).
JsonValue parse_json(std::string_view text);

/// Translate the "at offset N" in a parse_json or JsonValue error message
/// into a " (line L, column C)" suffix against the original text, for
/// error messages about hand-edited files.  Empty when no offset is present.
std::string parse_error_location(std::string_view text,
                                 const std::string& error_what);

/// Parse `text` into `doc`.  Malformed JSON throws
/// Error(what + " (line L, column C): parse_json at offset N: ...").
template <class Error>
void parse_located(JsonDocument& doc, std::string_view text, const std::string& what) {
  try {
    doc.parse(text);
  } catch (const std::invalid_argument& e) {
    throw Error(what + parse_error_location(text, e.what()) + ": " + e.what());
  }
}

/// Return read(), rethrowing an error that names an offset into `text` (an
/// accessor error) as std::runtime_error(prefix + what + " (line L, column
/// C)").  Errors without an offset pass through unchanged.
template <class Read>
decltype(auto) read_located(std::string_view text, const std::string& prefix, Read&& read) {
  try {
    return read();
  } catch (const std::exception& e) {
    const std::string where = parse_error_location(text, e.what());
    if (where.empty()) throw;
    throw std::runtime_error(prefix + e.what() + where);
  }
}

}  // namespace rooftune::util
