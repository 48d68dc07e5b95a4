#pragma once
// The write side of rooftune's JSON artifacts (reports, trace journals,
// exports, profiles, checkpoints, telemetry sidecars); util/json_parse.hpp
// reads them back.
//
// JsonWriter appends compact JSON to one std::string.  Keys and strings are
// escaped straight into it (plain runs are appended whole), integers go
// through std::to_chars, and doubles through std::to_chars with
// chars_format::general at precision 12 or 17, which the standard defines
// as printf's "%.12g"/"%.17g" in the C locale.  A JSON-lines artifact is
// one writer: top-level records separated by line_break(), the buffer moved
// out once at the end.

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

namespace rooftune::util {

/// Streaming JSON writer producing compact, valid output.
/// Usage mirrors the document structure:
///
///   JsonWriter w;
///   w.begin_object();
///   w.key("name").value("dgemm");
///   w.key("dims").begin_array().value(1000).value(4096).end_array();
///   w.end_object();
///   std::string doc = std::move(w).str();
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit an object key; must be followed by exactly one value.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view v);
  // Without this overload a string literal would convert to bool.
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  /// Round-trip-exact double (%.17g): parse → re-serialize reproduces the
  /// bytes, which the export format's re-export stability rests on.  The
  /// default value(double) stays at %.12g — report files are for humans.
  JsonWriter& value_exact(double v);
  JsonWriter& value(long long v);
  JsonWriter& value(unsigned long long v);
  JsonWriter& value(int v) { return value(static_cast<long long>(v)); }
  JsonWriter& value(std::size_t v) { return value(static_cast<unsigned long long>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// Splice a pre-serialized JSON document in value position (e.g. a nested
  /// SearchSpace::to_json()).  The caller guarantees `json` is valid JSON;
  /// no validation is performed.
  JsonWriter& raw_value(std::string_view json);

  /// End a top-level record with '\n' (JSON lines); the next value starts
  /// the next record.
  JsonWriter& line_break();

  [[nodiscard]] const std::string& str() const& { return out_; }
  /// Move the document out; the writer is spent afterwards.
  [[nodiscard]] std::string str() && { return std::move(out_); }

 private:
  void before_value();
  void open(char bracket);
  void close(char bracket);
  void number(double v, int precision);

  std::string out_;
  // Open containers; the state of the enclosing ones need not be kept,
  // since a closed container was always an element of its parent.
  std::size_t depth_ = 0;
  bool needs_comma_ = false;  // in the innermost open container
  bool after_key_ = false;
};

}  // namespace rooftune::util
