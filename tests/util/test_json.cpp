#include "util/json.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace rooftune::util {
namespace {

TEST(JsonWriter, EmptyObject) {
  JsonWriter w;
  w.begin_object().end_object();
  EXPECT_EQ(w.str(), "{}");
}

TEST(JsonWriter, SimpleObject) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("dgemm");
  w.key("count").value(3);
  w.key("ok").value(true);
  w.key("missing").null();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"name":"dgemm","count":3,"ok":true,"missing":null})");
}

TEST(JsonWriter, NestedContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("dims").begin_array().value(1000).value(4096).value(128).end_array();
  w.key("nested").begin_object().key("x").value(1.5).end_object();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"dims":[1000,4096,128],"nested":{"x":1.5}})");
}

TEST(JsonWriter, ArrayOfObjects) {
  JsonWriter w;
  w.begin_array();
  w.begin_object().key("a").value(1).end_object();
  w.begin_object().key("a").value(2).end_object();
  w.end_array();
  EXPECT_EQ(w.str(), R"([{"a":1},{"a":2}])");
}

// Strings and keys are escaped straight into the buffer; multi-byte UTF-8
// and DEL pass through unchanged.
TEST(JsonWriter, EscapesStrings) {
  const auto quoted = [](const std::string& raw) {
    JsonWriter w;
    w.value(raw);
    return w.str();
  };
  EXPECT_EQ(quoted("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(quoted("quote\"backslash\\"), "\"quote\\\"backslash\\\\\"");
  EXPECT_EQ(quoted(std::string("ctrl\x01")), "\"ctrl\\u0001\"");
  EXPECT_EQ(quoted("new\nline"), "\"new\\nline\"");

  const std::string raw = "q\"b\\s/\b\f\n\r\t\x01\x1f\x7f caf\xc3\xa9 \xe2\x82\xac";
  const std::string escaped =
      "q\\\"b\\\\s/\\b\\f\\n\\r\\t\\u0001\\u001f\x7f caf\xc3\xa9 \xe2\x82\xac";
  JsonWriter w;
  w.begin_object().key(raw).value(raw).end_object();
  EXPECT_EQ(w.str(), "{\"" + escaped + "\":\"" + escaped + "\"}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array()
      .value(std::numeric_limits<double>::infinity())
      .value(-std::numeric_limits<double>::infinity())
      .value_exact(std::numeric_limits<double>::quiet_NaN())
      .end_array();
  EXPECT_EQ(w.str(), "[null,null,null]");
}

TEST(JsonWriter, TopLevelScalars) {
  JsonWriter w;
  w.value(42);
  EXPECT_EQ(w.str(), "42");
}

// Doubles go through std::to_chars(general, 12|17); every artifact's bytes
// rest on that matching printf's %.12g/%.17g, so compare over a seeded
// sweep of the cases where %g formatting turns: random bit patterns, the
// fixed/exponent switch near 1e-5, 1e12 and 1e17, subnormals, signed zero
// and integers past 2^53.
std::vector<double> formatting_sweep() {
  std::vector<double> values;
  std::mt19937_64 rng(2021);
  const auto from_bits = [](std::uint64_t bits) {
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  };
  for (int i = 0; i < 40000; ++i) {
    const double v = from_bits(rng());
    if (std::isfinite(v)) values.push_back(v);
  }
  for (const double boundary : {1e-5, 1e-4, 1e11, 1e12, 1e16, 1e17}) {
    for (const double sign : {1.0, -1.0}) {
      double up = sign * boundary;
      double down = up;
      for (int i = 0; i < 500; ++i) {
        values.push_back(up);
        values.push_back(down);
        up = std::nextafter(up, sign * std::numeric_limits<double>::infinity());
        down = std::nextafter(down, 0.0);
      }
      // Values that round across the boundary at 12 or 17 digits.
      for (int i = 1; i <= 2000; ++i) {
        values.push_back(sign * boundary * (1.0 - i * 1e-17));
        values.push_back(sign * boundary * (1.0 - i * 1e-13));
        values.push_back(sign * boundary * (1.0 + i * 1e-13));
      }
    }
  }
  std::uniform_int_distribution<std::uint64_t> mantissa(1, (1ULL << 52) - 1);
  for (int i = 0; i < 5000; ++i) {
    values.push_back(from_bits(mantissa(rng)));                       // subnormal
    values.push_back(from_bits(mantissa(rng) | (1ULL << 63)));        // negative
  }
  values.push_back(std::numeric_limits<double>::denorm_min());
  values.push_back(std::numeric_limits<double>::min());
  values.push_back(std::numeric_limits<double>::max());
  values.push_back(-std::numeric_limits<double>::max());
  values.push_back(0.0);
  values.push_back(-0.0);
  for (std::uint64_t k = 0; k < 2000; ++k) {
    values.push_back(static_cast<double>((1ULL << 53) + k));
    values.push_back(-static_cast<double>((1ULL << 53) + 3 * k));
    values.push_back(static_cast<double>(rng() >> (k % 11)));
  }
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 20000; ++i) {
    values.push_back(unit(rng) * std::pow(10.0, static_cast<int>(rng() % 40) - 20));
  }
  return values;
}

template <typename Write>
void expect_formats_like(const char* spec, Write write) {
  std::size_t mismatches = 0;
  std::string first;
  for (const double v : formatting_sweep()) {
    char expected[64];
    std::snprintf(expected, sizeof expected, spec, v);
    JsonWriter w;
    write(w, v);
    if (w.str() != expected) {
      if (mismatches++ == 0) first = std::string(expected) + " vs " + w.str();
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first;
}

TEST(JsonWriter, DoublesMatchPrintfPrecision12) {
  expect_formats_like("%.12g", [](JsonWriter& w, double v) { w.value(v); });
}

TEST(JsonWriter, ExactDoublesMatchPrintfPrecision17) {
  expect_formats_like("%.17g", [](JsonWriter& w, double v) { w.value_exact(v); });
}

TEST(JsonWriter, IntegersMatchToString) {
  std::mt19937_64 rng(7);
  std::vector<unsigned long long> bits = {0, 1, 9, 10, ULLONG_MAX,
                                          static_cast<unsigned long long>(LLONG_MAX),
                                          static_cast<unsigned long long>(LLONG_MIN)};
  for (int i = 0; i < 20000; ++i) bits.push_back(rng() >> (i % 64));
  for (const unsigned long long u : bits) {
    const auto s = static_cast<long long>(u);
    JsonWriter w;
    w.begin_array().value(u).value(s).value(static_cast<int>(s)).end_array();
    std::string expected = "[";
    expected.append(std::to_string(u)).append(",").append(std::to_string(s));
    expected.append(",").append(std::to_string(static_cast<int>(s))).append("]");
    ASSERT_EQ(w.str(), expected);
  }
}

// A JSON-lines artifact is one writer with line_break() between records;
// it must equal the records written one writer at a time.
TEST(JsonWriter, OneBufferJsonLinesEqualsOneWriterPerRecord) {
  const auto record = [](JsonWriter& w, int i) {
    w.begin_object();
    w.key("t").value(i % 2 ? "span" : "host");
    w.key("i").value(i);
    w.key("x").value(i * 0.1);
    w.key("cfg").begin_object().key("n\"").value(i).key("m").value(-i).end_object();
    w.key("ci").begin_array().value(1.5).null().value(true).end_array();
    w.key("raw").raw_value("[1,{\"a\":2}]");
    w.end_object();
  };
  JsonWriter lines;
  std::string separate;
  for (int i = 0; i < 50; ++i) {
    record(lines, i);
    lines.line_break();
    JsonWriter one;
    record(one, i);
    separate += one.str();
    separate += '\n';
  }
  EXPECT_EQ(lines.str(), separate);
  const std::string moved = std::move(lines).str();
  EXPECT_EQ(moved, separate);
}

}  // namespace
}  // namespace rooftune::util
