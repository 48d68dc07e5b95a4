#include "util/json_parse.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/json.hpp"

namespace rooftune::util {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_FALSE(parse_json("false").as_bool());
  EXPECT_DOUBLE_EQ(parse_json("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse_json("-3.25").as_number(), -3.25);
  EXPECT_DOUBLE_EQ(parse_json("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(parse_json("2.5E-2").as_number(), 0.025);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, IntAccessor) {
  EXPECT_EQ(parse_json("7").as_int(), 7);
  EXPECT_THROW(static_cast<void>(parse_json("7.5").as_int()), std::runtime_error);
}

TEST(JsonParse, NestedStructures) {
  const auto doc = parse_json(R"({"a": [1, 2, {"b": true}], "c": null})");
  EXPECT_EQ(doc.size(), 2u);
  EXPECT_EQ(doc.at("a").size(), 3u);
  EXPECT_DOUBLE_EQ(doc.at("a").at(1).as_number(), 2.0);
  EXPECT_TRUE(doc.at("a").at(2).at("b").as_bool());
  EXPECT_TRUE(doc.at("c").is_null());
  EXPECT_TRUE(doc.has("a"));
  EXPECT_FALSE(doc.has("z"));
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_EQ(parse_json("{}").size(), 0u);
  EXPECT_EQ(parse_json("[]").size(), 0u);
  EXPECT_EQ(parse_json("[ ]").size(), 0u);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b")").as_string(), "a\"b");
  EXPECT_EQ(parse_json(R"("tab\there")").as_string(), "tab\there");
  EXPECT_EQ(parse_json(R"("back\\slash")").as_string(), "back\\slash");
  EXPECT_EQ(parse_json(R"("A")").as_string(), "A");
  EXPECT_EQ(parse_json(R"("é")").as_string(), "\xc3\xa9");  // é in UTF-8
  EXPECT_EQ(parse_json(R"("new\nline")").as_string(), "new\nline");
}

TEST(JsonParse, WhitespaceTolerant) {
  const auto doc = parse_json("  {\n\t\"x\" :  [ 1 ,\r\n 2 ]\n}  ");
  EXPECT_EQ(doc.at("x").size(), 2u);
}

TEST(JsonParse, RoundTripsWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("run \"quoted\"\n");
  w.key("values").begin_array().value(1.5).value(-2).value(true).null().end_array();
  w.key("nested").begin_object().key("deep").value(99).end_object();
  w.end_object();

  const auto doc = parse_json(w.str());
  EXPECT_EQ(doc.at("name").as_string(), "run \"quoted\"\n");
  EXPECT_DOUBLE_EQ(doc.at("values").at(0).as_number(), 1.5);
  EXPECT_TRUE(doc.at("values").at(3).is_null());
  EXPECT_EQ(doc.at("nested").at("deep").as_int(), 99);
}

TEST(JsonParse, MalformedInputs) {
  for (const char* bad :
       {"", "{", "}", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "nul", "01x",
        "\"unterminated", "{\"a\":1} garbage", "[1 2]", "{'a':1}", "- 1",
        "\"bad\\escape\\q\"", "1.", "1e", "[1,]"}) {
    EXPECT_THROW(parse_json(bad), std::invalid_argument) << bad;
  }
}

TEST(JsonParse, TypeMismatchesThrow) {
  const auto doc = parse_json(R"({"n": 1})");
  EXPECT_THROW(static_cast<void>(doc.at("n").as_string()), std::runtime_error);
  EXPECT_THROW(static_cast<void>(doc.at("n").as_array()), std::runtime_error);
  EXPECT_THROW(static_cast<void>(doc.at("missing")), std::out_of_range);
  EXPECT_THROW(static_cast<void>(parse_json("[1]").at(5)), std::out_of_range);
}

TEST(JsonParse, DeeplyNested) {
  std::string deep;
  for (int i = 0; i < 50; ++i) deep += "[";
  deep += "1";
  for (int i = 0; i < 50; ++i) deep += "]";
  JsonValue v = parse_json(deep);
  for (int i = 0; i < 50; ++i) v = v.at(0);
  EXPECT_DOUBLE_EQ(v.as_number(), 1.0);
}

// Members iterate in sorted key order and the first of two duplicate keys
// wins — what a std::map of the members gives, which the export re-writer
// and the journal's alphabetized configs rely on.
TEST(JsonParse, ObjectMembersIterateSortedFirstDuplicateWins) {
  const auto doc = parse_json(R"({"b": 2, "a": 1, "c": 3, "a": 9})");
  EXPECT_EQ(doc.size(), 3u);
  EXPECT_EQ(doc.at("a").as_int(), 1);
  std::string keys;
  for (const auto& [key, value] : doc.as_object()) {
    keys += std::string(key) + "=" + std::to_string(value.as_int()) + " ";
  }
  EXPECT_EQ(keys, "a=1 b=2 c=3 ");

  // A large object, each key written three times in shuffled order: the
  // first value of each key is the one kept.
  std::string text = "{";
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) {
      const int k = (i * 37 + round * 11) % 100;
      text += "\"k" + std::to_string(k) + "\": " + std::to_string(round) + ",";
    }
  }
  text.back() = '}';
  const auto big = parse_json(text);
  ASSERT_EQ(big.size(), 100u);
  std::string previous;
  for (const auto& [key, value] : big.as_object()) {
    EXPECT_LT(previous, std::string(key));
    EXPECT_EQ(value.as_int(), 0) << key;
    previous = key;
  }
}

// A parse_json result owns a copy of its text: handles stay valid after
// the caller's string is gone.  Escaped strings decode into the document.
TEST(JsonParse, HandlesOutliveTheCallersText) {
  JsonValue name;
  {
    std::string text = R"({"name": "a\tb", "list": [1, 2]})";
    const JsonValue doc = parse_json(text);
    name = doc.at("name");
    text.assign(text.size(), 'x');
  }
  EXPECT_EQ(name.as_string(), "a\tb");
}

// One JsonDocument parses document after document into the same buffers;
// a failed parse leaves it empty.
TEST(JsonParse, DocumentReparses) {
  JsonDocument doc;
  doc.parse(R"({"t": "first", "n": 1})");
  EXPECT_EQ(doc.root().at("t").as_string(), "first");
  doc.parse(R"({"t": "second\n", "n": [1, 2, 3]})");
  EXPECT_EQ(doc.root().at("t").as_string(), "second\n");
  EXPECT_EQ(doc.root().at("n").size(), 3u);
  EXPECT_THROW(doc.parse("{\"t\":"), std::invalid_argument);
  EXPECT_TRUE(doc.root().is_null());
}

// Accessor errors name the offset of the value they were asked about, so
// parse_error_location turns them into a line and column too.
TEST(JsonParse, AccessorErrorsNameTheirOffset) {
  const std::string text = "{\n  \"a\": {\"b\": \"x\"}\n}";
  const auto doc = parse_json(text);
  try {
    (void)doc.at("a").at("missing");
    FAIL() << "expected a missing-key error";
  } catch (const std::out_of_range& e) {
    EXPECT_EQ(parse_error_location(text, e.what()), " (line 2, column 8)") << e.what();
  }
  try {
    (void)doc.at("a").at("b").as_number();
    FAIL() << "expected a type error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(parse_error_location(text, e.what()), " (line 2, column 14)") << e.what();
  }
}

}  // namespace
}  // namespace rooftune::util
