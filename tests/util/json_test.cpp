#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/random.hpp"

namespace gridctl {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_FALSE(parse_json("false").as_bool());
  EXPECT_DOUBLE_EQ(parse_json("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(parse_json("-1e3").as_number(), -1000.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  const auto doc = parse_json(R"({
    "name": "gridctl",
    "idcs": [{"mu": 2.0}, {"mu": 1.25}],
    "nested": {"deep": [1, [2, 3]]}
  })");
  EXPECT_EQ(doc.at("name").as_string(), "gridctl");
  EXPECT_EQ(doc.at("idcs").as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(doc.at("idcs").as_array()[1].at("mu").as_number(), 1.25);
  EXPECT_DOUBLE_EQ(
      doc.at("nested").at("deep").as_array()[1].as_array()[0].as_number(),
      2.0);
}

TEST(Json, EmptyContainers) {
  EXPECT_TRUE(parse_json("[]").as_array().empty());
  EXPECT_TRUE(parse_json("{}").as_object().empty());
  EXPECT_TRUE(parse_json(" [ ] ").as_array().empty());
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
  EXPECT_EQ(parse_json(R"("Aé")").as_string(), "A\xc3\xa9");
  EXPECT_EQ(parse_json(R"("€")").as_string(), "\xe2\x82\xac");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), InvalidArgument);
  EXPECT_THROW(parse_json("{"), InvalidArgument);
  EXPECT_THROW(parse_json("[1, 2"), InvalidArgument);
  EXPECT_THROW(parse_json("{\"a\" 1}"), InvalidArgument);
  EXPECT_THROW(parse_json("tru"), InvalidArgument);
  EXPECT_THROW(parse_json("1.2.3"), InvalidArgument);
  EXPECT_THROW(parse_json("\"unterminated"), InvalidArgument);
  EXPECT_THROW(parse_json("{} garbage"), InvalidArgument);
  EXPECT_THROW(parse_json(R"("\u12g4")"), InvalidArgument);
}

TEST(Json, ErrorsIncludePosition) {
  try {
    parse_json("{\n  \"a\": ]\n}");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("2:"), std::string::npos);
  }
}

TEST(Json, ErrorPositionsPointAtTheFault) {
  // Exact messages, pinned: a missing punctuator or object key is
  // reported where the whitespace before it starts, everything else at
  // the offending character.
  const std::pair<const char*, const char*> cases[] = {
      {"{\"a\": 1,\n  \"b\": tru }", "json: invalid literal at 2:8"},
      {"{\"a\" 1}", "json: expected ':' at 1:5"},
      {"[1, 2\n  , ]", "json: expected a value at 2:5"},
      {"{\"a\":1}  x", "json: trailing characters at 1:10"},
      {"{\n  \"a\": [1,\n 2,\n  3\n",
       "json: unexpected end of input at 5:1"},
      {"\"a\\qb\"", "json: invalid escape at 1:5"},
      {"[1.2.3]", "json: malformed number '1.2.3' at 1:7"},
      {"{\"a\":1,\n   }", "json: expected object key at 1:8"},
      {"[1 2]", "json: expected ',' at 1:4"},
  };
  for (const auto& [text, message] : cases) {
    try {
      parse_json(text);
      ADD_FAILURE() << "parsed: " << text;
    } catch (const InvalidArgument& e) {
      EXPECT_EQ(std::string(e.what()), message) << text;
    }
  }
}

TEST(Json, ParsesMultiMebibyteDocument) {
  // Several MiB of nested arrays and objects spread over many lines —
  // the shape of a fleet checkpoint. The parser must be linear in the
  // text: a line:column scan on every token made parsing quadratic,
  // seconds for a few hundred KiB and far longer for this.
  constexpr std::size_t kRows = 60000;
  std::string text = "{\"rows\": [\n";
  for (std::size_t i = 0; i < kRows; ++i) {
    text += "  {\"id\": \"row-" + std::to_string(i) +
            "\", \"values\": [0.125, -3.5e-07, 1234.5678, " +
            std::to_string(i) + "], \"ok\": true}";
    text += i + 1 < kRows ? ",\n" : "\n";
  }
  text += "]}";
  ASSERT_GT(text.size(), std::size_t{4} << 20);
  const JsonValue doc = parse_json(text);
  const auto& rows = doc.at("rows").as_array();
  ASSERT_EQ(rows.size(), kRows);
  EXPECT_EQ(rows.back().at("id").as_string(), "row-59999");
  EXPECT_DOUBLE_EQ(rows.back().at("values").as_array()[3].as_number(),
                   59999.0);
}

TEST(Json, TypeMismatchesThrow) {
  const auto doc = parse_json(R"({"n": 5})");
  EXPECT_THROW(doc.at("n").as_string(), InvalidArgument);
  EXPECT_THROW(doc.at("n").as_array(), InvalidArgument);
  EXPECT_THROW(doc.at("missing"), InvalidArgument);
  EXPECT_EQ(doc.get("missing"), nullptr);
}

TEST(Json, DefaultingAccessors) {
  const auto doc = parse_json(R"({"x": 2.5, "flag": true, "s": "v"})");
  EXPECT_DOUBLE_EQ(doc.number_or("x", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(doc.number_or("y", 7.0), 7.0);
  EXPECT_TRUE(doc.bool_or("flag", false));
  EXPECT_FALSE(doc.bool_or("other", false));
  EXPECT_EQ(doc.string_or("s", "d"), "v");
  EXPECT_EQ(doc.string_or("t", "d"), "d");
}

TEST(Json, NumberArrayHelper) {
  const auto doc = parse_json(R"({"v": [1, 2.5, -3]})");
  EXPECT_EQ(doc.number_array("v"), (std::vector<double>{1.0, 2.5, -3.0}));
  EXPECT_THROW(parse_json(R"({"v": [1, "x"]})").number_array("v"),
               InvalidArgument);
}

TEST(Json, WhitespaceTolerant) {
  const auto doc = parse_json("  {  \"a\"  :  [ 1 ,  2 ]  }  ");
  EXPECT_EQ(doc.at("a").as_array().size(), 2u);
}

TEST(JsonWriter, ScalarsRoundTrip) {
  EXPECT_EQ(dump_json(parse_json("null")), "null");
  EXPECT_EQ(dump_json(parse_json("true")), "true");
  EXPECT_EQ(dump_json(parse_json("false")), "false");
  EXPECT_EQ(dump_json(parse_json("42")), "42");
  EXPECT_EQ(dump_json(parse_json("-7")), "-7");
  EXPECT_EQ(dump_json(parse_json("\"hi\"")), "\"hi\"");
}

TEST(JsonWriter, NumbersRoundTripExactly) {
  // The writer must emit the shortest decimal form that strtod maps
  // back to the same double — test both pretty and awkward values.
  for (const double value : {0.1, 1.0 / 3.0, 6.02214076e23, 1e-300, -2.5,
                             123456789.123456789, 5e-324}) {
    const JsonValue parsed = parse_json(dump_json(JsonValue(value)));
    EXPECT_EQ(parsed.as_number(), value) << dump_json(JsonValue(value));
  }
}

// The writer's number spelling before its precision search started at
// the shortest form's digit count: every %g precision from 1 up until
// strtod round-trips.
std::string oracle_number(double value) {
  char buffer[32];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

TEST(JsonWriter, NumbersMatchThePrecisionSearchOracle) {
  std::vector<double> corpus = {0.0,
                                -0.0,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                DBL_MIN,
                                DBL_MAX,
                                -DBL_MAX,
                                0.1,
                                1e21,
                                1e-7,
                                9007199254740993.0,  // 2^53 + 1 (rounds)
                                9007199254740992.0,
                                1e15,
                                123456789012345678.0,
                                4294967296.0,
                                1000000.0,
                                120000.0,
                                100.5,
                                5e-324,
                                1.7976931348623157e308};
  Rng rng(20261018);
  for (int k = 0; k < 4000; ++k) {
    // Raw bit patterns cover every exponent, including power-of-two
    // boundaries where the rounding interval is asymmetric.
    std::uint64_t bits = rng();
    double raw;
    std::memcpy(&raw, &bits, sizeof(raw));
    if (std::isfinite(raw)) corpus.push_back(raw);
    // Short decimals, integers and scaled uniforms: the writer's usual
    // inputs (prices, loads, watts, timestamps).
    corpus.push_back(static_cast<double>(rng.uniform_int(-100000, 100000)) /
                     1000.0);
    corpus.push_back(static_cast<double>(
        rng.uniform_int(-(std::int64_t{1} << 60), std::int64_t{1} << 60)));
    corpus.push_back(rng.uniform(-1.0, 1.0) *
                     std::pow(10.0, rng.uniform_int(-30, 30)));
    corpus.push_back(std::ldexp(1.0, static_cast<int>(
                                         rng.uniform_int(-1074, 1023))));
  }
  for (const double value : corpus) {
    EXPECT_EQ(dump_json(JsonValue(value)), oracle_number(value))
        << std::hexfloat << value;
  }
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  EXPECT_EQ(dump_json(JsonValue(std::numeric_limits<double>::quiet_NaN())),
            "null");
  EXPECT_EQ(dump_json(JsonValue(std::numeric_limits<double>::infinity())),
            "null");
}

TEST(JsonWriter, EscapesStrings) {
  const std::string raw = "a\"b\\c\nd\te\x01";
  const JsonValue round = parse_json(dump_json(JsonValue(raw)));
  EXPECT_EQ(round.as_string(), raw);
}

TEST(JsonWriter, StructuresRoundTrip) {
  const char* source =
      R"({"name":"gridctl","idcs":[{"mu":2.0},{"mu":1.25}],"empty":[],)"
      R"("nested":{"deep":[1,[2,3]]},"none":{}})";
  const JsonValue doc = parse_json(source);
  const JsonValue round = parse_json(dump_json(doc));
  EXPECT_EQ(round.at("name").as_string(), "gridctl");
  EXPECT_EQ(round.at("idcs").as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(round.at("idcs").as_array()[1].at("mu").as_number(), 1.25);
  EXPECT_TRUE(round.at("empty").as_array().empty());
  EXPECT_TRUE(round.at("none").as_object().empty());
  EXPECT_DOUBLE_EQ(
      round.at("nested").at("deep").as_array()[1].as_array()[1].as_number(),
      3.0);
}

TEST(JsonWriter, CompactHasNoWhitespacePrettyIsIndented) {
  const JsonValue doc = parse_json(R"({"a": [1, 2], "b": {"c": true}})");
  const std::string compact = dump_json(doc);
  EXPECT_EQ(compact.find(' '), std::string::npos);
  EXPECT_EQ(compact.find('\n'), std::string::npos);
  const std::string pretty = dump_json(doc, 2);
  EXPECT_NE(pretty.find("\n  "), std::string::npos);
  // Both forms parse back to the same document.
  EXPECT_EQ(dump_json(parse_json(pretty)), compact);
}

TEST(JsonWriter, WritesFilesThatParseBack) {
  const std::string path = ::testing::TempDir() + "/writer_test.json";
  const JsonValue doc = parse_json(R"({"jobs":[{"ok":true,"cost":12.5}]})");
  write_json_file(path, doc);
  const JsonValue round = parse_json_file(path);
  EXPECT_TRUE(round.at("jobs").as_array()[0].at("ok").as_bool());
  EXPECT_DOUBLE_EQ(round.at("jobs").as_array()[0].at("cost").as_number(),
                   12.5);
}

TEST(JsonWriter, KeysComeOutSorted) {
  // Object storage is a std::map, so serialization order is
  // deterministic (alphabetical) regardless of input order.
  EXPECT_EQ(dump_json(parse_json(R"({"z":1,"a":2,"m":3})")),
            R"({"a":2,"m":3,"z":1})");
}

}  // namespace
}  // namespace gridctl
