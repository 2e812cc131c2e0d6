// Canonical JSON document model: one serialization per value, strict
// parsing, and the parse/dump round-trip the store's byte-identity
// contract rests on.
#include "mgmt/json.hpp"

#include <gtest/gtest.h>

#include "obs/json_writer.hpp"

namespace qv::mgmt {
namespace {

TEST(Json, DumpIsCanonicalAndSorted) {
  JsonValue obj = JsonValue::make_object();
  obj.set("zeta", JsonValue(std::int64_t{1}));
  obj.set("alpha", JsonValue("x"));
  obj.set("mid", JsonValue(true));
  // Key order in dump() is lexicographic regardless of insertion order.
  EXPECT_EQ(obj.dump(), "{\"alpha\":\"x\",\"mid\":true,\"zeta\":1}");

  JsonValue obj2 = JsonValue::make_object();
  obj2.set("mid", JsonValue(true));
  obj2.set("alpha", JsonValue("x"));
  obj2.set("zeta", JsonValue(std::int64_t{1}));
  EXPECT_EQ(obj.dump(), obj2.dump());
  EXPECT_EQ(obj, obj2);
}

TEST(Json, RoundTripPreservesEveryType) {
  JsonValue::Array arr;
  arr.push_back(JsonValue());
  arr.push_back(JsonValue(false));
  arr.push_back(JsonValue(std::int64_t{-42}));
  arr.push_back(JsonValue(2.5));
  arr.push_back(JsonValue("tab\there \"quoted\" \\slash"));
  JsonValue nested = JsonValue::make_object();
  nested.set("inner", JsonValue(std::move(arr)));
  const std::string text = nested.dump();

  const JsonParseResult parsed = parse_json(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(*parsed.value, nested);
  // dump(parse(dump(v))) == dump(v): the canonical fixed point.
  EXPECT_EQ(parsed.value->dump(), text);
}

TEST(Json, ParseCanonicalizesWhitespaceAndEscapes) {
  const JsonParseResult parsed =
      parse_json("  { \"a\" : [ 1 , 2 ] ,\n \"b\" : \"\\u0041\" } ");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.value->dump(), "{\"a\":[1,2],\"b\":\"A\"}");
}

TEST(Json, StrictParseRejections) {
  // Trailing garbage, duplicate keys, bad tokens: each must fail with a
  // positioned error, never silently accept.
  for (const char* bad :
       {"{} x", "{\"a\":1,\"a\":2}", "[1,]", "{\"a\"}", "01", "+1", "tru",
        "\"unterminated", "", "[1 2]", "{\"a\":}", "nul"}) {
    const JsonParseResult r = parse_json(bad);
    EXPECT_FALSE(r.ok()) << "accepted: " << bad;
    EXPECT_FALSE(r.error.empty()) << bad;
    EXPECT_LE(r.error_pos, std::string(bad).size()) << bad;
  }
}

TEST(Json, DepthLimitStopsDeepNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(parse_json(deep, /*max_depth=*/64).ok());
  EXPECT_TRUE(parse_json(deep, /*max_depth=*/128).ok());
}

TEST(Json, IntAndDoubleAreDistinctButComparable) {
  const JsonParseResult i = parse_json("7");
  const JsonParseResult d = parse_json("7.0");
  ASSERT_TRUE(i.ok() && d.ok());
  EXPECT_TRUE(i.value->is_int());
  EXPECT_TRUE(d.value->is_double());
  EXPECT_EQ(i.value->as_double(), d.value->as_double());
  EXPECT_NE(*i.value, *d.value);  // distinct canonical forms
}

TEST(Json, FindAndSetOnObjects) {
  JsonValue obj = JsonValue::make_object();
  obj.set("k", JsonValue(std::int64_t{9}));
  ASSERT_NE(obj.find("k"), nullptr);
  EXPECT_EQ(obj.find("k")->as_int(), 9);
  EXPECT_EQ(obj.find("missing"), nullptr);
  EXPECT_EQ(JsonValue(std::int64_t{1}).find("k"), nullptr);  // non-object
  obj.set("k", JsonValue("replaced"));
  EXPECT_TRUE(obj.find("k")->is_string());
}

// The store's string bytes, pinned: every control character, a quote
// and a backslash. obs::json_escape is the one escaper behind them, so
// metrics/trace names escape to exactly the same bytes.
TEST(Json, OneEscaperForStoreAndObs) {
  std::string raw;
  for (char c = 0; c < 0x20; ++c) raw += c;
  raw += "\"\\";
  const std::string escaped =
      "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
      "\\b\\t\\n\\u000b\\f\\r\\u000e\\u000f"
      "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
      "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"
      "\\\"\\\\";
  EXPECT_EQ(JsonValue(raw).dump(), "\"" + escaped + "\"");
  EXPECT_EQ(obs::json_escape(raw), escaped);
  const JsonParseResult back = parse_json(JsonValue(raw).dump());
  ASSERT_TRUE(back.ok()) << back.error;
  EXPECT_EQ(back.value->as_string(), raw);
}

TEST(Json, Fnv1aIsStable) {
  // Pinned values: the journal's frame checksums and the store's
  // document fingerprints must never drift across builds.
  EXPECT_EQ(fnv1a(""), 14695981039346656037ull);
  EXPECT_EQ(fnv1a("a"), 12638187200555641996ull);
  EXPECT_NE(fnv1a("ab"), fnv1a("ba"));
}

}  // namespace
}  // namespace qv::mgmt
