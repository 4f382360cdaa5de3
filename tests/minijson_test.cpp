// Tests for the minimal JSON parser (src/util/minijson.*): the RFC 8259
// subset the ops endpoints emit, error offsets on garbage, and the
// lookup helpers esched-top leans on.
#include "util/minijson.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/error.hpp"

namespace esched::minijson {
namespace {

TEST(MinijsonTest, ScalarsParse) {
  EXPECT_EQ(Value::parse("null").type(), Value::Type::kNull);
  EXPECT_EQ(Value::parse("true").type(), Value::Type::kBool);
  EXPECT_EQ(Value::parse("-2.5e3").type(), Value::Type::kNumber);
  EXPECT_EQ(Value::parse("\"hi\"").as_string(), "hi");
  const Value v = Value::parse(
      "{\"t\": true, \"f\": false, \"n\": 42, \"e\": -2.5e3}");
  EXPECT_TRUE(v.bool_or("t", false));
  EXPECT_FALSE(v.bool_or("f", true));
  EXPECT_DOUBLE_EQ(v.number_or("n", 0.0), 42.0);
  EXPECT_DOUBLE_EQ(v.number_or("e", 0.0), -2500.0);
}

TEST(MinijsonTest, StringEscapes) {
  EXPECT_EQ(Value::parse("\"a\\\"b\"").as_string(), "a\"b");
  EXPECT_EQ(Value::parse("\"a\\\\b\"").as_string(), "a\\b");
  EXPECT_EQ(Value::parse("\"a\\nb\\tc\"").as_string(), "a\nb\tc");
  EXPECT_EQ(Value::parse("\"a\\/b\"").as_string(), "a/b");
  // \u escapes of ASCII decode; others stay verbatim.
  EXPECT_EQ(Value::parse("\"\\u0041\\u000d\"").as_string(), "A\r");
  EXPECT_EQ(Value::parse("\"\\u00e9\"").as_string(), "\\u00e9");
}

/// `s` escaped and quoted, then parsed back.
std::string round_trip(const std::string& s) {
  std::string json = "\"";
  json += escape(s);
  json += '"';
  return Value::parse(json).as_string();
}

TEST(MinijsonTest, EscapeRoundTripsEveryAsciiByte) {
  // escape() is the writer every JSON emitter shares; what it writes for
  // any byte 0x01-0x7f must parse back to that byte.
  std::string all;
  for (int c = 0x01; c <= 0x7f; ++c) all.push_back(static_cast<char>(c));
  EXPECT_EQ(round_trip(all), all);
  for (const char c : all) {
    const std::string one(1, c);
    EXPECT_EQ(round_trip(one), one) << "byte " << static_cast<int>(c);
  }
  EXPECT_EQ(escape("a\"b\\c\r\x01"), "a\\\"b\\\\c\\r\\u0001");
}

TEST(MinijsonTest, NestedStructuresAndWhitespace) {
  const Value v = Value::parse(
      "  { \"list\" : [ 1 , 2 , 3 ] ,\n"
      "    \"obj\" : { \"inner\" : \"x\" } ,\n"
      "    \"flag\" : true }  ");
  ASSERT_EQ(v.type(), Value::Type::kObject);
  const Value* list = v.find("list");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->as_array().size(), 3u);
  EXPECT_EQ(list->as_array()[2].type(), Value::Type::kNumber);
  const Value* obj = v.find("obj");
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->string_or("inner", "?"), "x");
  EXPECT_TRUE(v.bool_or("flag", false));
}

TEST(MinijsonTest, HealthzShapedPayloadRoundTrips) {
  // The exact shape svc::render_healthz emits (tests/svc_ops_test.cpp
  // asserts the producer side; this is the consumer side esched-top
  // runs).
  const Value v = Value::parse(
      "{\"ok\":true,\"role\":\"coordinator\",\"uptime_seconds\":12.5,"
      "\"clients\":2,\"journal\":{\"path\":\"/tmp/j.bin\",\"bytes\":4096,"
      "\"entries\":6},\"agents\":[{\"addr\":\"127.0.0.1:9555\","
      "\"state\":\"alive\",\"last_heartbeat_age_seconds\":0.25},"
      "{\"addr\":\"127.0.0.1:9556\",\"state\":\"dead\","
      "\"last_heartbeat_age_seconds\":-1,\"last_error\":\"refused\"}]}");
  EXPECT_TRUE(v.bool_or("ok", false));
  EXPECT_EQ(v.string_or("role", "?"), "coordinator");
  EXPECT_DOUBLE_EQ(v.number_or("uptime_seconds", 0.0), 12.5);
  const Value* agents = v.find("agents");
  ASSERT_NE(agents, nullptr);
  ASSERT_EQ(agents->as_array().size(), 2u);
  EXPECT_EQ(agents->as_array()[1].string_or("last_error", ""), "refused");
  EXPECT_EQ(agents->as_array()[0].string_or("last_error", ""), "");
}

TEST(MinijsonTest, LookupHelpersFallBackGracefully) {
  const Value v = Value::parse("{\"n\":1,\"s\":\"x\"}");
  EXPECT_DOUBLE_EQ(v.number_or("missing", 7.0), 7.0);
  EXPECT_EQ(v.string_or("missing", "d"), "d");
  EXPECT_FALSE(v.bool_or("missing", false));
  // Type mismatch also falls back rather than throwing.
  EXPECT_DOUBLE_EQ(v.number_or("s", 7.0), 7.0);
  // find on a non-object is nullptr, not a throw.
  EXPECT_EQ(Value::parse("[1]").find("k"), nullptr);
}

TEST(MinijsonTest, GarbageThrowsWithByteOffset) {
  const char* bad[] = {"",        "{",         "[1,",   "{\"a\":}",
                       "tru",     "\"open",    "1 2",   "nope",
                       "{\"a\" 1}", "[1 2]"};
  for (const char* text : bad) {
    EXPECT_THROW(Value::parse(text), Error) << text;
  }
  try {
    Value::parse("{\"a\": nope}");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    // The offset of the offending byte is named in the message.
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos)
        << e.what();
  }
}

TEST(MinijsonTest, AccessorsThrowOnWrongType) {
  const Value v = Value::parse("{\"n\":1}");
  EXPECT_THROW(v.as_array(), Error);
  EXPECT_THROW(v.find("n")->as_array(), Error);
  EXPECT_THROW(v.find("n")->as_string(), Error);
}

}  // namespace
}  // namespace esched::minijson
