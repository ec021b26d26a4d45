// The telemetry JSON codec (support/json.hpp): the escaper and the reader
// agree on every escape, each visitor value kind writes the documented bytes
// and reads them back, and the reader's leniency rules hold — unknown keys
// skipped, missing keys defaulted, incomplete JSONL lines dropped whole.
#include "support/json.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace icc::json {
namespace {

// Test records. json_fields must be reachable by argument-dependent lookup,
// so it lives in the records' namespace.
struct Inner {
  int64_t a = 0;
  uint64_t b = 0;
  bool operator==(const Inner&) const = default;
};

template <class Io>
void json_fields(Io& io, Inner& r) {
  io.field("a", r.a);
  io.field("b", r.b);
}

constexpr const char* kSlotNames[3] = {"x", "y", "z"};

const char* intern_test(const std::string& s) {
  static const std::string kKnown[] = {"alpha", "beta"};
  for (const std::string& k : kKnown)
    if (s == k) return k.c_str();
  return "other";
}

struct Rec {
  static constexpr uint32_t kNone = UINT32_MAX;
  uint32_t id = kNone;
  int64_t neg = 0;
  uint64_t big = 0;
  bool flag = false;
  std::string name;
  const char* label = nullptr;
  uint8_t hash_len = 0;
  std::array<uint8_t, 4> hash{};
  std::vector<uint32_t> ids;
  std::vector<std::pair<uint32_t, uint64_t>> pairs;
  std::vector<std::pair<std::string, int64_t>> named;
  std::vector<std::pair<std::string, Inner>> nested;
  std::array<Inner, 3> slots{};
  std::vector<Inner> rows;
  bool has_extra = false;
  uint64_t extra = 0;
};

template <class Io>
void json_fields(Io& io, Rec& r, uint64_t seq = 0) {
  io.tag("seq", seq);
  io.tag("type", "rec");
  io.opt("id", r.id, Rec::kNone);
  io.field("neg", r.neg);
  io.field("big", r.big);
  io.field("flag", r.flag);
  io.field("name", r.name);
  io.opt("label", Interned{r.label, intern_test});
  io.opt("hash", Hex{r.hash, r.hash_len});
  io.opt("ids", r.ids);
  io.field("pairs", r.pairs);
  io.field("named", r.named);
  io.field("nested", r.nested);
  io.field("slots", Keyed{r.slots, "slot", kSlotNames});
  io.group("extra", r.has_extra, [&] {
    io.tag("on", true);
    io.field("v", r.extra);
  });
  io.field("rows", r.rows);
}

Value parsed(const std::string& text) {
  Value v;
  std::string err;
  EXPECT_TRUE(parse(text, &v, &err)) << err;
  return v;
}

TEST(JsonCodec, EveryEscapeDecodesBack) {
  std::string all;
  for (int c = 1; c < 256; ++c) all.push_back(static_cast<char>(c));
  const std::string doc = "\"" + escape(all) + "\"";
  for (char c : escape(all)) EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  const Value v = parsed(doc);
  ASSERT_EQ(v.kind, Value::Kind::kString);
  EXPECT_EQ(v.str, all);
}

TEST(JsonCodec, ReaderDecodesForeignEscapes) {
  EXPECT_EQ(parsed(R"("a\/b\bc\fd\u00e9\u20ac")").str, "a/b\bc\fd\xc3\xa9\xe2\x82\xac");
}

TEST(JsonCodec, WriterBytesAndRoundTrip) {
  Rec r;
  r.id = 7;
  r.neg = INT64_MIN;
  r.big = UINT64_MAX;
  r.flag = true;
  r.name = "q\"uote\n";
  r.label = intern_test("beta");
  r.hash = {0xde, 0xad, 0xbe, 0xef};
  r.hash_len = 3;
  r.ids = {1, 2};
  r.pairs = {{0, 5}, {3, 9}};
  r.named = {{"m.a", -1}, {"m.b", 2}};
  r.nested = {{"h", Inner{4, 5}}};
  r.slots[1] = Inner{6, 0};
  r.has_extra = true;
  r.extra = 11;
  r.rows = {Inner{1, 2}, Inner{3, 4}};
  const std::string text = write(r, uint64_t{42});
  EXPECT_EQ(text,
            "{\"seq\":42,\"type\":\"rec\",\"id\":7,\"neg\":-9223372036854775808,"
            "\"big\":18446744073709551615,\"flag\":1,\"name\":\"q\\\"uote\\n\","
            "\"label\":\"beta\",\"hash\":\"deadbe\",\"ids\":[1,2],\"pairs\":[[0,5],[3,9]],"
            "\"named\":{\"m.a\":-1,\"m.b\":2},\"nested\":{\"h\":{\"a\":4,\"b\":5}},"
            "\"slots\":[{\"slot\":\"y\",\"a\":6,\"b\":0}],\"extra\":{\"on\":true,\"v\":11},"
            "\"rows\":[\n {\"a\":1,\"b\":2},\n {\"a\":3,\"b\":4}\n]}");

  Rec back;
  std::string err;
  ASSERT_TRUE(read(parsed(text), back, &err)) << err;
  EXPECT_EQ(back.label, r.label) << "interned back onto the same pointer";
  EXPECT_EQ(back.hash_len, 3u);
  EXPECT_EQ(back.slots, r.slots);
  EXPECT_EQ(back.nested, r.nested);
  EXPECT_EQ(write(back, uint64_t{42}), text);
}

TEST(JsonCodec, OmittedFieldsAndMissingKeysKeepDefaults) {
  Rec r;
  const std::string text = write(r);
  EXPECT_EQ(text,
            "{\"seq\":0,\"type\":\"rec\",\"neg\":0,\"big\":0,\"flag\":0,\"name\":\"\","
            "\"pairs\":[],\"named\":{},\"nested\":{},\"slots\":[],\"rows\":[\n]}");
  Rec back;
  back.neg = 99;
  ASSERT_TRUE(read(parsed("{\"big\":3}"), back));
  EXPECT_EQ(back.id, Rec::kNone);
  EXPECT_EQ(back.neg, 99) << "missing key keeps the prior value";
  EXPECT_EQ(back.big, 3u);
  EXPECT_FALSE(back.has_extra);
}

TEST(JsonCodec, UnknownKeysAreSkipped) {
  Rec back;
  ASSERT_TRUE(read(parsed("{\"future\":{\"deep\":[1,2.5e3,null,true,\"s\"]},\"id\":4,"
                          "\"slots\":[{\"slot\":\"w\",\"a\":1},{\"slot\":\"z\",\"a\":2}],"
                          "\"later\":-0.5}"),
                   back));
  EXPECT_EQ(back.id, 4u);
  EXPECT_EQ(back.slots[2].a, 2) << "known slot names place entries";
  EXPECT_EQ(back.slots[0], Inner{}) << "unknown slot names are ignored";
}

TEST(JsonCodec, MistypedFieldFailsWithOffset) {
  Rec back;
  std::string err;
  EXPECT_FALSE(read(parsed("{\"id\":\"seven\"}"), back, &err));
  EXPECT_EQ(err, "expected integer at offset 6");
  err.clear();
  EXPECT_FALSE(read(parsed("{\"big\":1.5}"), back, &err));
  EXPECT_EQ(err, "expected integer at offset 7");
}

TEST(JsonCodec, SyntaxErrorsNameTheOffset) {
  Value v;
  std::string err;
  EXPECT_FALSE(parse("{\"a\":}", &v, &err));
  EXPECT_EQ(err, "expected value at offset 5");
  for (const char* bad : {"", "{", "{\"a\"", "{\"a\":1", "{\"a\":1,}", "[1 2]", "\"open",
                          "{\"a\":1}x", "{\"a\":\"\\q\"}", "99999999999999999999x"}) {
    err.clear();
    EXPECT_FALSE(parse(bad, &v, &err)) << bad;
    EXPECT_NE(err.find(" at offset "), std::string::npos) << bad;
  }
  std::string deep(100, '[');
  EXPECT_FALSE(parse(deep, &v, nullptr));
}

TEST(JsonCodec, TruncatedLastLineIsDropped) {
  const std::string stream =
      "{\"a\":1,\"b\":2}\n"
      "\n"
      "not json\n"
      "{\"a\":3,\"b\":4}\r\n"
      "{\"a\":5,\"b\"";
  std::vector<Inner> rows;
  for_each_object_line(stream, [&](const Value& v) { read(v, rows.emplace_back()); });
  EXPECT_EQ(rows, (std::vector<Inner>{{1, 2}, {3, 4}}));
}

}  // namespace
}  // namespace icc::json
