#include "support/json.hpp"

#include <cstdio>

namespace icc::json {

void append_escaped(std::string* out, std::string_view s) {
  static constexpr std::string_view kRaw = "\"\\\n\r\t", kLetter = "\"\\nrt";
  for (char c : s) {
    if (const size_t k = kRaw.find(c); k != kRaw.npos) {
      out->push_back('\\');
      out->push_back(kLetter[k]);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

std::string escape(std::string_view s) {
  std::string out;
  append_escaped(&out, s);
  return out;
}

std::string error_at(std::string_view what, size_t offset) {
  return std::string(what) + " at offset " + std::to_string(offset);
}

const Value* Value::find(std::string_view key) const {
  for (size_t i = 0; i < keys.size(); ++i)
    if (keys[i] == key) return &items[i];
  return nullptr;
}

std::string_view Value::text(std::string_view key) const {
  const Value* v = find(key);
  return v != nullptr && v->kind == Kind::kString ? std::string_view(v->str) : "";
}

namespace {

/// Recursive descent, depth-bounded so hostile input cannot exhaust the stack.
struct Parser {
  std::string_view s;
  std::string* err;
  size_t p = 0;

  bool fail(const char* what) {
    if (err != nullptr && err->empty()) *err = error_at(what, p);
    return false;
  }
  void ws() {
    while (p < s.size() && (s[p] == ' ' || s[p] == '\n' || s[p] == '\r' || s[p] == '\t')) ++p;
  }
  bool eat(char c) {
    ws();
    if (p >= s.size() || s[p] != c) return false;
    ++p;
    return true;
  }

  bool value(Value* v, int depth) {
    ws();
    v->offset = p;
    if (p >= s.size()) return fail("truncated value");
    if (depth > 64) return fail("nesting too deep");
    if (s[p] == '{' || s[p] == '[') {
      const bool object = s[p++] == '{';
      const char close = object ? '}' : ']';
      v->kind = object ? Value::Kind::kObject : Value::Kind::kArray;
      if (eat(close)) return true;
      do {
        if (object && !(eat('"') && string(&v->keys.emplace_back())))
          return fail("expected key");
        if (object && !eat(':')) return fail("expected ':'");
        if (!value(&v->items.emplace_back(), depth + 1)) return false;
      } while (eat(','));
      return eat(close) || fail(object ? "expected ',' or '}'" : "expected ',' or ']'");
    }
    if (eat('"')) {
      v->kind = Value::Kind::kString;
      return string(&v->str);
    }
    for (const char* word : {"true", "false", "null"}) {
      if (s.substr(p).starts_with(word)) {
        p += std::string_view(word).size();
        v->kind = word[0] == 'n' ? Value::Kind::kNull : Value::Kind::kBool;
        v->bits = word[0] == 't';
        return true;
      }
    }
    return number(v);
  }

  /// Integers that fit uint64 or int64 are kInt; fractions, exponents and
  /// out-of-range integers are valid JSON too, but kNumber.
  bool number(Value* v) {
    const size_t start = p;
    while (p < s.size() && std::string_view("+-.0123456789eE").find(s[p]) != s.npos) ++p;
    const char* first = s.data() + start;
    const char* last = s.data() + p;
    auto whole = [&](auto* out) {
      const auto r = std::from_chars(first, last, *out);
      return start < p && r.ec == std::errc{} && r.ptr == last;
    };
    int64_t i = 0;
    double d = 0;
    if (whole(&v->bits)) {
      v->kind = Value::Kind::kInt;
    } else if (whole(&i)) {
      v->kind = Value::Kind::kInt;
      v->bits = static_cast<uint64_t>(i);
    } else if (whole(&d)) {
      v->kind = Value::Kind::kNumber;
    } else {
      p = start;
      return fail("expected value");
    }
    return true;
  }

  /// The rest of a string whose opening quote was consumed.
  bool string(std::string* out) {
    for (;;) {
      const size_t stop = s.find_first_of("\"\\", p);
      if (stop == std::string_view::npos) {
        p = s.size();
        return fail("unterminated string");
      }
      out->append(s.substr(p, stop - p));
      p = stop + 1;
      if (s[stop] == '"') return true;
      static constexpr std::string_view kLetter = "\"\\/bfnrt", kByte = "\"\\/\b\f\n\r\t";
      const char c = p < s.size() ? s[p++] : 'x';
      if (const size_t k = kLetter.find(c); k != kLetter.npos) {
        out->push_back(kByte[k]);
        continue;
      }
      if (c != 'u') return fail("bad escape");
      unsigned cp = 0;
      for (int k = 0; k < 4; ++k, ++p) {
        const int h = p < s.size() ? hex_digit(s[p]) : -1;
        if (h < 0) return fail("bad \\u escape");
        cp = cp << 4 | static_cast<unsigned>(h);
      }
      // UTF-8 (basic multilingual plane).
      if (cp < 0x80) {
        out->push_back(static_cast<char>(cp));
      } else if (cp < 0x800) {
        out->push_back(static_cast<char>(0xc0 | cp >> 6));
        out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
      } else {
        out->push_back(static_cast<char>(0xe0 | cp >> 12));
        out->push_back(static_cast<char>(0x80 | (cp >> 6 & 0x3f)));
        out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
      }
    }
  }
};

}  // namespace

bool parse(std::string_view text, Value* out, std::string* err) {
  *out = Value{};
  Parser parser{text, err};
  if (!parser.value(out, 0)) return false;
  parser.ws();
  return parser.p == text.size() || parser.fail("trailing characters");
}

namespace detail {

const char* expected(Value::Kind kind) {
  static constexpr const char* kNames[] = {
      "expected null",   "expected bool",  "expected integer", "expected integer",
      "expected string", "expected array", "expected object"};
  return kNames[static_cast<size_t>(kind)];
}

bool decode_hex(std::string_view hex, uint8_t* out, size_t cap, uint8_t* len) {
  if (hex.size() % 2 != 0 || hex.size() / 2 > cap) return false;
  for (*len = 0; *len < hex.size() / 2; ++*len) {
    const int hi = hex_digit(hex[2 * *len]), lo = hex_digit(hex[2 * *len + 1]);
    if (hi < 0 || lo < 0) return false;
    out[*len] = static_cast<uint8_t>(hi << 4 | lo);
  }
  return true;
}

}  // namespace detail
}  // namespace icc::json
