// One JSON codec for every telemetry record (DESIGN.md §5).
//
// Each record declares its fields once, in a visitor found by argument-
// dependent lookup (the FC_REFLECT idiom):
//
//   struct Sample { uint64_t seq = 0; int64_t rss_kb = -1; };
//   template <class Io> void json_fields(Io& io, Sample& s) {
//     io.tag("type", "sample");        // written only
//     io.field("seq", s.seq);          // written; read when present
//     io.opt("rss_kb", s.rss_kb, -1);  // written unless -1
//   }
//
// json::write runs it as an Io<true>, json::read as an Io<false> over a
// parsed Value, so export and parse cannot diverge. Reading is lenient:
// unknown keys are skipped, missing keys keep their defaults, and
// for_each_object_line drops lines that are not one complete object (the
// tail of a killed stream). Strict callers check the error, which names the
// problem and its byte offset.
#pragma once

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/bytes.hpp"

namespace icc::json {

/// Append `s` with quotes, backslashes and control characters escaped.
void append_escaped(std::string* out, std::string_view s);
std::string escape(std::string_view s);
/// "<what> at offset <n>", the form of every codec error.
std::string error_at(std::string_view what, size_t offset);

struct Value {
  enum class Kind : uint8_t { kNull, kBool, kInt, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  uint64_t bits = 0;  ///< kInt (two's complement) or kBool; kNumber: non-integer
  size_t offset = 0;  ///< where the value starts in the parsed text
  std::string str;
  std::vector<std::string> keys;  ///< object member names, parallel to items
  std::vector<Value> items;       ///< array elements / object member values

  const Value* find(std::string_view key) const;      ///< null when absent
  std::string_view text(std::string_view key) const;  ///< "" unless a string
};

/// Parse one document; on failure sets *err when it is non-null and empty.
bool parse(std::string_view text, Value* out, std::string* err);

template <class Fn>
void for_each_object_line(std::string_view text, Fn&& fn) {
  Value v;
  for (size_t pos = 0, nl = 0; pos < text.size(); pos = nl + 1) {
    nl = std::min(text.find('\n', pos), text.size());
    if (parse(text.substr(pos, nl - pos), &v, nullptr) && v.kind == Value::Kind::kObject)
      fn(std::as_const(v));
  }
}

/// The first `len` bytes of `bytes`, as a lowercase hex string.
template <size_t N>
struct Hex {
  std::array<uint8_t, N>& bytes;
  uint8_t& len;
  bool empty() const { return len == 0; }
};

/// A C string in static storage; `intern` maps parsed text back onto it, so
/// recorded and parsed values compare by pointer.
struct Interned {
  const char*& s;
  const char* (*intern)(const std::string&);
  bool empty() const { return s == nullptr || s[0] == '\0'; }
};

/// A fixed array indexed by a name table: written as its non-default
/// entries, each led by `key: names[i]`, and read back by name.
template <class T, size_t N>
struct Keyed {
  std::array<T, N>& items;
  const char* key;
  const char* const* names;
};

namespace detail {
template <class T>
inline constexpr bool kIsVector = false;
template <class T, class A>
inline constexpr bool kIsVector<std::vector<T, A>> = true;
template <class T>
inline constexpr bool kIsPair = false;
template <class A, class B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;
template <class E>
constexpr bool is_named_pair() {
  if constexpr (kIsPair<E>) return std::is_same_v<typename E::first_type, std::string>;
  return false;
}
template <class T>
constexpr bool is_record() {
  return !std::is_integral_v<T> && !std::is_convertible_v<const T&, std::string_view> &&
         !kIsVector<T> && !kIsPair<T>;
}
const char* expected(Value::Kind kind);
bool decode_hex(std::string_view hex, uint8_t* out, size_t cap, uint8_t* len);
}  // namespace detail

/// Runs json_fields one way: Io<true> appends the record's JSON to a string
/// (fixed key order, no whitespace, no floats); Io<false> fills the record
/// from a parsed object. Values: integers (bool as 0/1), strings, vectors
/// as arrays (of records: one element per line), vector<pair<string, T>> as
/// objects, other pairs as [a,b], records, and the wrappers above.
template <bool kWrite>
class Io {
 public:
  explicit Io(std::string* out) : out_(out) {}
  Io(const Value* object, std::string* err) : obj_(object), err_(err) {}
  bool ok() const { return ok_; }

  template <class T>
  void field(std::string_view k, T&& v) {
    if constexpr (kWrite) {
      key(k);
      value(v, nullptr);
    } else if (const Value* x = obj_->find(k)) {
      value(v, x);
    }
  }
  /// Written unless empty / equal to `omit`.
  template <class T>
  void opt(std::string_view k, T&& v) {
    if (!kWrite || !v.empty()) field(k, v);
  }
  template <class T>
  void opt(std::string_view k, T&& v, const std::remove_cvref_t<T>& omit) {
    if (!kWrite || v != omit) field(k, v);
  }
  /// Written only: constants (dispatch keys, schemas; bools as literals)
  /// and derived values.
  template <class T>
  void tag(std::string_view k, T v) {
    if constexpr (kWrite) field(k, v);
  }
  void tag(std::string_view k, bool literal) {
    if (!kWrite) return;
    key(k);
    out_->append(literal ? "true" : "false");
  }
  /// An inline nested object, written when `present`; read sets `present`.
  template <class Fn>
  void group(std::string_view k, bool& present, Fn&& body) {
    if constexpr (kWrite) {
      if (!present) return;
      key(k);
      object(nullptr, body);
    } else if (const Value* x = obj_->find(k)) {
      present = object(x, body);
    }
  }

  /// Run `body` inside an object: written as {...}, or read from `x`.
  template <class Fn>
  bool object(const Value* x, Fn&& body) {
    if constexpr (kWrite) {
      nest('{', '}', body);
    } else {
      if (!want(*x, Value::Kind::kObject)) return false;
      const Value* outer = std::exchange(obj_, x);
      body();
      obj_ = outer;
    }
    return true;
  }

  /// Write `v` (x is null), or read it from `x`.
  template <class T>
  void value(T& v, const Value* x) {
    using Kind = Value::Kind;
    if constexpr (std::is_integral_v<T>) {
      if constexpr (kWrite) {
        char buf[24];
        out_->append(buf, std::to_chars(buf, buf + sizeof buf, +v).ptr);
      } else if (x->kind == Kind::kBool || want(*x, Kind::kInt)) {
        v = static_cast<T>(x->bits);
      }
    } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      if constexpr (kWrite) string(v);
      else if (want(*x, Kind::kString)) v = x->str;
    } else if constexpr (detail::kIsPair<T>) {
      if constexpr (kWrite) {
        nest('[', ']', [&] {
          sep();
          value(v.first, x);
          sep();
          value(v.second, x);
        });
      } else if (want(*x, Kind::kArray) && (x->items.size() == 2 || fail(*x, "expected pair"))) {
        value(v.first, &x->items[0]);
        value(v.second, &x->items[1]);
      }
    } else if constexpr (detail::kIsVector<T>) {
      using E = typename T::value_type;
      constexpr bool kNamed = detail::is_named_pair<E>();
      if constexpr (kWrite) {
        nest(kNamed ? '{' : '[', kNamed ? '}' : ']', [&] {
          for (auto& e : v) {
            if constexpr (kNamed) {
              field(e.first, e.second);
            } else {
              sep();
              if constexpr (detail::is_record<E>()) out_->append("\n ");
              value(e, x);
            }
          }
          if constexpr (detail::is_record<E>()) out_->push_back('\n');
        });
      } else if (want(*x, kNamed ? Kind::kObject : Kind::kArray)) {
        v.clear();
        for (size_t i = 0; i < x->items.size(); ++i) {
          if constexpr (kNamed) {
            v.emplace_back().first = x->keys[i];
            value(v.back().second, &x->items[i]);
          } else {
            value(v.emplace_back(), &x->items[i]);
          }
        }
      }
    } else {
      object(x, [&] { json_fields(*this, v); });
    }
  }
  template <size_t N>
  void value(Hex<N>& h, const Value* x) {
    if constexpr (kWrite) string(to_hex(BytesView(h.bytes.data(), h.len)));
    else if (want(*x, Value::Kind::kString) &&
             !detail::decode_hex(x->str, h.bytes.data(), N, &h.len))
      fail(*x, "expected hex bytes");
  }
  void value(Interned& v, const Value* x) {
    if constexpr (kWrite) string(v.empty() ? "" : v.s);
    else if (want(*x, Value::Kind::kString)) v.s = v.intern(x->str);
  }
  template <class T, size_t N>
  void value(Keyed<T, N>& k, const Value* x) {
    if constexpr (kWrite) {
      nest('[', ']', [&] {
        for (size_t i = 0; i < N; ++i) {
          if (k.items[i] == T{}) continue;
          sep();
          object(x, [&] {
            field(k.key, k.names[i]);
            json_fields(*this, k.items[i]);
          });
        }
      });
    } else if (want(*x, Value::Kind::kArray)) {
      for (const Value& item : x->items)
        for (size_t i = 0; i < N; ++i)
          if (item.text(k.key) == k.names[i]) value(k.items[i], &item);
    }
  }

 private:
  void sep() {
    if (!first_) out_->push_back(',');
    first_ = false;
  }
  void key(std::string_view k) {
    sep();
    string(k);
    out_->push_back(':');
  }
  void string(std::string_view s) {
    out_->push_back('"');
    append_escaped(out_, s);
    out_->push_back('"');
  }
  template <class Fn>
  void nest(char open, char close, Fn&& body) {
    const bool outer = std::exchange(first_, true);
    out_->push_back(open);
    body();
    out_->push_back(close);
    first_ = outer;
  }
  bool want(const Value& x, Value::Kind kind) {
    return x.kind == kind || fail(x, detail::expected(kind));
  }
  bool fail(const Value& x, std::string_view what) {
    if (err_ != nullptr && err_->empty()) *err_ = error_at(what, x.offset);
    ok_ = false;
    return false;
  }

  std::string* out_ = nullptr;  // writing
  bool first_ = true;
  const Value* obj_ = nullptr;  // reading
  std::string* err_ = nullptr;
  bool ok_ = true;
};

/// Append `rec` as one JSON object; `ctx` is handed on to its json_fields
/// (values written from the exporter's context, e.g. a sequence number).
template <class T, class... Ctx>
void write_to(std::string* out, const T& rec, const Ctx&... ctx) {
  // json_fields takes the record mutably so that one declaration serves both
  // directions; writing only reads through it.
  Io<true> io(out);
  io.object(nullptr, [&] { json_fields(io, const_cast<T&>(rec), ctx...); });
}
template <class T, class... Ctx>
std::string write(const T& rec, const Ctx&... ctx) {
  std::string out;
  write_to(&out, rec, ctx...);
  return out;
}

/// Fill `rec` from the object `x`; false (with *err set) when `x` is not an
/// object or a present field has the wrong kind.
template <class T>
bool read(const Value& x, T& rec, std::string* err = nullptr) {
  Io<false> io(&x, err);
  io.value(rec, &x);
  return io.ok();
}

}  // namespace icc::json
