// Byte-buffer utilities shared across the library.
//
// All wire objects in this codebase serialize to `Bytes` (a std::vector of
// std::byte would be stricter, but uint8_t keeps interop with the crypto
// routines simple and is the conventional choice for byte-oriented code).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace icc {

using Bytes = std::vector<uint8_t>;
using BytesView = std::span<const uint8_t>;

/// Hex-encode a byte span (lowercase, no prefix).
std::string to_hex(BytesView data);

/// Decode a hex string; throws std::invalid_argument on malformed input.
Bytes from_hex(std::string_view hex);

/// Value of one hex digit (either case); -1 when `c` is not one.
int hex_digit(char c);

/// Whole-file I/O for exporters and the offline tools; false on I/O error.
bool read_file(const std::string& path, std::string* out);
bool write_file(const std::string& path, std::string_view text);

/// Append `src` to `dst`.
inline void append(Bytes& dst, BytesView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// Append a string's bytes to `dst`.
inline void append(Bytes& dst, std::string_view src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// Concatenate any number of byte spans.
template <typename... Spans>
Bytes concat(const Spans&... spans) {
  Bytes out;
  out.reserve((spans.size() + ...));
  (append(out, BytesView(spans)), ...);
  return out;
}

/// Bytes of a string literal / std::string.
inline Bytes str_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

/// Little-endian encoding helpers (used by hashing and serialization).
inline void put_u32le(Bytes& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 24));
}

inline void put_u64le(Bytes& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

inline uint32_t get_u32le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

inline uint64_t get_u64le(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

/// Constant-size array view helpers.
template <size_t N>
std::array<uint8_t, N> to_array(BytesView v) {
  std::array<uint8_t, N> a{};
  std::memcpy(a.data(), v.data(), N);
  return a;
}

}  // namespace icc
