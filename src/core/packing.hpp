// Packing of sub-64-bit quantities and strings into 64-bit trace words.
//
// The facility logs only 64-bit words (paper §3.2: "We chose to log only
// 64-bit words because on some architectures smaller loads can be
// expensive"). These helpers reproduce the "macros provided with the
// tracing facility [that] will pack multiple smaller quantities in one
// 64-bit tracing word".
//
// Strings are encoded as one length word (byte count) followed by
// ceil(len/8) words of little-endian bytes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace ktrace {

/// Pack two 32-bit values: a in the low half, b in the high half.
constexpr uint64_t pack2x32(uint32_t a, uint32_t b) noexcept {
  return static_cast<uint64_t>(a) | (static_cast<uint64_t>(b) << 32);
}

constexpr uint32_t unpackLow32(uint64_t w) noexcept { return static_cast<uint32_t>(w); }
constexpr uint32_t unpackHigh32(uint64_t w) noexcept { return static_cast<uint32_t>(w >> 32); }

/// Pack four 16-bit values, a in bits [15:0] through d in bits [63:48].
constexpr uint64_t pack4x16(uint16_t a, uint16_t b, uint16_t c, uint16_t d) noexcept {
  return static_cast<uint64_t>(a) | (static_cast<uint64_t>(b) << 16) |
         (static_cast<uint64_t>(c) << 32) | (static_cast<uint64_t>(d) << 48);
}

constexpr uint16_t unpack16(uint64_t w, unsigned slot) noexcept {
  return static_cast<uint16_t>(w >> (16 * slot));
}

/// Pack eight bytes, index 0 in the low byte.
constexpr uint64_t pack8x8(const uint8_t bytes[8]) noexcept {
  uint64_t w = 0;
  for (int i = 7; i >= 0; --i) w = (w << 8) | bytes[i];
  return w;
}

/// Number of 64-bit words a string payload occupies (length word included).
constexpr uint32_t stringWords(size_t byteLength) noexcept {
  return 1 + static_cast<uint32_t>((byteLength + 7) / 8);
}

/// Calls emit(word) for each word of a string payload: the length word,
/// then the bytes packed little-endian, eight per word.
template <typename Emit>
inline void forEachStringWord(std::string_view s, Emit&& emit) {
  emit(uint64_t{s.size()});
  for (size_t i = 0; i < s.size(); i += 8) {
    uint64_t w = 0;
    std::memcpy(&w, s.data() + i, std::min<size_t>(8, s.size() - i));
    emit(w);
  }
}

/// Append a string payload (length word + packed bytes) to `out`.
inline void packString(std::string_view s, std::vector<uint64_t>& out) {
  forEachStringWord(s, [&](uint64_t w) { out.push_back(w); });
}

/// Decode a string payload starting at words[0]; returns the number of
/// words consumed, or 0 if the encoding is inconsistent with `availWords`.
inline size_t unpackString(const uint64_t* words, size_t availWords, std::string& out) {
  if (availWords == 0) return 0;
  const uint64_t byteLen = words[0];
  const size_t needWords = stringWords(byteLen);
  if (byteLen > (availWords - 1) * 8 || needWords > availWords) return 0;
  out.resize(byteLen);
  for (size_t i = 0; i < byteLen; i += 8) {
    const uint64_t w = words[1 + i / 8];
    const size_t n = std::min<size_t>(8, byteLen - i);
    std::memcpy(out.data() + i, &w, n);
  }
  return needWords;
}

}  // namespace ktrace
