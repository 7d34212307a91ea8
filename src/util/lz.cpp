#include "util/lz.hpp"

#include <cstring>

namespace ktrace::util {

namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
constexpr int kHashBits = 13;
// Decoder fast paths: a short literal run (< 15 bytes) is copied as one
// fixed kWildLiteral-byte block, a match in kMatchChunk-byte chunks. Both
// write past the sequence's end into output that the following sequences
// overwrite (or that lies past the returned length), so each is taken
// only when that much input and output room remains.
constexpr size_t kWildLiteral = 16;
constexpr size_t kMatchChunk = 8;

inline uint32_t hash4(const unsigned char* p) noexcept {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

inline bool emitLength(unsigned char*& out, const unsigned char* outEnd,
                       size_t len) noexcept {
  while (len >= 255) {
    if (out >= outEnd) return false;
    *out++ = 255;
    len -= 255;
  }
  if (out >= outEnd) return false;
  *out++ = static_cast<unsigned char>(len);
  return true;
}

/// Copies an m-byte match starting `offset` bytes back, kMatchChunk bytes
/// at a time; writes up to kMatchChunk - 1 bytes past out + m. Offsets
/// below kMatchChunk are first expanded (LZ4's increment / decrement
/// tables) so that the source then trails the destination by a multiple
/// of the period of at least kMatchChunk bytes, and every chunk copy reads
/// only bytes already written.
inline void wildCopyMatch(unsigned char* out, size_t offset, size_t m) noexcept {
  static constexpr unsigned kInc[kMatchChunk] = {0, 1, 2, 1, 0, 4, 4, 4};
  static constexpr int kDec[kMatchChunk] = {0, 0, 0, -1, -4, 1, 2, 3};
  unsigned char* const end = out + m;
  const unsigned char* from = out - offset;
  if (offset < kMatchChunk) {
    out[0] = from[0];
    out[1] = from[1];
    out[2] = from[2];
    out[3] = from[3];
    from += kInc[offset];
    std::memcpy(out + 4, from, 4);
    from -= kDec[offset];
  } else {
    std::memcpy(out, from, kMatchChunk);
    from += kMatchChunk;
  }
  out += kMatchChunk;
  while (out < end) {
    std::memcpy(out, from, kMatchChunk);
    out += kMatchChunk;
    from += kMatchChunk;
  }
}

}  // namespace

size_t lzCompress(const void* srcv, size_t srcLen, void* dstv, size_t dstCap) {
  const auto* src = static_cast<const unsigned char*>(srcv);
  auto* dst = static_cast<unsigned char*>(dstv);
  unsigned char* out = dst;
  unsigned char* const outEnd = dst + dstCap;

  uint32_t table[1u << kHashBits];
  std::memset(table, 0, sizeof(table));  // 0 = "no entry" (offset 0 is src start,
                                         // harmless: it just fails the match test)

  const unsigned char* anchor = src;  // start of pending literals
  const unsigned char* p = src;
  // The last kMinMatch+1 bytes are always literals — no room for a match
  // worth emitting, and it keeps every 4-byte hash read in bounds.
  const unsigned char* const matchLimit =
      srcLen > kMinMatch + 1 ? src + srcLen - (kMinMatch + 1) : src;

  auto emitSequence = [&](const unsigned char* literalEnd, size_t matchLen,
                          size_t offset) -> bool {
    const size_t litLen = static_cast<size_t>(literalEnd - anchor);
    if (out >= outEnd) return false;
    unsigned char* token = out++;
    const size_t litNibble = litLen < 15 ? litLen : 15;
    size_t matchNibble = 0;
    if (matchLen != 0) {
      const size_t m = matchLen - kMinMatch;
      matchNibble = m < 15 ? m : 15;
    }
    *token = static_cast<unsigned char>((litNibble << 4) | matchNibble);
    if (litLen >= 15 && !emitLength(out, outEnd, litLen - 15)) return false;
    if (out + litLen > outEnd) return false;
    // An empty input may come with a null `src`, and memcpy needs valid
    // pointers even for zero bytes.
    if (litLen != 0) std::memcpy(out, anchor, litLen);
    out += litLen;
    if (matchLen == 0) return true;  // final literal run
    if (out + 2 > outEnd) return false;
    out[0] = static_cast<unsigned char>(offset & 0xFF);
    out[1] = static_cast<unsigned char>(offset >> 8);
    out += 2;
    if (matchLen - kMinMatch >= 15 &&
        !emitLength(out, outEnd, matchLen - kMinMatch - 15)) {
      return false;
    }
    return true;
  };

  while (p < matchLimit) {
    const uint32_t h = hash4(p);
    const unsigned char* candidate = src + table[h];
    table[h] = static_cast<uint32_t>(p - src);
    if (candidate >= p || static_cast<size_t>(p - candidate) > kMaxOffset ||
        std::memcmp(candidate, p, kMinMatch) != 0) {
      ++p;
      continue;
    }
    // Extend the match as far as the (bounded) tail allows.
    const unsigned char* const end = src + srcLen - (kMinMatch + 1);
    size_t matchLen = kMinMatch;
    while (p + matchLen < end && candidate[matchLen] == p[matchLen]) ++matchLen;
    if (!emitSequence(p, matchLen, static_cast<size_t>(p - candidate))) return 0;
    p += matchLen;
    anchor = p;
    if (p < matchLimit) {
      // Re-prime the table at the match tail so back-to-back repeats chain.
      table[hash4(p - 2)] = static_cast<uint32_t>(p - 2 - src);
    }
  }
  if (!emitSequence(src + srcLen, 0, 0)) return 0;
  return static_cast<size_t>(out - dst);
}

ptrdiff_t lzDecompress(const void* srcv, size_t srcLen, void* dstv,
                       size_t dstCap, size_t stopAfter) {
  const auto* in = static_cast<const unsigned char*>(srcv);
  const unsigned char* const inEnd = in + srcLen;
  auto* dst = static_cast<unsigned char*>(dstv);
  unsigned char* out = dst;
  unsigned char* const outEnd = dst + dstCap;
  auto inLeft = [&] { return static_cast<size_t>(inEnd - in); };
  auto outLeft = [&] { return static_cast<size_t>(outEnd - out); };

  // Adds a nibble's extension bytes to `len`; false on a truncated stream
  // or a length no valid stream can carry.
  auto extendLength = [&](size_t& len) -> bool {
    if (len != 15) return true;
    unsigned char b;
    do {
      if (in >= inEnd) return false;
      b = *in++;
      len += b;
      if (len > dstCap + srcLen) return false;  // length bomb
    } while (b == 255);
    return true;
  };

  while (in < inEnd) {
    const unsigned char token = *in++;
    size_t litLen = token >> 4;
    if (litLen < 15 && inLeft() >= kWildLiteral && outLeft() >= kWildLiteral) {
      // Short literal run with room on both sides: one fixed-size copy.
      std::memcpy(out, in, kWildLiteral);
    } else {
      if (!extendLength(litLen)) return -1;
      if (litLen > inLeft() || litLen > outLeft()) return -1;
      if (litLen != 0) std::memcpy(out, in, litLen);  // `dst` may be null if empty
    }
    in += litLen;
    out += litLen;
    if (in == inEnd) break;  // final sequence: literals only
    if (inLeft() < 2) return -1;
    const size_t offset = static_cast<size_t>(in[0]) | (static_cast<size_t>(in[1]) << 8);
    in += 2;
    if (offset == 0 || offset > static_cast<size_t>(out - dst)) return -1;
    size_t m = token & 0x0F;
    if (!extendLength(m)) return -1;
    m += kMinMatch;
    if (m > outLeft()) return -1;
    if (outLeft() - m >= kMatchChunk) {
      wildCopyMatch(out, offset, m);
    } else {
      // Exact tail copy. Byte by byte: matches may overlap their own
      // output (offset < length replicates a run).
      const unsigned char* from = out - offset;
      for (size_t i = 0; i < m; ++i) out[i] = from[i];
    }
    out += m;
    if (stopAfter != 0 && static_cast<size_t>(out - dst) >= stopAfter) break;
  }
  return out - dst;
}

}  // namespace ktrace::util
