// Byte-oriented LZ block codec (LZ4-style token format, no external
// dependency) used for optional trace-block compression (trace-file
// format v3, DESIGN.md §12).
//
// Stream format: a sequence of tokens. Each token byte holds a literal
// length in its high nibble and a match length minus 4 in its low nibble
// (15 marks an extension: add following bytes of 255 until a byte < 255).
// The literals follow the length, then a 2-byte little-endian match
// offset (1..65535) back into the already-produced output. The final
// sequence carries literals only. Trace words are highly repetitive
// (fixed headers, small deltas), so even this greedy single-pass matcher
// typically halves SDET-style trace bodies.
//
// The decompressor trusts nothing: every read and write is bounds
// checked, and malformed input yields -1, never UB — salvage feeds it
// bytes that failed their CRC. Away from the ends of its buffers it copies
// in fixed-size chunks that may run past the current sequence (LZ4's
// "wild copy"); the last few bytes of input and output take an exact
// byte-wise path, and both paths produce the same bytes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ktrace::util {

/// Worst-case compressed size for `srcLen` input bytes (incompressible
/// data expands by the token/extension overhead).
constexpr size_t lzCompressBound(size_t srcLen) noexcept {
  return srcLen + srcLen / 255 + 16;
}

/// Compresses `srcLen` bytes into `dst` (capacity `dstCap`). Returns the
/// compressed size, or 0 if the output would not fit in `dstCap` — pass a
/// cap below srcLen to make "not worth compressing" a cheap outcome.
size_t lzCompress(const void* src, size_t srcLen, void* dst, size_t dstCap);

/// Decompresses `srcLen` bytes into `dst` (capacity `dstCap`). Returns
/// the number of bytes produced, or -1 on malformed input (truncated
/// stream, offset outside the produced window, output overflow).
/// Bytes of `dst` between the returned length and `dstCap` may be
/// overwritten (all of it on -1): size `dst` for the whole output even
/// when only a prefix is wanted.
///
/// `stopAfter`, when nonzero, allows an early return once at least that
/// many bytes have been produced — the footer-planning path peeks at a
/// block's first record without paying for the whole block.
ptrdiff_t lzDecompress(const void* src, size_t srcLen, void* dst, size_t dstCap,
                       size_t stopAfter = 0);

}  // namespace ktrace::util
