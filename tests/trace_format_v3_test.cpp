// Trace-file format v3: footer index, per-block CRCs, and block
// compression.
//
// The invariants under test:
//   - the LZ codec round-trips and its decompressor is safe on garbage;
//   - the same event stream written as v1, v2, v3, and v3-compressed
//     decodes bit-identically under every (threads, mmap) combination;
//   - any single-byte corruption of the footer window is either rejected
//     by the strict reader or salvaged, never silently misdecoded;
//   - a corrupt compressed block is dropped whole and tallied.
#include "core/trace_file.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "analysis/reader.hpp"
#include "core/batching_sink.hpp"
#include "core/consumer.hpp"
#include "test_support.hpp"
#include "util/lz.hpp"

namespace ktrace {
namespace {

constexpr uint64_t kHeaderBytes = 128;
constexpr uint64_t kRecordHeaderBytes = 32;

// --- LZ codec -----------------------------------------------------------

/// Deterministic PRNG (xorshift64*) — tests must not depend on seeds.
struct Rng {
  uint64_t s;
  explicit Rng(uint64_t seed) : s(seed | 1) {}
  uint64_t next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545F4914F6CDD1Dull;
  }
};

TEST(LzCodec, RoundTripsCompressibleData) {
  // Trace-like payload: repetitive small integers.
  std::vector<uint8_t> src(64 * 1024);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<uint8_t>((i / 64) & 0x0F);
  }
  std::vector<uint8_t> dst(src.size());
  const size_t csize = util::lzCompress(src.data(), src.size(), dst.data(),
                                        dst.size());
  ASSERT_NE(csize, 0u);
  EXPECT_LT(csize, src.size() / 4);  // repetitive data must shrink a lot
  std::vector<uint8_t> out(src.size());
  EXPECT_EQ(util::lzDecompress(dst.data(), csize, out.data(), out.size()),
            static_cast<ptrdiff_t>(src.size()));
  EXPECT_EQ(std::memcmp(out.data(), src.data(), src.size()), 0);
}

TEST(LzCodec, RefusesWhenOutputWouldNotShrink) {
  // Incompressible bytes with a destination capped below the source size:
  // lzCompress signals "not worth it" by returning 0.
  Rng rng(0x9E3779B97F4A7C15ull);
  std::vector<uint8_t> src(4096);
  for (auto& b : src) b = static_cast<uint8_t>(rng.next());
  std::vector<uint8_t> dst(src.size() - 16);
  EXPECT_EQ(util::lzCompress(src.data(), src.size(), dst.data(), dst.size()),
            0u);
}

TEST(LzCodec, RoundTripsEdgeSizes) {
  for (const size_t n : {size_t{0}, size_t{1}, size_t{4}, size_t{13},
                         size_t{64}, size_t{65}, size_t{4095}}) {
    std::vector<uint8_t> src(n, 0xAB);
    std::vector<uint8_t> dst(n + 64);
    const size_t csize =
        util::lzCompress(src.data(), n, dst.data(), dst.size());
    ASSERT_NE(csize, 0u) << n;
    std::vector<uint8_t> out(n);
    EXPECT_EQ(util::lzDecompress(dst.data(), csize, out.data(), n),
              static_cast<ptrdiff_t>(n))
        << n;
    if (n != 0) {
      EXPECT_EQ(std::memcmp(out.data(), src.data(), n), 0) << n;
    }
  }
}

TEST(LzCodec, StopAfterDecompressesPrefixOnly) {
  std::vector<uint8_t> src(8192);
  for (size_t i = 0; i < src.size(); ++i) src[i] = static_cast<uint8_t>(i);
  std::vector<uint8_t> dst(src.size() + 64);
  const size_t csize =
      util::lzCompress(src.data(), src.size(), dst.data(), dst.size());
  ASSERT_NE(csize, 0u);
  // The output buffer must still hold the full raw size (sequences can
  // overshoot the stop point); only the early exit is being tested.
  std::vector<uint8_t> out(src.size());
  const ptrdiff_t n = util::lzDecompress(dst.data(), csize, out.data(),
                                         out.size(), /*stopAfter=*/100);
  ASSERT_GE(n, 100);
  EXPECT_EQ(std::memcmp(out.data(), src.data(), 100), 0);
}

TEST(LzCodec, DecompressorSurvivesGarbage) {
  // Feed the decompressor pseudo-random streams and bit-flipped valid
  // streams: every call must return cleanly (length or -1) with no
  // out-of-bounds access — the sanitizer builds are the real assertion.
  Rng rng(0xC0FFEEull);
  std::vector<uint8_t> out(4096);
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t len = 1 + rng.next() % 512;
    std::vector<uint8_t> junk(len);
    for (auto& b : junk) b = static_cast<uint8_t>(rng.next());
    const ptrdiff_t n =
        util::lzDecompress(junk.data(), junk.size(), out.data(), out.size());
    EXPECT_TRUE(n == -1 || (n >= 0 && n <= static_cast<ptrdiff_t>(out.size())));
  }
  // Valid stream, every byte flipped in turn.
  std::vector<uint8_t> src(512);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<uint8_t>((i / 16) * 3);
  }
  std::vector<uint8_t> comp(src.size() + 64);
  const size_t csize =
      util::lzCompress(src.data(), src.size(), comp.data(), comp.size());
  ASSERT_NE(csize, 0u);
  for (size_t i = 0; i < csize; ++i) {
    for (const uint8_t mask : {0x01, 0x80}) {
      comp[i] ^= mask;
      const ptrdiff_t n =
          util::lzDecompress(comp.data(), csize, out.data(), src.size());
      EXPECT_TRUE(n == -1 ||
                  (n >= 0 && n <= static_cast<ptrdiff_t>(src.size())));
      comp[i] ^= mask;
    }
  }
}

// --- LZ decoder against a byte-at-a-time oracle ------------------------

/// The plain decoder: every byte read, written and checked one at a time.
/// The library decoder's wild copies must give the same return value and
/// the same bytes up to it, whatever the input.
ptrdiff_t referenceLzDecompress(const uint8_t* in, size_t srcLen, uint8_t* dst,
                                size_t dstCap, size_t stopAfter) {
  size_t ip = 0, op = 0;
  auto length = [&](size_t nibble, size_t& len) {
    len = nibble;
    if (nibble != 15) return true;
    uint8_t b = 255;
    while (b == 255) {
      if (ip >= srcLen) return false;
      b = in[ip++];
      len += b;
      if (len > dstCap + srcLen) return false;
    }
    return true;
  };
  while (ip < srcLen) {
    const uint8_t token = in[ip++];
    size_t lit = 0;
    if (!length(token >> 4, lit)) return -1;
    for (size_t i = 0; i < lit; ++i) {
      if (ip >= srcLen || op >= dstCap) return -1;
      dst[op++] = in[ip++];
    }
    if (ip == srcLen) break;
    if (srcLen - ip < 2) return -1;
    const size_t offset = in[ip] | (size_t{in[ip + 1]} << 8);
    ip += 2;
    if (offset == 0 || offset > op) return -1;
    size_t match = 0;
    if (!length(token & 0x0F, match)) return -1;
    match += 4;
    for (size_t i = 0; i < match; ++i) {
      if (op >= dstCap) return -1;
      dst[op] = dst[op - offset];
      ++op;
    }
    if (stopAfter != 0 && op >= stopAfter) break;
  }
  return static_cast<ptrdiff_t>(op);
}

/// Hand-built token streams, so a test can name each sequence's literal
/// length, match length and offset.
struct LzStream {
  std::vector<uint8_t> bytes;
  size_t produced = 0;  // output length once decoded

  void length(size_t extra) {
    for (; extra >= 255; extra -= 255) bytes.push_back(255);
    bytes.push_back(static_cast<uint8_t>(extra));
  }
  /// A token and its literals; the caller appends any match part.
  void literalRun(size_t literals, size_t matchNibble, uint8_t fill) {
    bytes.push_back(
        static_cast<uint8_t>((std::min<size_t>(literals, 15) << 4) | matchNibble));
    if (literals >= 15) length(literals - 15);
    for (size_t i = 0; i < literals; ++i) {
      bytes.push_back(static_cast<uint8_t>(fill + i * 7));
    }
    produced += literals;
  }
  void sequence(size_t literals, size_t match, size_t offset, uint8_t fill) {
    const size_t m = match - 4;
    literalRun(literals, std::min<size_t>(m, 15), fill);
    bytes.push_back(static_cast<uint8_t>(offset & 0xFF));
    bytes.push_back(static_cast<uint8_t>(offset >> 8));
    if (m >= 15) length(m - 15);
    produced += match;
  }
  void finish(size_t literals, uint8_t fill) { literalRun(literals, 0, fill); }
};

/// Decodes `stream` with both decoders into buffers of exactly `dstCap`
/// bytes (so the sanitizers see any write past the capacity) and requires
/// the same outcome.
void expectMatchesReference(const std::vector<uint8_t>& stream, size_t dstCap,
                            size_t stopAfter, const std::string& what) {
  std::vector<uint8_t> want(dstCap), got(dstCap);
  const ptrdiff_t wantN = referenceLzDecompress(stream.data(), stream.size(),
                                                want.data(), dstCap, stopAfter);
  const ptrdiff_t gotN = util::lzDecompress(stream.data(), stream.size(),
                                            got.data(), dstCap, stopAfter);
  ASSERT_EQ(gotN, wantN) << what << " cap " << dstCap << " stop " << stopAfter;
  if (wantN > 0) {
    ASSERT_EQ(std::memcmp(got.data(), want.data(), static_cast<size_t>(wantN)), 0)
        << what << " cap " << dstCap << " stop " << stopAfter;
  }
}

// Literal and match lengths on both sides of the nibble's extension
// thresholds (15 and 15 + 255).
constexpr size_t kLzLengths[] = {0, 1, 7, 8, 9, 14, 15, 16, 17, 31,
                                 269, 270, 271, 525, 526};

TEST(LzCodec, WildCopyMatchesReferenceForEveryOffsetAndLength) {
  for (size_t offset = 1; offset <= 20; ++offset) {
    for (const size_t literals : kLzLengths) {
      for (const size_t extra : kLzLengths) {
        const size_t match = 4 + extra;
        LzStream s;
        s.sequence(20, 4, 20, 0x11);  // 24 bytes of history to reach back into
        s.sequence(literals, match, offset, 0x40);
        s.sequence(3, 5 + offset % 4, offset, 0x90);
        s.finish(6, 0xC0);
        const std::string what = "offset " + std::to_string(offset) +
                                 " lit " + std::to_string(literals) +
                                 " match " + std::to_string(match);
        expectMatchesReference(s.bytes, s.produced, 0, what);
        expectMatchesReference(s.bytes, s.produced + 40, 0, what);
      }
    }
  }
}

TEST(LzCodec, WildCopyMatchesReferenceNearTheEndOfTheOutput) {
  // Every capacity from short of the output to well past it: sequences
  // ending within 16 bytes of dstCap take the exact path, and a capacity
  // one byte short must still fail cleanly.
  for (size_t offset = 1; offset <= 20; ++offset) {
    for (const size_t tail : {size_t{0}, size_t{1}, size_t{5}, size_t{14},
                              size_t{15}, size_t{16}, size_t{17}, size_t{40}}) {
      LzStream s;
      s.sequence(20, 4, 20, 0x21);
      for (int k = 0; k < 6; ++k) {
        s.sequence(static_cast<size_t>(k * 3), 4 + static_cast<size_t>(k * 5),
                   offset, static_cast<uint8_t>(0x30 + k));
      }
      s.finish(tail, 0x77);
      const std::string what =
          "offset " + std::to_string(offset) + " tail " + std::to_string(tail);
      for (size_t cap = s.produced > 40 ? s.produced - 40 : 0;
           cap <= s.produced + 20; ++cap) {
        expectMatchesReference(s.bytes, cap, 0, what);
      }
    }
  }
}

TEST(LzCodec, WildCopyMatchesReferenceWithStopAfter) {
  LzStream s;
  s.sequence(16, 4, 16, 0x01);
  for (size_t k = 0; k < 40; ++k) {
    s.sequence(k % 17, 4 + (k * 7) % 23, 1 + k % 20, static_cast<uint8_t>(k));
  }
  s.finish(9, 0x55);
  for (size_t stop = 1; stop <= s.produced + 2; stop += 3) {
    expectMatchesReference(s.bytes, s.produced, stop, "stop");
    expectMatchesReference(s.bytes, s.produced + 16, stop, "stop, slack");
  }
  // And over the compressor's own output, the footer-planning peek's case.
  std::vector<uint8_t> src(8192);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<uint8_t>((i / 24) ^ (i % 24 < 6 ? i : 0));
  }
  std::vector<uint8_t> comp(util::lzCompressBound(src.size()));
  comp.resize(util::lzCompress(src.data(), src.size(), comp.data(), comp.size()));
  ASSERT_FALSE(comp.empty());
  for (const size_t stop : {size_t{1}, size_t{40}, size_t{4096}, src.size()}) {
    expectMatchesReference(comp, src.size(), stop, "compressed");
  }
}

TEST(LzCodec, WildCopyMatchesReferenceOnRandomAndDamagedStreams) {
  Rng rng(0xD1CE5EEDull);
  // Random well-formed streams, decoded whole and into short buffers.
  for (int iter = 0; iter < 300; ++iter) {
    LzStream s;
    s.sequence(1 + rng.next() % 20, 4, 1, 0x10);
    const int sequences = 1 + static_cast<int>(rng.next() % 24);
    for (int k = 0; k < sequences; ++k) {
      const size_t literals = kLzLengths[rng.next() % std::size(kLzLengths)];
      const size_t match = 4 + kLzLengths[rng.next() % std::size(kLzLengths)];
      const size_t offset = 1 + rng.next() % std::min<size_t>(s.produced + literals, 40);
      s.sequence(literals, match, offset, static_cast<uint8_t>(rng.next()));
    }
    s.finish(rng.next() % 30, static_cast<uint8_t>(rng.next()));
    expectMatchesReference(s.bytes, s.produced, 0, "random");
    expectMatchesReference(s.bytes, s.produced - rng.next() % (s.produced + 1), 0,
                           "random, short");
    // Then damaged: one byte replaced, or the stream cut short.
    std::vector<uint8_t> bad = s.bytes;
    bad[rng.next() % bad.size()] = static_cast<uint8_t>(rng.next());
    expectMatchesReference(bad, s.produced + 32, 0, "flipped");
    bad = s.bytes;
    bad.resize(rng.next() % bad.size());
    expectMatchesReference(bad, s.produced, 0, "truncated");
  }
  // Pure noise.
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> junk(1 + rng.next() % 300);
    for (auto& b : junk) b = static_cast<uint8_t>(rng.next());
    expectMatchesReference(junk, rng.next() % 2048, 0, "noise");
  }
}

// --- Cross-version decode identity -------------------------------------

class TraceFormatV3Test : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ktrace_v3_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Logs a workload and captures the completed BufferRecords, grouped by
  /// processor in seq order — the raw material every format variant
  /// writes identically.
  std::map<uint32_t, std::vector<BufferRecord>> makeRecords(
      uint32_t procs, int eventsPerProcessor, uint32_t bufferWords) {
    testing::FakeFacility fx(procs, bufferWords, /*buffersPerProcessor=*/8);
    MemorySink sink;
    Consumer consumer(fx.facility, sink, {});
    for (uint32_t p = 0; p < procs; ++p) {
      fx.facility.bindCurrentThread(p);
      for (int i = 0; i < eventsPerProcessor; ++i) {
        EXPECT_TRUE(fx.facility.log(Major::Test, static_cast<uint16_t>(p),
                                    uint64_t(i), uint64_t(p), uint64_t(i * 3)));
        // Drain before the ring laps so every buffer survives to disk.
        if (i % 32 == 31) consumer.drainNow();
      }
    }
    fx.facility.flushAll();
    consumer.drainNow();
    std::map<uint32_t, std::vector<BufferRecord>> byCpu;
    for (BufferRecord& r : sink.records()) {
      byCpu[r.processor].push_back(std::move(r));
    }
    for (auto& [cpu, records] : byCpu) {
      std::stable_sort(records.begin(), records.end(),
                       [](const BufferRecord& a, const BufferRecord& b) {
                         return a.seq < b.seq;
                       });
    }
    return byCpu;
  }

  /// Writes one file per processor in the given format. `batch` routes
  /// whole runs through writeBufferBatch (the path that compresses);
  /// otherwise records go one at a time.
  std::vector<std::string> writeFiles(
      const std::map<uint32_t, std::vector<BufferRecord>>& byCpu,
      uint32_t bufferWords, const std::string& stem,
      const TraceWriterOptions& options, bool batch) {
    std::vector<std::string> paths;
    for (const auto& [cpu, records] : byCpu) {
      TraceFileMeta meta;
      meta.processorId = cpu;
      meta.numProcessors = static_cast<uint32_t>(byCpu.size());
      meta.bufferWords = bufferWords;
      meta.clockKind = ClockKind::Fake;
      const std::string path =
          (dir_ / (stem + ".cpu" + std::to_string(cpu) + ".ktrc")).string();
      TraceFileWriter writer(path, meta, nullptr, options);
      if (batch) {
        std::vector<const BufferRecord*> ptrs;
        for (const BufferRecord& r : records) ptrs.push_back(&r);
        EXPECT_EQ(writer.writeBufferBatch(ptrs.data(), ptrs.size()),
                  ptrs.size());
      } else {
        for (const BufferRecord& r : records) EXPECT_TRUE(writer.writeBuffer(r));
      }
      EXPECT_TRUE(writer.flush());
      paths.push_back(path);
    }
    return paths;
  }

  /// Order-sensitive digest of a decoded TraceSet (FNV-1a over every
  /// field the decode contract promises to reproduce).
  static uint64_t digest(const analysis::TraceSet& t) {
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xFF;
        h *= 1099511628211ull;
      }
    };
    mix(t.numProcessors());
    for (uint32_t p = 0; p < t.numProcessors(); ++p) {
      for (const DecodedEvent& e : t.processorEvents(p)) {
        mix(e.header.encode());
        mix(e.fullTimestamp);
        mix(e.bufferSeq);
        mix(e.offsetInBuffer);
        mix(e.processor);
        mix(e.data.size());
        for (uint32_t w = 0; w < e.data.size(); ++w) mix(e.data[w]);
      }
    }
    return h;
  }

  /// Transcodes a v2 file into the legacy v1 layout (no record magic/CRC):
  /// same file geometry, version patched to 1, each 32-byte record header
  /// rewritten from {magic,crc,seq,delta,cpu,flags} to
  /// {seq,delta,cpu,flags,reserved}. Lets the suite cover v1 decode
  /// without resurrecting a v1 writer.
  static std::string transcodeToV1(const std::string& v2path,
                                   const std::string& v1path,
                                   uint32_t bufferWords) {
    std::ifstream in(v2path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    const uint32_t v1 = 1;
    std::memcpy(bytes.data() + 8, &v1, 4);  // DiskFileHeader.version
    const uint64_t recordBytes = kRecordHeaderBytes + bufferWords * 8ull;
    for (uint64_t off = kHeaderBytes; off + recordBytes <= bytes.size();
         off += recordBytes) {
      char* h = bytes.data() + off;
      uint64_t seq, delta;
      uint32_t cpu, flags;
      std::memcpy(&seq, h + 8, 8);
      std::memcpy(&delta, h + 16, 8);
      std::memcpy(&cpu, h + 24, 4);
      std::memcpy(&flags, h + 28, 4);
      std::memset(h, 0, kRecordHeaderBytes);
      std::memcpy(h + 0, &seq, 8);
      std::memcpy(h + 8, &delta, 8);
      std::memcpy(h + 16, &cpu, 4);
      std::memcpy(h + 20, &flags, 4);
    }
    std::ofstream out(v1path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return v1path;
  }

  /// Reads the v3 trailer's footerOffset (the exact end of the record
  /// body) straight from the last 64 bytes of the file.
  static uint64_t footerOffsetOf(const std::string& path) {
    const uint64_t size = std::filesystem::file_size(path);
    std::ifstream in(path, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(size - 64));
    char trailer[64];
    in.read(trailer, 64);
    EXPECT_EQ(std::memcmp(trailer, "KTRCEND3", 8), 0);
    uint64_t off = 0;
    std::memcpy(&off, trailer + 8, 8);
    return off;
  }

  static void corruptByte(const std::string& p, uint64_t offset, uint8_t mask) {
    std::FILE* f = std::fopen(p.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    std::fputc(c ^ mask, f);
    std::fclose(f);
  }

  std::filesystem::path dir_;
};

TEST_F(TraceFormatV3Test, AllVersionsDecodeBitIdentically) {
  constexpr uint32_t kBufferWords = 64;
  const auto byCpu = makeRecords(/*procs=*/3, /*eventsPerProcessor=*/400,
                                 kBufferWords);

  struct Variant {
    const char* name;
    std::vector<std::string> paths;
  };
  TraceWriterOptions v2;
  v2.formatVersion = 2;
  TraceWriterOptions v3;
  TraceWriterOptions v3z;
  v3z.compress = true;
  std::vector<Variant> variants;
  variants.push_back({"v2", writeFiles(byCpu, kBufferWords, "v2", v2, false)});
  {
    std::vector<std::string> v1paths;
    for (size_t i = 0; i < variants[0].paths.size(); ++i) {
      v1paths.push_back(transcodeToV1(
          variants[0].paths[i],
          (dir_ / ("v1.cpu" + std::to_string(i) + ".ktrc")).string(),
          kBufferWords));
    }
    variants.push_back({"v1", std::move(v1paths)});
  }
  variants.push_back({"v3", writeFiles(byCpu, kBufferWords, "v3", v3, false)});
  variants.push_back(
      {"v3batch", writeFiles(byCpu, kBufferWords, "v3b", v3, true)});
  variants.push_back(
      {"v3z", writeFiles(byCpu, kBufferWords, "v3z", v3z, true)});

  // Compression must actually shrink this workload.
  EXPECT_LT(std::filesystem::file_size(variants[4].paths[0]),
            std::filesystem::file_size(variants[2].paths[0]));
  // Serial vs batched v3 writes must be byte-identical files.
  for (size_t i = 0; i < variants[2].paths.size(); ++i) {
    std::ifstream a(variants[2].paths[i], std::ios::binary);
    std::ifstream b(variants[3].paths[i], std::ios::binary);
    std::string da((std::istreambuf_iterator<char>(a)),
                   std::istreambuf_iterator<char>());
    std::string db((std::istreambuf_iterator<char>(b)),
                   std::istreambuf_iterator<char>());
    EXPECT_EQ(da, db) << "serial vs batched v3 file " << i;
  }

  uint64_t reference = 0;
  bool haveReference = false;
  for (const Variant& v : variants) {
    for (const uint32_t threads : {1u, 8u}) {
      for (const bool mmapOn : {false, true}) {
        DecodeOptions options;
        options.threads = threads;
        options.useMmap = mmapOn;
        const auto trace = analysis::TraceSet::fromFiles(v.paths, options);
        const uint64_t d = digest(trace);
        if (!haveReference) {
          reference = d;
          haveReference = true;
        }
        EXPECT_EQ(d, reference)
            << v.name << " threads=" << threads
            << " mmap=" << (mmapOn ? "on" : "off");
        // Salvage over clean files must agree too.
        DecodeOptions salvage = options;
        salvage.salvage = true;
        EXPECT_EQ(digest(analysis::TraceSet::fromFiles(v.paths, salvage)),
                  reference)
            << v.name << " salvage";
      }
    }
  }
}

TEST_F(TraceFormatV3Test, SplitPointsAreValidBlockBoundaries) {
  constexpr uint32_t kBufferWords = 64;
  const auto byCpu = makeRecords(/*procs=*/1, /*eventsPerProcessor=*/2000,
                                 kBufferWords);
  const auto paths =
      writeFiles(byCpu, kBufferWords, "split", TraceWriterOptions{}, true);
  TraceFileReader reader(paths[0]);
  const uint64_t count = reader.bufferCount();
  ASSERT_GT(count, 64u);
  for (const uint32_t target : {1u, 2u, 7u, 64u}) {
    const auto splits = reader.parallelSplitPoints(target);
    ASSERT_FALSE(splits.empty());
    EXPECT_EQ(splits.front(), 0u);
    EXPECT_LE(splits.size(), static_cast<size_t>(target));
    for (size_t i = 1; i < splits.size(); ++i) {
      EXPECT_LT(splits[i - 1], splits[i]);
      EXPECT_LT(splits[i], count);
    }
  }
  // v2 files never split.
  TraceWriterOptions v2;
  v2.formatVersion = 2;
  const auto v2paths = writeFiles(byCpu, kBufferWords, "splitv2", v2, false);
  TraceFileReader v2reader(v2paths[0]);
  EXPECT_EQ(v2reader.parallelSplitPoints(8).size(), 1u);
}

TEST_F(TraceFormatV3Test, FooterWindowBitFlipsNeverMisdecode) {
  constexpr uint32_t kBufferWords = 32;
  const auto byCpu = makeRecords(/*procs=*/1, /*eventsPerProcessor=*/600,
                                 kBufferWords);
  for (const bool compress : {false, true}) {
    TraceWriterOptions options;
    options.compress = compress;
    const std::string stem = compress ? "fzc" : "fzu";
    const auto paths = writeFiles(byCpu, kBufferWords, stem, options, true);
    const std::string& path = paths[0];
    const uint64_t fileSize = std::filesystem::file_size(path);

    uint64_t bodyEnd = 0;
    uint64_t cleanDigest = 0;
    uint64_t total = 0;
    {
      TraceReaderOptions ro;
      ro.salvage = true;
      TraceFileReader probe(path, ro);
      total = probe.bufferCount();
      ASSERT_GT(total, 0u);
      EXPECT_TRUE(probe.salvageReport().clean());
      cleanDigest = digest(analysis::TraceSet::fromFiles(paths, {}));
    }
    // The footer window: everything past the last record body, taken
    // straight from the trailer's own footerOffset field.
    bodyEnd = footerOffsetOf(path);
    ASSERT_GE(bodyEnd, kHeaderBytes);
    ASSERT_LT(bodyEnd, fileSize);

    for (uint64_t off = bodyEnd; off < fileSize; off += 5) {
      corruptByte(path, off, 0x20);
      // Strict: must throw (CRC-protected footer) or decode identically —
      // never produce different events without an error.
      try {
        const auto trace = analysis::TraceSet::fromFiles(paths, {});
        EXPECT_EQ(digest(trace), cleanDigest) << "offset " << off;
      } catch (const std::exception&) {
        // rejected: fine
      }
      // Salvage: must recover the same events (footer is redundant
      // metadata; the records themselves are intact) and flag the damage
      // when it fell back to scanning.
      DecodeOptions salvage;
      salvage.salvage = true;
      const auto trace = analysis::TraceSet::fromFiles(paths, salvage);
      EXPECT_EQ(digest(trace), cleanDigest) << "salvage offset " << off;
      corruptByte(path, off, 0x20);  // restore
    }
    // Unflipped again: still clean.
    EXPECT_EQ(digest(analysis::TraceSet::fromFiles(paths, {})), cleanDigest);
  }
}

TEST_F(TraceFormatV3Test, TruncatedFooterFallsBackToScan) {
  constexpr uint32_t kBufferWords = 32;
  const auto byCpu = makeRecords(/*procs=*/1, /*eventsPerProcessor=*/300,
                                 kBufferWords);
  const auto paths = writeFiles(byCpu, kBufferWords, "trunc",
                                TraceWriterOptions{}, false);
  const uint64_t cleanDigest = digest(analysis::TraceSet::fromFiles(paths, {}));
  uint64_t total = 0;
  {
    TraceFileReader probe(paths[0]);
    total = probe.bufferCount();
  }
  // Chop the trailer off: strict must refuse, salvage must recover every
  // record and report the footer as damaged.
  const uint64_t recordBytes = kRecordHeaderBytes + kBufferWords * 8;
  std::filesystem::resize_file(paths[0], kHeaderBytes + total * recordBytes);
  EXPECT_THROW(analysis::TraceSet::fromFiles(paths, {}), std::exception);
  DecodeOptions salvage;
  salvage.salvage = true;
  const auto trace = analysis::TraceSet::fromFiles(paths, salvage);
  EXPECT_EQ(digest(trace), cleanDigest);
  EXPECT_EQ(trace.stats().damagedFooters, 1u);
  TraceReaderOptions ro;
  ro.salvage = true;
  TraceFileReader reader(paths[0], ro);
  EXPECT_TRUE(reader.salvageReport().footerDamaged);
  EXPECT_EQ(reader.salvageReport().goodRecords, total);
}

TEST_F(TraceFormatV3Test, CorruptCompressedBlockDroppedWhole) {
  constexpr uint32_t kBufferWords = 32;
  const auto byCpu = makeRecords(/*procs=*/1, /*eventsPerProcessor=*/600,
                                 kBufferWords);
  TraceWriterOptions options;
  options.compress = true;
  const auto paths = writeFiles(byCpu, kBufferWords, "zcorrupt", options, true);
  uint64_t total = 0;
  {
    TraceFileReader probe(paths[0]);
    total = probe.bufferCount();
  }
  ASSERT_GT(total, 0u);
  // Flip a byte inside the compressed stream (past the 32-byte block
  // header of the first block, which sits right after the file header).
  corruptByte(paths[0], kHeaderBytes + 32 + 40, 0x08);
  // Strict: the block CRC catches it.
  EXPECT_THROW(analysis::TraceSet::fromFiles(paths, {}), std::exception);
  // Salvage: the block is dropped whole and tallied; the rest survives.
  TraceReaderOptions ro;
  ro.salvage = true;
  TraceFileReader reader(paths[0], ro);
  const SalvageReport& r = reader.salvageReport();
  EXPECT_EQ(r.corruptBlocks, 1u);
  EXPECT_GT(r.corruptRecords, 0u);
  EXPECT_FALSE(r.clean());
  EXPECT_EQ(reader.bufferCount() + r.corruptRecords, total);
  DecodeOptions salvage;
  salvage.salvage = true;
  const auto trace = analysis::TraceSet::fromFiles(paths, salvage);
  EXPECT_EQ(trace.stats().corruptBlocks, 1u);
}

TEST_F(TraceFormatV3Test, RawBytesCountersReportCompression) {
  constexpr uint32_t kBufferWords = 64;
  testing::FakeFacility fx(/*numProcessors=*/1, kBufferWords, 8);
  TraceFileMeta meta;
  meta.numProcessors = 1;
  meta.bufferWords = kBufferWords;
  meta.clockKind = ClockKind::Fake;
  TraceWriterOptions options;
  options.compress = true;
  FileSink sink(dir_.string(), "counters", meta, nullptr, options);
  BatchingConfig batching;
  batching.batchRecords = 8;
  BatchingSink batcher(sink, batching);
  Consumer consumer(fx.facility, batcher, {});
  fx.facility.bindCurrentThread(0);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(fx.facility.log(Major::Test, 0, uint64_t(i)));
  }
  fx.facility.flushAll();
  consumer.drainNow();
  batcher.stop();
  ASSERT_TRUE(sink.flush());
  const SinkCounters c = sink.counters();
  EXPECT_GT(c.rawBytes, 0u);
  EXPECT_GT(c.bytesWritten, 0u);
  // Compression on a repetitive workload must show rawBytes > bytesWritten.
  EXPECT_GT(c.rawBytes, c.bytesWritten);
}

}  // namespace
}  // namespace ktrace
