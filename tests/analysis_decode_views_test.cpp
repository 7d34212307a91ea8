// Decoded events are views into trace words (DESIGN.md §12): who keeps
// the words, and whether every reader path views the same ones.
//
// Equivalence: every event TraceSet::fromFiles, TraceSet::fromRecords and
// StreamCursor produce equals what decodeBuffer makes of the same record
// words, each field and payload word read off those words, across
// v1/v2/v3/v3-LZ files, mmap/stdio/fault-injecting reads, and strict and
// salvage decoding of clean, torn and bit-flipped files.
//
// Lifetimes (run under ASan in CI): copies outlive their TraceSet, a moved
// TraceSet keeps its cursor pointers and views, spans released by
// StreamCursor and LiveAnalyzer's merger outlive the readers and records
// they came from, and flight-recorder snapshots outlive the ring.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/lock_analysis.hpp"
#include "analysis/reader.hpp"
#include "analysis/streaming/folds.hpp"
#include "analysis/streaming/live_analyzer.hpp"
#include "analysis/streaming/monitors.hpp"
#include "analysis/streaming/stream_cursor.hpp"
#include "analysis/symbols.hpp"
#include "core/flight_recorder.hpp"
#include "core/ktrace.hpp"
#include "core/logger.hpp"
#include "core/trace_file.hpp"
#include "test_support.hpp"
#include "util/faultfs.hpp"
#include "util/rng.hpp"

namespace ktrace {
namespace {

namespace streaming = analysis::streaming;

constexpr uint32_t kProcs = 2;
constexpr uint32_t kBufferWords = 64;
constexpr uint64_t kHeaderBytes = 128;
constexpr uint64_t kRecordHeaderBytes = 32;
constexpr uint64_t kRecordBytes = kRecordHeaderBytes + kBufferWords * 8;

/// What an event must be: its header word, where it came from and its
/// payload words, all taken from the record words directly.
struct Expected {
  uint64_t headerWord = 0;
  uint32_t processor = 0;
  uint32_t offset = 0;
  uint64_t fullTimestamp = 0;
  uint64_t bufferSeq = 0;
  std::vector<uint64_t> payload;
};
using PerProcessor = std::map<uint32_t, std::vector<Expected>>;

::testing::AssertionResult same(const DecodedEvent& e, const Expected& x) {
  if (e.header.encode() != x.headerWord) return ::testing::AssertionFailure() << "header";
  if (e.processor != x.processor) return ::testing::AssertionFailure() << "processor";
  if (e.offsetInBuffer != x.offset) return ::testing::AssertionFailure() << "offset";
  if (e.fullTimestamp != x.fullTimestamp) return ::testing::AssertionFailure() << "timestamp";
  if (e.bufferSeq != x.bufferSeq) return ::testing::AssertionFailure() << "bufferSeq";
  if (!(e.data == std::span<const uint64_t>(x.payload))) {
    return ::testing::AssertionFailure() << "payload";
  }
  return ::testing::AssertionSuccess();
}

/// Decodes one record's words and appends what each event must be: the
/// header word at the event's offset and the payload words after it, read
/// off the record. The decoded events must match, and view those words in
/// place.
void expectRecord(std::span<const uint64_t> words, uint64_t seq, uint32_t processor,
                  uint64_t& tsBase, const DecodeOptions& options,
                  std::vector<Expected>& out) {
  std::vector<DecodedEvent> decoded;
  decodeBuffer(words, seq, processor, tsBase, decoded, options);
  for (size_t i = 0; i < decoded.size(); ++i) {
    const DecodedEvent& d = decoded[i];
    const uint32_t at = d.offsetInBuffer;
    ASSERT_LT(at, words.size()) << "decodeBuffer event " << i;
    const uint32_t n = EventHeader::decode(words[at]).lengthWords - 1;
    ASSERT_LE(at + 1 + n, words.size()) << "decodeBuffer event " << i;
    Expected e{words[at], processor, at, d.fullTimestamp, seq,
               std::vector<uint64_t>(words.begin() + at + 1, words.begin() + at + 1 + n)};
    EXPECT_TRUE(same(d, e)) << "decodeBuffer event " << i;
    EXPECT_EQ(d.data.data(), words.data() + at + 1);
    EXPECT_FALSE(d.data.owned());
    out.push_back(std::move(e));
  }
}

/// Per-processor expectations for `paths`, read record by record with a
/// reader of its own (copying each record) under the same options.
PerProcessor expectedOf(const std::vector<std::string>& paths,
                        const DecodeOptions& options) {
  TraceReaderOptions ro;
  ro.salvage = options.salvage;
  ro.useMmap = options.useMmap;
  ro.fs = options.fs;
  PerProcessor out;
  for (const std::string& path : paths) {
    std::unique_ptr<TraceFileReader> reader;
    try {
      reader = std::make_unique<TraceFileReader>(path, ro);
    } catch (const std::exception&) {
      continue;  // salvage tallies an unreadable file and goes on
    }
    const uint32_t p = reader->meta().processorId;
    uint64_t tsBase = 0;
    for (uint64_t k = 0; k < reader->bufferCount(); ++k) {
      BufferRecord rec;
      if (!reader->readBuffer(k, rec)) break;
      expectRecord(rec.words, rec.seq, p, tsBase, options, out[p]);
    }
  }
  return out;
}

void expectTraceSet(const analysis::TraceSet& trace, const PerProcessor& expected,
                    const std::string& what) {
  size_t total = 0;
  for (const auto& [p, events] : expected) {
    ASSERT_LT(p, trace.numProcessors()) << what;
    const auto& got = trace.processorEvents(p);
    ASSERT_EQ(got.size(), events.size()) << what << " cpu" << p;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(same(got[i], events[i])) << what << " cpu" << p << " event " << i;
    }
    total += events.size();
  }
  EXPECT_EQ(trace.totalEvents(), total) << what;
}

/// Lays out records that exercise payloads of 0 to 9 words, lock events
/// held back by the merge, and the 32-bit stamp wrapping.
std::vector<BufferRecord> makeRecords(uint32_t eventsPerProcessor, uint64_t seed) {
  testing::FakeFacility fx(kProcs, kBufferWords, /*buffersPerProcessor=*/8);
  fx.clock.set((1ull << 32) - 2000);
  MemorySink sink;
  Consumer consumer(fx.facility, sink, {});
  util::Rng rng(seed);
  uint64_t id = 0;
  for (uint32_t i = 0; i < eventsPerProcessor; ++i) {
    for (uint32_t p = 0; p < kProcs; ++p) {
      ShmTraceControl& control = fx.facility.control(p);
      if (rng.nextBelow(4) == 0) {
        // Contend (with a call chain), acquire or release of a lock.
        const auto minor = static_cast<uint16_t>(rng.nextBelow(3));
        std::vector<uint64_t> words = {1 + rng.nextBelow(3), 1 + rng.nextBelow(3)};
        if (minor == 0) {
          const uint64_t chain = rng.nextBelow(4);
          words.push_back(chain);
          for (uint64_t c = 0; c < chain; ++c) words.push_back(++id);
        } else {
          words.push_back(++id);
        }
        EXPECT_TRUE(logEventData(control, Major::Lock, minor,
                                 std::span<const uint64_t>(words)));
        continue;
      }
      std::vector<uint64_t> words(rng.nextBelow(10));
      for (uint64_t& w : words) w = ++id;
      EXPECT_TRUE(logEventData(control, Major::Test, static_cast<uint16_t>(words.size()),
                               std::span<const uint64_t>(words)));
    }
    if (i % 16 == 15) consumer.drainNow();  // before the ring laps
  }
  fx.facility.flushAll();
  consumer.drainNow();
  return sink.records();
}

class DecodeViewsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ktrace_views_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    records_ = makeRecords(300, 11);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& stem, uint32_t p) const {
    return (dir_ / (stem + ".cpu" + std::to_string(p) + ".ktrc")).string();
  }

  /// One file per processor in `stem`: "v1", "v2", "v3" or "v3z".
  std::vector<std::string> writeFiles(const std::string& stem) {
    TraceWriterOptions options;
    options.formatVersion = stem == "v1" || stem == "v2" ? 2 : 3;
    options.compress = stem == "v3z";
    std::vector<std::string> paths;
    for (uint32_t p = 0; p < kProcs; ++p) {
      TraceFileMeta meta;
      meta.processorId = p;
      meta.numProcessors = kProcs;
      meta.bufferWords = kBufferWords;
      meta.clockKind = ClockKind::Fake;
      paths.push_back(path(stem, p));
      TraceFileWriter writer(paths.back(), meta, nullptr, options);
      std::vector<const BufferRecord*> mine;
      for (const BufferRecord& r : records_) {
        if (r.processor == p) mine.push_back(&r);
      }
      std::stable_sort(mine.begin(), mine.end(),
                       [](const BufferRecord* a, const BufferRecord* b) {
                         return a->seq < b->seq;
                       });
      // Batches of 8, as ktraced hands them over: compressed blocks in v3z.
      for (size_t k = 0; k < mine.size(); k += 8) {
        const size_t n = std::min<size_t>(8, mine.size() - k);
        EXPECT_EQ(writer.writeBufferBatch(mine.data() + k, n), n);
      }
      EXPECT_TRUE(writer.flush());
      if (stem == "v1") toV1(paths.back());
    }
    return paths;
  }

  /// Rewrites a v2 file in the legacy v1 layout: version 1, record
  /// headers without magic or CRC.
  static void toV1(const std::string& file) {
    std::string bytes;
    {
      std::ifstream in(file, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    const uint32_t v1 = 1;
    std::memcpy(bytes.data() + 8, &v1, 4);
    for (uint64_t off = kHeaderBytes; off + kRecordBytes <= bytes.size();
         off += kRecordBytes) {
      char header[kRecordHeaderBytes] = {};
      std::memcpy(header, bytes.data() + off + 8, 24);  // seq, delta, cpu, flags
      std::memcpy(bytes.data() + off, header, kRecordHeaderBytes);
    }
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Damage for salvage: cpu0's tail torn mid-record (the v3 footer with
  /// it), one bit flipped mid-file in cpu1.
  static void damage(const std::vector<std::string>& paths) {
    const uint64_t size0 = std::filesystem::file_size(paths[0]);
    std::filesystem::resize_file(paths[0], size0 * 2 / 3 + 3);
    const uint64_t at = kHeaderBytes + 3 * kRecordBytes + kRecordHeaderBytes + 100;
    std::fstream f(paths[1], std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(at));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x10);
    f.seekp(static_cast<std::streamoff>(at));
    f.write(&c, 1);
  }

  std::filesystem::path dir_;
  std::vector<BufferRecord> records_;
};

TEST_F(DecodeViewsTest, EveryReaderPathMatchesDecodeBuffer) {
  util::FaultInjectingFileSystem faultfs{util::FaultPlan{}};
  for (const std::string stem : {"v1", "v2", "v3", "v3z"}) {
    for (const bool damaged : {false, true}) {
      const std::string name = stem + (damaged ? "d" : "");
      const std::vector<std::string> paths = [&] {
        const auto written = writeFiles(stem);
        std::vector<std::string> out;
        for (uint32_t p = 0; p < kProcs; ++p) {
          out.push_back(path(name, p));
          if (out.back() != written[p]) std::filesystem::rename(written[p], out.back());
        }
        if (damaged) damage(out);
        return out;
      }();
      for (const int io : {0, 1, 2}) {  // mmap, stdio, fault-injecting
        for (const bool salvage : {false, true}) {
          if (damaged && !salvage) continue;  // strict refuses damage
          DecodeOptions options;
          options.useMmap = io == 0;
          options.fs = io == 2 ? &faultfs : nullptr;
          options.salvage = salvage;
          const std::string what = name + " io=" + std::to_string(io) +
                                   (salvage ? " salvage" : " strict");
          const PerProcessor expected = expectedOf(paths, options);
          ASSERT_FALSE(expected.empty()) << what;
          for (const uint32_t threads : {1u, 4u}) {
            options.threads = threads;
            const auto trace = analysis::TraceSet::fromFiles(paths, options);
            expectTraceSet(trace, expected, what + " threads=" + std::to_string(threads));
            const DecodeStats& st = trace.stats();
            EXPECT_EQ(st.tornRecords + st.corruptRecords + st.corruptBlocks != 0, damaged)
                << what;
          }
          if (salvage) continue;  // a growing file is only read strictly
          streaming::StreamCursorOptions so;
          so.decode = options;
          streaming::StreamCursor cursor(paths, so);
          cursor.finish();
          std::map<uint32_t, size_t> next;
          while (const DecodedEvent* e = cursor.next()) {
            const std::vector<Expected>& lane = expected.at(e->processor);
            const size_t i = next[e->processor]++;
            ASSERT_LT(i, lane.size()) << what << " cursor";
            ASSERT_TRUE(same(*e, lane[i])) << what << " cursor cpu" << e->processor
                                           << " event " << i;
          }
          for (const auto& [p, lane] : expected) {
            EXPECT_EQ(next[p], lane.size()) << what << " cursor cpu" << p;
          }
        }
      }
    }
  }
}

TEST_F(DecodeViewsTest, FromRecordsMatchesDecodeBuffer) {
  for (const DecodeOptions& options : {DecodeOptions{}, DecodeOptions{true, true}}) {
    PerProcessor expected;
    std::map<uint32_t, std::vector<const BufferRecord*>> byProcessor;
    for (const BufferRecord& r : records_) byProcessor[r.processor].push_back(&r);
    for (auto& [p, recs] : byProcessor) {
      std::stable_sort(recs.begin(), recs.end(),
                       [](const BufferRecord* a, const BufferRecord* b) {
                         return a->seq < b->seq;
                       });
      uint64_t tsBase = 0;
      for (const BufferRecord* r : recs) {
        expectRecord(r->words, r->seq, p, tsBase, options, expected[p]);
      }
    }
    // The set copies the records: it stands alone once they are gone.
    std::vector<BufferRecord> records = records_;
    const analysis::TraceSet trace = analysis::TraceSet::fromRecords(records, options);
    records.clear();
    records.shrink_to_fit();
    expectTraceSet(trace, expected, options.keepFillers ? "all" : "default");
  }
}

/// The payloads of `events`, copied out as plain words.
std::vector<std::vector<uint64_t>> payloadsOf(std::span<const DecodedEvent> events) {
  std::vector<std::vector<uint64_t>> out;
  for (const DecodedEvent& e : events) out.emplace_back(e.data.begin(), e.data.end());
  return out;
}

TEST_F(DecodeViewsTest, CopiesOutliveTheTraceSet) {
  const auto raw = writeFiles("v3");
  const auto lz = writeFiles("v3z");
  for (int source = 0; source < 4; ++source) {
    std::vector<DecodedEvent> copied;
    DecodedEvent one;
    std::vector<std::vector<uint64_t>> payloads;
    {
      DecodeOptions options;
      options.useMmap = source != 2;
      const analysis::TraceSet trace =
          source == 3 ? analysis::TraceSet::fromRecords(records_)
                      : analysis::TraceSet::fromFiles(source == 1 ? lz : raw, options);
      const auto& events = trace.processorEvents(1);
      ASSERT_GT(events.size(), 100u);
      payloads = payloadsOf(events);
      copied = events;
      one = events[events.size() / 2];
    }
    // Whatever the set kept — a mapping, decompressed or read words, a
    // copy of the records — is gone; the copies own their payloads.
    ASSERT_EQ(copied.size(), payloads.size());
    for (size_t i = 0; i < copied.size(); ++i) {
      ASSERT_TRUE(copied[i].data == std::span<const uint64_t>(payloads[i]))
          << "source " << source << " event " << i;
      ASSERT_EQ(copied[i].data.owned(), !payloads[i].empty());
    }
    EXPECT_TRUE(one.data == std::span<const uint64_t>(payloads[copied.size() / 2]));
  }
}

TEST_F(DecodeViewsTest, MovedTraceSetKeepsCursorPointersAndViews) {
  const auto raw = writeFiles("v3");
  const auto lz = writeFiles("v3z");
  for (int source = 0; source < 3; ++source) {
    DecodeOptions options;
    options.useMmap = source != 2;
    std::vector<const DecodedEvent*> merged;
    std::vector<std::vector<uint64_t>> payloads;
    analysis::TraceSet kept;
    {
      analysis::TraceSet first =
          analysis::TraceSet::fromFiles(source == 1 ? lz : raw, options);
      analysis::MergeCursor cursor(first);
      while (const DecodedEvent* e = cursor.next()) {
        merged.push_back(e);
        payloads.emplace_back(e->data.begin(), e->data.end());
      }
      analysis::TraceSet second(std::move(first));
      kept = std::move(second);
    }
    ASSERT_EQ(merged.size(), kept.totalEvents());
    for (size_t i = 0; i < merged.size(); ++i) {
      const auto& lane = kept.processorEvents(merged[i]->processor);
      ASSERT_TRUE(merged[i] >= lane.data() && merged[i] < lane.data() + lane.size());
      ASSERT_TRUE(merged[i]->data == std::span<const uint64_t>(payloads[i]))
          << "source " << source << " event " << i;
    }
  }
}

TEST_F(DecodeViewsTest, StreamCursorSpansOutliveTheirReadersAndFiles) {
  // cpu1's file grows well ahead of cpu0's, so the merger holds cpu1's
  // runs across many polls, each of which opens and drops the readers
  // (and their mappings or scratch). Last, the files themselves go.
  const PerProcessor expected = expectedOf(writeFiles("v3"), DecodeOptions{});
  std::map<uint32_t, std::vector<const BufferRecord*>> byProcessor;
  for (const BufferRecord& r : records_) byProcessor[r.processor].push_back(&r);
  for (auto& [p, recs] : byProcessor) {
    std::stable_sort(recs.begin(), recs.end(),
                     [](const BufferRecord* a, const BufferRecord* b) {
                       return a->seq < b->seq;
                     });
  }
  for (const bool mmapOn : {true, false}) {
    std::vector<std::string> paths;
    std::vector<std::unique_ptr<TraceFileWriter>> writers;
    for (uint32_t p = 0; p < kProcs; ++p) {
      TraceFileMeta meta;
      meta.processorId = p;
      meta.numProcessors = kProcs;
      meta.bufferWords = kBufferWords;
      meta.clockKind = ClockKind::Fake;
      paths.push_back(path(mmapOn ? "grow" : "growio", p));
      writers.push_back(std::make_unique<TraceFileWriter>(paths.back(), meta));
    }
    streaming::StreamCursorOptions so;
    so.decode.useMmap = mmapOn;
    streaming::StreamCursor cursor(paths, so);
    std::map<uint32_t, size_t> next;
    const auto check = [&](const DecodedEvent* e) {
      const size_t i = next[e->processor]++;
      ASSERT_LT(i, expected.at(e->processor).size());
      ASSERT_TRUE(same(*e, expected.at(e->processor)[i]))
          << "cpu" << e->processor << " event " << i;
    };
    const auto& ahead = byProcessor[1];
    const auto& behind = byProcessor[0];
    size_t a = 0;
    size_t b = 0;
    while (a < ahead.size() || b < behind.size()) {
      for (int k = 0; k < 4 && a < ahead.size(); ++k) {
        ASSERT_TRUE(writers[1]->writeBuffer(*ahead[a++]));
      }
      if (a > ahead.size() / 2 && b < behind.size()) {
        ASSERT_TRUE(writers[0]->writeBuffer(*behind[b++]));
      }
      ASSERT_TRUE(writers[0]->flush());
      ASSERT_TRUE(writers[1]->flush());
      cursor.poll();
      // Drain part way: the rest stays in the merger across polls.
      for (int k = 0; k < 3; ++k) {
        const DecodedEvent* e = cursor.next();
        if (e == nullptr) break;
        check(e);
      }
    }
    cursor.finish();
    writers.clear();
    for (const std::string& p : paths) std::filesystem::remove(p);
    while (const DecodedEvent* e = cursor.next()) check(e);
    for (const auto& [p, lane] : expected) EXPECT_EQ(next[p], lane.size()) << "cpu" << p;
  }
}

/// Drops every record it is handed: nothing the tap views survives.
class DroppingSink final : public Sink {
 public:
  void onBuffer(BufferRecord&& record) override { BufferRecord gone(std::move(record)); }
};

TEST_F(DecodeViewsTest, LiveAnalyzerLockRunsOutliveTheirRecords) {
  // Each lane's first record, then cpu0's whole backlog: its lock events
  // wait in the merger for cpu1 while every record they came from is
  // dropped downstream, and snapshots are taken in between.
  const analysis::TraceSet trace = analysis::TraceSet::fromRecords(records_);
  const analysis::LockAnalysis offline(trace);
  ASSERT_GT(offline.totalWaitTicks() + offline.unmatchedContends(), 0u);
  std::vector<const BufferRecord*> order;
  for (uint32_t p = 0; p < kProcs; ++p) {
    std::vector<const BufferRecord*> mine;
    for (const BufferRecord& r : records_) {
      if (r.processor == p) mine.push_back(&r);
    }
    std::stable_sort(mine.begin(), mine.end(),
                     [](const BufferRecord* x, const BufferRecord* y) {
                       return x->seq < y->seq;
                     });
    order.insert(order.begin() + p, mine.front());
    order.insert(order.end(), mine.begin() + 1, mine.end());
  }
  DroppingSink sink;
  streaming::StreamEngineConfig cfg;
  cfg.ticksPerSecond = 1e9;
  cfg.windowTicks = 100;
  streaming::LiveAnalyzer live(sink, kProcs, cfg, streaming::defaultMonitors());
  size_t k = 0;
  for (const BufferRecord* r : order) {
    if (++k % 2 == 0) {
      live.onBuffer(BufferRecord(*r));
    } else {
      std::vector<BufferRecord> batch;
      batch.push_back(*r);
      live.onBufferBatch(std::move(batch));
    }
    if (k % 5 == 0) {
      EXPECT_FALSE(live.snapshotJson("t").empty());
    }
  }
  live.finish();
  const auto* fold =
      dynamic_cast<const streaming::LockContentionFold*>(live.folds().at(0).get());
  ASSERT_NE(fold, nullptr);
  const analysis::LockAnalysis fromLive{streaming::LockContentionFold(*fold)};
  const analysis::SymbolTable symbols;
  EXPECT_EQ(fromLive.totalWaitTicks(), offline.totalWaitTicks());
  EXPECT_EQ(fromLive.unmatchedContends(), offline.unmatchedContends());
  EXPECT_EQ(fromLive.report(symbols, 1e9, 100), offline.report(symbols, 1e9, 100));
}

TEST(DecodeViews, MergerSpansLiveUntilTheNextCall) {
  // Each run's words move into the merger with it; the caller's copies
  // are gone before the spans come out, and more runs arrive in between.
  streaming::OrderedMerger merger(2);
  std::vector<uint64_t> expected;
  const auto pushRun = [&](uint32_t lane, uint64_t t0) {
    auto words = std::make_unique<uint64_t[]>(8);
    std::vector<DecodedEvent> events;
    for (uint64_t i = 0; i < 4; ++i) {
      words[2 * i] = t0 * 100 + i;
      words[2 * i + 1] = ~(t0 * 100 + i);
      EventHeader h;
      h.lengthWords = 3;
      h.major = Major::Test;
      events.emplace_back(h, &words[2 * i], 2, t0 + i, 0, 0, lane);
    }
    merger.push(lane, std::move(events), std::move(words));
  };
  std::vector<uint64_t> seen;
  for (uint64_t round = 0; round < 16; ++round) {
    pushRun(0, 10 * round);
    pushRun(1, 10 * round + 2);
    const auto span = merger.nextSpan();
    for (const DecodedEvent& e : span) {
      ASSERT_EQ(e.data.size(), 2u);
      ASSERT_EQ(e.data[1], ~e.data[0]);
      seen.push_back(e.data[0]);
    }
  }
  merger.finish();
  while (const DecodedEvent* e = merger.next()) {
    ASSERT_EQ(e->data[1], ~e->data[0]);
    seen.push_back(e->data[0]);
  }
  ASSERT_EQ(seen.size(), 16u * 8u);
  for (uint64_t round = 0; round < 16; ++round) {
    for (const uint64_t t0 : {10 * round, 10 * round + 2}) {
      for (uint64_t i = 0; i < 4; ++i) expected.push_back(t0 * 100 + i);
    }
  }
  std::sort(seen.begin(), seen.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(seen, expected);
}

TEST(DecodeViews, FlightRecorderSnapshotOutlivesTheRing) {
  testing::FakeFacility fx(1, /*bufferWords=*/64, /*buffersPerProcessor=*/4);
  fx.facility.bindCurrentThread(0);
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(fx.facility.log(Major::Test, 1, i, ~i));
  }
  FlightRecorderOptions opts;
  opts.maxEvents = 20;
  const std::vector<DecodedEvent> snapshot = flightRecorderSnapshot(fx.facility.control(0), opts);
  ASSERT_EQ(snapshot.size(), 20u);
  // Lap the ring several times over.
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(fx.facility.log(Major::Test, 2, 7, 7));
  }
  for (size_t k = 0; k < snapshot.size(); ++k) {
    ASSERT_TRUE(snapshot[k].data.owned()) << k;
    ASSERT_EQ(snapshot[k].data.size(), 2u) << k;
    EXPECT_EQ(snapshot[k].data[0], 280 + k);
    EXPECT_EQ(snapshot[k].data[1], ~(280 + k));
  }
}

TEST_F(DecodeViewsTest, EventsSurviveSelfAssignmentAndMovedFromReuse) {
  const analysis::TraceSet trace = analysis::TraceSet::fromFiles(writeFiles("v3"));
  const auto& events = trace.processorEvents(0);
  ASSERT_GT(events.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    const std::vector<uint64_t> words(events[i].data.begin(), events[i].data.end());
    DecodedEvent borrowed = events[i];  // an owned copy
    DecodedEvent viewing(events[i].header, events[i].data.data(), events[i].data.size(),
                         events[i].fullTimestamp, events[i].bufferSeq,
                         events[i].offsetInBuffer, events[i].processor);
    for (DecodedEvent* e : {&borrowed, &viewing}) {
      DecodedEvent& alias = *e;
      *e = alias;
      EXPECT_TRUE(e->data == std::span<const uint64_t>(words)) << i;
      *e = std::move(alias);
      EXPECT_TRUE(e->data == std::span<const uint64_t>(words)) << i;
      DecodedEvent taken(std::move(*e));
      EXPECT_TRUE(taken.data == std::span<const uint64_t>(words)) << i;
      EXPECT_TRUE(e->data.empty());
      *e = taken;  // the moved-from event is reusable
      EXPECT_TRUE(e->data == std::span<const uint64_t>(words)) << i;
      EXPECT_EQ(e->fullTimestamp, events[i].fullTimestamp);
    }
  }
}

}  // namespace
}  // namespace ktrace
