// Parallel zero-copy ingestion: TraceSet::fromFiles must produce
// bit-identical results for every (thread count, mmap on/off)
// combination — including over damaged files in salvage mode — and the
// streaming MergeCursor must agree with the reference merge.
#include "analysis/reader.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <vector>

#include "core/trace_file.hpp"
#include "test_support.hpp"

namespace ktrace::analysis {
namespace {

constexpr uint64_t kHeaderBytes = 128;
constexpr uint64_t kRecordHeaderBytes = 32;

class ParallelDecodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ktrace_par_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Logs `eventsPerProcessor` events on each of `procs` processors and
  /// writes one .ktrc file per processor. Returns the file paths.
  std::vector<std::string> writeTrace(uint32_t procs, int eventsPerProcessor,
                                      uint32_t bufferWords = 64) {
    testing::FakeFacility fx(procs, bufferWords, /*buffersPerProcessor=*/8);
    TraceFileMeta meta;
    meta.numProcessors = procs;
    meta.bufferWords = bufferWords;
    meta.clockKind = ClockKind::Fake;
    FileSink sink(dir_.string(), "trace", meta);
    Consumer consumer(fx.facility, sink, {});
    for (uint32_t p = 0; p < procs; ++p) {
      fx.facility.bindCurrentThread(p);
      for (int i = 0; i < eventsPerProcessor; ++i) {
        EXPECT_TRUE(fx.facility.log(Major::Test, static_cast<uint16_t>(p),
                                    uint64_t(i), uint64_t(p)));
      }
    }
    fx.facility.flushAll();
    consumer.drainNow();
    EXPECT_TRUE(sink.flush());
    std::vector<std::string> paths;
    for (uint32_t p = 0; p < procs; ++p) paths.push_back(sink.pathFor(p));
    return paths;
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

  static void expectIdentical(const TraceSet& a, const TraceSet& b,
                              const char* what) {
    ASSERT_EQ(a.numProcessors(), b.numProcessors()) << what;
    for (uint32_t p = 0; p < a.numProcessors(); ++p) {
      const auto& ea = a.processorEvents(p);
      const auto& eb = b.processorEvents(p);
      ASSERT_EQ(ea.size(), eb.size()) << what << " cpu " << p;
      for (size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].header.encode(), eb[i].header.encode()) << what;
        EXPECT_EQ(ea[i].data, eb[i].data) << what;
        EXPECT_EQ(ea[i].fullTimestamp, eb[i].fullTimestamp) << what;
        EXPECT_EQ(ea[i].bufferSeq, eb[i].bufferSeq) << what;
        EXPECT_EQ(ea[i].offsetInBuffer, eb[i].offsetInBuffer) << what;
        EXPECT_EQ(ea[i].processor, eb[i].processor) << what;
      }
    }
    EXPECT_TRUE(a.stats() == b.stats()) << what;
    EXPECT_DOUBLE_EQ(a.ticksPerSecond(), b.ticksPerSecond()) << what;
  }

  /// Decodes `paths` under every (threads, mmap) combination and asserts
  /// each result is identical to the serial no-mmap reference.
  void expectDeterministic(const std::vector<std::string>& paths, bool salvage) {
    DecodeOptions reference;
    reference.salvage = salvage;
    reference.threads = 1;
    reference.useMmap = false;
    const TraceSet ref = TraceSet::fromFiles(paths, reference);
    for (const uint32_t threads : {1u, 2u, 8u}) {
      for (const bool mmapOn : {false, true}) {
        DecodeOptions options;
        options.salvage = salvage;
        options.threads = threads;
        options.useMmap = mmapOn;
        const TraceSet got = TraceSet::fromFiles(paths, options);
        const std::string what = "threads=" + std::to_string(threads) +
                                 " mmap=" + (mmapOn ? "on" : "off");
        expectIdentical(ref, got, what.c_str());
      }
    }
  }

  std::filesystem::path dir_;
};

TEST_F(ParallelDecodeTest, CleanTraceDeterministicAcrossThreadsAndMmap) {
  const auto paths = writeTrace(/*procs=*/4, /*eventsPerProcessor=*/500);
  expectDeterministic(paths, /*salvage=*/false);
  expectDeterministic(paths, /*salvage=*/true);
}

TEST_F(ParallelDecodeTest, SalvageOfDamagedFilesDeterministic) {
  const auto paths = writeTrace(/*procs=*/4, /*eventsPerProcessor=*/400);
  const uint64_t rb = kRecordHeaderBytes + 64 * 8;
  // cpu1: bit flip mid-file (CRC failure + resync); cpu2: torn tail.
  corruptByte(paths[1], kHeaderBytes + rb + kRecordHeaderBytes + 33, 0x04);
  const auto size2 = std::filesystem::file_size(paths[2]);
  std::filesystem::resize_file(paths[2], size2 - rb / 3);
  expectDeterministic(paths, /*salvage=*/true);

  DecodeOptions options;
  options.salvage = true;
  options.threads = 8;
  const TraceSet trace = TraceSet::fromFiles(paths, options);
  EXPECT_EQ(trace.stats().corruptRecords, 1u);
  EXPECT_EQ(trace.stats().tornRecords, 1u);
}

TEST_F(ParallelDecodeTest, StrictModeThrowsSameErrorRegardlessOfThreads) {
  const auto paths = writeTrace(/*procs=*/4, /*eventsPerProcessor=*/300);
  const uint64_t rb = kRecordHeaderBytes + 64 * 8;
  corruptByte(paths[2], kHeaderBytes + rb + kRecordHeaderBytes + 7, 0x10);
  std::string serialError, parallelError;
  for (const uint32_t threads : {1u, 8u}) {
    DecodeOptions options;
    options.threads = threads;
    try {
      TraceSet::fromFiles(paths, options);
      FAIL() << "strict decode of a corrupt file must throw";
    } catch (const std::runtime_error& e) {
      (threads == 1 ? serialError : parallelError) = e.what();
    }
  }
  EXPECT_EQ(serialError, parallelError);
  EXPECT_NE(serialError.find(paths[2]), std::string::npos);
}

TEST_F(ParallelDecodeTest, MetadataTakenFromFirstFileAndMismatchesCounted) {
  // Three single-processor files with disagreeing ticksPerSecond.
  auto writeOne = [&](uint32_t cpu, double tps) {
    TraceFileMeta meta;
    meta.processorId = cpu;
    meta.numProcessors = 3;
    meta.bufferWords = 16;
    meta.ticksPerSecond = tps;
    BufferRecord r;
    r.processor = cpu;
    r.seq = 0;
    r.committedDelta = 16;
    r.words.assign(16, 0);
    const std::string p = (dir_ / ("m.cpu" + std::to_string(cpu) + ".ktrc")).string();
    TraceFileWriter writer(p, meta);
    EXPECT_TRUE(writer.writeBuffer(r));
    return p;
  };
  const std::vector<std::string> paths = {writeOne(0, 1e9), writeOne(1, 2e9),
                                          writeOne(2, 1e9)};
  for (const uint32_t threads : {1u, 8u}) {
    DecodeOptions options;
    options.threads = threads;
    const TraceSet trace = TraceSet::fromFiles(paths, options);
    // First readable file wins; the odd one out is counted, not adopted.
    EXPECT_DOUBLE_EQ(trace.ticksPerSecond(), 1e9);
    EXPECT_EQ(trace.stats().metadataMismatchFiles, 1u);
  }
}

TEST_F(ParallelDecodeTest, MergeCursorMatchesReferenceAndStreamsInOrder) {
  const auto paths = writeTrace(/*procs=*/3, /*eventsPerProcessor=*/200);
  const TraceSet trace = TraceSet::fromFiles(paths);
  const auto merged = ktrace::testing::referenceMerge(trace);
  MergeCursor cursor(trace);
  size_t i = 0;
  uint64_t lastTs = 0;
  while (const DecodedEvent* e = cursor.next()) {
    ASSERT_LT(i, merged.size());
    EXPECT_EQ(e, merged[i]) << "cursor and reference merge disagree at " << i;
    EXPECT_GE(e->fullTimestamp, lastTs);
    lastTs = e->fullTimestamp;
    ++i;
  }
  EXPECT_EQ(i, merged.size());
  EXPECT_TRUE(cursor.done());
  EXPECT_EQ(cursor.next(), nullptr);  // stays exhausted
}

TEST_F(ParallelDecodeTest, ZeroCopyViewMatchesCopyingRead) {
  const auto paths = writeTrace(/*procs=*/1, /*eventsPerProcessor=*/300);
  TraceFileReader mapped(paths[0]);
  TraceReaderOptions stdioOptions;
  stdioOptions.useMmap = false;
  TraceFileReader buffered(paths[0], stdioOptions);
  ASSERT_EQ(mapped.bufferCount(), buffered.bufferCount());
  EXPECT_TRUE(mapped.mapped());
  EXPECT_FALSE(buffered.mapped());
  for (uint64_t k = 0; k < mapped.bufferCount(); ++k) {
    BufferView view;
    BufferRecord record;
    ASSERT_TRUE(mapped.readBufferView(k, view));
    ASSERT_TRUE(buffered.readBuffer(k, record));
    EXPECT_EQ(view.seq, record.seq);
    EXPECT_EQ(view.committedDelta, record.committedDelta);
    EXPECT_EQ(view.processor, record.processor);
    EXPECT_EQ(view.commitMismatch, record.commitMismatch);
    ASSERT_EQ(view.words.size(), record.words.size());
    EXPECT_TRUE(std::equal(view.words.begin(), view.words.end(),
                           record.words.begin()));
  }
}

TEST_F(ParallelDecodeTest, FromRecordsUnchangedByPresizing) {
  // fromRecords pre-sizes and reserves; results must match the shared
  // test-support decoder, which grows organically.
  testing::FakeFacility fx(/*numProcessors=*/3, /*bufferWords=*/64, 8);
  MemorySink sink;
  Consumer consumer(fx.facility, sink, {});
  for (uint32_t p = 0; p < 3; ++p) {
    fx.facility.bindCurrentThread(p);
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(fx.facility.log(Major::Test, static_cast<uint16_t>(p),
                                  uint64_t(i)));
    }
  }
  DecodeStats refStats;
  const auto refEvents =
      testing::drainAndDecode(fx.facility, consumer, sink, {}, &refStats);
  const TraceSet trace = TraceSet::fromRecords(sink.records());
  EXPECT_EQ(trace.totalEvents(), refEvents.size());
  EXPECT_EQ(trace.stats().events, refStats.events);
  size_t i = 0;
  for (uint32_t p = 0; p < trace.numProcessors(); ++p) {
    for (const DecodedEvent& e : trace.processorEvents(p)) {
      EXPECT_EQ(e.header.encode(), refEvents[i].header.encode());
      EXPECT_EQ(e.fullTimestamp, refEvents[i].fullTimestamp);
      ++i;
    }
  }
  EXPECT_EQ(i, refEvents.size());
}

}  // namespace
}  // namespace ktrace::analysis
