// TraceSet decoding and cross-processor timestamp merging.
#include "analysis/reader.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "core/trace_file.hpp"
#include "test_support.hpp"

namespace ktrace::analysis {
namespace {

struct ManualTrace {
  VirtualClock clock;
  Facility facility;
  MemorySink sink;
  Consumer consumer;

  explicit ManualTrace(uint32_t procs, uint32_t bufferWords = 256)
      : facility(makeConfig(clock, procs, bufferWords)), consumer(facility, sink, {}) {
    facility.mask().enableAll();
  }

  template <typename... Ws>
  void log(uint32_t processor, uint64_t at, Major major, uint16_t minor, Ws... words) {
    clock.set(at);
    ASSERT_TRUE(facility.logOn(processor, major, minor,
                               static_cast<uint64_t>(words)...));
  }

  TraceSet collect() {
    facility.flushAll();
    consumer.drainNow();
    return TraceSet::fromRecords(sink.records());
  }

  static FacilityConfig makeConfig(VirtualClock& clock, uint32_t procs,
                                   uint32_t bufferWords) {
    FacilityConfig cfg;
    cfg.numProcessors = procs;
    cfg.bufferWords = bufferWords;
    cfg.buffersPerProcessor = 64;
    cfg.clockKind = ClockKind::Virtual;
    cfg.clockOverride = clock.ref();
    cfg.mode = Mode::Stream;
    return cfg;
  }
};

/// Every event of `trace` in MergeCursor order.
std::vector<const DecodedEvent*> drain(const TraceSet& trace) {
  std::vector<const DecodedEvent*> out;
  MergeCursor cursor(trace);
  while (const DecodedEvent* e = cursor.next()) out.push_back(e);
  return out;
}

TEST(TraceSet, FromRecordsGroupsPerProcessor) {
  ManualTrace mt(3);
  mt.log(0, 100, Major::Test, 0, uint64_t{1});
  mt.log(2, 200, Major::Test, 0, uint64_t{2});
  mt.log(0, 300, Major::Test, 0, uint64_t{3});
  const TraceSet trace = mt.collect();
  ASSERT_EQ(trace.numProcessors(), 3u);
  EXPECT_EQ(trace.processorEvents(0).size(), 2u);
  EXPECT_EQ(trace.processorEvents(1).size(), 0u);
  EXPECT_EQ(trace.processorEvents(2).size(), 1u);
  EXPECT_EQ(trace.totalEvents(), 3u);
}

TEST(TraceSet, MergedIsGloballyTimeOrdered) {
  ManualTrace mt(3);
  // Interleave timestamps across processors out of logging order.
  mt.log(0, 500, Major::Test, 0, uint64_t{5});
  mt.log(1, 100, Major::Test, 0, uint64_t{1});
  mt.log(2, 300, Major::Test, 0, uint64_t{3});
  mt.log(0, 700, Major::Test, 0, uint64_t{7});
  mt.log(1, 200, Major::Test, 0, uint64_t{2});
  mt.log(2, 600, Major::Test, 0, uint64_t{6});
  const TraceSet trace = mt.collect();

  const auto merged = drain(trace);
  ASSERT_EQ(merged.size(), 6u);
  for (size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1]->fullTimestamp, merged[i]->fullTimestamp);
  }
  // Payloads come out in global time order 1..7.
  std::vector<uint64_t> payloads;
  for (const auto* e : merged) payloads.push_back(e->data[0]);
  EXPECT_EQ(payloads, (std::vector<uint64_t>{1, 2, 3, 5, 6, 7}));
}

TEST(TraceSet, FirstAndLastTimestamps) {
  ManualTrace mt(2);
  mt.log(0, 150, Major::Test, 0);
  mt.log(1, 90, Major::Test, 0);
  mt.log(0, 400, Major::Test, 0);
  const TraceSet trace = mt.collect();
  EXPECT_EQ(trace.firstTimestamp(), 90u);
  EXPECT_EQ(trace.lastTimestamp(), 400u);
}

TEST(TraceSet, EmptyTraceIsWellFormed) {
  const TraceSet trace = TraceSet::fromRecords({});
  EXPECT_EQ(trace.numProcessors(), 0u);
  EXPECT_EQ(trace.totalEvents(), 0u);
  EXPECT_TRUE(drain(trace).empty());
  EXPECT_EQ(trace.firstTimestamp(), 0u);
  EXPECT_EQ(trace.lastTimestamp(), 0u);
}

TEST(TraceSet, FromFilesRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("traceset_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  {
    ManualTrace mt(2);
    TraceFileMeta meta;
    meta.numProcessors = 2;
    meta.bufferWords = 256;
    meta.clockKind = ClockKind::Virtual;
    meta.ticksPerSecond = 1e9;
    FileSink files(dir.string(), "t", meta);
    Consumer consumer(mt.facility, files, {});
    mt.log(0, 10, Major::Test, 1, uint64_t{11});
    mt.log(1, 20, Major::Test, 2, uint64_t{22});
    mt.facility.flushAll();
    consumer.drainNow();
    files.flush();

    const TraceSet trace = TraceSet::fromFiles(
        {files.pathFor(0), files.pathFor(1)});
    ASSERT_EQ(trace.numProcessors(), 2u);
    EXPECT_EQ(trace.totalEvents(), 2u);
    EXPECT_EQ(trace.processorEvents(0)[0].data[0], 11u);
    EXPECT_EQ(trace.processorEvents(1)[0].data[0], 22u);
    EXPECT_DOUBLE_EQ(trace.ticksPerSecond(), 1e9);
  }
  std::filesystem::remove_all(dir);
}

TEST(TraceSet, StableMergeForEqualTimestamps) {
  ManualTrace mt(2);
  mt.log(1, 100, Major::Test, 0, uint64_t{21});
  mt.log(0, 100, Major::Test, 0, uint64_t{11});
  const TraceSet trace = mt.collect();
  const auto merged = drain(trace);
  ASSERT_EQ(merged.size(), 2u);
  // Equal stamps: lower processor first.
  EXPECT_EQ(merged[0]->processor, 0u);
  EXPECT_EQ(merged[1]->processor, 1u);
}

}  // namespace
}  // namespace ktrace::analysis
