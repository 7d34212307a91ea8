// Streaming analysis end to end (DESIGN.md §13): the derived-monitor
// expression language, the windowed StreamEngine, the OrderedMerger's
// watermark holdback, and — the load-bearing claims — that a StreamCursor
// over closed files replays the reference merge's exact order, that the four
// post-hoc analyses built from folds are byte-identical to their TraceSet
// constructors, and that a StreamCursor tailing a *growing* file decodes
// each record exactly once across flushes and resumes from a saved cursor.
#include "analysis/streaming/engine.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/completeness.hpp"
#include "analysis/event_stats.hpp"
#include "analysis/lock_analysis.hpp"
#include "analysis/profile.hpp"
#include "analysis/streaming/folds.hpp"
#include "analysis/streaming/monitors.hpp"
#include "analysis/streaming/stream_cursor.hpp"
#include "core/ktrace.hpp"
#include "ossim/machine.hpp"
#include "test_support.hpp"
#include "workload/sdet.hpp"

namespace ktrace {
namespace {

namespace streaming = analysis::streaming;

// --- Derived-monitor expressions ---------------------------------------

TEST(MonitorExprTest, PrecedenceAndParens) {
  EXPECT_DOUBLE_EQ(streaming::MonitorExpr::parse("1 + 2 * 3").eval({}), 7.0);
  EXPECT_DOUBLE_EQ(streaming::MonitorExpr::parse("(1 + 2) * 3").eval({}), 9.0);
  EXPECT_DOUBLE_EQ(streaming::MonitorExpr::parse("8 - 4 - 2").eval({}), 2.0);
  EXPECT_DOUBLE_EQ(streaming::MonitorExpr::parse("8 / 4 / 2").eval({}), 1.0);
}

TEST(MonitorExprTest, UnaryMinusAndVariables) {
  streaming::MonitorVars vars;
  vars["events"] = 5.0;
  vars["lost"] = 2.0;
  EXPECT_DOUBLE_EQ(streaming::MonitorExpr::parse("-events + 2").eval(vars),
                   -3.0);
  EXPECT_DOUBLE_EQ(
      streaming::MonitorExpr::parse("lost / (events + lost)").eval(vars),
      2.0 / 7.0);
}

TEST(MonitorExprTest, NonFiniteEvaluatesToNan) {
  EXPECT_TRUE(std::isnan(streaming::MonitorExpr::parse("1 / 0").eval({})));
  EXPECT_TRUE(std::isnan(streaming::MonitorExpr::parse("0 / 0").eval({})));
}

TEST(MonitorExprTest, UnknownIdentifierIsParseError) {
  EXPECT_THROW(streaming::MonitorExpr::parse("bogus + 1"), std::runtime_error);
}

TEST(MonitorExprTest, SyntaxErrorsThrow) {
  EXPECT_THROW(streaming::MonitorExpr::parse("1 +"), std::runtime_error);
  EXPECT_THROW(streaming::MonitorExpr::parse("(1 + 2"), std::runtime_error);
  EXPECT_THROW(streaming::MonitorExpr::parse(""), std::runtime_error);
  EXPECT_THROW(streaming::MonitorExpr::parse("1 2"), std::runtime_error);
}

TEST(MonitorExprTest, ConfigParsing) {
  const auto monitors = streaming::parseMonitorConfig(
      "# comment\n"
      "\n"
      "loss_ratio = lost / (logged + lost)\n"
      "rate = window_events / window_seconds\n");
  ASSERT_EQ(monitors.size(), 2u);
  EXPECT_EQ(monitors[0].name, "loss_ratio");
  EXPECT_EQ(monitors[0].source, "lost / (logged + lost)");
  EXPECT_EQ(monitors[1].name, "rate");
  streaming::MonitorVars vars;
  vars["window_events"] = 10.0;
  vars["window_seconds"] = 0.5;
  EXPECT_DOUBLE_EQ(monitors[1].expr.eval(vars), 20.0);
}

TEST(MonitorExprTest, ConfigErrorsNameTheLine) {
  try {
    streaming::parseMonitorConfig("ok = events\nbad = nope\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("2"), std::string::npos) << e.what();
  }
  EXPECT_THROW(streaming::parseMonitorConfig("no equals sign"),
               std::runtime_error);
}

TEST(MonitorExprTest, DefaultMonitors) {
  const auto defaults = streaming::defaultMonitors();
  ASSERT_EQ(defaults.size(), 3u);
  EXPECT_EQ(defaults[0].name, "loss_ratio");
  EXPECT_EQ(defaults[1].name, "bytes_per_event");
  EXPECT_EQ(defaults[2].name, "compression_ratio");
  // Every default must reference only catalogued variables (they parsed),
  // and the catalogue itself must include the heartbeat-sourced names the
  // docs promise.
  const auto& known = streaming::knownMonitorVariables();
  for (const char* name : {"logged", "lost", "bytes_written", "raw_bytes",
                           "events", "window_events", "window_seconds"}) {
    EXPECT_NE(std::find(known.begin(), known.end(), name), known.end())
        << name;
  }
}

// --- StreamEngine windows ----------------------------------------------

DecodedEvent makeEvent(uint32_t proc, uint64_t tick,
                       Major major = Major::App, uint16_t minor = 0,
                       const std::vector<uint64_t>& payload = {}) {
  DecodedEvent e;
  e.header.timestamp = static_cast<uint32_t>(tick);
  e.header.lengthWords = static_cast<uint32_t>(payload.size());
  e.header.major = major;
  e.header.minor = minor;
  e.fullTimestamp = tick;
  e.processor = proc;
  if (!payload.empty()) {
    e.data.assign(payload.data(), static_cast<uint32_t>(payload.size()));
  }
  return e;
}

DecodedEvent makeHeartbeat(uint32_t proc, uint64_t tick, uint64_t seq,
                           uint64_t eventsLogged, uint64_t consumerLost) {
  std::vector<uint64_t> payload(kHeartbeatPayloadWords, 0);
  payload[0] = seq;
  payload[2] = eventsLogged;
  payload[9] = consumerLost;
  return makeEvent(proc, tick, Major::Monitor,
                   static_cast<uint16_t>(MonitorMinor::Heartbeat), payload);
}

TEST(StreamEngineTest, WindowTicksForMsIsClamped) {
  EXPECT_EQ(streaming::windowTicksForMs(100, 1e9), 100'000'000u);
  EXPECT_EQ(streaming::windowTicksForMs(0.0001, 1000), 1u);  // never 0
  EXPECT_EQ(streaming::windowTicksForMs(-1, 1e9), 1u);
  EXPECT_EQ(streaming::windowTicksForMs(std::nan(""), 1e9), 1u);
  // Past 2^64 ticks (a -1 read as unsigned milliseconds): the widest
  // window, whose end stays below 2^64 for ticks below 2^63.
  EXPECT_EQ(streaming::windowTicksForMs(1.8446744073709552e19, 1e9), uint64_t{1} << 62);
  EXPECT_EQ(streaming::windowTicksForMs(1e300, 1e9), uint64_t{1} << 62);
}

TEST(StreamEngineTest, WatermarkCompletesWindows) {
  streaming::StreamEngineConfig cfg;
  cfg.windowTicks = 100;
  cfg.ticksPerSecond = 1000;
  streaming::StreamEngine engine(cfg);

  engine.observe(makeEvent(0, 10));
  engine.observe(makeEvent(1, 20));
  EXPECT_EQ(engine.windowsCompleted(), 0u);
  engine.observe(makeEvent(0, 150));
  // Watermark is min(150, 20): processor 1 may still log into window 0.
  EXPECT_EQ(engine.windowsCompleted(), 0u);
  engine.observe(makeEvent(1, 160));
  // Watermark 150 passed window 0's end (100).
  EXPECT_EQ(engine.windowsCompleted(), 1u);
  EXPECT_EQ(engine.watermark(), 150u);

  engine.finish();
  EXPECT_EQ(engine.windowsCompleted(), 2u);  // the tail window settles
  EXPECT_EQ(engine.watermark(), 160u);
  EXPECT_EQ(engine.eventsObserved(), 4u);
}

TEST(StreamEngineTest, PrunedWindowsCountLateEventsWithoutResurrection) {
  streaming::StreamEngineConfig cfg;
  cfg.windowTicks = 10;
  cfg.ticksPerSecond = 1000;
  cfg.maxWindows = 2;
  streaming::StreamEngine engine(cfg);

  engine.observe(makeEvent(0, 5));    // window 0
  engine.observe(makeEvent(0, 15));   // window 1
  engine.observe(makeEvent(0, 25));   // window 2: window 0 ages out
  engine.observe(makeEvent(0, 3));    // late: window 0 is gone
  engine.finish();

  const std::string snap = engine.snapshotJson("t");
  EXPECT_NE(snap.find("\"late_events\":1"), std::string::npos) << snap;
  EXPECT_EQ(snap.find("\"index\":0,"), std::string::npos) << snap;
  EXPECT_EQ(engine.eventsObserved(), 4u);
}

TEST(StreamEngineTest, SnapshotIsArrivalOrderInsensitive) {
  std::vector<DecodedEvent> events;
  events.push_back(makeEvent(0, 10));
  events.push_back(makeEvent(1, 20));
  events.push_back(makeHeartbeat(0, 150, 1, 90, 10));
  events.push_back(makeEvent(0, 110));
  events.push_back(makeEvent(1, 120));
  events.push_back(makeEvent(0, 210));
  events.push_back(makeEvent(1, 220));

  streaming::StreamEngineConfig cfg;
  cfg.windowTicks = 100;
  cfg.ticksPerSecond = 1000;
  streaming::StreamEngine forward(cfg, streaming::defaultMonitors());
  streaming::StreamEngine backward(cfg, streaming::defaultMonitors());
  for (const DecodedEvent& e : events) forward.observe(e);
  for (auto it = events.rbegin(); it != events.rend(); ++it) {
    backward.observe(*it);
  }
  forward.finish();
  backward.finish();
  EXPECT_EQ(forward.snapshotJson("t"), backward.snapshotJson("t"));
}

TEST(StreamEngineTest, MonitorsEvaluateFromWindowHeartbeats) {
  streaming::StreamEngineConfig cfg;
  cfg.windowTicks = 100;
  cfg.ticksPerSecond = 1000;
  streaming::StreamEngine engine(
      cfg, streaming::parseMonitorConfig(
               "loss_ratio = lost / (logged + lost)\n"));

  engine.observe(makeEvent(0, 10));
  engine.observe(makeHeartbeat(0, 50, 1, 90, 10));
  engine.observe(makeEvent(0, 60));
  engine.finish();

  const std::string snap = engine.snapshotJson("t");
  // Window 0's newest heartbeat says logged=90, lost=10 -> 0.1.
  EXPECT_NE(snap.find("{\"name\":\"loss_ratio\",\"value\":0.1}"),
            std::string::npos)
      << snap;
  EXPECT_NE(snap.find("\"type\":\"monitor\""), std::string::npos);
  EXPECT_NE(snap.find("\"last\":0.1"), std::string::npos) << snap;
}

TEST(StreamEngineTest, WindowingDisabledEmitsOnlyTopLine) {
  streaming::StreamEngineConfig cfg;
  cfg.windowTicks = 0;
  streaming::StreamEngine engine(cfg);
  engine.observe(makeEvent(0, 10));
  engine.observe(makeEvent(0, 500));
  engine.finish();
  const std::string snap = engine.snapshotJson("t");
  EXPECT_NE(snap.find("\"type\":\"top\""), std::string::npos);
  EXPECT_EQ(snap.find("\"type\":\"window\""), std::string::npos) << snap;
  EXPECT_NE(snap.find("\"events\":2"), std::string::npos);
}

// --- OrderedMerger ------------------------------------------------------

TEST(OrderedMergerTest, ReleasesInMergedOrderWithHoldback) {
  streaming::OrderedMerger merger(2);
  merger.push(0, {makeEvent(0, 10)});
  merger.push(0, {makeEvent(0, 30)});
  merger.push(1, {makeEvent(1, 20)});

  const DecodedEvent* e = merger.next();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->fullTimestamp, 10u);
  e = merger.next();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->fullTimestamp, 20u);
  // Lane 1 is empty and last produced tick 20 < 30: it could still emit
  // an event that sorts before 30, so the merge must hold back.
  EXPECT_EQ(merger.next(), nullptr);
  EXPECT_EQ(merger.buffered(), 1u);

  merger.finish();
  e = merger.next();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->fullTimestamp, 30u);
  EXPECT_TRUE(merger.drained());
}

TEST(OrderedMergerTest, TimestampTiesBreakOnProcessor) {
  streaming::OrderedMerger merger(2);
  merger.push(1, {makeEvent(7, 10)});
  merger.push(0, {makeEvent(3, 10)});
  merger.finish();
  const DecodedEvent* e = merger.next();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->processor, 3u);
  e = merger.next();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->processor, 7u);
}

// --- Closed-trace parity and growing-file tailing -----------------------

constexpr uint32_t kBufferWords = 1u << 10;

class StreamingTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ktrace_streaming_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    generateTrace();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void generateTrace() {
    FacilityConfig fcfg;
    fcfg.numProcessors = 2;
    fcfg.bufferWords = kBufferWords;
    fcfg.buffersPerProcessor = 64;
    fcfg.mode = Mode::Stream;
    Facility facility(fcfg);
    facility.mask().enableAll();

    TraceFileMeta meta;
    meta.numProcessors = 2;
    meta.bufferWords = kBufferWords;
    meta.clockKind = ClockKind::Virtual;
    meta.ticksPerSecond = 1e9;
    FileSink files(dir_.string(), "t", meta);
    Consumer consumer(facility, files, {});

    ossim::MachineConfig mcfg;
    mcfg.numProcessors = 2;
    mcfg.monitorHeartbeatIntervalNs = 10'000;
    ossim::Machine machine(mcfg, &facility);
    workload::SdetConfig scfg;
    scfg.numScripts = 4;
    scfg.commandsPerScript = 3;
    workload::SdetWorkload sdet(scfg, machine, symbols_);
    sdet.spawnAll();
    machine.run();
    ASSERT_GT(machine.stats().monitorHeartbeats, 0u);

    facility.flushAll();
    consumer.drainNow();
    files.flush();
    paths_ = {files.pathFor(0), files.pathFor(1)};
  }

  static std::tuple<uint64_t, uint32_t, uint64_t, uint32_t> key(
      const DecodedEvent& e) {
    return {e.fullTimestamp, e.processor, e.bufferSeq, e.offsetInBuffer};
  }

  std::filesystem::path dir_;
  std::vector<std::string> paths_;
  analysis::SymbolTable symbols_;
};

TEST_F(StreamingTraceTest, StreamCursorReplaysReferenceOrder) {
  const auto trace = analysis::TraceSet::fromFiles(paths_);
  const auto merged = testing::referenceMerge(trace);

  streaming::StreamCursor cursor(paths_);
  cursor.finish();

  uint64_t count = 0;
  for (;;) {
    const DecodedEvent* a = count < merged.size() ? merged[count] : nullptr;
    const DecodedEvent* b = cursor.next();
    ASSERT_EQ(a == nullptr, b == nullptr) << "length mismatch at " << count;
    if (a == nullptr) break;
    ASSERT_EQ(key(*a), key(*b)) << "order diverged at event " << count;
    ASSERT_EQ(a->header.major, b->header.major);
    ASSERT_EQ(a->header.minor, b->header.minor);
    ++count;
  }
  EXPECT_GT(count, 0u);
  EXPECT_TRUE(cursor.done());
  EXPECT_TRUE(cursor.metadataKnown());
  EXPECT_DOUBLE_EQ(cursor.ticksPerSecond(), 1e9);
}

TEST_F(StreamingTraceTest, FoldsToEofMatchPostHocToolsByteForByte) {
  const auto trace = analysis::TraceSet::fromFiles(paths_);
  const analysis::LockAnalysis postLocks(trace);
  const analysis::EventStats postStats(trace);
  const analysis::Profile postProfile(trace);
  const auto postCompleteness = analysis::CompletenessReport::analyze(trace);

  streaming::LockContentionFold lockFold;
  streaming::EventRateFold rateFold(trace.numProcessors());
  streaming::ProfileFold profileFold;
  streaming::CompletenessFold completenessFold;

  streaming::StreamCursor cursor(paths_);
  cursor.finish();
  while (const DecodedEvent* e = cursor.next()) {
    lockFold.onEvent(*e);
    rateFold.onEvent(*e);
    profileFold.onEvent(*e);
    completenessFold.onEvent(*e);
  }
  lockFold.finish();
  rateFold.finish();
  profileFold.finish();
  completenessFold.finish();

  ASSERT_GT(rateFold.totalEvents(), 0u);
  ASSERT_TRUE(completenessFold.hasHeartbeats());

  const analysis::LockAnalysis liveLocks(std::move(lockFold));
  EXPECT_EQ(postLocks.totalWaitTicks(), liveLocks.totalWaitTicks());
  EXPECT_EQ(postLocks.unmatchedContends(), liveLocks.unmatchedContends());
  EXPECT_EQ(postLocks.report(symbols_, 1e9), liveLocks.report(symbols_, 1e9));

  const analysis::EventStats liveStats(std::move(rateFold));
  EXPECT_EQ(postStats.totalEvents(), liveStats.totalEvents());
  EXPECT_EQ(postStats.totalWords(), liveStats.totalWords());
  EXPECT_EQ(postStats.report(Registry::global(), 1e9),
            liveStats.report(Registry::global(), 1e9));

  const analysis::Profile liveProfile(std::move(profileFold));
  ASSERT_EQ(postProfile.pids(), liveProfile.pids());
  for (const uint64_t pid : postProfile.pids()) {
    EXPECT_EQ(postProfile.report(pid, symbols_, "sdet"),
              liveProfile.report(pid, symbols_, "sdet"));
  }

  const auto liveCompleteness = analysis::CompletenessReport::fromFold(
      std::move(completenessFold), cursor.stats());
  EXPECT_EQ(postCompleteness.toJson(), liveCompleteness.toJson());
  EXPECT_EQ(postCompleteness.report(1e9), liveCompleteness.report(1e9));
  EXPECT_EQ(postCompleteness.complete(), liveCompleteness.complete());
}

TEST_F(StreamingTraceTest, StreamCursorTailsGrowingFileAndResumes) {
  // Replay processor 0's closed file record by record into a fresh file,
  // flushing partway, so the copy behaves like a live writer's output.
  TraceFileReader source(paths_[0]);
  std::vector<BufferRecord> records;
  for (uint64_t k = 0; k < source.bufferCount(); ++k) {
    BufferRecord record;
    ASSERT_TRUE(source.readBuffer(k, record));
    records.push_back(std::move(record));
  }
  ASSERT_GE(records.size(), 2u);
  const size_t half = records.size() / 2;

  const std::string growPath = (dir_ / "grow.ktrc").string();
  TraceFileWriter writer(growPath, source.meta());
  for (size_t k = 0; k < half; ++k) {
    ASSERT_TRUE(writer.writeBuffer(records[k]));
  }
  ASSERT_TRUE(writer.flush());

  streaming::StreamCursor cursor({growPath});
  const size_t firstBatch = cursor.poll();
  EXPECT_GT(firstBatch, 0u);
  std::vector<DecodedEvent> streamed;
  while (const DecodedEvent* e = cursor.next()) streamed.push_back(*e);
  EXPECT_EQ(streamed.size(), firstBatch);
  EXPECT_EQ(cursor.cursors()[0].recordsDecoded, half);

  // Appended but not flushed: the footer is stale (or the bytes are still
  // buffered), so nothing new may be decoded — and nothing twice.
  ASSERT_TRUE(writer.writeBuffer(records[half]));
  EXPECT_EQ(cursor.poll(), 0u);

  // Remember the resume point mid-stream, as a restarted reader would.
  const std::vector<streaming::FileCursor> saved = cursor.cursors();

  for (size_t k = half + 1; k < records.size(); ++k) {
    ASSERT_TRUE(writer.writeBuffer(records[k]));
  }
  ASSERT_TRUE(writer.flush());
  EXPECT_GT(cursor.poll(), 0u);
  cursor.finish();
  while (const DecodedEvent* e = cursor.next()) streamed.push_back(*e);

  // Concatenating the incremental polls equals one post-hoc decode.
  const auto whole = analysis::TraceSet::fromFiles({growPath});
  const auto& expected = whole.processorEvents(source.meta().processorId);
  ASSERT_EQ(streamed.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(key(streamed[i]), key(expected[i])) << "event " << i;
  }

  // A second cursor resuming from the saved point decodes only the tail —
  // with timestamps identical to the uninterrupted stream (tsBase is part
  // of the cursor).
  streaming::StreamCursor resumed({growPath});
  resumed.resume(saved);
  resumed.finish();
  size_t i = firstBatch;
  while (const DecodedEvent* e = resumed.next()) {
    ASSERT_LT(i, streamed.size());
    ASSERT_EQ(key(*e), key(streamed[i])) << "resumed event " << i;
    ++i;
  }
  EXPECT_EQ(i, streamed.size());

  EXPECT_THROW(resumed.resume({}), std::invalid_argument);
}

TEST_F(StreamingTraceTest, ResumeRejectsRotatedFile) {
  // A cursor saved against one file must not be applied to a different
  // file that later appears at the same path (log rotation): the saved
  // record offset would be meaningless there.
  TraceFileReader source(paths_[0]);
  std::vector<BufferRecord> records;
  for (uint64_t k = 0; k < source.bufferCount(); ++k) {
    BufferRecord record;
    ASSERT_TRUE(source.readBuffer(k, record));
    records.push_back(std::move(record));
  }
  ASSERT_GE(records.size(), 2u);

  const std::string path = (dir_ / "rotate.ktrc").string();
  {
    TraceFileWriter writer(path, source.meta());
    ASSERT_TRUE(writer.writeBuffer(records[0]));
    ASSERT_TRUE(writer.flush());
  }
  streaming::StreamCursor cursor({path});
  cursor.poll();  // may ingest 0 events, but fingerprints the file
  const std::vector<streaming::FileCursor> saved = cursor.cursors();
  ASSERT_NE(saved[0].identity, 0u);
  ASSERT_EQ(saved[0].recordsDecoded, 1u);

  // "Rotate": a new file at the same path whose first record differs.
  {
    TraceFileWriter writer(path, source.meta());
    ASSERT_TRUE(writer.writeBuffer(records[1]));
    ASSERT_TRUE(writer.flush());
  }
  streaming::StreamCursor resumed({path});
  resumed.resume(saved);
  EXPECT_THROW(resumed.poll(), std::runtime_error);
}

TEST_F(StreamingTraceTest, ResumeRejectsTruncatedFile) {
  // Same identity but fewer records than the cursor claims to have
  // decoded: the file shrank (truncated or restored from backup) and the
  // cursor's offset points past its end.
  TraceFileReader source(paths_[0]);
  std::vector<BufferRecord> records;
  for (uint64_t k = 0; k < source.bufferCount(); ++k) {
    BufferRecord record;
    ASSERT_TRUE(source.readBuffer(k, record));
    records.push_back(std::move(record));
  }
  ASSERT_GE(records.size(), 2u);

  const std::string path = (dir_ / "trunc.ktrc").string();
  {
    TraceFileWriter writer(path, source.meta());
    for (const BufferRecord& record : records) {
      ASSERT_TRUE(writer.writeBuffer(record));
    }
    ASSERT_TRUE(writer.flush());
  }
  streaming::StreamCursor cursor({path});
  ASSERT_GT(cursor.poll(), 0u);
  const std::vector<streaming::FileCursor> saved = cursor.cursors();
  ASSERT_EQ(saved[0].recordsDecoded, records.size());

  // Rewrite with the same first record but fewer of them.
  {
    TraceFileWriter writer(path, source.meta());
    ASSERT_TRUE(writer.writeBuffer(records[0]));
    ASSERT_TRUE(writer.flush());
  }
  streaming::StreamCursor resumed({path});
  resumed.resume(saved);
  EXPECT_THROW(resumed.poll(), std::runtime_error);
}

/// Flips one bit of the byte at `offset`, so the byte surely changes.
void flipBit(const std::string& path, uint64_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  std::fputc(c ^ 0x01, f);
  std::fclose(f);
}

/// File offset of a payload byte of record k (uncompressed records follow
/// the 128-byte file header back to back, each a 32-byte header and its
/// words).
uint64_t payloadByteOf(uint64_t k) {
  return 128 + k * (32 + kBufferWords * 8ull) + 32 + 100;
}

std::string errorOf(const std::function<void()>& f) {
  try {
    f();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST_F(StreamingTraceTest, DamagedRecordThrowsFromStreamCursorAsFromFiles) {
  // Over closed files poll()+finish() must be exactly fromFiles +
  // MergeCursor, so a damaged record must not end the stream early and
  // silently: the cursor throws what strict fromFiles throws.
  TraceFileReader source(paths_[0]);
  std::vector<BufferRecord> records;
  for (uint64_t k = 0; k < source.bufferCount(); ++k) {
    BufferRecord record;
    ASSERT_TRUE(source.readBuffer(k, record));
    records.push_back(std::move(record));
  }
  ASSERT_GE(records.size(), 6u);
  TraceWriterOptions small;
  small.indexRecordsPerEntry = 2;  // one CRC per two records
  const uint64_t damaged = records.size() * 2 / 3;

  const std::string closed = (dir_ / "closed.ktrc").string();
  {
    TraceFileWriter writer(closed, source.meta(), nullptr, small);
    for (const BufferRecord& r : records) ASSERT_TRUE(writer.writeBuffer(r));
    ASSERT_TRUE(writer.flush());
  }
  flipBit(closed, payloadByteOf(damaged));
  const std::string strict =
      errorOf([&] { analysis::TraceSet::fromFiles({closed}); });
  ASSERT_NE(strict.find(closed), std::string::npos) << strict;
  ASSERT_NE(strict.find("record " + std::to_string(damaged & ~uint64_t{1})),
            std::string::npos)
      << strict;
  {
    streaming::StreamCursor cursor({closed});
    EXPECT_EQ(errorOf([&] { cursor.poll(); }), strict);
    EXPECT_EQ(errorOf([&] { cursor.finish(); }), strict);
    EXPECT_FALSE(cursor.done());
  }

  // A growing file: polls before the damaged record decode normally, and
  // the poll that reaches it throws (and so does every later one).
  const std::string growing = (dir_ / "growing.ktrc").string();
  TraceFileWriter writer(growing, source.meta(), nullptr, small);
  for (uint64_t k = 0; k < damaged; ++k) ASSERT_TRUE(writer.writeBuffer(records[k]));
  ASSERT_TRUE(writer.flush());
  streaming::StreamCursor cursor({growing});
  EXPECT_GT(cursor.poll(), 0u);
  EXPECT_EQ(cursor.cursors()[0].recordsDecoded, damaged);
  for (uint64_t k = damaged; k < records.size(); ++k) {
    ASSERT_TRUE(writer.writeBuffer(records[k]));
  }
  ASSERT_TRUE(writer.flush());
  flipBit(growing, payloadByteOf(damaged));
  const std::string error = errorOf([&] { cursor.poll(); });
  EXPECT_NE(error.find(growing), std::string::npos) << error;
  EXPECT_EQ(errorOf([&] { cursor.poll(); }), error);
  EXPECT_EQ(error, errorOf([&] { analysis::TraceSet::fromFiles({growing}); }));
}

}  // namespace
}  // namespace ktrace
