// In-process and shared-memory tracing run one algorithm: a fixed FakeClock
// script logged into a TraceControl and into a ShmSession control of the
// same geometry must leave identical rings, identical per-slot commit
// state and identical counters; and the script shipped through
// Facility -> Consumer -> FileSink and through ShmSession ->
// SessionWatchdog -> FileSink must produce the pinned .ktrc bytes.
//
// The script covers events of 1 to 40 words, a zero-length and an
// oversize reject, exact-fit crossings, a flush of an empty buffer, a
// flush of a nearly empty 4096-word buffer (a filler chain longer than
// one 1023-word filler), and more than two laps of the ring.
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "core/consumer.hpp"
#include "core/control.hpp"
#include "core/facility.hpp"
#include "core/logger.hpp"
#include "core/shm_session.hpp"
#include "core/trace_file.hpp"

namespace ktrace {
namespace {

constexpr uint32_t kBufferWords = 4096;
constexpr uint32_t kNumBuffers = 4;
constexpr uint64_t kClockStart = 1000;
constexpr uint64_t kClockStep = 7;

/// FNV-1a over a file's bytes.
uint64_t fileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

TraceFileMeta fixedMeta() {
  TraceFileMeta meta;
  meta.processorId = 0;
  meta.numProcessors = 1;
  meta.bufferWords = kBufferWords;
  meta.clockKind = ClockKind::Fake;
  meta.ticksPerSecond = 1e9;
  meta.startWallNs = 1'700'000'000'000'000'000ull;
  meta.startTicks = kClockStart;
  return meta;
}

/// The script, written against the operations both controls offer.
/// `log(major, minor, payload)` logs one event, `reserve(n)` attempts a
/// bare reservation (only used for the rejects), `flush()` pads the
/// current buffer, `index()` reads the reservation index, and `after()`
/// runs after every step (the pipeline variants drain there).
template <typename Log, typename Reserve, typename Flush, typename Index,
          typename After>
void runScript(Log log, Reserve reserve, Flush flush, Index index, After after,
               uint32_t maxEventWords) {
  std::array<uint64_t, 64> payload{};
  uint64_t serial = 0;
  auto logWords = [&](uint32_t lengthWords, Major major) {
    for (uint32_t i = 0; i + 1 < lengthWords; ++i) payload[i] = serial * 64 + i;
    ++serial;
    EXPECT_TRUE(log(major, static_cast<uint16_t>(serial & 0xff),
                    std::span<const uint64_t>(payload.data(), lengthWords - 1)));
    after();
  };
  auto offset = [&] { return static_cast<uint32_t>(index() & (kBufferWords - 1)); };
  // Fills the current buffer to exactly its boundary with events of at
  // most 40 words: the next reservation is an exact-fit crossing.
  auto fillToBoundary = [&] {
    while (offset() != 0) {
      const uint32_t left = kBufferWords - offset();
      logWords(left > 40 ? 40 - (left % 3) : left, Major::App);
    }
  };

  // Lap 0: every size from 1 to 40 words, twice, in a scrambled order.
  uint64_t lcg = 12345;
  for (int i = 0; i < 80; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    logWords(1 + static_cast<uint32_t>((lcg >> 33) % 40), Major::Test);
  }

  // The two rejects.
  EXPECT_FALSE(reserve(0));
  EXPECT_FALSE(reserve(maxEventWords + 1));
  after();

  // An exact-fit crossing, then a flush of the (empty) new buffer.
  fillToBoundary();
  flush();
  after();
  ASSERT_EQ(offset(), 0u);

  // Cross into the next buffer with one small event, then flush the
  // nearly empty buffer: a filler chain over 4096 - 3 - 2 words.
  logWords(2, Major::Mem);
  flush();
  after();

  // More than two laps of the ring: mixed sizes with an exact fit every
  // third buffer.
  uint64_t crossings = 0;
  while (index() < 3ull * kNumBuffers * kBufferWords) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t before = index() / kBufferWords;
    logWords(1 + static_cast<uint32_t>((lcg >> 33) % 40),
             (lcg >> 20) % 2 == 0 ? Major::Sched : Major::Io);
    if (index() / kBufferWords != before && ++crossings % 3 == 0) {
      fillToBoundary();
    }
  }
  flush();
  after();
}

TEST(ControlParity, TraceControlAndShmControlLeaveIdenticalRings) {
  FakeClock clockA(kClockStart, kClockStep);
  TraceControlConfig config;
  config.processorId = 0;
  config.bufferWords = kBufferWords;
  config.numBuffers = kNumBuffers;
  config.clock = clockA.ref();
  TraceControl local(config);

  const std::string path = (std::filesystem::temp_directory_path() /
                            ("ktrace_parity_" + std::to_string(::getpid()) +
                             ".kses"))
                               .string();
  FakeClock clockB(kClockStart, kClockStep);
  ShmSession::Config sessionConfig;
  sessionConfig.numProcessors = 1;
  sessionConfig.bufferWords = kBufferWords;
  sessionConfig.numBuffers = kNumBuffers;
  sessionConfig.maxProducers = 1;
  ShmSession session = ShmSession::create(path, sessionConfig, clockB.ref());
  ShmTraceControl shared = session.control(0);

  runScript(
      [&](Major major, uint16_t minor, std::span<const uint64_t> data) {
        return logEventData(local, major, minor, data);
      },
      [&](uint32_t n) {
        Reservation r;
        return local.reserve(n, r);
      },
      [&] { local.flushCurrentBuffer(); }, [&] { return local.currentIndex(); },
      [] {}, local.maxEventWords());
  runScript(
      [&](Major major, uint16_t minor, std::span<const uint64_t> data) {
        return shared.logEventData(major, minor, data);
      },
      [&](uint32_t n) {
        Reservation r;
        return shared.reserve(n, r);
      },
      [&] { shared.flushCurrentBuffer(); }, [&] { return shared.currentIndex(); },
      [] {}, shared.maxEventWords());

  ASSERT_EQ(local.currentIndex(), shared.currentIndex());
  EXPECT_GE(local.currentBufferSeq(), 2u * kNumBuffers);
  ASSERT_EQ(local.regionWords(), shared.regionWords());
  for (uint64_t i = 0; i < local.regionWords(); ++i) {
    ASSERT_EQ(local.loadWord(i), shared.loadWord(i)) << "ring word " << i;
  }
  for (uint32_t s = 0; s < kNumBuffers; ++s) {
    const auto& a = local.bufferState(s);
    const auto& b = shared.slot(s);
    EXPECT_EQ(a.committed.load(), b.committed.load()) << "slot " << s;
    EXPECT_EQ(a.lapStartCommitted.load(), b.lapStartCommitted.load()) << "slot " << s;
    EXPECT_EQ(a.lapSeq.load(), b.lapSeq.load()) << "slot " << s;
  }
  uint64_t localEvents = 0;
  for (uint32_t m = 0; m < kMaxMajors; ++m) {
    localEvents += local.eventsLoggedFor(static_cast<Major>(m));
  }
  EXPECT_EQ(localEvents, shared.eventsLogged());
  EXPECT_EQ(local.wordsReservedCount(), shared.wordsReservedCount());
  EXPECT_EQ(local.fillerWordsWritten(), shared.fillerWordsWritten());
  EXPECT_EQ(local.staleCommits(), shared.staleCommits());
  // The script's own shape: the rejects, an exact fit, a long chain.
  EXPECT_EQ(local.rejectedEvents(), 2u);
  EXPECT_GE(local.exactFitCrossings(), 3u);
  EXPECT_GT(local.fillerWordsWritten(), EventHeader::kMaxWords);
  std::filesystem::remove(path);
}

class PipelineParity : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ktrace_parity_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

// FNV-1a of the .ktrc both pipelines write for the script, pinned when
// the two control implementations were still separate copies.
constexpr uint64_t kPinnedDigest = 0xa85ecba5967310abull;

TEST_F(PipelineParity, FacilityConsumerFileSinkMatchesPinnedDigest) {
  FakeClock clock(kClockStart, kClockStep);
  FacilityConfig config;
  config.numProcessors = 1;
  config.bufferWords = kBufferWords;
  config.buffersPerProcessor = kNumBuffers;
  config.clockKind = ClockKind::Fake;
  config.clockOverride = clock.ref();
  config.mode = Mode::Stream;
  Facility facility(config);
  FileSink files(dir_.string(), "facility", fixedMeta());
  Consumer consumer(facility, files, {});
  TraceControl& control = facility.control(0);

  runScript(
      [&](Major major, uint16_t minor, std::span<const uint64_t> data) {
        return logEventData(control, major, minor, data);
      },
      [&](uint32_t n) {
        Reservation r;
        return control.reserve(n, r);
      },
      [&] { control.flushCurrentBuffer(); },
      [&] { return control.currentIndex(); }, [&] { consumer.drainNow(); },
      control.maxEventWords());
  ASSERT_TRUE(files.flush());
  const Consumer::Stats stats = consumer.stats();
  EXPECT_EQ(stats.buffersConsumed, control.currentBufferSeq());
  EXPECT_EQ(stats.buffersLost, 0u);
  EXPECT_EQ(stats.commitMismatches, 0u);
  EXPECT_EQ(fileDigest(files.pathFor(0)), kPinnedDigest);
}

TEST_F(PipelineParity, ShmSessionWatchdogFileSinkMatchesPinnedDigest) {
  FakeClock clock(kClockStart, kClockStep);
  ShmSession::Config config;
  config.numProcessors = 1;
  config.bufferWords = kBufferWords;
  config.numBuffers = kNumBuffers;
  config.maxProducers = 1;
  config.clockKind = ClockKind::Fake;
  ShmSession session =
      ShmSession::create((dir_ / "parity.kses").string(), config, clock.ref());
  FileSink files(dir_.string(), "shm", fixedMeta());
  SessionWatchdog watchdog(session, files);
  ShmTraceControl control = session.control(0);

  runScript(
      [&](Major major, uint16_t minor, std::span<const uint64_t> data) {
        return control.logEventData(major, minor, data);
      },
      [&](uint32_t n) {
        Reservation r;
        return control.reserve(n, r);
      },
      [&] { control.flushCurrentBuffer(); },
      [&] { return control.currentIndex(); }, [&] { watchdog.pollOnce(); },
      control.maxEventWords());
  ASSERT_TRUE(files.flush());
  EXPECT_EQ(control.buffersConsumed(), control.currentBufferSeq());
  EXPECT_EQ(control.buffersLost(), 0u);
  EXPECT_EQ(control.commitMismatches(), 0u);
  EXPECT_EQ(watchdog.stats().buffersRecovered, control.currentBufferSeq());
  EXPECT_EQ(fileDigest(files.pathFor(0)), kPinnedDigest);
}

}  // namespace
}  // namespace ktrace
