// The §4.2 crash dump tool: a crash image is a session segment with no
// leases whose control blocks are copies of the facility's
// (writeCrashDump). The flight recorder reconstructs the most recent
// events from it offline, and `ktracetool recover` turns it into trace
// files, exactly as for a shared-memory session.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>

#include "test_support.hpp"

namespace ktrace {
namespace {

using testing::FakeFacility;

class CrashDumpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("crashdump_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const char* name) const { return (dir_ / name).string(); }

  /// Maps a dump copy-on-write, as `ktracetool crashdump` does.
  static ShmSession openDump(const std::string& dumpPath) {
    return ShmSession::attachForRecovery(dumpPath, TscClock::ref());
  }

  std::filesystem::path dir_;
};

TEST_F(CrashDumpTest, RoundTripPreservesRecentEvents) {
  FakeFacility fx(2, 64, 4);
  fx.facility.bindCurrentThread(0);
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(fx.facility.log(Major::Test, 1, i));
  }
  fx.facility.bindCurrentThread(1);
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(fx.facility.log(Major::Mem, 2, i, i));
  }

  ASSERT_TRUE(writeCrashDump(fx.facility, path("crash.kses")));
  const ShmSession dump = openDump(path("crash.kses"));
  ASSERT_EQ(dump.numProcessors(), 2u);

  // The dump's snapshot must match the live flight recorder exactly.
  FlightRecorderOptions opts;
  opts.maxEvents = 0;
  const auto live0 = flightRecorderSnapshot(fx.facility.control(0), opts);
  const auto dumped0 = flightRecorderSnapshot(dump.control(0), opts);
  ASSERT_EQ(dumped0.size(), live0.size());
  for (size_t i = 0; i < live0.size(); ++i) {
    EXPECT_EQ(dumped0[i].data, live0[i].data) << i;
    EXPECT_EQ(dumped0[i].fullTimestamp, live0[i].fullTimestamp) << i;
  }
  EXPECT_EQ(dumped0.back().data[0], 199u);

  const auto dumped1 = flightRecorderSnapshot(dump.control(1), opts);
  ASSERT_EQ(dumped1.size(), 10u);
  EXPECT_EQ(dumped1[0].header.major, Major::Mem);
}

TEST_F(CrashDumpTest, FilteringAndMaxEventsWork) {
  FakeFacility fx(1, 64, 4);
  fx.facility.bindCurrentThread(0);
  for (uint64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(fx.facility.log(i % 2 == 0 ? Major::Sched : Major::Io,
                                static_cast<uint16_t>(i), i));
  }
  ASSERT_TRUE(writeCrashDump(fx.facility, path("f.kses")));
  const ShmSession dump = openDump(path("f.kses"));

  FlightRecorderOptions opts;
  opts.maxEvents = 5;
  opts.majorMask = TraceMask::bit(Major::Io);
  const auto events = flightRecorderSnapshot(dump.control(0), opts);
  ASSERT_EQ(events.size(), 5u);
  for (const auto& e : events) EXPECT_EQ(e.header.major, Major::Io);
  EXPECT_EQ(events.back().data[0], 39u);
}

TEST_F(CrashDumpTest, ReportRendersWithRegistry) {
  FakeFacility fx(1, 64, 4);
  fx.facility.bindCurrentThread(0);
  Registry registry;
  registry.add({Major::Test, 9, "TRACE_TEST_CRASHED", "64", "about to crash: %0[%llu]"});
  ASSERT_TRUE(fx.facility.log(Major::Test, 9, uint64_t{0xDEAD}));
  ASSERT_TRUE(writeCrashDump(fx.facility, path("r.kses")));
  const ShmSession dump = openDump(path("r.kses"));
  const std::string report = flightRecorderReport(dump.control(0), registry,
                                                  dump.header().ticksPerSecond);
  EXPECT_NE(report.find("TRACE_TEST_CRASHED"), std::string::npos);
  EXPECT_NE(report.find("about to crash: 57005"), std::string::npos);
}

TEST_F(CrashDumpTest, RejectsMissingAndCorruptDumps) {
  EXPECT_THROW(openDump(path("nope.kses")), std::runtime_error);
  {
    std::FILE* f = std::fopen(path("bad.kses").c_str(), "wb");
    const char junk[32] = "this is not a crash dump";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  EXPECT_THROW(openDump(path("bad.kses")), std::runtime_error);
}

TEST_F(CrashDumpTest, TruncatedDumpIsRejected) {
  FakeFacility fx(1, 64, 4);
  fx.facility.bindCurrentThread(0);
  ASSERT_TRUE(fx.facility.log(Major::Test, 1, uint64_t{1}));
  ASSERT_TRUE(writeCrashDump(fx.facility, path("t.kses")));
  // Chop the file in half.
  const auto full = std::filesystem::file_size(path("t.kses"));
  std::filesystem::resize_file(path("t.kses"), full / 2);
  EXPECT_THROW(openDump(path("t.kses")), std::runtime_error);
}

TEST_F(CrashDumpTest, DumpOfMidLogFacilityStillDecodesPrefix) {
  // A "crash" can land mid-reservation: the dump then contains a reserved
  // but unwritten hole. The reader must decode up to the hole and drop the
  // rest of that buffer, not crash.
  FakeFacility fx(1, 64, 4);
  fx.facility.bindCurrentThread(0);
  ASSERT_TRUE(fx.facility.log(Major::Test, 1, uint64_t{1}));
  Reservation dead;
  ASSERT_TRUE(fx.facility.control(0).reserve(4, dead));  // never written
  ASSERT_TRUE(fx.facility.log(Major::Test, 2, uint64_t{2}));

  ASSERT_TRUE(writeCrashDump(fx.facility, path("h.kses")));
  const ShmSession dump = openDump(path("h.kses"));
  const auto events = flightRecorderSnapshot(dump.control(0), {0, ~0ull, false});
  ASSERT_GE(events.size(), 1u);
  EXPECT_EQ(events[0].data[0], 1u);  // the prefix before the hole survives
}

TEST_F(CrashDumpTest, RecoverOnUnwrappedDumpDecodesExactlyTheLoggedEvents) {
  // The crash image is a segment like any other: `ktracetool recover`
  // salvages it into trace files. Nothing wrapped, tore or died, so the
  // salvage is clean (exit 0) and yields exactly what was logged.
  FakeFacility fx(2, 64, 4);
  for (uint32_t p = 0; p < 2; ++p) {
    fx.facility.bindCurrentThread(p);
    for (uint64_t i = 0; i < 40; ++i) {  // crosses one buffer, laps none
      ASSERT_TRUE(fx.facility.log(Major::Test, static_cast<uint16_t>(p), i * 10 + p));
    }
  }
  ASSERT_LT(fx.facility.control(0).currentBufferSeq(), 3u);
  ASSERT_TRUE(writeCrashDump(fx.facility, path("live.kses")));

  const std::string out = path("rec.ktrc");
  const std::string cmd = std::string(KTRACETOOL_PATH) + " recover " +
                          path("live.kses") + " --out=" + out + " > /dev/null";
  ASSERT_EQ(WEXITSTATUS(std::system(cmd.c_str())), 0);

  for (uint32_t p = 0; p < 2; ++p) {
    TraceFileReader reader(path(p == 0 ? "rec.cpu0.ktrc" : "rec.cpu1.ktrc"));
    std::vector<BufferRecord> records(reader.bufferCount());
    for (uint64_t k = 0; k < reader.bufferCount(); ++k) {
      ASSERT_TRUE(reader.readBuffer(k, records[k]));
    }
    const auto events = testing::decodeRecords(records);
    ASSERT_EQ(events.size(), 40u) << "cpu " << p;
    for (uint64_t i = 0; i < 40; ++i) {
      EXPECT_EQ(events[i].processor, p);
      EXPECT_EQ(events[i].header.major, Major::Test);
      EXPECT_EQ(events[i].header.minor, p);
      ASSERT_EQ(events[i].data.size(), 1u);
      EXPECT_EQ(events[i].data[0], i * 10 + p);
    }
    FlightRecorderOptions all;
    all.maxEvents = 0;
    const auto live = flightRecorderSnapshot(fx.facility.control(p), all);
    ASSERT_EQ(live.size(), events.size());
    for (size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(events[i].fullTimestamp, live[i].fullTimestamp) << i;
    }
  }
}

}  // namespace
}  // namespace ktrace
