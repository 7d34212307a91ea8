// End-to-end test of the ktracetool CLI: generate real .ktrc trace files
// and a crash dump with the library, then drive the installed binary the
// way a user would. KTRACETOOL_PATH is injected by CMake.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/ktrace.hpp"
#include "ossim/machine.hpp"
#include "workload/sdet.hpp"

#ifndef KTRACETOOL_PATH
#error "KTRACETOOL_PATH must be defined by the build"
#endif

namespace ktrace {
namespace {

class ToolCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ktracetool_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    generateTrace();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void generateTrace() {
    FacilityConfig fcfg;
    fcfg.numProcessors = 2;
    fcfg.bufferWords = 1u << 10;
    fcfg.buffersPerProcessor = 64;
    fcfg.mode = Mode::Stream;
    Facility facility(fcfg);
    facility.mask().enableAll();

    TraceFileMeta meta;
    meta.numProcessors = 2;
    meta.bufferWords = fcfg.bufferWords;
    meta.clockKind = ClockKind::Virtual;
    meta.ticksPerSecond = 1e9;
    FileSink files(dir_.string(), "t", meta);
    Consumer consumer(facility, files, {});

    ossim::MachineConfig mcfg;
    mcfg.numProcessors = 2;
    mcfg.pcSampleIntervalNs = 50'000;
    mcfg.hwCounterSampleIntervalNs = 50'000;
    mcfg.monitorHeartbeatIntervalNs = 50'000;
    ossim::Machine machine(mcfg, &facility);
    analysis::SymbolTable symbols;
    workload::SdetConfig scfg;
    scfg.numScripts = 4;
    scfg.commandsPerScript = 3;
    workload::SdetWorkload sdet(scfg, machine, symbols);
    sdet.spawnAll();
    machine.run();

    facility.flushAll();
    consumer.drainNow();
    files.flush();
    cpu0_ = files.pathFor(0);
    cpu1_ = files.pathFor(1);

    ASSERT_TRUE(writeCrashDump(facility, (dir_ / "crash.kses").string()));
  }

  /// Runs the tool, captures stdout, returns exit code.
  int runTool(const std::string& args, std::string& output) {
    const std::string outPath = (dir_ / "out.txt").string();
    const std::string cmd =
        std::string(KTRACETOOL_PATH) + " " + args + " > " + outPath + " 2>/dev/null";
    const int rc = std::system(cmd.c_str());
    std::ifstream in(outPath);
    std::stringstream ss;
    ss << in.rdbuf();
    output = ss.str();
    return WEXITSTATUS(rc);
  }

  std::filesystem::path dir_;
  std::string cpu0_, cpu1_;
};

TEST_F(ToolCliTest, NoArgsShowsUsage) {
  std::string out;
  EXPECT_EQ(runTool("", out), 2);
}

TEST_F(ToolCliTest, UsageEnumeratesEverySubcommandAndFlag) {
  std::string out, err;
  const std::string errPath = (dir_ / "err.txt").string();
  const std::string cmd = std::string(KTRACETOOL_PATH) + " 2> " + errPath;
  EXPECT_EQ(WEXITSTATUS(std::system(cmd.c_str())), 2);
  std::ifstream in(errPath);
  std::stringstream ss;
  ss << in.rdbuf();
  err = ss.str();
  for (const char* cmdName :
       {"list", "locks", "profile", "attrib", "stats", "timeline", "svg", "ltt",
        "csv", "deadlock", "intervals", "hotspots", "crashdump", "fsck",
        "monitor", "recover"}) {
    EXPECT_NE(err.find(cmdName), std::string::npos) << cmdName;
  }
  for (const char* flag : {"--salvage", "--threads=N", "--no-mmap", "--json"}) {
    EXPECT_NE(err.find(flag), std::string::npos) << flag;
  }
  // Bad usage (unknown command) exits 2; runtime failures exit 1.
  EXPECT_EQ(runTool("frobnicate " + cpu0_, out), 2);
  EXPECT_EQ(runTool("list " + (dir_ / "missing.ktrc").string(), out), 1);
}

TEST_F(ToolCliTest, MonitorShowsCountersAndCompleteness) {
  std::string out;
  ASSERT_EQ(runTool("monitor " + cpu0_ + " " + cpu1_, out), 0);
  EXPECT_NE(out.find("beats"), std::string::npos);
  EXPECT_NE(out.find("events/s"), std::string::npos);
  EXPECT_NE(out.find("completeness: COMPLETE"), std::string::npos);
  // One row per cpu plus the consumer and completeness lines.
  EXPECT_NE(out.find("\n0 "), std::string::npos);
  EXPECT_NE(out.find("\n1 "), std::string::npos);
}

TEST_F(ToolCliTest, MonitorJsonIsWellFormed) {
  std::string out;
  ASSERT_EQ(runTool("monitor " + cpu0_ + " " + cpu1_ + " --json", out), 0);
  EXPECT_EQ(out.front(), '{');
  EXPECT_NE(out.find("\"processors\": ["), std::string::npos);
  EXPECT_NE(out.find("\"events_logged\":"), std::string::npos);
  EXPECT_NE(out.find("\"completeness\": {"), std::string::npos);
  EXPECT_NE(out.find("\"complete\": true"), std::string::npos);
  // Structural sanity: braces and brackets balance.
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
            std::count(out.begin(), out.end(), '}'));
  EXPECT_EQ(std::count(out.begin(), out.end(), '['),
            std::count(out.begin(), out.end(), ']'));
}

TEST_F(ToolCliTest, StatsReportsTracerHealth) {
  std::string out;
  ASSERT_EQ(runTool("stats " + cpu0_ + " " + cpu1_, out), 0);
  EXPECT_NE(out.find("tracer:"), std::string::npos);
  EXPECT_NE(out.find("garbled buffer"), std::string::npos);
  EXPECT_NE(out.find("dropped at source"), std::string::npos);
  EXPECT_NE(out.find("consumer"), std::string::npos);
}

TEST_F(ToolCliTest, ListPrintsEvents) {
  std::string out;
  ASSERT_EQ(runTool("list " + cpu0_ + " " + cpu1_ + " --max=20", out), 0);
  EXPECT_NE(out.find("TRACE_SCHED_DISPATCH"), std::string::npos);
  EXPECT_NE(out.find("[cpu"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 20);
}

TEST_F(ToolCliTest, LocksReportsContention) {
  std::string out;
  ASSERT_EQ(runTool("locks " + cpu0_ + " " + cpu1_ + " --top=5", out), 0);
  EXPECT_NE(out.find("top 5 contended locks by time"), std::string::npos);
}

TEST_F(ToolCliTest, StatsSummarizesEventMix) {
  std::string out;
  ASSERT_EQ(runTool("stats " + cpu0_ + " " + cpu1_, out), 0);
  EXPECT_NE(out.find("words/event average"), std::string::npos);
  EXPECT_NE(out.find("TRACE_"), std::string::npos);
}

TEST_F(ToolCliTest, TimelineAndSvg) {
  std::string out;
  ASSERT_EQ(runTool("timeline " + cpu0_ + " " + cpu1_ + " --width=40", out), 0);
  EXPECT_NE(out.find("cpu0"), std::string::npos);
  EXPECT_NE(out.find("cpu1"), std::string::npos);

  const std::string svgPath = (dir_ / "tl.svg").string();
  ASSERT_EQ(runTool("svg " + cpu0_ + " --out=" + svgPath, out), 0);
  std::ifstream svg(svgPath);
  std::stringstream ss;
  ss << svg.rdbuf();
  EXPECT_NE(ss.str().find("<svg"), std::string::npos);
}

TEST_F(ToolCliTest, ExportsLttAndCsv) {
  std::string out;
  ASSERT_EQ(runTool("ltt " + cpu0_ + " --max=5", out), 0);
  EXPECT_NE(out.find("cpu 0"), std::string::npos);
  EXPECT_NE(out.find("{"), std::string::npos);

  ASSERT_EQ(runTool("csv " + cpu0_ + " --max=5", out), 0);
  EXPECT_NE(out.find("time_ticks,cpu,major,minor,name,payload"), std::string::npos);
}

TEST_F(ToolCliTest, ProfileAttribAndHotspots) {
  std::string out;
  ASSERT_EQ(runTool("profile " + cpu0_ + " " + cpu1_ + " --top=5", out), 0);
  EXPECT_NE(out.find("histogram for pid"), std::string::npos);

  ASSERT_EQ(runTool("attrib " + cpu0_ + " " + cpu1_ + " --pid=2", out), 0);
  EXPECT_NE(out.find("time attribution for pid 2"), std::string::npos);

  ASSERT_EQ(runTool("hotspots " + cpu0_ + " " + cpu1_, out), 0);
  EXPECT_NE(out.find("memory hot-spots"), std::string::npos);

  ASSERT_EQ(runTool("intervals " + cpu0_ + " " + cpu1_, out), 0);
  EXPECT_NE(out.find("page-fault"), std::string::npos);
  EXPECT_NE(out.find("p95"), std::string::npos);
}

TEST_F(ToolCliTest, DeadlockExitCodeSignalsResult) {
  std::string out;
  // The SDET trace has contention but no deadlock: exit 0.
  EXPECT_EQ(runTool("deadlock " + cpu0_ + " " + cpu1_, out), 0);
  EXPECT_NE(out.find("no deadlock cycle"), std::string::npos);
}

TEST_F(ToolCliTest, FsckReportsCleanTrace) {
  std::string out;
  ASSERT_EQ(runTool("fsck " + cpu0_ + " " + cpu1_, out), 0);
  EXPECT_NE(out.find("good record"), std::string::npos);
  EXPECT_NE(out.find("format v3"), std::string::npos);
  EXPECT_EQ(out.find("CORRUPT"), std::string::npos);
}

TEST_F(ToolCliTest, TopRejectsANegativeWindow) {
  // A usage error, not a snapshot with windowing off ("window_ticks":0).
  std::string out;
  EXPECT_EQ(runTool("top " + cpu0_ + " " + cpu1_ + " --json --window-ms=-1", out), 2);
  EXPECT_TRUE(out.empty()) << out;
}

TEST_F(ToolCliTest, EveryReportIsIdenticalRawAndLzAtOneAndFourThreads) {
  // One small recorded 4-cpu SDET run, written raw and compressed. Each
  // report prints the same text over either file set at 1 and 4 decode
  // threads, through the mapping and through stdio reads, strict and
  // salvaging, once the set's own path is taken out (profile's header and
  // fsck's lines name the files). The words behind a decoded payload
  // differ by path — the file's mapping, decompressed blocks, words read
  // through stdio — and none of that may show.
  std::string out;
  std::vector<std::pair<std::string, std::string>> sets;  // (prefix, files)
  for (const bool compress : {false, true}) {
    const std::string prefix = (dir_ / (compress ? "lz" : "raw")).string();
    ASSERT_EQ(runTool("record " + prefix +
                          " --cpus=4 --scripts=4 --commands=4 "
                          "--heartbeat-ns=50000 --buffer-words=256" +
                          (compress ? " --compress" : ""),
                      out),
              0);
    std::string files;
    std::istringstream lines(out);
    for (std::string line; std::getline(lines, line);) files += " " + line;
    sets.emplace_back(prefix, files);
  }
  EXPECT_LT(std::filesystem::file_size(sets[1].first + ".cpu0.ktrc"),
            std::filesystem::file_size(sets[0].first + ".cpu0.ktrc"));

  const char* const reports[] = {
      "top --json", "top --json --window-ms=1", "locks", "stats", "profile",
      "attrib", "monitor", "list", "ltt", "csv", "deadlock", "intervals",
      "fsck"};
  for (const char* report : reports) {
    std::string first;
    for (const auto& [prefix, files] : sets) {
      for (const char* threads : {" --threads=1", " --threads=4"}) {
        for (const char* io : {"", " --no-mmap"}) {
          for (const char* mode : {"", " --salvage"}) {
            const std::string flags = std::string(threads) + io + mode;
            EXPECT_EQ(runTool(report + files + flags, out), 0)
                << report << files << flags;
            for (size_t at = out.find(prefix); at != std::string::npos;
                 at = out.find(prefix, at)) {
              out.replace(at, prefix.size(), "<set>");
            }
            if (first.empty()) {
              first = out;
              EXPECT_FALSE(first.empty()) << report;
            } else {
              EXPECT_EQ(out, first) << report << files << flags;
            }
          }
        }
      }
    }
  }
}

TEST_F(ToolCliTest, FsckFlagsCorruptionAndSalvageRecovers) {
  // Flip a payload byte in cpu0's first record: CRC must catch it.
  {
    std::fstream f(cpu0_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(128 + 32 + 40);
    char c = 0;
    f.get(c);
    f.seekp(128 + 32 + 40);
    f.put(static_cast<char>(c ^ 0x20));
  }
  std::string out;
  EXPECT_EQ(runTool("fsck " + cpu0_ + " " + cpu1_, out), 4);
  EXPECT_NE(out.find("CORRUPT"), std::string::npos);
  EXPECT_NE(out.find("1 corrupt"), std::string::npos);

  // Strict mode refuses loudly instead of silently dropping events.
  EXPECT_EQ(runTool("list " + cpu0_ + " " + cpu1_ + " --max=10", out), 1);

  // The rest of the trace is still analyzable with --salvage.
  ASSERT_EQ(runTool("list " + cpu0_ + " " + cpu1_ + " --max=10 --salvage", out), 0);
  EXPECT_NE(out.find("[cpu"), std::string::npos);
}

TEST_F(ToolCliTest, CleanErrorOnUnreadableFile) {
  const std::string junk = (dir_ / "junk.ktrc").string();
  {
    std::ofstream f(junk, std::ios::binary);
    f << std::string(300, 'x');
  }
  std::string out;
  // An unreadable file must produce a one-line error (exit 1), not an
  // uncaught-exception abort.
  EXPECT_EQ(runTool("list " + junk, out), 1);
  // fsck itself reports it as unreadable instead of failing.
  EXPECT_EQ(runTool("fsck " + junk, out), 4);
  EXPECT_NE(out.find("unreadable"), std::string::npos);
}

TEST_F(ToolCliTest, RecoverCleanSessionExitsZero) {
  // An orderly run: events logged, buffers flushed, lease released. The
  // salvage drains leftover complete buffers — that is not damage.
  const std::string seg = (dir_ / "clean.kses").string();
  {
    ShmSession::Config cfg;
    cfg.bufferWords = 64;
    cfg.numBuffers = 16;
    ShmSession session = ShmSession::create(seg, cfg, TscClock::ref());
    const int lease = session.acquireLease(::getpid(), 0, 1);
    ASSERT_GE(lease, 0);
    ShmTraceControl producer =
        session.producerControl(0, static_cast<uint32_t>(lease));
    for (uint64_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(producer.logEvent(Major::Test, 1, i));
    }
    producer.flushCurrentBuffer();
    session.releaseLease(static_cast<uint32_t>(lease));
  }
  std::string out;
  const std::string rec = (dir_ / "clean_rec.ktrc").string();
  ASSERT_EQ(runTool("recover " + seg + " --out=" + rec, out), 0);
  EXPECT_NE(out.find("0 dead"), std::string::npos);
  EXPECT_NE(out.find("0 torn"), std::string::npos);
  // The salvaged output is a valid v2 trace: fsck-clean and listable.
  EXPECT_EQ(runTool("fsck " + rec, out), 0);
  EXPECT_EQ(runTool("list " + rec + " --max=10", out), 0);
}

TEST_F(ToolCliTest, RecoverTornSessionExitsFourAndSalvagesEvents) {
  // A crashed run: the lease is still Active and a reservation was taken
  // but never committed — the producer died mid-event.
  const std::string seg = (dir_ / "torn.kses").string();
  {
    ShmSession::Config cfg;
    cfg.bufferWords = 64;
    cfg.numBuffers = 16;
    ShmSession session = ShmSession::create(seg, cfg, TscClock::ref());
    const int lease = session.acquireLease(12345, 0, 1);
    ASSERT_GE(lease, 0);
    ShmTraceControl producer =
        session.producerControl(0, static_cast<uint32_t>(lease));
    for (uint64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(producer.logEvent(Major::Test, 1, i));
    }
    Reservation r;
    ASSERT_TRUE(producer.reserve(4, r));
  }
  std::string out;
  const std::string rec = (dir_ / "torn_rec.ktrc").string();
  EXPECT_EQ(runTool("recover " + seg + " --out=" + rec, out), 4);
  EXPECT_NE(out.find("1 dead"), std::string::npos);
  EXPECT_NE(out.find("1 torn"), std::string::npos);
  // Damage is reported, but what was committed is salvaged into a valid
  // trace (exit 4 mirrors fsck's damage boundary, not a tool failure).
  EXPECT_EQ(runTool("fsck " + rec, out), 0);
  ASSERT_EQ(runTool("list " + rec, out), 0);
  EXPECT_NE(out.find("[cpu"), std::string::npos);
  // Recovery never mutates the evidence: a second pass sees the same state.
  EXPECT_EQ(runTool("recover " + seg + " --out=" + rec, out), 4);
}

TEST_F(ToolCliTest, RecoverMultiProcessorSessionSplitsPerCpu) {
  const std::string seg = (dir_ / "multi.kses").string();
  {
    ShmSession::Config cfg;
    cfg.numProcessors = 2;
    cfg.bufferWords = 64;
    cfg.numBuffers = 16;
    ShmSession session = ShmSession::create(seg, cfg, TscClock::ref());
    const int lease = session.acquireLease(12345, 0, 2);
    ASSERT_GE(lease, 0);
    for (uint32_t p = 0; p < 2; ++p) {
      ShmTraceControl producer =
          session.producerControl(p, static_cast<uint32_t>(lease));
      for (uint64_t i = 0; i < 10; ++i) {
        ASSERT_TRUE(producer.logEvent(Major::Test, 1, i));
      }
    }
  }
  std::string out;
  const std::string rec = (dir_ / "multi.ktrc").string();
  EXPECT_EQ(runTool("recover " + seg + " --out=" + rec, out), 4);  // dead lease
  const std::string cpu0 = (dir_ / "multi.cpu0.ktrc").string();
  const std::string cpu1 = (dir_ / "multi.cpu1.ktrc").string();
  EXPECT_TRUE(std::filesystem::exists(cpu0));
  EXPECT_TRUE(std::filesystem::exists(cpu1));
  EXPECT_EQ(runTool("fsck " + cpu0 + " " + cpu1, out), 0);
}

TEST_F(ToolCliTest, RecoverRejectsCorruptSegmentWithExitFour) {
  const std::string seg = (dir_ / "corrupt.kses").string();
  {
    ShmSession::Config cfg;
    ShmSession session = ShmSession::create(seg, cfg, TscClock::ref());
  }
  {
    std::fstream f(seg, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(2);  // a bit of the session magic
    f.put(static_cast<char>(0x00));
  }
  std::string out;
  const std::string rec = (dir_ / "corrupt_rec.ktrc").string();
  EXPECT_EQ(runTool("recover " + seg + " --out=" + rec, out), 4);
  EXPECT_FALSE(std::filesystem::exists(rec));  // refused before writing

  // Not-a-segment inputs get the same clean boundary, never a crash.
  const std::string junk = (dir_ / "junk.kses").string();
  {
    std::ofstream f(junk, std::ios::binary);
    f << std::string(300, 'x');
  }
  EXPECT_EQ(runTool("recover " + junk + " --out=" + rec, out), 4);
  EXPECT_EQ(runTool("recover " + (dir_ / "missing.kses").string() +
                        " --out=" + rec,
                    out),
            4);
}

TEST_F(ToolCliTest, CrashDumpReader) {
  std::string out;
  ASSERT_EQ(runTool("crashdump " + (dir_ / "crash.kses").string() +
                        " --cpu=0 --max=10",
                    out),
            0);
  EXPECT_FALSE(out.empty());
  EXPECT_NE(out.find("TRACE_"), std::string::npos);
}

}  // namespace
}  // namespace ktrace
