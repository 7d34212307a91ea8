// The Figure 8 time-attribution tool.
#include "analysis/time_attribution.hpp"

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "ossim/machine.hpp"
#include "sim_support.hpp"

namespace ktrace::analysis {
namespace {

using ktrace::testing::SimHarness;

constexpr uint16_t kDispatch = static_cast<uint16_t>(ossim::SchedMinor::Dispatch);
constexpr uint16_t kIdle = static_cast<uint16_t>(ossim::SchedMinor::Idle);
constexpr uint16_t kThreadExit = static_cast<uint16_t>(ossim::SchedMinor::ThreadExit);
constexpr uint16_t kScEnter = static_cast<uint16_t>(ossim::LinuxMinor::SyscallEnter);
constexpr uint16_t kScExit = static_cast<uint16_t>(ossim::LinuxMinor::SyscallExit);
constexpr uint16_t kEmuEnter = static_cast<uint16_t>(ossim::LinuxMinor::EmuEnter);
constexpr uint16_t kEmuExit = static_cast<uint16_t>(ossim::LinuxMinor::EmuExit);
constexpr uint16_t kPpcCall = static_cast<uint16_t>(ossim::ExcMinor::PpcCall);
constexpr uint16_t kPpcReturn = static_cast<uint16_t>(ossim::ExcMinor::PpcReturn);
constexpr uint16_t kFltStart = static_cast<uint16_t>(ossim::ExcMinor::PgfltStart);
constexpr uint16_t kFltDone = static_cast<uint16_t>(ossim::ExcMinor::PgfltDone);
constexpr uint16_t kIpcCall = static_cast<uint16_t>(ossim::IpcMinor::Call);

struct AttributionFixture : ::testing::Test {
  SimHarness hx{1, 512, 64};

  void logAt(uint64_t at, Major major, uint16_t minor,
             std::initializer_list<uint64_t> words) {
    hx.bootClock.set(at);
    logEventData(hx.facility.control(0), major, minor,
                 std::span<const uint64_t>(words.begin(), words.size()));
  }
};

TEST_F(AttributionFixture, SplitsUserSyscallIpcAndFaultTime) {
  const uint64_t pid = 6;
  logAt(0, Major::Sched, kDispatch, {pid, 1});
  // 0..100: user. 100: syscall enter.
  logAt(100, Major::Linux, kScEnter, {pid, static_cast<uint64_t>(ossim::Syscall::Execve)});
  // 100..150: syscall compute. 150: IPC out.
  logAt(150, Major::Exception, kPpcCall, {0x600000000ull});
  logAt(150, Major::Ipc, kIpcCall, {pid, ossim::kBaseServersPid, 1001});
  // 150..450: IPC service (ex-process).
  logAt(450, Major::Exception, kPpcReturn, {0x600000000ull});
  // 450..500: more syscall compute.
  logAt(500, Major::Linux, kScExit, {pid, static_cast<uint64_t>(ossim::Syscall::Execve)});
  // 500..600: user again. 600: page fault.
  logAt(600, Major::Exception, kFltStart, {pid, 0x405e628, 0});
  logAt(680, Major::Exception, kFltDone, {pid, 0x405e628});
  // 680..700: user. Exit.
  logAt(700, Major::Sched, kThreadExit, {pid, 1});

  const auto trace = hx.collect();
  TimeAttribution ta(trace);
  const ProcessAttribution* proc = ta.process(pid);
  ASSERT_NE(proc, nullptr);

  EXPECT_EQ(proc->userTicks, 100u + 100u + 20u);
  EXPECT_EQ(proc->pageFaultTicks, 80u);
  EXPECT_EQ(proc->pageFaults, 1u);
  EXPECT_EQ(proc->exProcessTicks, 300u);
  EXPECT_EQ(proc->exProcessCalls, 1u);
  EXPECT_EQ(proc->dispatches, 1u);

  const auto sc = proc->syscalls.find(static_cast<uint16_t>(ossim::Syscall::Execve));
  ASSERT_NE(sc, proc->syscalls.end());
  EXPECT_EQ(sc->second.calls, 1u);
  EXPECT_EQ(sc->second.computeTicks, 50u + 50u);
  EXPECT_EQ(sc->second.ipcTicks, 300u);
  EXPECT_EQ(sc->second.ipcCalls, 1u);
  // Events while inside the syscall: PpcCall, IpcCall, PpcReturn, ScExit.
  EXPECT_EQ(sc->second.events, 4u);
}

TEST_F(AttributionFixture, EmulationTimeIsSeparated) {
  const uint64_t pid = 3;
  logAt(0, Major::Sched, kDispatch, {pid, 1});
  logAt(50, Major::Linux, kEmuEnter, {pid});
  logAt(250, Major::Linux, kEmuExit, {pid});
  logAt(300, Major::Sched, kThreadExit, {pid, 1});
  const auto trace = hx.collect();
  TimeAttribution ta(trace);
  const ProcessAttribution* proc = ta.process(pid);
  ASSERT_NE(proc, nullptr);
  EXPECT_EQ(proc->emulationTicks, 200u);
  EXPECT_EQ(proc->userTicks, 100u);
}

TEST_F(AttributionFixture, IdleTimeGoesToTheProcessor) {
  logAt(0, Major::Sched, kIdle, {});
  logAt(500, Major::Sched, kDispatch, {9, 1});
  logAt(700, Major::Sched, kThreadExit, {9, 1});
  const auto trace = hx.collect();
  TimeAttribution ta(trace);
  EXPECT_EQ(ta.idleTicks(0), 500u);
  EXPECT_EQ(ta.totalIdleTicks(), 500u);
  ASSERT_NE(ta.process(9), nullptr);
  EXPECT_EQ(ta.process(9)->userTicks, 200u);
}

TEST_F(AttributionFixture, ServiceEntriesAggregatePerServerFunction) {
  const uint64_t pid = 4;
  logAt(0, Major::Sched, kDispatch, {pid, 1});
  for (uint64_t i = 0; i < 3; ++i) {
    const uint64_t base = 100 + i * 1000;
    logAt(base, Major::Exception, kPpcCall, {i});
    logAt(base, Major::Ipc, kIpcCall, {pid, ossim::kBaseServersPid, 1003});
    logAt(base + 400, Major::Exception, kPpcReturn, {i});
  }
  logAt(5000, Major::Sched, kThreadExit, {pid, 1});
  const auto trace = hx.collect();
  TimeAttribution ta(trace);
  ASSERT_EQ(ta.serviceEntries().size(), 1u);
  const auto& entry = ta.serviceEntries()[0];
  EXPECT_EQ(entry.serverPid, ossim::kBaseServersPid);
  EXPECT_EQ(entry.funcId, 1003u);
  EXPECT_EQ(entry.calls, 3u);
  EXPECT_EQ(entry.ticks, 1200u);
}

TEST_F(AttributionFixture, ReportContainsSyscallRowsAndExProcess) {
  const uint64_t pid = 6;
  logAt(0, Major::Sched, kDispatch, {pid, 1});
  logAt(100, Major::Linux, kScEnter, {pid, static_cast<uint64_t>(ossim::Syscall::Execve)});
  logAt(50'100, Major::Linux, kScExit, {pid, static_cast<uint64_t>(ossim::Syscall::Execve)});
  logAt(50'200, Major::Sched, kThreadExit, {pid, 1});
  const auto trace = hx.collect();
  TimeAttribution ta(trace);
  SymbolTable symbols;
  const std::string report = ta.report(pid, symbols, 1e9);
  EXPECT_NE(report.find("SCexecve"), std::string::npos);
  EXPECT_NE(report.find("Ex-process"), std::string::npos);
  EXPECT_NE(report.find("50.00"), std::string::npos);  // 50'000 ns = 50 usec
}

TEST_F(AttributionFixture, UnknownPidReportsNoEvents) {
  const auto trace = hx.collect();
  TimeAttribution ta(trace);
  EXPECT_EQ(ta.process(1234), nullptr);
  SymbolTable symbols;
  EXPECT_NE(ta.report(1234, symbols, 1e9).find("(no events)"), std::string::npos);
}

TEST(AttributionPinned, EveryBucketOfAHandBuiltTwoProcessorStream) {
  constexpr uint64_t kA = 11, kB = 12, kC = 13, kServer = 40;
  constexpr auto kRead = static_cast<uint16_t>(ossim::Syscall::Read);
  constexpr auto kWrite = static_cast<uint16_t>(ossim::Syscall::Write);
  constexpr auto kOpen = static_cast<uint16_t>(ossim::Syscall::Open);
  constexpr auto kStat = static_cast<uint16_t>(ossim::Syscall::Stat);
  constexpr uint16_t kPreempt = static_cast<uint16_t>(ossim::SchedMinor::Preempt);
  constexpr uint16_t kSample = static_cast<uint16_t>(ossim::ProfMinor::PcSample);
  SimHarness hx{2, 512, 64};
  const auto logAt = [&hx](uint32_t p, uint64_t at, Major major, uint16_t minor,
                           std::initializer_list<uint64_t> words) {
    hx.bootClock.set(at);
    logEventData(hx.facility.control(p), major, minor,
                 std::span<const uint64_t>(words.begin(), words.size()));
  };
  // Processor 0: A runs, syscalls with an IPC inside, faults, emulates, is
  // preempted inside a syscall and dispatched again, then goes idle inside
  // a syscall; B is dispatched with the syscall flag still set and ends
  // the stream entering a syscall.
  logAt(0, 0, Major::Sched, kDispatch, {kA, 1});
  logAt(0, 10, Major::Linux, kScEnter, {kA, kRead});
  logAt(0, 30, Major::Exception, kPpcCall, {0});
  logAt(0, 30, Major::Ipc, kIpcCall, {kA, kServer, 1001});
  logAt(0, 100, Major::Exception, kPpcReturn, {0});
  logAt(0, 120, Major::Linux, kScExit, {kA, kRead});
  logAt(0, 150, Major::Exception, kFltStart, {kA, 0x1000, 0});
  logAt(0, 190, Major::Exception, kFltDone, {kA, 0x1000});
  logAt(0, 200, Major::Linux, kEmuEnter, {kA});
  logAt(0, 260, Major::Linux, kEmuExit, {kA});
  logAt(0, 270, Major::Linux, kScEnter, {kA, kWrite});
  logAt(0, 300, Major::Sched, kPreempt, {kA, 1});
  logAt(0, 320, Major::Sched, kDispatch, {kA, 1});
  logAt(0, 330, Major::Linux, kScEnter, {kA, kOpen});
  logAt(0, 350, Major::Sched, kIdle, {});
  logAt(0, 380, Major::Sched, kDispatch, {kB, 2});
  logAt(0, 400, Major::Prof, kSample, {kB, 5});
  logAt(0, 420, Major::Linux, kScExit, {kB, kOpen});
  logAt(0, 450, Major::Linux, kScEnter, {kB, kStat});
  // Processor 1: C's syscall with an IPC inside, then exit and idle.
  logAt(1, 5, Major::Sched, kDispatch, {kC, 3});
  logAt(1, 25, Major::Linux, kScEnter, {kC, kRead});
  logAt(1, 65, Major::Exception, kPpcCall, {0});
  logAt(1, 65, Major::Ipc, kIpcCall, {kC, kServer, 1002});
  logAt(1, 85, Major::Exception, kPpcReturn, {0});
  logAt(1, 95, Major::Linux, kScExit, {kC, kRead});
  logAt(1, 135, Major::Sched, kThreadExit, {kC, 3});
  logAt(1, 175, Major::Sched, kIdle, {});

  const auto trace = hx.collect();
  const TimeAttribution ta(trace);
  EXPECT_EQ(ta.pids(), (std::vector<uint64_t>{kA, kB, kC}));
  EXPECT_EQ(ta.idleTicks(0), 20u + 30u);
  EXPECT_EQ(ta.idleTicks(1), 40u);
  EXPECT_EQ(ta.totalIdleTicks(), 90u);

  using Row = std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t>;
  const auto rows = [&ta](uint64_t pid) {
    std::map<uint16_t, Row> out;
    for (const auto& [id, sc] : ta.process(pid)->syscalls) {
      out[id] = {sc.computeTicks, sc.calls, sc.events, sc.ipcTicks, sc.ipcCalls};
    }
    return out;
  };
  const ProcessAttribution* a = ta.process(kA);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->userTicks, 10u + 30u + 10u + 10u + 10u);
  EXPECT_EQ(a->emulationTicks, 60u);
  EXPECT_EQ(a->pageFaultTicks, 40u);
  EXPECT_EQ(a->pageFaults, 1u);
  EXPECT_EQ(a->exProcessTicks, 70u);
  EXPECT_EQ(a->exProcessCalls, 1u);
  EXPECT_EQ(a->dispatches, 2u);
  // (compute, calls, events, ipc ticks, ipc calls). Read's events: the
  // PPC call, the IPC call, the PPC return and the exit; Write's: the
  // preemption; Open's: the idle event.
  EXPECT_EQ(rows(kA), (std::map<uint16_t, Row>{{kRead, {40, 1, 4, 70, 1}},
                                               {kWrite, {30, 1, 1, 0, 0}},
                                               {kOpen, {20, 1, 1, 0, 0}}}));

  const ProcessAttribution* b = ta.process(kB);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->userTicks, 30u);
  EXPECT_EQ(b->emulationTicks + b->pageFaultTicks + b->exProcessTicks, 0u);
  EXPECT_EQ(b->dispatches, 1u);
  // Open was entered by A; B, dispatched with the flag still set, is
  // charged its time and events but no call. Stat is entered last.
  EXPECT_EQ(rows(kB), (std::map<uint16_t, Row>{{kOpen, {40, 0, 2, 0, 0}},
                                               {kStat, {0, 1, 0, 0, 0}}}));

  const ProcessAttribution* c = ta.process(kC);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->userTicks, 20u + 40u);
  EXPECT_EQ(c->exProcessTicks, 20u);
  EXPECT_EQ(c->exProcessCalls, 1u);
  EXPECT_EQ(c->dispatches, 1u);
  EXPECT_EQ(rows(kC), (std::map<uint16_t, Row>{{kRead, {50, 1, 4, 20, 1}}}));

  for (const uint64_t pid : ta.pids()) {
    for (const auto& [id, sc] : ta.process(pid)->syscalls) {
      EXPECT_NE(sc.computeTicks + sc.calls + sc.events + sc.ipcTicks + sc.ipcCalls, 0u)
          << "all-zero row: pid " << pid << " syscall " << id;
    }
  }

  ASSERT_EQ(ta.serviceEntries().size(), 2u);
  EXPECT_EQ(ta.serviceEntries()[0].serverPid, kServer);
  EXPECT_EQ(ta.serviceEntries()[0].funcId, 1001u);
  EXPECT_EQ(ta.serviceEntries()[0].calls, 1u);
  EXPECT_EQ(ta.serviceEntries()[0].ticks, 70u);
  EXPECT_EQ(ta.serviceEntries()[1].serverPid, kServer);
  EXPECT_EQ(ta.serviceEntries()[1].funcId, 1002u);
  EXPECT_EQ(ta.serviceEntries()[1].calls, 1u);
  EXPECT_EQ(ta.serviceEntries()[1].ticks, 20u);
}

TEST(AttributionIntegration, SimulatorTimesAddUp) {
  // Attribute a full simulator run and check per-process on-cpu time plus
  // idle roughly equals the processor's wall time.
  SimHarness hx(2, 1u << 12, 256);
  ossim::MachineConfig mc;
  mc.numProcessors = 2;
  ossim::Machine machine(mc, &hx.facility);
  const uint64_t prog = machine.registerProgram(ossim::Program()
                                                    .cpu(200'000)
                                                    .syscall(ossim::Syscall::Open)
                                                    .pageFault(0x1000, false)
                                                    .cpu(100'000)
                                                    .exit());
  for (int i = 0; i < 4; ++i) machine.spawnProcess("p", prog);
  machine.run();

  const auto trace = hx.collect();
  TimeAttribution ta(trace);

  uint64_t attributed = ta.totalIdleTicks();
  for (const uint64_t pid : ta.pids()) {
    const ProcessAttribution* proc = ta.process(pid);
    attributed += proc->totalOnCpuTicks() + proc->exProcessTicks;
  }
  const uint64_t wall = machine.cpuNow(0) + machine.cpuNow(1);
  // Attribution sees time between events only; dispatch costs and trace
  // overhead fall in the gaps. Expect better than 90% coverage.
  EXPECT_GT(attributed, wall * 9 / 10);
  EXPECT_LE(attributed, wall);
}

}  // namespace
}  // namespace ktrace::analysis
