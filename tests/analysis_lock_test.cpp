// The Figure 7 lock contention analyzer, validated against hand-crafted
// event sequences and against the simulator's ground-truth lock stats.
#include "analysis/lock_analysis.hpp"

#include <gtest/gtest.h>

#include "analysis/profile.hpp"
#include "ossim/machine.hpp"
#include "sim_support.hpp"
#include "workload/sdet.hpp"

namespace ktrace::analysis {
namespace {

using ktrace::testing::SimHarness;

constexpr uint16_t kContend = static_cast<uint16_t>(ossim::LockMinor::ContendStart);
constexpr uint16_t kAcquired = static_cast<uint16_t>(ossim::LockMinor::Acquired);
constexpr uint16_t kRelease = static_cast<uint16_t>(ossim::LockMinor::Release);

struct LockFixture : ::testing::Test {
  SimHarness hx{1, 512, 64};

  void logAt(uint64_t at, uint16_t minor, std::initializer_list<uint64_t> words) {
    hx.bootClock.set(at);
    logEventData(hx.facility.control(0), Major::Lock, minor,
                 std::span<const uint64_t>(words.begin(), words.size()));
  }
};

TEST_F(LockFixture, SingleContentionMeasuresWaitFromTimestamps) {
  // lock 0x42, pid 7, chain [3,4]: contend at 1000, acquired at 1800.
  logAt(1000, kContend, {0x42, 7, 2, 3, 4});
  logAt(1800, kAcquired, {0x42, 7, /*spins=*/16, /*wait=*/800});
  logAt(2600, kRelease, {0x42, 7, 800});
  const auto trace = hx.collect();
  LockAnalysis la(trace);

  const auto rows = la.sorted();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].lockId, 0x42u);
  EXPECT_EQ(rows[0].pid, 7u);
  EXPECT_EQ(rows[0].totalWaitTicks, 800u);
  EXPECT_EQ(rows[0].maxWaitTicks, 800u);
  EXPECT_EQ(rows[0].contendedCount, 1u);
  EXPECT_EQ(rows[0].totalSpins, 16u);
  EXPECT_EQ(rows[0].chain, (std::vector<uint64_t>{3, 4}));
  EXPECT_EQ(rows[0].totalHoldTicks, 800u);
  EXPECT_EQ(la.unmatchedContends(), 0u);
}

TEST_F(LockFixture, SeparateChainsGetSeparateRows) {
  logAt(100, kContend, {0x1, 5, 1, 77});
  logAt(200, kAcquired, {0x1, 5, 2, 100});
  logAt(300, kRelease, {0x1, 5, 100});
  logAt(400, kContend, {0x1, 5, 1, 88});  // same lock, different chain
  logAt(900, kAcquired, {0x1, 5, 10, 500});
  logAt(950, kRelease, {0x1, 5, 50});
  const auto trace = hx.collect();
  LockAnalysis la(trace);
  const auto rows = la.sorted(LockSortKey::Time);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].chain, (std::vector<uint64_t>{88}));  // 500 > 100
  EXPECT_EQ(rows[1].chain, (std::vector<uint64_t>{77}));
  // A release carries no chain, so its hold time goes to the (lock, pid)
  // row with the most contentions; both rows have one, and the tie goes to
  // the first-created row (chain 77), which takes both holds: 100 + 50.
  ASSERT_EQ(rows[0].contendedCount, 1u);
  ASSERT_EQ(rows[1].contendedCount, 1u);
  EXPECT_EQ(rows[1].totalHoldTicks, 150u);
  EXPECT_EQ(rows[1].releaseCount, 2u);
  EXPECT_EQ(rows[0].totalHoldTicks, 0u);
  EXPECT_EQ(rows[0].releaseCount, 0u);
}

TEST_F(LockFixture, SortKeysSelectDifferentWinners) {
  // Row A: big total wait, few contentions. Row B: small waits, many.
  logAt(100, kContend, {0xA, 1, 1, 10});
  logAt(5100, kAcquired, {0xA, 1, 100, 5000});
  for (uint64_t i = 0; i < 5; ++i) {
    const uint64_t base = 10'000 + i * 100;
    logAt(base, kContend, {0xB, 1, 1, 20});
    logAt(base + 10, kAcquired, {0xB, 1, 200, 10});
  }
  const auto trace = hx.collect();
  LockAnalysis la(trace);
  EXPECT_EQ(la.sorted(LockSortKey::Time)[0].lockId, 0xAu);
  EXPECT_EQ(la.sorted(LockSortKey::Count)[0].lockId, 0xBu);
  EXPECT_EQ(la.sorted(LockSortKey::Spin)[0].lockId, 0xBu);
  EXPECT_EQ(la.sorted(LockSortKey::MaxTime)[0].lockId, 0xAu);
  EXPECT_EQ(la.totalWaitTicks(), 5000u + 50u);
}

TEST_F(LockFixture, UnmatchedContendIsCounted) {
  logAt(100, kContend, {0xC, 2, 0});
  const auto trace = hx.collect();
  LockAnalysis la(trace);
  EXPECT_EQ(la.unmatchedContends(), 1u);
  EXPECT_TRUE(la.sorted().empty());
}

TEST_F(LockFixture, ReportLooksLikeFigure7) {
  logAt(1000, kContend, {0x42, 1, 3, 1, 2, 3});
  logAt(4000, kAcquired, {0x42, 1, 60, 3000});
  logAt(5000, kRelease, {0x42, 1, 1000});
  const auto trace = hx.collect();
  LockAnalysis la(trace);

  SymbolTable symbols;
  symbols.add(1, "AllocRegionManager::alloc(unsigned long)");
  symbols.add(2, "PMallocDefault::pMalloc(unsigned long)");
  symbols.add(3, "GMalloc::gMalloc()");
  const std::string report = la.report(symbols, 1e9, 10);
  EXPECT_NE(report.find("top 10 contended locks by time"), std::string::npos);
  EXPECT_NE(report.find("AllocRegionManager::alloc"), std::string::npos);
  EXPECT_NE(report.find("GMalloc::gMalloc()"), std::string::npos);
  EXPECT_NE(report.find("0x1"), std::string::npos);  // pid column
}

TEST(LockAnalysisIntegration, MatchesSimulatorGroundTruth) {
  // Run contended SDET, then check the analyzer's totals against the
  // machine's own lock bookkeeping (timestamps include per-event trace
  // costs, so allow that slack).
  SimHarness hx(4, 1u << 12, 256);
  ossim::MachineConfig mc;
  mc.numProcessors = 4;
  ossim::Machine machine(mc, &hx.facility);
  SymbolTable symbols;
  workload::SdetConfig cfg;
  cfg.numScripts = 8;
  cfg.commandsPerScript = 3;
  cfg.workScale = 0.5;
  workload::SdetWorkload sdet(cfg, machine, symbols);
  sdet.spawnAll();
  machine.run();

  const auto trace = hx.collect();
  ASSERT_EQ(trace.stats().garbledBuffers, 0u);
  LockAnalysis la(trace);

  const auto& gmalloc = machine.locks().all().at(workload::kGMallocLockId);
  ASSERT_GT(gmalloc.contendedAcquisitions, 0u);

  uint64_t analyzedWait = 0;
  uint64_t analyzedCount = 0;
  for (const auto& row : la.sorted()) {
    if (row.lockId == workload::kGMallocLockId) {
      analyzedWait += row.totalWaitTicks;
      analyzedCount += row.contendedCount;
    }
  }
  EXPECT_EQ(analyzedCount, gmalloc.contendedAcquisitions);
  // Each contention's analyzed wait includes the ContendStart->Acquired
  // window, which adds the trace-statement cost per event.
  const uint64_t slack =
      gmalloc.contendedAcquisitions * (mc.traceCostEnabledNs + 1) * 2;
  EXPECT_GE(analyzedWait + 1, gmalloc.totalWaitNs > slack ? gmalloc.totalWaitNs - slack
                                                          : 0);
  EXPECT_LE(analyzedWait, gmalloc.totalWaitNs + slack);

  // The most contended lock by time is the global allocator lock —
  // Figure 7's headline row.
  const auto top = la.sorted(LockSortKey::Time);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].lockId, workload::kGMallocLockId);
}

}  // namespace
}  // namespace ktrace::analysis
