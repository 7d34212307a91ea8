// Utility layer: bit helpers, the deterministic RNG, statistics, table
// rendering, CLI parsing, memory-mapped files, and the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <string>

#include "util/bits.hpp"
#include "util/cli.hpp"
#include "util/mapped_file.hpp"
#include "util/pair_index.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace ktrace::util {
namespace {

TEST(Bits, PowerOfTwo) {
  EXPECT_TRUE(isPowerOfTwo(1));
  EXPECT_TRUE(isPowerOfTwo(2));
  EXPECT_TRUE(isPowerOfTwo(1ull << 40));
  EXPECT_FALSE(isPowerOfTwo(0));
  EXPECT_FALSE(isPowerOfTwo(3));
  EXPECT_FALSE(isPowerOfTwo(6));
}

TEST(Bits, Log2Exact) {
  EXPECT_EQ(log2Exact(1), 0u);
  EXPECT_EQ(log2Exact(2), 1u);
  EXPECT_EQ(log2Exact(1u << 14), 14u);
}

TEST(Bits, RoundUpPow2) {
  EXPECT_EQ(roundUpPow2(0, 8), 0u);
  EXPECT_EQ(roundUpPow2(1, 8), 8u);
  EXPECT_EQ(roundUpPow2(8, 8), 8u);
  EXPECT_EQ(roundUpPow2(9, 8), 16u);
}

TEST(Bits, ExtractDepositRoundTrip) {
  const uint64_t v = depositBits(0x2A, 10, 6);
  EXPECT_EQ(extractBits(v, 10, 6), 0x2Au);
  EXPECT_EQ(depositBits(~0ull, 0, 64), ~0ull);
  EXPECT_EQ(extractBits(~0ull, 0, 64), ~0ull);
  EXPECT_EQ(lowMask(10), 0x3FFull);
  EXPECT_EQ(lowMask(64), ~0ull);
}

TEST(PairIndex, SlotsFollowFirstInsertionThroughGrowth) {
  // Enough keys to grow the table several times, with keys that share a
  // half (same lock, many pids) and collide in the low bits.
  util::PairIndex index;
  EXPECT_EQ(index.find(1, 2), util::PairIndex::kAbsent);
  constexpr uint64_t kKeys = 5000;
  for (uint64_t i = 0; i < kKeys; ++i) {
    EXPECT_EQ(index.insert(i % 7, i << 20), i);
    EXPECT_EQ(index.insert(i % 7, i << 20), i);  // again: same slot
  }
  EXPECT_EQ(index.size(), kKeys);
  for (uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(index.find(i % 7, i << 20), i);
    ASSERT_EQ(index.find(i % 7 + 7, i << 20), util::PairIndex::kAbsent);
  }
  const util::PairIndex copy = index;
  EXPECT_EQ(copy.find(3, uint64_t{3} << 20), 3u);
  index.clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.find(0, 0), util::PairIndex::kAbsent);
  EXPECT_EQ(index.insert(0, 0), 0u);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2.next() != c.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, RangesRespectBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.nextBelow(17), 17u);
    const uint64_t v = rng.nextInRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    const double d = rng.nextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliIsRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.nextBool(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.25, 0.02);
}

TEST(Stats, BasicMoments) {
  Stats s;
  for (const double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 3.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
}

TEST(Stats, PercentileEdges) {
  Stats s;
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);  // empty
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(-2.0), 7.0);  // clamped
  EXPECT_DOUBLE_EQ(s.percentile(9.0), 7.0);
}

TEST(Stats, MergeCombinesSamples) {
  Stats a, b;
  a.add(1.0);
  a.add(2.0);
  b.add(10.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.max(), 10.0);
  EXPECT_DOUBLE_EQ(a.sum(), 13.0);
}

TEST(OnlineStats, MatchesExactStats) {
  Stats exact;
  OnlineStats online;
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.nextDouble() * 100;
    exact.add(v);
    online.add(v);
  }
  EXPECT_EQ(online.count(), exact.count());
  EXPECT_NEAR(online.mean(), exact.mean(), 1e-9);
  EXPECT_NEAR(online.stddev(), exact.stddev(), 1e-6);
  EXPECT_DOUBLE_EQ(online.min(), exact.min());
  EXPECT_DOUBLE_EQ(online.max(), exact.max());
}

TEST(OnlineStats, MergeMatchesSingleAccumulation) {
  OnlineStats whole, partA, partB;
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.nextDouble() * 10 - 5;
    whole.add(v);
    (i % 2 == 0 ? partA : partB).add(v);
  }
  partA.merge(partB);
  EXPECT_EQ(partA.count(), whole.count());
  EXPECT_NEAR(partA.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(partA.variance(), whole.variance(), 1e-6);
}

TEST(TextTable, AlignsColumns) {
  TextTable t;
  t.addColumn("name");
  t.addColumn("value", Align::Right);
  t.addRow({"a", "1"});
  t.addRow({"longer", "12345"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name    value\n"), std::string::npos);
  EXPECT_NE(out.find("a           1\n"), std::string::npos);
  EXPECT_NE(out.find("longer  12345\n"), std::string::npos);
  EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TextTable, MissingCellsRenderEmpty) {
  TextTable t;
  t.addColumn("a");
  t.addColumn("b");
  t.addRow({"only"});
  const std::string out = t.render(false);
  EXPECT_NE(out.find("only"), std::string::npos);
  EXPECT_EQ(out.find("----"), std::string::npos);  // no underline
}

TEST(Strprintf, FormatsLikePrintf) {
  EXPECT_EQ(strprintf("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
  EXPECT_EQ(strprintf("%s", ""), "");
  EXPECT_EQ(strprintf("%08llx", 0xBEEFull), "0000beef");
}

TEST(Cli, ParsesAllForms) {
  // Note: a bare "--name value" form consumes the next token as the
  // value, so boolean flags must come last or use "--name=true".
  const char* argv[] = {"prog", "cmd",  "--a=1",  "--b", "2",
                        "positional", "--flag", "--f=0.5"};
  Cli cli(8, const_cast<char**>(argv));
  EXPECT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "cmd");
  EXPECT_EQ(cli.positional()[1], "positional");
  EXPECT_EQ(cli.getInt("a", 0), 1);
  EXPECT_EQ(cli.getInt("b", 0), 2);
  EXPECT_TRUE(cli.getBool("flag", false));
  EXPECT_DOUBLE_EQ(cli.getDouble("f", 0), 0.5);
  EXPECT_EQ(cli.getString("missing", "dflt"), "dflt");
  EXPECT_FALSE(cli.has("missing"));
  EXPECT_TRUE(cli.has("a"));
}

TEST(Cli, BoolSpellings) {
  const char* argv[] = {"prog", "--x=yes", "--y=0", "--z=true"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_TRUE(cli.getBool("x", false));
  EXPECT_FALSE(cli.getBool("y", true));
  EXPECT_TRUE(cli.getBool("z", false));
}

TEST(MappedFile, MapsWholeFileReadOnly) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("ktrace_map_" + std::to_string(::getpid()) + ".bin");
  const std::string payload = "mapped bytes 0123456789";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(payload.data(), 1, payload.size(), f), payload.size());
    std::fclose(f);
  }
  auto map = MappedFile::open(path.string());
  ASSERT_NE(map, nullptr);
  ASSERT_EQ(map->size(), static_cast<int64_t>(payload.size()));
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(map->data()), payload.size()),
            payload);
  std::filesystem::remove(path);
}

TEST(MappedFile, OpenFailuresReturnNull) {
  EXPECT_EQ(MappedFile::open("/nonexistent/definitely/missing"), nullptr);
  const auto empty = std::filesystem::temp_directory_path() /
                     ("ktrace_empty_" + std::to_string(::getpid()) + ".bin");
  { std::fclose(std::fopen(empty.c_str(), "wb")); }
  // An empty file has nothing to map; callers must fall back to stdio.
  EXPECT_EQ(MappedFile::open(empty.string()), nullptr);
  std::filesystem::remove(empty);
}

TEST(ThreadPool, RunsEveryTaskAndWaitBlocksUntilDone) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr int kTasks = 200;
  std::vector<int> slot(kTasks, 0);
  std::atomic<int> ran{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&slot, &ran, i] {
      slot[static_cast<size_t>(i)] = i + 1;
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.wait();
  EXPECT_EQ(ran.load(), kTasks);
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(slot[static_cast<size_t>(i)], i + 1);
  // The pool is reusable after wait().
  std::atomic<int> again{0};
  pool.submit([&again] { again = 7; });
  pool.wait();
  EXPECT_EQ(again.load(), 7);
}

TEST(ThreadPool, HardwareThreadsIsNeverZero) {
  EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

}  // namespace
}  // namespace ktrace::util
