// User-mapped shared trace buffers (§2 goals 2-3): the lockless algorithm
// across real process boundaries, via fork() over a MAP_SHARED block.
#include "core/control.hpp"

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <set>
#include <thread>

#include "core/flight_recorder.hpp"
#include "test_support.hpp"

namespace ktrace {
namespace {

struct ShmBlock {
  void* memory = nullptr;
  size_t bytes = 0;

  ShmBlock(uint32_t bufferWords, uint32_t numBuffers) {
    bytes = ShmTraceControl::bytesFor(bufferWords, numBuffers);
    memory = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    EXPECT_NE(memory, MAP_FAILED);
  }
  ~ShmBlock() {
    if (memory != MAP_FAILED && memory != nullptr) ::munmap(memory, bytes);
  }
};

TEST(ShmTraceControl, CreateValidatesGeometry) {
  alignas(64) char buf[4096];
  FakeClock clock(1, 1);
  EXPECT_THROW(
      ShmTraceControl::create(buf, {.bufferWords = 100, .numBuffers = 4, .clock = clock.ref()}),
      std::invalid_argument);
  EXPECT_THROW(ShmTraceControl::create(buf, {.bufferWords = 64, .numBuffers = 1, .clock = clock.ref()}),
               std::invalid_argument);
  EXPECT_THROW(ShmTraceControl::create(buf, {.bufferWords = 64, .numBuffers = 4, .clock = ClockRef{}}),
               std::invalid_argument);
}

TEST(ShmTraceControl, AttachRejectsUninitializedMemory) {
  alignas(64) char buf[4096] = {};
  FakeClock clock(1, 1);
  EXPECT_THROW(ShmTraceControl::attach(buf, clock.ref()), std::runtime_error);
}

TEST(ShmTraceControl, AttachRejectsBlocksOfEarlierVersions) {
  // Version 5 made the block the one layout for in-process and shared
  // controls; a block written by an earlier build must not attach.
  ShmBlock block(64, 4);
  FakeClock clock(1, 1);
  ShmTraceControl::create(block.memory,
                          {.bufferWords = 64, .numBuffers = 4, .clock = clock.ref()});
  EXPECT_NO_THROW(ShmTraceControl::attach(block.memory, clock.ref()));
  static_cast<ShmControlState*>(block.memory)->version = 4;
  EXPECT_THROW(ShmTraceControl::attach(block.memory, clock.ref()), std::runtime_error);
}

TEST(ShmTraceControl, SingleProcessLoggingMatchesTraceControlSemantics) {
  ShmBlock block(64, 8);
  FakeClock clock(1, 1);
  ShmTraceControl control =
      ShmTraceControl::create(block.memory, {.processorId = 3, .bufferWords = 64, .numBuffers = 8, .clock = clock.ref()});

  EXPECT_EQ(control.processorId(), 3u);
  EXPECT_EQ(control.currentIndex(), TraceControl::kAnchorWords);
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(control.logEvent(Major::Test, 1, i));
  }
  const auto events = flightRecorderSnapshot(control, {.maxEvents = 0});
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().data[0], 99u);
  EXPECT_EQ(events.back().processor, 3u);
  // Consecutive payloads — nothing lost inside the retained window.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].data[0], events[i - 1].data[0] + 1);
  }
}

TEST(ShmTraceControl, AttachSeesCreatorsEvents) {
  ShmBlock block(64, 8);
  FakeClock clock(1, 1);
  ShmTraceControl creator =
      ShmTraceControl::create(block.memory, {.bufferWords = 64, .numBuffers = 8, .clock = clock.ref()});
  ASSERT_TRUE(creator.logEvent(Major::Test, 7, uint64_t{123}));

  ShmTraceControl attached = ShmTraceControl::attach(block.memory, clock.ref());
  EXPECT_EQ(attached.bufferWords(), 64u);
  const auto events = flightRecorderSnapshot(attached, {.maxEvents = 0});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].data[0], 123u);

  // And the attached accessor can log too.
  ASSERT_TRUE(attached.logEvent(Major::Test, 8, uint64_t{456}));
  EXPECT_EQ(flightRecorderSnapshot(creator, {.maxEvents = 0}).back().data[0], 456u);
}

TEST(ShmTraceControl, DrainCompleteBuffersMirrorsConsumer) {
  ShmBlock block(64, 8);
  FakeClock clock(1, 1);
  ShmTraceControl control =
      ShmTraceControl::create(block.memory, {.bufferWords = 64, .numBuffers = 8, .clock = clock.ref()});
  for (uint64_t i = 0; i < 80; ++i) {
    ASSERT_TRUE(control.logEvent(Major::Test, 1, i, i));
  }
  control.flushCurrentBuffer();
  MemorySink sink;
  const uint64_t next = testing::harvestAll(control, sink);
  EXPECT_EQ(next, control.currentBufferSeq());
  ASSERT_GE(sink.count(), 3u);
  for (const auto& record : sink.records()) {
    EXPECT_FALSE(record.commitMismatch) << record.seq;
  }
}

TEST(ShmTraceControl, HarvestCountsASlotReusedDuringItsCopyAsLost) {
  // Regression for the harvest's seqlock re-check. A crosser publishes the
  // slot's lapSeq only after its index CAS; in that gap a second writer
  // sharing the control can already store into the slot's next lap. A
  // harvest copying the slot then still sees the old lapSeq — only the
  // index shows the slot was reused. The torn copy must count as lost.
  constexpr uint32_t kBufferWords = 64;
  constexpr uint32_t kNumBuffers = 2;
  constexpr uint32_t kAnchor = ShmTraceControl::kAnchorWords;
  ShmBlock block(kBufferWords, kNumBuffers);
  auto* state = static_cast<ShmControlState*>(block.memory);
  FakeClock clock(1, 1);
  ShmTraceControl control = ShmTraceControl::create(
      block.memory,
      {.bufferWords = kBufferWords, .numBuffers = kNumBuffers, .clock = clock.ref()});

  // Buffer 0: anchor, a straggler's 4-word reservation left uncommitted,
  // then 19 three-word events up to the boundary; one event crosses into
  // buffer 1, so buffer 0 is complete but for the straggler.
  Reservation straggler;
  ASSERT_TRUE(control.reserve(4, straggler));
  for (uint64_t i = 0; i < 19; ++i) ASSERT_TRUE(control.logEvent(Major::Test, 1, i, i));
  ASSERT_EQ(control.currentIndex(), uint64_t{kBufferWords});
  ASSERT_TRUE(control.logEvent(Major::Test, 2, uint64_t{0}));
  ASSERT_EQ(control.currentBufferSeq(), 1u);

  // The harvester passes its lap checks and spins on the straggler.
  MemorySink sink;
  uint64_t next = 0;
  bool progressed = false;
  std::thread harvester([&] {
    progressed = control.harvestOne(next, sink, std::chrono::seconds(30),
                                    /*stopAtIncomplete=*/false);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // A crosser into slot 0's next lap (seq 2), preempted between its index
  // CAS and its lapSeq store; a second writer stores into the new lap;
  // then the straggler commits and releases the harvester.
  uint64_t expected = state->index.load();
  ASSERT_TRUE(state->index.compare_exchange_strong(
      expected, uint64_t{kNumBuffers} * kBufferWords + kAnchor + 2));
  control.storeWord(uint64_t{kNumBuffers} * kBufferWords + kAnchor,
                    EventHeader::encode(0, 2, Major::Test, 3));
  control.commit(straggler.index, 4);
  harvester.join();

  EXPECT_TRUE(progressed);
  EXPECT_EQ(next, 1u);
  EXPECT_EQ(sink.count(), 0u) << "a torn copy was shipped";
  EXPECT_EQ(control.buffersLost(), 1u);
  EXPECT_EQ(control.buffersConsumed(), 0u);
}

TEST(ShmTraceControl, CrossProcessUnifiedLogging) {
  // The paper's unified buffer: "cheap and parallel logging of events by
  // applications, libraries, servers, and the kernel". Parent = kernel,
  // children = applications, all CAS-ing the same mapped index.
  constexpr uint32_t kChildren = 3;
  constexpr uint64_t kEventsPerProcess = 400;
  ShmBlock block(256, 64);  // 16384 words: retains everything
  ShmTraceControl parent = ShmTraceControl::create(
      block.memory, {.bufferWords = 256, .numBuffers = 64, .clock = TscClock::ref()});

  std::vector<pid_t> pids;
  for (uint32_t c = 0; c < kChildren; ++c) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: attach to the mapping and log with its own tag.
      ShmTraceControl child = ShmTraceControl::attach(block.memory, TscClock::ref());
      for (uint64_t i = 0; i < kEventsPerProcess; ++i) {
        const uint64_t id = (static_cast<uint64_t>(c + 1) << 32) | i;
        if (!child.logEvent(Major::App, static_cast<uint16_t>(c), id)) ::_exit(1);
      }
      ::_exit(0);
    }
    pids.push_back(pid);
  }
  // Parent logs concurrently (the "kernel" events).
  for (uint64_t i = 0; i < kEventsPerProcess; ++i) {
    ASSERT_TRUE(parent.logEvent(Major::Sched, 0, i));
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
  }

  // Exactly-once across all four address spaces.
  const auto events = flightRecorderSnapshot(parent, {.maxEvents = 0});
  std::set<uint64_t> appIds;
  uint64_t schedCount = 0;
  uint64_t prevTs = 0;
  for (const auto& e : events) {
    EXPECT_GE(e.fullTimestamp, prevTs) << "buffer order vs timestamp order";
    prevTs = e.fullTimestamp;
    if (e.header.major == Major::App) {
      ASSERT_TRUE(appIds.insert(e.data[0]).second) << "duplicate cross-process event";
    } else if (e.header.major == Major::Sched) {
      ++schedCount;
    }
  }
  EXPECT_EQ(appIds.size(), static_cast<size_t>(kChildren) * kEventsPerProcess);
  EXPECT_EQ(schedCount, kEventsPerProcess);
}

TEST(ShmTraceControl, CrossProcessKilledWriterIsDetected) {
  // A child killed mid-log (the §3.1 hazard) leaves a hole; the commit
  // counts expose it to the consumer.
  ShmBlock block(64, 8);
  FakeClock clock(1, 1);
  ShmTraceControl parent =
      ShmTraceControl::create(block.memory, {.bufferWords = 64, .numBuffers = 8, .clock = clock.ref()});

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ShmTraceControl child = ShmTraceControl::attach(block.memory, clock.ref());
    Reservation r;
    child.reserve(4, r);  // reserve, then "die" before writing/committing
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);

  for (uint64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(parent.logEvent(Major::Test, 1, i));
  }
  parent.flushCurrentBuffer();
  MemorySink sink;
  testing::harvestAll(parent, sink);
  bool flagged = false;
  for (const auto& record : sink.records()) {
    if (record.commitMismatch) flagged = true;
  }
  EXPECT_TRUE(flagged) << "the killed child's hole went undetected";
}

}  // namespace
}  // namespace ktrace
