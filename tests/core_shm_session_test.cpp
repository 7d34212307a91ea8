// Cross-process trace sessions (DESIGN.md §10): segment create/attach
// round-trips, hostile-header rejection (including seeded bit-flip fuzz
// through the fault-injecting filesystem), the lease lifecycle and its
// fast-path heartbeat, and the writer fence that keeps a stalled-but-live
// producer's late commits from corrupting a reclaimed lap.
#include "core/shm_session.hpp"

#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "core/decode.hpp"
#include "core/flight_recorder.hpp"
#include "test_support.hpp"
#include "util/faultfs.hpp"

namespace ktrace {
namespace {

class ShmSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ktrace_shm_session_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string segPath(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Copies the segment byte-for-byte through the fault-injecting
  /// filesystem, whose write path applies the plan's corruption (bit
  /// flips are write-side faults). Returns the damaged copy's path.
  std::string damagedCopy(const std::string& path, const util::FaultPlan& plan,
                          const std::string& suffix) const {
    util::FaultInjectingFileSystem ffs(plan);
    const std::string out = path + suffix;
    std::FILE* src = std::fopen(path.c_str(), "rb");
    EXPECT_NE(src, nullptr);
    auto dst = ffs.open(out, "wb");
    EXPECT_NE(dst, nullptr);
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, src)) > 0) {
      EXPECT_EQ(dst->write(buf, n), n);
    }
    std::fclose(src);
    EXPECT_TRUE(dst->flush());
    return out;
  }

  /// Decodes every record in `sink` for one processor, in seq order.
  static std::vector<DecodedEvent> decodeRecords(const MemorySink& sink,
                                                 uint32_t processor) {
    std::vector<BufferRecord> records = sink.records();  // snapshot by value
    std::erase_if(records, [&](const BufferRecord& r) {
      return r.processor != processor;
    });
    std::sort(records.begin(), records.end(),
              [](const BufferRecord& a, const BufferRecord& b) {
                return a.seq < b.seq;
              });
    std::vector<DecodedEvent> events;
    uint64_t tsBase = 0;
    for (const BufferRecord& r : records) {
      decodeBuffer(r.words, r.seq, r.processor, tsBase, events);
    }
    // The events outlive `records`: each takes an owned copy of its payload.
    for (DecodedEvent& e : events) e.data.assign(e.data.data(), e.data.size());
    return events;
  }

  std::filesystem::path dir_;
};

TEST_F(ShmSessionTest, CreateAttachRoundTrip) {
  ShmSession::Config cfg;
  cfg.numProcessors = 2;
  cfg.bufferWords = 64;
  cfg.numBuffers = 8;
  cfg.maxProducers = 4;
  cfg.ticksPerSecond = 2.5e9;
  cfg.startWallNs = 111;
  cfg.startTicks = 222;
  const std::string path = segPath("roundtrip.kses");
  ShmSession creator = ShmSession::create(path, cfg, TscClock::ref());
  EXPECT_EQ(std::filesystem::file_size(path), ShmSession::bytesFor(cfg));

  const int lease = creator.acquireLease(::getpid(), 0, 2);
  ASSERT_GE(lease, 0);
  ShmTraceControl producer =
      creator.producerControl(1, static_cast<uint32_t>(lease));
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(producer.logEvent(Major::Test, 1, i));
  }
  producer.flushCurrentBuffer();

  // A second process's view: attach the same file and drain processor 1.
  ShmSession attached = ShmSession::attach(path, TscClock::ref());
  EXPECT_EQ(attached.numProcessors(), 2u);
  EXPECT_EQ(attached.maxProducers(), 4u);
  EXPECT_EQ(attached.bufferWords(), 64u);
  EXPECT_EQ(attached.numBuffers(), 8u);
  const TraceFileMeta meta = attached.fileMeta(1);
  EXPECT_EQ(meta.processorId, 1u);
  EXPECT_EQ(meta.numProcessors, 2u);
  EXPECT_EQ(meta.ticksPerSecond, 2.5e9);
  EXPECT_EQ(meta.startWallNs, 111u);
  EXPECT_EQ(meta.startTicks, 222u);

  MemorySink sink;
  testing::harvestAll(attached.control(1), sink);
  const auto events = decodeRecords(sink, 1);
  ASSERT_EQ(events.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].header.major, Major::Test);
    EXPECT_EQ(events[i].data[0], i);
  }
}

TEST_F(ShmSessionTest, LeaseHeartbeatRefreshedAtBufferCrossings) {
  ShmSession::Config cfg;
  cfg.bufferWords = 64;
  cfg.numBuffers = 8;
  const std::string path = segPath("heartbeat.kses");
  ShmSession session = ShmSession::create(path, cfg, TscClock::ref());
  const int lease = session.acquireLease(::getpid(), 0, 1);
  ASSERT_GE(lease, 0);
  ShmTraceControl producer =
      session.producerControl(0, static_cast<uint32_t>(lease));

  EXPECT_EQ(session.lease(static_cast<uint32_t>(lease))
                .heartbeat.load(std::memory_order_relaxed),
            0u);
  // Events inside the first buffer never touch the heartbeat (the refresh
  // rides the crossing slow path only).
  for (uint64_t i = 0; i < 8; ++i) ASSERT_TRUE(producer.logEvent(Major::Test, 1, i));
  EXPECT_EQ(session.lease(static_cast<uint32_t>(lease))
                .heartbeat.load(std::memory_order_relaxed),
            0u);
  // Three buffers' worth crosses at least twice.
  for (uint64_t i = 0; i < 3 * 32; ++i) {
    ASSERT_TRUE(producer.logEvent(Major::Test, 1, i));
  }
  EXPECT_GE(session.lease(static_cast<uint32_t>(lease))
                .heartbeat.load(std::memory_order_relaxed),
            2u);

  // The producer's own TRACE_MONITOR heartbeat carries real counters: with
  // one logging thread and no flush, w5 (slow-path entries) is exactly the
  // number of buffer crossings so far.
  const uint64_t crossings = producer.currentBufferSeq();
  ASSERT_TRUE(logMonitorHeartbeat(producer, 0, nullptr));
  FlightRecorderOptions monitorOnly;
  monitorOnly.maxEvents = 0;
  monitorOnly.majorMask = TraceMask::bit(Major::Monitor);
  const auto beats = flightRecorderSnapshot(producer, monitorOnly);
  ASSERT_EQ(beats.size(), 1u);
  Heartbeat hb;
  ASSERT_TRUE(parseHeartbeat(beats[0], hb));
  EXPECT_EQ(hb.slowPathEntries, crossings);
  EXPECT_EQ(hb.bufferSeq, crossings);
  EXPECT_EQ(hb.eventsLogged, 8u + 3 * 32);
}

TEST_F(ShmSessionTest, LeaseTableFillsReleasesAndRefreshesEpochs) {
  ShmSession::Config cfg;
  cfg.numProcessors = 4;
  cfg.maxProducers = 2;
  const std::string path = segPath("leases.kses");
  ShmSession session = ShmSession::create(path, cfg, TscClock::ref());

  const int a = session.acquireLease(100, 0, 2);
  const int b = session.acquireLease(200, 2, 4);
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  EXPECT_NE(a, b);
  EXPECT_EQ(session.acquireLease(300, 0, 1), -1);  // table full

  const uint64_t epochA =
      session.lease(static_cast<uint32_t>(a)).epoch.load(std::memory_order_relaxed);
  session.releaseLease(static_cast<uint32_t>(a));
  const int a2 = session.acquireLease(101, 0, 2);
  ASSERT_GE(a2, 0);
  EXPECT_GT(session.lease(static_cast<uint32_t>(a2))
                .epoch.load(std::memory_order_relaxed),
            epochA);

  EXPECT_THROW(session.acquireLease(1, 2, 1), std::invalid_argument);
  EXPECT_THROW(session.acquireLease(1, 0, 99), std::invalid_argument);
}

// Move-assigning over a live session (the re-attach pattern) must release
// the old mapping/fd in place and adopt the source's. The old
// implementation called this->~ShmSession() and then assigned to the
// destroyed members — a use-after-free ASan catches for paths past the
// small-string optimization.
TEST_F(ShmSessionTest, MoveAssignOverLiveSessionReleasesTheOldMapping) {
  ShmSession::Config cfg;
  cfg.bufferWords = 64;
  cfg.numBuffers = 8;
  const std::string pathA = segPath(std::string(48, 'a') + ".kses");
  const std::string pathB = segPath(std::string(48, 'b') + ".kses");
  ShmSession a = ShmSession::create(pathA, cfg, TscClock::ref());
  ASSERT_TRUE(a.control(0).logEvent(Major::Test, 1, uint64_t{7}));
  {
    ShmSession b = ShmSession::create(pathB, cfg, TscClock::ref());
    b = std::move(a);
    EXPECT_EQ(b.path(), pathA);
    // Re-attach over the now-live session: the exact review scenario.
    b = ShmSession::attach(pathA, TscClock::ref());
    EXPECT_EQ(b.path(), pathA);
    b.control(0).flushCurrentBuffer();
    MemorySink sink;
    testing::harvestAll(b.control(0), sink);
    const auto events = decodeRecords(sink, 0);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].data[0], 7u);
  }
  // `a` was emptied by the move: its destruction must not unmap pathA's
  // segment twice.
}

TEST_F(ShmSessionTest, AttachRejectsTruncatedSegment) {
  ShmSession::Config cfg;
  const std::string path = segPath("truncated.kses");
  { ShmSession session = ShmSession::create(path, cfg, TscClock::ref()); }
  ASSERT_EQ(::truncate(path.c_str(), 512), 0);
  EXPECT_THROW(ShmSession::attach(path, TscClock::ref()), std::runtime_error);
  EXPECT_THROW(ShmSession::attachForRecovery(path, TscClock::ref()),
               std::runtime_error);
}

TEST_F(ShmSessionTest, AttachRejectsForeignBytes) {
  const std::string path = segPath("foreign.kses");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::vector<char> junk(16384, '\xab');
  ASSERT_EQ(std::fwrite(junk.data(), 1, junk.size(), f), junk.size());
  std::fclose(f);
  EXPECT_THROW(ShmSession::attach(path, TscClock::ref()), std::runtime_error);
}

// Every byte of the header's first 56 bytes is a strictly validated field
// (magic, version, geometry, recomputed layout offsets, total size): ANY
// bit flip there must turn attach into a clean error, never UB.
TEST_F(ShmSessionTest, HeaderFieldBitFlipsAlwaysRejected) {
  ShmSession::Config cfg;
  cfg.numProcessors = 2;
  const std::string path = segPath("fuzz_strict.kses");
  { ShmSession session = ShmSession::create(path, cfg, TscClock::ref()); }

  for (uint64_t seed = 1; seed <= 48; ++seed) {
    util::FaultPlan plan;
    plan.seed = seed;
    plan.randomFlips = 1 + static_cast<int>(seed % 3);
    plan.randomFlipStart = 0;
    plan.randomFlipWindow = 56;
    const std::string bad =
        damagedCopy(path, plan, ".s" + std::to_string(seed));
    EXPECT_THROW(ShmSession::attach(bad, TscClock::ref()), std::runtime_error)
        << "seed " << seed;
    EXPECT_THROW(ShmSession::attachForRecovery(bad, TscClock::ref()),
                 std::runtime_error)
        << "seed " << seed;
  }
}

// Clock metadata flows through fileMeta() into recovered .ktrc files:
// corrupt ticksPerSecond (zero, negative, NaN, inf) or an unknown
// clockKind must be rejected at attach, never surface as divide-by-zero
// or NaN timestamps downstream.
TEST_F(ShmSessionTest, AttachRejectsCorruptClockMetadata) {
  ShmSession::Config cfg;
  const std::string path = segPath("clockmeta.kses");
  { ShmSession session = ShmSession::create(path, cfg, TscClock::ref()); }

  const auto patchHeader = [&](auto&& mutate) {
    const int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    void* m = ::mmap(nullptr, sizeof(ShmSessionHeader), PROT_READ | PROT_WRITE,
                     MAP_SHARED, fd, 0);
    ASSERT_NE(m, MAP_FAILED);
    mutate(*static_cast<ShmSessionHeader*>(m));
    ASSERT_EQ(::munmap(m, sizeof(ShmSessionHeader)), 0);
    ::close(fd);
  };

  for (const double bad :
       {0.0, -2.5e9, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    patchHeader([&](ShmSessionHeader& h) { h.ticksPerSecond = bad; });
    EXPECT_THROW(ShmSession::attach(path, TscClock::ref()), std::runtime_error)
        << "ticksPerSecond " << bad;
    EXPECT_THROW(ShmSession::attachForRecovery(path, TscClock::ref()),
                 std::runtime_error)
        << "ticksPerSecond " << bad;
  }
  patchHeader([&](ShmSessionHeader& h) {
    h.ticksPerSecond = 1e9;
    h.clockKind = 0xABCDu;
  });
  EXPECT_THROW(ShmSession::attach(path, TscClock::ref()), std::runtime_error);
  patchHeader([&](ShmSessionHeader& h) {
    h.clockKind = static_cast<uint32_t>(ClockKind::Tsc);
  });
  EXPECT_NO_THROW(ShmSession::attach(path, TscClock::ref()));

  // create() refuses to mint a header attach would reject.
  ShmSession::Config badCfg;
  badCfg.ticksPerSecond = 0.0;
  EXPECT_THROW(
      ShmSession::create(segPath("badtps.kses"), badCfg, TscClock::ref()),
      std::invalid_argument);
}

// Flips anywhere in the segment (metadata, lease table, control headers,
// slot states, ring words): attach either rejects cleanly or the session
// must survive snapshotting, draining, and a watchdog poll without
// crashing — sanitizer builds turn any OOB or UB here into a failure.
TEST_F(ShmSessionTest, WholeSegmentBitFlipsNeverCrash) {
  ShmSession::Config cfg;
  cfg.numProcessors = 2;
  cfg.bufferWords = 64;
  cfg.numBuffers = 8;
  const std::string path = segPath("fuzz_wide.kses");
  {
    ShmSession session = ShmSession::create(path, cfg, TscClock::ref());
    const int lease = session.acquireLease(::getpid(), 0, 2);
    ASSERT_GE(lease, 0);
    ShmTraceControl producer =
        session.producerControl(0, static_cast<uint32_t>(lease));
    for (uint64_t i = 0; i < 200; ++i) {
      ASSERT_TRUE(producer.logEvent(Major::Test, 1, i));
    }
  }
  const auto fileBytes =
      static_cast<int64_t>(std::filesystem::file_size(path));

  uint32_t rejected = 0;
  for (uint64_t seed = 1; seed <= 48; ++seed) {
    util::FaultPlan plan;
    plan.seed = seed;
    plan.randomFlips = 8;
    plan.randomFlipStart = 0;
    plan.randomFlipWindow = fileBytes;
    const std::string bad =
        damagedCopy(path, plan, ".w" + std::to_string(seed));
    try {
      ShmSession session = ShmSession::attach(bad, TscClock::ref());
      MemorySink sink;
      for (uint32_t p = 0; p < session.numProcessors(); ++p) {
        (void)flightRecorderSnapshot(session.control(p), {.maxEvents = 32});
        testing::harvestAll(session.control(p), sink);
      }
      SessionWatchdog::Config wcfg;
      wcfg.checkPids = false;  // a flipped pid field must never be probed
      SessionWatchdog watchdog(session, sink, wcfg);
      watchdog.pollOnce();
      watchdog.recoverNow();
    } catch (const std::runtime_error&) {
      ++rejected;  // clean rejection is an equally valid outcome
    }
  }
  // Sanity: with most flips landing in the ring, a fair share of seeds
  // must actually exercise the attached-and-draining path.
  EXPECT_LT(rejected, 48u);
}

TEST_F(ShmSessionTest, WatchdogDrainsHealthySessionWithoutReclaim) {
  ShmSession::Config cfg;
  cfg.numProcessors = 2;
  cfg.bufferWords = 64;
  cfg.numBuffers = 8;
  const std::string path = segPath("healthy.kses");
  ShmSession session = ShmSession::create(path, cfg, TscClock::ref());
  const int lease = session.acquireLease(::getpid(), 0, 2);
  ASSERT_GE(lease, 0);
  for (uint32_t p = 0; p < 2; ++p) {
    ShmTraceControl producer =
        session.producerControl(p, static_cast<uint32_t>(lease));
    for (uint64_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(producer.logEvent(Major::Test, 1, i));
    }
    producer.flushCurrentBuffer();
  }

  MemorySink sink;
  SessionWatchdog watchdog(session, sink);
  watchdog.pollOnce();

  const RecoveryStats stats = watchdog.stats();
  EXPECT_GT(stats.buffersRecovered, 0u);
  EXPECT_EQ(stats.buffersRecovered, sink.count());
  EXPECT_EQ(stats.tornBuffers, 0u);
  EXPECT_EQ(stats.reclaimedWords, 0u);
  EXPECT_EQ(stats.deadProducers, 0u);
  EXPECT_EQ(stats.fencedProducers, 0u);
  for (const BufferRecord& r : sink.records()) {
    EXPECT_FALSE(r.commitMismatch);
  }
  // A live, merely idle producer is never expired: nothing is pending.
  for (int i = 0; i < 10; ++i) watchdog.pollOnce();
  EXPECT_EQ(watchdog.stats().fencedProducers, 0u);
  EXPECT_EQ(session.lease(static_cast<uint32_t>(lease))
                .state.load(std::memory_order_relaxed),
            ShmLease::kActive);
}

TEST_F(ShmSessionTest, WatchdogReclaimsDeadProducerExactlyOnce) {
  ShmSession::Config cfg;
  cfg.bufferWords = 64;
  cfg.numBuffers = 8;
  const std::string path = segPath("dead.kses");
  ShmSession session = ShmSession::create(path, cfg, TscClock::ref());

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Log five events, then die mid-event: a reservation is taken (the
    // index moved) but never committed — exactly the §3.1 torn state.
    const int lease = session.acquireLease(
        static_cast<uint64_t>(::getpid()), 0, 1);
    if (lease < 0) ::_exit(2);
    ShmTraceControl producer =
        session.producerControl(0, static_cast<uint32_t>(lease));
    for (uint64_t i = 0; i < 5; ++i) {
      if (!producer.logEvent(Major::Test, 1, i)) ::_exit(3);
    }
    Reservation r;
    if (!producer.reserve(4, r)) ::_exit(4);
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  MemorySink sink;
  SessionWatchdog watchdog(session, sink);
  watchdog.pollOnce();  // baselines the lease track (index "moved" from 0)
  watchdog.pollOnce();  // reaped child: kill(pid, 0) says ESRCH, reclaim now

  const RecoveryStats stats = watchdog.stats();
  EXPECT_EQ(stats.deadProducers, 1u);
  EXPECT_EQ(stats.fencedProducers, 0u);
  EXPECT_EQ(stats.tornBuffers, 1u);
  EXPECT_EQ(stats.reclaimedWords, 4u);
  EXPECT_EQ(stats.abandonedBuffers, 0u);
  EXPECT_EQ(session.lease(0).state.load(std::memory_order_relaxed),
            ShmLease::kReclaimed);

  // Every committed event is recovered exactly once, in a buffer that
  // drains complete (the tear was stamped with filler first).
  ASSERT_GT(sink.count(), 0u);
  for (const BufferRecord& r : sink.records()) {
    EXPECT_FALSE(r.commitMismatch);
  }
  const auto events = decodeRecords(sink, 0);
  std::set<uint64_t> ids;
  for (const DecodedEvent& e : events) {
    if (e.header.major != Major::Test) continue;
    EXPECT_TRUE(ids.insert(e.data[0]).second) << "duplicate " << e.data[0];
  }
  EXPECT_EQ(ids, (std::set<uint64_t>{0, 1, 2, 3, 4}));

  // Idempotent: nothing left to reclaim on the next poll.
  watchdog.pollOnce();
  EXPECT_EQ(watchdog.stats().deadProducers, 1u);
  EXPECT_EQ(watchdog.stats().tornBuffers, 1u);
}

// Satellite 3: a stalled-but-ALIVE producer past its lease deadline is
// fenced, not trusted. Its late commit must be discarded as stale — without
// the writerEpoch fence the commit would land on the already-reclaimed lap
// and push the slot's commit count past the stamped value.
TEST_F(ShmSessionTest, LateCommitAfterExpiryFenceIsDiscardedAsStale) {
  ShmSession::Config cfg;
  cfg.bufferWords = 64;
  cfg.numBuffers = 8;
  const std::string path = segPath("fence.kses");
  ShmSession session = ShmSession::create(path, cfg, TscClock::ref());
  const int lease = session.acquireLease(::getpid(), 0, 1);
  ASSERT_GE(lease, 0);
  ShmTraceControl producer =
      session.producerControl(0, static_cast<uint32_t>(lease));
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(producer.logEvent(Major::Test, 1, i));
  }
  // The stall: a reservation held open mid-event.
  Reservation r;
  ASSERT_TRUE(producer.reserve(4, r));

  MemorySink sink;
  SessionWatchdog::Config wcfg;
  wcfg.expiryPolls = 1;
  // This test drives expiry with back-to-back polls, so collapse the
  // monotonic grace window the deadline also requires.
  wcfg.expiryTimeout = std::chrono::microseconds{0};
  SessionWatchdog watchdog(session, sink, wcfg);
  watchdog.pollOnce();  // sees first movement: progress, not a stall
  watchdog.pollOnce();  // no heartbeat, no index motion, data pending: fence

  const RecoveryStats stats = watchdog.stats();
  EXPECT_EQ(stats.fencedProducers, 1u);
  EXPECT_EQ(stats.deadProducers, 0u);
  EXPECT_EQ(stats.tornBuffers, 1u);
  EXPECT_EQ(stats.reclaimedWords, 4u);

  // The reclaimed lap drained whole: filler was stamped over the tear and
  // the commit count closed at exactly bufferWords.
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_FALSE(sink.records()[0].commitMismatch);
  EXPECT_EQ(sink.records()[0].committedDelta, 64u);

  // The producer wakes up and finishes its write. Without the fence this
  // commit would bump slot 0's count to bufferWords + 4.
  ShmTraceControl observer = session.control(0);
  const uint64_t committedBefore =
      observer.slot(0).committed.load(std::memory_order_relaxed);
  EXPECT_TRUE(producer.fenced());
  producer.storeWord(r.index, EventHeader::encode(r.ts32, 4, Major::Test, 9));
  producer.commit(r.index, 4);
  EXPECT_EQ(observer.slot(0).committed.load(std::memory_order_relaxed),
            committedBefore);
  EXPECT_EQ(observer.staleCommits(), 1u);

  // ...and its future reservations are refused outright.
  Reservation r2;
  EXPECT_FALSE(producer.reserve(2, r2));

  // A fresh accessor (new process / re-acquired lease) logs under the new
  // epoch without friction.
  ShmTraceControl fresh = session.control(0);
  EXPECT_FALSE(fresh.fenced());
  EXPECT_TRUE(fresh.logEvent(Major::Test, 2, uint64_t{99}));
}

// Lease expiry is a monotonic-clock deadline, not a bare poll count. A
// burst of rapid polls (a control-plane doorbell storm, or a scheduler
// catching up after a stall of its own) crosses expiryPolls in
// microseconds; without the steady-clock gate that would fence a producer
// that never had wall time to make progress. A stepped heartbeat must
// restart the deadline; only genuine elapsed staleness fences.
TEST_F(ShmSessionTest, MonotonicDeadlineSurvivesRapidPolls) {
  ShmSession::Config cfg;
  cfg.bufferWords = 64;
  cfg.numBuffers = 8;
  const std::string path = segPath("deadline.kses");
  ShmSession session = ShmSession::create(path, cfg, TscClock::ref());
  const int lease = session.acquireLease(::getpid(), 0, 1);
  ASSERT_GE(lease, 0);
  ShmTraceControl producer =
      session.producerControl(0, static_cast<uint32_t>(lease));
  ASSERT_TRUE(producer.logEvent(Major::Test, 1, uint64_t{0}));
  Reservation r;
  ASSERT_TRUE(producer.reserve(4, r));  // mid-event stall, data pending

  MemorySink sink;
  SessionWatchdog::Config wcfg;
  wcfg.expiryPolls = 1;
  wcfg.expiryTimeout = std::chrono::milliseconds{200};
  SessionWatchdog watchdog(session, sink, wcfg);

  // Rapid polls: stalePolls crosses expiryPolls on the second poll, but
  // essentially no wall time has passed — the deadline holds the fence.
  for (int i = 0; i < 50; ++i) watchdog.pollOnce();
  EXPECT_EQ(watchdog.stats().fencedProducers, 0u);
  EXPECT_FALSE(producer.fenced());

  // A stepped heartbeat (producer alive between buffer crossings) counts
  // as progress and restarts the deadline.
  session.lease(static_cast<uint32_t>(lease))
      .heartbeat.fetch_add(1, std::memory_order_relaxed);
  watchdog.pollOnce();  // observes the heartbeat: stall tracking resets
  std::this_thread::sleep_for(std::chrono::milliseconds{50});
  watchdog.pollOnce();  // 50ms into a 200ms window: still alive
  EXPECT_EQ(watchdog.stats().fencedProducers, 0u);

  // Genuine staleness: no heartbeat, no index motion, deadline elapsed.
  std::this_thread::sleep_for(std::chrono::milliseconds{250});
  watchdog.pollOnce();
  EXPECT_EQ(watchdog.stats().fencedProducers, 1u);
  EXPECT_EQ(watchdog.stats().deadProducers, 0u);
  EXPECT_EQ(watchdog.stats().tornBuffers, 1u);
  EXPECT_FALSE(producer.reserve(2, r));  // fenced for good
}

// The commit-side fence is check-then-act: without the post-add epoch
// re-check in ShmTraceControl::commit, a producer preempted between its
// epoch load and its committed.fetch_add double-counts words the watchdog
// already stamped filler over, and a reclaimed lap's commit count
// overshoots bufferWords. Race a hot producer against a fence+reclaim and
// require the accounting to converge: every shipped record is complete,
// and the drain reaches the flushed boundary.
TEST_F(ShmSessionTest, CommitsRacingTheFenceNeverBreakAccounting) {
  ShmSession::Config cfg;
  cfg.bufferWords = 64;
  cfg.numBuffers = 8;
  const std::string path = segPath("fence_race.kses");
  ShmSession session = ShmSession::create(path, cfg, TscClock::ref());
  const int lease = session.acquireLease(::getpid(), 0, 1);
  ASSERT_GE(lease, 0);

  std::atomic<bool> sawFence{false};
  std::thread writer([&] {
    ShmTraceControl producer =
        session.producerControl(0, static_cast<uint32_t>(lease));
    uint64_t i = 0;
    while (producer.logEvent(Major::Test, 1, i)) ++i;  // until fenced
    sawFence.store(true, std::memory_order_release);
  });

  MemorySink sink;
  SessionWatchdog::Config wcfg;
  wcfg.checkPids = false;
  wcfg.expiryPolls = 1u << 30;  // fenced manually below, not by deadline
  SessionWatchdog watchdog(session, sink, wcfg);

  // Let the producer lap the ring a couple of times, then yank the
  // session out from under it mid-log.
  ShmTraceControl observer = session.control(0);
  while (observer.currentIndex() < 16 * cfg.bufferWords) {}
  watchdog.recoverNow();
  writer.join();
  EXPECT_TRUE(sawFence.load(std::memory_order_acquire));

  // Per-poll re-reclaim is part of the watchdog contract: any reserve or
  // commit that was in flight when the fence landed is absorbed within a
  // few idempotent retries.
  for (int i = 0; i < 8; ++i) watchdog.pollOnce();

  for (const BufferRecord& r : sink.records()) {
    EXPECT_FALSE(r.commitMismatch)
        << "seq " << r.seq << " committedDelta " << r.committedDelta;
  }
  // Nothing wedged: the drain reached the flushed buffer boundary.
  EXPECT_EQ(observer.currentIndex() % cfg.bufferWords,
            TraceControl::kAnchorWords);
}

}  // namespace
}  // namespace ktrace
