// Self-monitoring (DESIGN.md §8): the hot-path counters, the lock-free
// snapshot registry, TRACE_MONITOR heartbeats, and the shm-mapped v2
// counters. The load-bearing property is the heartbeat interval identity:
// a heartbeat's eventsLogged counter is read before its own event is
// logged, so counter deltas between heartbeats equal the number of logger
// events between them in the stream.
#include "core/monitor.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "core/batching_sink.hpp"
#include "core/shm_session.hpp"
#include "test_support.hpp"

namespace ktrace {
namespace {

using testing::FakeFacility;
using testing::drainAndDecode;

TEST(MonitorCounters, CountEventsPerMajorAndWords) {
  FakeFacility fx(1, 256, 4);
  fx.facility.bindCurrentThread(0);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fx.facility.log(Major::Test, 1, uint64_t(i)));  // 2 words
  }
  ASSERT_TRUE(fx.facility.log(Major::Sched, 2, uint64_t{1}, uint64_t{2}));  // 3

  const ProcessorCounters pc = readProcessorCounters(fx.facility.control(0));
  EXPECT_EQ(pc.processorId, 0u);
  EXPECT_EQ(pc.perMajor[static_cast<uint32_t>(Major::Test)], 10u);
  EXPECT_EQ(pc.perMajor[static_cast<uint32_t>(Major::Sched)], 1u);
  EXPECT_EQ(pc.eventsLogged, 11u);
  EXPECT_EQ(pc.wordsReserved, 10u * 2 + 3u);
  EXPECT_EQ(pc.bytesReserved(), (10u * 2 + 3u) * 8);
  EXPECT_EQ(pc.eventsDropped, 0u);
}

TEST(MonitorCounters, DisabledSelfMonitoringCountsNothing) {
  FakeClock clock(1, 1);
  FacilityConfig cfg;
  cfg.clockKind = ClockKind::Fake;
  cfg.clockOverride = clock.ref();
  cfg.selfMonitoring = false;
  Facility facility(cfg);
  facility.mask().enableAll();
  facility.bindCurrentThread(0);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(facility.log(Major::Test, 1, uint64_t(i)));
  const ProcessorCounters pc = readProcessorCounters(facility.control(0));
  EXPECT_EQ(pc.eventsLogged, 0u);
  EXPECT_EQ(pc.wordsReserved, 0u);
  // ...and heartbeats refuse to log fiction.
  EXPECT_FALSE(logMonitorHeartbeat(facility.control(0), 0, nullptr));
}

TEST(MonitorCounters, DroppedReservationsAreCounted) {
  FakeFacility fx(1, 64, 4);
  fx.facility.bindCurrentThread(0);
  std::vector<uint64_t> tooBig(200);  // > bufferWords: rejected
  EXPECT_FALSE(fx.facility.logData(Major::Test, 1, tooBig));
  const ProcessorCounters pc = readProcessorCounters(fx.facility.control(0));
  EXPECT_EQ(pc.eventsDropped, 1u);
  EXPECT_EQ(pc.eventsLogged, 0u);
}

TEST(MonitorHeartbeat, RoundTripsThroughTheTrace) {
  FakeFacility fx(1, 256, 4);
  fx.facility.bindCurrentThread(0);
  MemorySink sink;
  Consumer consumer(fx.facility, sink, {});
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(fx.facility.log(Major::Test, 1, uint64_t(i)));
  Consumer::Stats stats = consumer.stats();
  ASSERT_TRUE(logMonitorHeartbeat(fx.facility.control(0), 42, &stats));

  const auto events = drainAndDecode(fx.facility, consumer, sink);
  Heartbeat hb;
  bool found = false;
  for (const DecodedEvent& e : events) {
    if (parseHeartbeat(e, hb)) found = true;
  }
  ASSERT_TRUE(found);
  EXPECT_EQ(hb.heartbeatSeq, 42u);
  // Counters are read before the heartbeat's own event: 7 Test events.
  EXPECT_EQ(hb.eventsLogged, 7u);
  EXPECT_EQ(hb.wordsReserved, 14u);
  EXPECT_EQ(hb.eventsDropped, 0u);
  // No recovery source was wired up: the v3 words log as zero.
  EXPECT_EQ(hb.reclaimedWords, 0u);
  EXPECT_EQ(hb.tornBuffers, 0u);
}

TEST(MonitorHeartbeat, CarriesRecoveryCountersWhenProvided) {
  FakeFacility fx(1, 256, 4);
  fx.facility.bindCurrentThread(0);
  MemorySink sink;
  Consumer consumer(fx.facility, sink, {});
  RecoveryStats recovery;
  recovery.tornBuffers = 3;
  recovery.reclaimedWords = 77;
  ASSERT_TRUE(logMonitorHeartbeat(fx.facility.control(0), 5, nullptr, nullptr,
                                  &recovery));

  const auto events = drainAndDecode(fx.facility, consumer, sink);
  Heartbeat hb;
  bool found = false;
  for (const DecodedEvent& e : events) {
    if (parseHeartbeat(e, hb)) found = true;
  }
  ASSERT_TRUE(found);
  EXPECT_EQ(hb.heartbeatSeq, 5u);
  EXPECT_EQ(hb.reclaimedWords, 77u);
  EXPECT_EQ(hb.tornBuffers, 3u);
}

TEST(MonitorHeartbeat, IntervalIdentityHolds) {
  FakeFacility fx(1, 256, 16);
  fx.facility.bindCurrentThread(0);
  MemorySink sink;
  Consumer consumer(fx.facility, sink, {});
  // h0, 5 events, h1, 9 events, h2.
  ASSERT_TRUE(logMonitorHeartbeat(fx.facility.control(0), 0, nullptr));
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(fx.facility.log(Major::Test, 1, uint64_t(i)));
  ASSERT_TRUE(logMonitorHeartbeat(fx.facility.control(0), 1, nullptr));
  for (int i = 0; i < 9; ++i) ASSERT_TRUE(fx.facility.log(Major::Test, 1, uint64_t(i)));
  ASSERT_TRUE(logMonitorHeartbeat(fx.facility.control(0), 2, nullptr));

  const auto events = drainAndDecode(fx.facility, consumer, sink);
  std::vector<Heartbeat> beats;
  std::vector<size_t> beatIdx;
  for (size_t i = 0; i < events.size(); ++i) {
    Heartbeat hb;
    if (parseHeartbeat(events[i], hb)) {
      beats.push_back(hb);
      beatIdx.push_back(i);
    }
  }
  ASSERT_EQ(beats.size(), 3u);
  // Delta between consecutive heartbeats == events at stream positions
  // [h_k, h_k+1), the earlier heartbeat's own event included.
  EXPECT_EQ(beats[1].eventsLogged - beats[0].eventsLogged,
            beatIdx[1] - beatIdx[0]);
  EXPECT_EQ(beats[2].eventsLogged - beats[1].eventsLogged,
            beatIdx[2] - beatIdx[1]);
  EXPECT_EQ(beats[1].eventsLogged - beats[0].eventsLogged, 6u);  // h0 + 5
  EXPECT_EQ(beats[2].eventsLogged - beats[1].eventsLogged, 10u); // h1 + 9
}

TEST(MonitorClass, BeatNowEmitsOnEveryProcessor) {
  FakeFacility fx(/*numProcessors=*/3, 256, 4);
  MemorySink sink;
  Consumer consumer(fx.facility, sink, {});
  Monitor monitor(fx.facility, &consumer);
  monitor.beatNow();
  monitor.beatNow();
  EXPECT_EQ(monitor.heartbeatsEmitted(), 2u);

  const auto events = drainAndDecode(fx.facility, consumer, sink);
  uint32_t perCpu[3] = {0, 0, 0};
  for (const DecodedEvent& e : events) {
    Heartbeat hb;
    if (parseHeartbeat(e, hb)) ++perCpu[e.processor];
  }
  EXPECT_EQ(perCpu[0], 2u);
  EXPECT_EQ(perCpu[1], 2u);
  EXPECT_EQ(perCpu[2], 2u);
}

TEST(MonitorClass, SnapshotAggregatesAllProcessors) {
  FakeFacility fx(2, 256, 4);
  fx.facility.bindCurrentThread(0);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(fx.facility.log(Major::Test, 1, uint64_t(i)));
  ASSERT_TRUE(fx.facility.logOn(1, Major::Io, 1, uint64_t{9}));

  MemorySink sink;
  Consumer consumer(fx.facility, sink, {});
  Monitor monitor(fx.facility, &consumer);
  const MonitorSnapshot snap = monitor.snapshot();
  ASSERT_EQ(snap.processors.size(), 2u);
  EXPECT_TRUE(snap.hasConsumer);
  EXPECT_EQ(snap.processors[0].eventsLogged, 4u);
  EXPECT_EQ(snap.processors[1].eventsLogged, 1u);
  const ProcessorCounters totals = snap.totals();
  EXPECT_EQ(totals.eventsLogged, 5u);
  EXPECT_EQ(totals.perMajor[static_cast<uint32_t>(Major::Test)], 4u);
  EXPECT_EQ(totals.perMajor[static_cast<uint32_t>(Major::Io)], 1u);
}

// watchSink + the w11-w13 heartbeat words (DESIGN.md §9): a watched
// sink's shed/backpressure counters and the control's stale-commit count
// must survive the trip through the trace stream, so `ktracetool monitor`
// can report write-out loss from the trace alone.
TEST(MonitorClass, WatchedSinkAndStaleCommitsRoundTripThroughHeartbeat) {
  FakeFacility fx(1, 64, 2);
  fx.facility.bindCurrentThread(0);
  TraceControl& control = fx.facility.control(0);

  // A reservation whose buffer gets lapped before the commit arrives: the
  // stale-lap guard discards it and counts it.
  ASSERT_TRUE(fx.facility.log(Major::Test, 1, uint64_t{1}));
  Reservation dead;
  ASSERT_TRUE(control.reserve(4, dead));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(fx.facility.log(Major::Test, 1, uint64_t(i)));
  }
  control.commit(dead.index, 4);
  ASSERT_EQ(control.staleCommits(), 1u);

  // A batching sink with a parked writer and a 1-record queue: 3 enqueues
  // leave 1 queued and shed 2.
  MemorySink shedTarget;
  BatchingConfig bcfg;
  bcfg.batchRecords = 1;
  bcfg.maxQueuedRecords = 1;
  BatchingSink batcher(shedTarget, bcfg);
  batcher.stop();
  for (uint64_t s = 0; s < 3; ++s) {
    BufferRecord r;
    r.processor = 0;
    r.seq = s;
    r.words.assign(64, s);
    batcher.onBuffer(std::move(r));
  }
  ASSERT_EQ(batcher.recordsDropped(), 2u);

  MemorySink sink;
  Consumer consumer(fx.facility, sink, {});
  Monitor monitor(fx.facility, &consumer);
  monitor.watchSink(&batcher);
  monitor.beatNow();

  const MonitorSnapshot snap = monitor.snapshot();
  EXPECT_TRUE(snap.hasSink);
  EXPECT_EQ(snap.sink.recordsDropped, 2u);
  EXPECT_EQ(snap.totals().staleCommits, 1u);

  const auto events = drainAndDecode(fx.facility, consumer, sink);
  Heartbeat hb;
  bool found = false;
  for (const DecodedEvent& e : events) {
    if (parseHeartbeat(e, hb)) found = true;
  }
  ASSERT_TRUE(found);
  EXPECT_EQ(hb.sinkDropped, 2u);
  EXPECT_EQ(hb.sinkBackpressure, 0u);
  EXPECT_EQ(hb.staleCommits, 1u);
}

TEST(MonitorClass, MaskGatesHeartbeats) {
  FakeFacility fx(1, 256, 4);
  fx.facility.mask().disable(Major::Monitor);
  Monitor monitor(fx.facility);
  monitor.beatNow();
  EXPECT_EQ(monitor.heartbeatsEmitted(), 0u);
}

// Runs under TSan (label: concurrent): a logger thread, the heartbeat
// thread, and a snapshot reader race over the same counters; everything
// is relaxed atomics, so the only failure mode is a data-race report.
TEST(MonitorConcurrent, LoggingHeartbeatsAndSnapshotsRace) {
  FakeFacility fx(2, 256, 8);
  MemorySink sink;
  Consumer consumer(fx.facility, sink, {});
  Monitor::Config mcfg;
  mcfg.heartbeatInterval = std::chrono::microseconds(100);
  Monitor monitor(fx.facility, &consumer, mcfg);
  monitor.start();

  std::atomic<bool> stop{false};
  std::thread logger([&] {
    fx.facility.bindCurrentThread(0);
    uint64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      fx.facility.log(Major::Test, 1, i++);
    }
  });
  std::thread drainer([&] {
    while (!stop.load(std::memory_order_acquire)) consumer.drainNow();
  });
  uint64_t observed = 0;
  for (int i = 0; i < 200; ++i) {
    observed = monitor.snapshot().totals().eventsLogged;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_release);
  logger.join();
  drainer.join();
  monitor.stop();

  EXPECT_GT(monitor.heartbeatsEmitted(), 0u);
  EXPECT_LE(observed, monitor.snapshot().totals().eventsLogged);
}

TEST(ShmMonitor, MappedCountersTrackEvents) {
  FakeClock clock(1, 1);
  const uint32_t bufferWords = 64, numBuffers = 4;
  std::vector<uint64_t> block(
      ShmTraceControl::bytesFor(bufferWords, numBuffers) / 8 + 8);
  ShmTraceControl control = ShmTraceControl::create(
      block.data(),
      {.bufferWords = bufferWords, .numBuffers = numBuffers, .clock = clock.ref()});
  EXPECT_EQ(control.eventsLogged(), 0u);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(control.logEvent(Major::Test, 1, uint64_t(i)));  // 2 words
  }
  const uint64_t payload[3] = {1, 2, 3};
  ASSERT_TRUE(control.logEventData(Major::Test, 2, payload));  // 4 words
  EXPECT_EQ(control.eventsLogged(), 7u);
  EXPECT_EQ(control.wordsReservedCount(), 6u * 2 + 4u);

  // A second accessor over the same block sees the same counters.
  ShmTraceControl attached = ShmTraceControl::attach(block.data(), clock.ref());
  EXPECT_EQ(attached.eventsLogged(), 7u);
}

}  // namespace
}  // namespace ktrace
