// Trace-the-tracer: self-monitoring of the tracing infrastructure itself
// (DESIGN.md §8).
//
// The paper's claim is that tracing is cheap and lossless enough to leave
// on in production; this layer makes the running system able to *show*
// that. Three pieces:
//
//   1. MonitorSnapshot / Monitor::snapshot(): a lock-free aggregation of
//      every per-processor control-block counter (events per major class,
//      words reserved, CAS retries, buffer wraps, drops) plus the
//      consumer's lock-free Stats — live observability with zero effect on
//      the logging fast path.
//   2. TRACE_MONITOR heartbeats: logMonitorHeartbeat() embeds a counter
//      snapshot and the processor's current buffer sequence number into
//      the trace stream itself, so a decoded trace carries evidence of its
//      own completeness (analysis::CompletenessReport replays them).
//   3. Monitor: a background thread emitting heartbeats at a fixed cadence
//      and serving snapshots; ossim::Machine emits the same heartbeats on
//      virtual time.
//
// The heartbeat reads its counters BEFORE logging its own event, so for
// two consecutive heartbeats h1, h2 on one processor the counter delta
// h2.eventsLogged - h1.eventsLogged equals the number of logger events in
// stream positions [h1, h2) — the identity the completeness verifier uses
// to bound lost events exactly.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/consumer.hpp"
#include "core/decode.hpp"
#include "core/facility.hpp"

namespace ktrace {

class SessionWatchdog;  // core/shm_session.hpp

/// What crash recovery has done so far: the SessionWatchdog's counters
/// (DESIGN.md §10), aggregated here so live snapshots and in-stream
/// heartbeats carry recovery evidence the same way they carry consumer
/// losses. All-zero outside a crash scenario.
struct RecoveryStats {
  uint64_t tornBuffers = 0;       // buffers flagged by the §3.1 commit-count
                                  // anomaly while reclaiming
  uint64_t reclaimedWords = 0;    // filler words stamped over dead producers'
                                  // unwritten tails
  uint64_t abandonedBuffers = 0;  // buffers lost to lapping before recovery
  uint64_t buffersRecovered = 0;  // buffers drained to the sink by the watchdog
  uint64_t deadProducers = 0;     // leases whose pid no longer exists
  uint64_t fencedProducers = 0;   // live-but-expired leases fenced by epoch bump

  bool any() const noexcept {
    return tornBuffers != 0 || reclaimedWords != 0 || abandonedBuffers != 0 ||
           buffersRecovered != 0 || deadProducers != 0 || fencedProducers != 0;
  }
};

/// Plain snapshot of one processor's self-monitoring counters.
struct ProcessorCounters {
  uint32_t processorId = 0;
  uint64_t eventsLogged = 0;    // sum of perMajor (logger entry points)
  uint64_t wordsReserved = 0;   // words reserved by logger events (hdr incl.)
  uint64_t reserveRetries = 0;  // lost CAS attempts in traceReserve
  uint64_t bufferWraps = 0;     // buffer-boundary crossings (= buffer seq)
  uint64_t slowPathEntries = 0; // traceReserveSlow entries (incl. races)
  uint64_t eventsDropped = 0;   // reservations rejected (zero/oversized)
  uint64_t fillerWords = 0;     // words burned padding buffer tails
  uint64_t exactFitCrossings = 0;
  uint64_t staleCommits = 0;    // commits dropped by the stale-lap guard
  std::array<uint64_t, kMaxMajors> perMajor{};  // events per major class

  uint64_t bytesReserved() const noexcept { return wordsReserved * 8; }
};

/// One read of the whole facility's health: per-processor counters plus
/// the consumer's loss/anomaly totals. All fields are plain values; the
/// snapshot is internally consistent only as far as relaxed reads of live
/// counters can be (each counter is exact, cross-counter skew is bounded
/// by in-flight events).
struct MonitorSnapshot {
  std::vector<ProcessorCounters> processors;
  Consumer::Stats consumer{};   // zeros when no consumer is attached
  bool hasConsumer = false;
  SinkCounters sink{};          // zeros when no sink is watched
  bool hasSink = false;
  RecoveryStats recovery{};     // zeros when no watchdog is watched
  bool hasRecovery = false;

  /// Sums over all processors (perMajor included).
  ProcessorCounters totals() const;
};

/// Lock-free read of one control's counters (relaxed loads only). Works on
/// any control block — an in-process TraceControl or a shm producer's
/// accessor alike.
ProcessorCounters readProcessorCounters(const ShmTraceControl& control);

// --- TRACE_MONITOR heartbeat event ------------------------------------
//
// Payload layout (14 data words after the header):
//   w0  heartbeatSeq       emitter's heartbeat sequence number
//   w1  bufferSeq          processor's current buffer sequence at emit
//   w2  eventsLogged       cumulative logger events on this processor
//   w3  wordsReserved      cumulative words reserved by those events
//   w4  reserveRetries     cumulative lost CAS attempts
//   w5  slowPathEntries    cumulative slow-path (buffer-crossing) entries
//   w6  eventsDropped      cumulative rejected reservations
//   w7  fillerWords        cumulative filler padding words
//   w8  consumerBuffers    buffers consumed (0 when no consumer known)
//   w9  consumerLost       buffers lost to lapping (ditto)
//   w10 consumerMismatches partially-written buffers seen (ditto)
//   w11 sinkDropped        records the sink shed (0 when no sink known)
//   w12 sinkBackpressure   sink enqueues that blocked on a full queue (ditto)
//   w13 staleCommits       commits dropped by the stale-lap guard
//   w14 reclaimedWords     filler words stamped by crash recovery (0 when no
//                          watchdog known)
//   w15 tornBuffers        buffers the watchdog flagged torn (ditto)
//   w16 sinkBytesWritten   durable bytes the sink wrote (0 when no sink known)
//   w17 sinkRawBytes       pre-compression bytes of the same records (ditto;
//                          == w16 when the sink does not compress)
// Older traces carry 11 words (pre-sink), 14 (pre-recovery), or 16
// (pre-compression); parseHeartbeat accepts all of them and zero-fills
// the missing fields.
inline constexpr uint32_t kHeartbeatPayloadWordsV1 = 11;
inline constexpr uint32_t kHeartbeatPayloadWordsV2 = 14;
inline constexpr uint32_t kHeartbeatPayloadWordsV3 = 16;
inline constexpr uint32_t kHeartbeatPayloadWords = 18;

struct Heartbeat {
  uint64_t heartbeatSeq = 0;
  uint64_t bufferSeq = 0;
  uint64_t eventsLogged = 0;
  uint64_t wordsReserved = 0;
  uint64_t reserveRetries = 0;
  uint64_t slowPathEntries = 0;
  uint64_t eventsDropped = 0;
  uint64_t fillerWords = 0;
  uint64_t consumerBuffers = 0;
  uint64_t consumerLost = 0;
  uint64_t consumerMismatches = 0;
  uint64_t sinkDropped = 0;
  uint64_t sinkBackpressure = 0;
  uint64_t staleCommits = 0;
  uint64_t reclaimedWords = 0;
  uint64_t tornBuffers = 0;
  uint64_t sinkBytesWritten = 0;
  uint64_t sinkRawBytes = 0;
};

/// True (and fills `out`) when an event of class (major, minor) with
/// payload words `payload` is a well-formed heartbeat. Takes the payload
/// as a span so an event read in place from its buffer parses without a
/// copy. Defined here whole, so a caller's `Heartbeat hb; if
/// (!parseHeartbeat(e, hb)) continue;` compiles to the class compare: the
/// zeroing of `hb` is dead on the reject path only where the compiler sees
/// both.
inline bool parseHeartbeat(Major major, uint16_t minor,
                           std::span<const uint64_t> payload,
                           Heartbeat& out) noexcept {
  // Accept the 11-word layout written before the sink/stale words existed,
  // the 14-word one written before the recovery words, and the 16-word one
  // written before the compression accounting (the missing fields stay
  // zero), as well as the current 18-word layout.
  if (major != Major::Monitor ||
      minor != static_cast<uint16_t>(MonitorMinor::Heartbeat) ||
      payload.size() < kHeartbeatPayloadWordsV1) {
    return false;
  }
  out = Heartbeat{};
  out.heartbeatSeq = payload[0];
  out.bufferSeq = payload[1];
  out.eventsLogged = payload[2];
  out.wordsReserved = payload[3];
  out.reserveRetries = payload[4];
  out.slowPathEntries = payload[5];
  out.eventsDropped = payload[6];
  out.fillerWords = payload[7];
  out.consumerBuffers = payload[8];
  out.consumerLost = payload[9];
  out.consumerMismatches = payload[10];
  if (payload.size() >= kHeartbeatPayloadWordsV2) {
    out.sinkDropped = payload[11];
    out.sinkBackpressure = payload[12];
    out.staleCommits = payload[13];
  }
  if (payload.size() >= kHeartbeatPayloadWordsV3) {
    out.reclaimedWords = payload[14];
    out.tornBuffers = payload[15];
  }
  if (payload.size() >= kHeartbeatPayloadWords) {
    out.sinkBytesWritten = payload[16];
    out.sinkRawBytes = payload[17];
  }
  return true;
}

/// The same, for a decoded event.
inline bool parseHeartbeat(const DecodedEvent& event, Heartbeat& out) noexcept {
  return parseHeartbeat(event.header.major, event.header.minor,
                        std::span<const uint64_t>(event.data.data(), event.data.size()),
                        out);
}

/// Reads `control`'s counters, then logs one TRACE_MONITOR heartbeat event
/// on it (counters first, so the heartbeat's own event is *not* included
/// in its eventsLogged — see the interval identity above). `consumer`,
/// `sink`, and `recovery` may be null (the corresponding words log as
/// zero). Returns false if the reservation failed or self-monitoring is
/// disabled on the control.
bool logMonitorHeartbeat(ShmTraceControl& control, uint64_t heartbeatSeq,
                         const Consumer::Stats* consumer,
                         const SinkCounters* sink = nullptr,
                         const RecoveryStats* recovery = nullptr) noexcept;

/// Background self-monitoring: periodic heartbeats on every processor and
/// lock-free snapshots on demand. Works in both facility modes; in Stream
/// mode pass the Consumer so heartbeats carry loss totals.
class Monitor {
 public:
  struct Config {
    std::chrono::microseconds heartbeatInterval{100'000};  // 10 Hz
    bool emitHeartbeats = true;  // false: snapshot service only
  };

  explicit Monitor(Facility& facility, Consumer* consumer = nullptr);
  Monitor(Facility& facility, Consumer* consumer, Config config);
  ~Monitor();

  /// Watch a sink's accounting too: heartbeats carry its drop/backpressure
  /// words and snapshots report it. Call before start(); the sink must
  /// outlive the monitor.
  void watchSink(const Sink* sink) noexcept { sink_ = sink; }

  /// Watch a crash-recovery watchdog: heartbeats carry its reclaimed-word
  /// and torn-buffer totals and snapshots report its RecoveryStats. Call
  /// before start(); the watchdog must outlive the monitor.
  void watchRecovery(const SessionWatchdog* watchdog) noexcept {
    watchdog_ = watchdog;
  }

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Start / stop the heartbeat thread (no-ops when emitHeartbeats=false).
  void start();
  void stop();

  /// Emit one heartbeat on every processor right now (any thread; also
  /// used by tests for deterministic cadence).
  void beatNow();

  /// Lock-free facility-wide counter snapshot.
  MonitorSnapshot snapshot() const;

  uint64_t heartbeatsEmitted() const noexcept {
    return heartbeatSeq_.load(std::memory_order_relaxed);
  }

 private:
  void run();

  Facility& facility_;
  Consumer* consumer_;
  const Sink* sink_ = nullptr;
  const SessionWatchdog* watchdog_ = nullptr;
  Config config_;
  std::atomic<uint64_t> heartbeatSeq_{0};
  std::thread thread_;
  /// Guards start/stop transitions (same stop-once pattern as Consumer).
  std::mutex lifecycleMutex_;
  std::atomic<bool> running_{false};
};

}  // namespace ktrace
