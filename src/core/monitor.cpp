#include "core/monitor.hpp"

#include "core/logger.hpp"
#include "core/shm_session.hpp"

namespace ktrace {

ProcessorCounters readProcessorCounters(const ShmTraceControl& control) {
  ProcessorCounters pc;
  pc.processorId = control.processorId();
  uint64_t events = 0;
  for (uint32_t m = 0; m < kMaxMajors; ++m) {
    const uint64_t n = control.eventsLoggedFor(static_cast<Major>(m));
    pc.perMajor[m] = n;
    events += n;
  }
  pc.eventsLogged = events;
  pc.wordsReserved = control.wordsReservedCount();
  pc.reserveRetries = control.reserveRetries();
  pc.bufferWraps = control.currentBufferSeq();
  pc.slowPathEntries = control.slowPathEntries();
  pc.eventsDropped = control.rejectedEvents();
  pc.fillerWords = control.fillerWordsWritten();
  pc.exactFitCrossings = control.exactFitCrossings();
  pc.staleCommits = control.staleCommits();
  return pc;
}

ProcessorCounters MonitorSnapshot::totals() const {
  ProcessorCounters t;
  for (const ProcessorCounters& pc : processors) {
    t.eventsLogged += pc.eventsLogged;
    t.wordsReserved += pc.wordsReserved;
    t.reserveRetries += pc.reserveRetries;
    t.bufferWraps += pc.bufferWraps;
    t.slowPathEntries += pc.slowPathEntries;
    t.eventsDropped += pc.eventsDropped;
    t.fillerWords += pc.fillerWords;
    t.exactFitCrossings += pc.exactFitCrossings;
    t.staleCommits += pc.staleCommits;
    for (uint32_t m = 0; m < kMaxMajors; ++m) t.perMajor[m] += pc.perMajor[m];
  }
  return t;
}

bool logMonitorHeartbeat(ShmTraceControl& control, uint64_t heartbeatSeq,
                         const Consumer::Stats* consumer,
                         const SinkCounters* sink,
                         const RecoveryStats* recovery) noexcept {
  if (!control.selfMonitoringEnabled()) return false;
  // Counters first: the heartbeat's own event must not be included in the
  // payload it carries (the [h1, h2) interval identity).
  const ProcessorCounters pc = readProcessorCounters(control);
  const uint64_t payload[kHeartbeatPayloadWords] = {
      heartbeatSeq,
      control.currentBufferSeq(),
      pc.eventsLogged,
      pc.wordsReserved,
      pc.reserveRetries,
      pc.slowPathEntries,
      pc.eventsDropped,
      pc.fillerWords,
      consumer != nullptr ? consumer->buffersConsumed : 0,
      consumer != nullptr ? consumer->buffersLost : 0,
      consumer != nullptr ? consumer->commitMismatches : 0,
      sink != nullptr ? sink->recordsDropped : 0,
      sink != nullptr ? sink->backpressureWaits : 0,
      pc.staleCommits,
      recovery != nullptr ? recovery->reclaimedWords : 0,
      recovery != nullptr ? recovery->tornBuffers : 0,
      sink != nullptr ? sink->bytesWritten : 0,
      sink != nullptr ? sink->rawBytes : 0,
  };
  return logEventData(control, Major::Monitor,
                      static_cast<uint16_t>(MonitorMinor::Heartbeat), payload);
}

Monitor::Monitor(Facility& facility, Consumer* consumer)
    : Monitor(facility, consumer, Config()) {}

Monitor::Monitor(Facility& facility, Consumer* consumer, Config config)
    : facility_(facility), consumer_(consumer), config_(config) {}

Monitor::~Monitor() { stop(); }

void Monitor::start() {
  if (!config_.emitHeartbeats) return;
  std::lock_guard lifecycle(lifecycleMutex_);
  if (running_.load(std::memory_order_relaxed)) return;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
}

void Monitor::stop() {
  // Stop-once under the lifecycle mutex: concurrent stops must not both
  // reach join() (same race as Consumer::stop).
  std::lock_guard lifecycle(lifecycleMutex_);
  running_.store(false, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void Monitor::run() {
  while (running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(config_.heartbeatInterval);
    if (!running_.load(std::memory_order_acquire)) break;
    beatNow();
  }
}

void Monitor::beatNow() {
  if (!facility_.mask().isEnabled(Major::Monitor)) return;
  const uint64_t seq = heartbeatSeq_.fetch_add(1, std::memory_order_relaxed);
  Consumer::Stats stats;
  if (consumer_ != nullptr) stats = consumer_->stats();
  SinkCounters sinkCounters;
  if (sink_ != nullptr) sinkCounters = sink_->counters();
  RecoveryStats recovery;
  if (watchdog_ != nullptr) recovery = watchdog_->stats();
  for (uint32_t p = 0; p < facility_.numProcessors(); ++p) {
    logMonitorHeartbeat(facility_.control(p), seq,
                        consumer_ != nullptr ? &stats : nullptr,
                        sink_ != nullptr ? &sinkCounters : nullptr,
                        watchdog_ != nullptr ? &recovery : nullptr);
  }
}

MonitorSnapshot Monitor::snapshot() const {
  MonitorSnapshot snap;
  snap.processors.reserve(facility_.numProcessors());
  for (uint32_t p = 0; p < facility_.numProcessors(); ++p) {
    snap.processors.push_back(readProcessorCounters(facility_.control(p)));
  }
  if (consumer_ != nullptr) {
    snap.consumer = consumer_->stats();
    snap.hasConsumer = true;
  }
  if (sink_ != nullptr) {
    snap.sink = sink_->counters();
    snap.hasSink = true;
  }
  if (watchdog_ != nullptr) {
    snap.recovery = watchdog_->stats();
    snap.hasRecovery = true;
  }
  return snap;
}

}  // namespace ktrace
