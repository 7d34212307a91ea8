// Shared helpers for the test suite.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "core/ktrace.hpp"

namespace ktrace::testing {

/// The reference merge the merging cursors are checked against: repeatedly
/// takes the lane whose front event has the smallest (fullTimestamp,
/// processor), the lower lane on a tie. Not a sort of all events: a lane
/// whose timestamps step backwards keeps its own order.
inline std::vector<const DecodedEvent*> referenceMerge(
    const std::vector<std::span<const DecodedEvent>>& lanes) {
  std::vector<size_t> next(lanes.size(), 0);
  std::vector<const DecodedEvent*> out;
  for (;;) {
    const DecodedEvent* best = nullptr;
    size_t bestLane = 0;
    for (size_t l = 0; l < lanes.size(); ++l) {
      if (next[l] == lanes[l].size()) continue;
      const DecodedEvent& e = lanes[l][next[l]];
      if (best == nullptr || e.fullTimestamp < best->fullTimestamp ||
          (e.fullTimestamp == best->fullTimestamp && e.processor < best->processor)) {
        best = &e;
        bestLane = l;
      }
    }
    if (best == nullptr) return out;
    out.push_back(best);
    ++next[bestLane];
  }
}

/// referenceMerge over a TraceSet's per-processor events.
template <class Trace>
std::vector<const DecodedEvent*> referenceMerge(const Trace& trace) {
  std::vector<std::span<const DecodedEvent>> lanes;
  for (uint32_t p = 0; p < trace.numProcessors(); ++p) {
    lanes.emplace_back(trace.processorEvents(p));
  }
  return referenceMerge(lanes);
}

/// A facility driven by a FakeClock, one tick per reading.
struct FakeFacility {
  FakeClock clock;
  Facility facility;

  explicit FakeFacility(uint32_t numProcessors = 1, uint32_t bufferWords = 64,
                        uint32_t buffersPerProcessor = 4, bool commitCounts = true)
      : clock(1, 1), facility(makeConfig(clock, numProcessors, bufferWords,
                                         buffersPerProcessor, commitCounts)) {
    facility.mask().enableAll();
  }

 private:
  static FacilityConfig makeConfig(FakeClock& clock, uint32_t numProcessors,
                                   uint32_t bufferWords, uint32_t buffersPerProcessor,
                                   bool commitCounts) {
    FacilityConfig cfg;
    cfg.numProcessors = numProcessors;
    cfg.bufferWords = bufferWords;
    cfg.buffersPerProcessor = buffersPerProcessor;
    cfg.clockKind = ClockKind::Fake;
    cfg.clockOverride = clock.ref();
    cfg.commitCounts = commitCounts;
    cfg.mode = Mode::Stream;
    return cfg;
  }
};

/// Decode every record in a MemorySink into events, per processor in seq
/// order. Fillers and anchors are dropped unless requested. The events own
/// copies of their payloads: `records` is often a temporary.
inline std::vector<DecodedEvent> decodeRecords(const std::vector<BufferRecord>& records,
                                               const DecodeOptions& options = {},
                                               DecodeStats* statsOut = nullptr) {
  // Group by processor, sort by seq, decode with a running time base.
  std::vector<BufferRecord> sorted = records;
  std::stable_sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.processor != b.processor) return a.processor < b.processor;
    return a.seq < b.seq;
  });
  std::vector<DecodedEvent> events;
  DecodeStats stats;
  uint64_t tsBase = 0;
  uint32_t lastProcessor = ~0u;
  for (const BufferRecord& r : sorted) {
    if (r.processor != lastProcessor) {
      tsBase = 0;
      lastProcessor = r.processor;
    }
    stats.merge(decodeBuffer(r.words, r.seq, r.processor, tsBase, events, options));
  }
  for (DecodedEvent& e : events) e.data.assign(e.data.data(), e.data.size());
  if (statsOut != nullptr) *statsOut = stats;
  return events;
}

/// Loops the harvest over every complete buffer from `nextSeq` on, with no
/// straggler grace and no stop at incomplete buffers; returns the next seq.
inline uint64_t harvestAll(const ShmTraceControl& control, Sink& sink,
                           uint64_t nextSeq = 0) {
  while (control.harvestOne(nextSeq, sink, std::chrono::nanoseconds(0),
                            /*stopAtIncomplete=*/false)) {
  }
  return nextSeq;
}

/// Flush, drain, and decode everything the facility has logged so far.
inline std::vector<DecodedEvent> drainAndDecode(Facility& facility, Consumer& consumer,
                                                MemorySink& sink,
                                                const DecodeOptions& options = {},
                                                DecodeStats* statsOut = nullptr) {
  facility.flushAll();
  consumer.drainNow();
  return decodeRecords(sink.records(), options, statsOut);
}

}  // namespace ktrace::testing
