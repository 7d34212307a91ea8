// The streaming analysis engine (DESIGN.md §13): tumbling virtual-time
// windows, watermark-driven completion, derived monitors, and NDJSON
// snapshot publication — the piece that turns the flight recorder into a
// live monitor.
//
// Two planes, deliberately separate:
//
//   observe(e)    the ORDER-INSENSITIVE plane. Every decoded event, in
//                 whatever order it arrives (live pipelines hand buffers
//                 over as the watchdog drains them, not in global time
//                 order). Window aggregates are pure per-window sums and
//                 per-processor heartbeat captures, so the numbers a
//                 window settles on are a function of the event *set*,
//                 never the arrival order — which is what makes a live
//                 snapshot of a completed window byte-identical to an
//                 offline replay of the same files.
//   onOrdered(e)  the fold plane, fed in merged (timestamp, processor)
//                 order — from a StreamCursor/OrderedMerger or a
//                 MergeCursor — which satisfies every fold.
//
// The live tap feeds both planes a run at a time. It decodes each
// harvested buffer to views of the buffer's words and feeds that span to
// onRun(): the window plane and every fold whose declared order is
// PerProcessor (fold.hpp). Only the events a Merged fold reads go through
// the tap's merger, and each span it releases goes to those folds alone
// (onMerged). Nothing keeps a reference past the call. onRun counts a
// window's events by segment, sets the processor's last tick and advances
// the watermark once per run, and parses heartbeats only from
// Major::Monitor events; the engine ends up exactly as the same events
// fed to observe() one by one would leave it.
//
// A window completes when the watermark — the minimum last-seen timestamp
// across every processor that has produced events — passes its end; the
// derived-monitor inputs for that window (each processor's newest
// heartbeat at or before the window end) are then guaranteed ingested,
// because per-processor streams are timestamp-ordered. Monitor values are
// evaluated lazily at snapshot time from the same captured state, so a
// straggler processor joining late corrects, rather than corrupts, the
// published numbers.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/streaming/fold.hpp"
#include "analysis/streaming/monitors.hpp"
#include "core/monitor.hpp"

namespace ktrace::analysis::streaming {

/// The one place window geometry is computed, so the daemon and the
/// offline replay can never disagree on it. Clamped to at least one tick
/// and at most 2^62, so the conversion from double never overflows.
inline uint64_t windowTicksForMs(double windowMs, double ticksPerSecond) {
  // For every tick below 2^63 (292 years of a 1 GHz clock), the end of
  // its window and of the next, up to (index + 2) * windowTicks, stay
  // below 2^64.
  constexpr uint64_t kMaxTicks = uint64_t{1} << 62;
  const double ticks = windowMs * ticksPerSecond / 1000.0;
  if (!(ticks >= 1.0)) return 1;  // NaN too
  if (ticks >= static_cast<double>(kMaxTicks)) return kMaxTicks;
  return static_cast<uint64_t>(ticks);
}

struct StreamEngineConfig {
  uint64_t windowTicks = 0;     // 0: windowing disabled (folds only)
  double ticksPerSecond = 0.0;  // for seconds-valued variables and display
  size_t maxWindows = 512;      // retained window ring; older ones age out
};

class StreamEngine {
 public:
  explicit StreamEngine(StreamEngineConfig config,
                        std::vector<DerivedMonitor> monitors = {});

  void addFold(std::unique_ptr<Fold> fold);

  /// Order-insensitive plane: every decoded event, any arrival order. An
  /// event of the processor and window the last one touched costs O(1).
  void observe(const DecodedEvent& event);

  /// Fold plane: merged-order feed for every fold. Only the folds whose
  /// declared majors include the event's see it.
  void onOrdered(const DecodedEvent& event) {
    for (Fold* fold : foldsByMajor_[static_cast<uint32_t>(event.header.major)]) {
      fold->onEvent(event);
    }
  }

  /// The live tap's entry for one harvested buffer's events (one
  /// processor, in logged order): the window plane — the same state as
  /// observe() on each of them in turn — and every PerProcessor fold.
  void onRun(std::span<const DecodedEvent> run);

  /// The live tap's entry for a span of its merger: the Merged folds only
  /// (the PerProcessor ones had these events from onRun).
  void onMerged(std::span<const DecodedEvent> events);

  /// The majors the Merged folds read: all that the live tap merges.
  uint64_t mergedMajors() const noexcept { return mergedMajors_; }

  /// End of stream: every window with data completes (there is no more
  /// data to wait for) and the folds finalize.
  void finish();

  uint64_t eventsObserved() const noexcept { return eventsObserved_; }
  uint64_t windowsCompleted() const noexcept { return windowsCompleted_; }
  uint64_t watermark() const noexcept { return watermark_; }

  /// Heartbeats held for monitor evaluation, over all processors. Bounded
  /// by the retained windows: per processor, the newest heartbeat at or
  /// before the oldest retained window's start, and everything after it.
  size_t heartbeatsRetained() const noexcept;

  /// NDJSON snapshot: one "top" line, one "window" line per retained
  /// *completed* window (ascending index), one "monitor" summary line per
  /// derived monitor. Every line carries the tenant name. Window lines
  /// are a pure function of the ingested event set, so the final live
  /// snapshot and an offline replay of the same files print them
  /// byte-identically.
  std::string snapshotJson(const std::string& tenant) const;

  const std::vector<std::unique_ptr<Fold>>& folds() const noexcept {
    return folds_;
  }

 private:
  struct Window {
    uint64_t index = 0;
    uint64_t events = 0;
    std::vector<std::pair<uint32_t, uint64_t>> perProcessor;  // ascending cpu
    bool complete = false;
  };
  struct HeartbeatAt {
    uint64_t tick = 0;
    Heartbeat hb{};
  };
  struct Processor {
    uint32_t id = 0;
    uint64_t lastTick = 0;
    // Timestamp-ordered (per-processor streams are timestamp-ordered by
    // construction); kept only while windows and monitors are on, and
    // dropped from the front as windows age out.
    std::deque<HeartbeatAt> heartbeats;
  };

  /// Makes processor `id` the hot one (added if new), with the other
  /// processors' minimum last tick.
  void selectProcessor(uint32_t id);
  /// The window plane over one processor's events.
  void observeRun(std::span<const DecodedEvent> events);
  void noteHeartbeat(Processor& proc, const DecodedEvent& event);
  /// Makes window `index` the hot window (nullptr when it has aged out).
  void selectWindow(uint64_t index, uint64_t watermark);
  /// Counts `events` of `processor` into the hot window.
  void countInto(uint32_t processor, uint64_t events);
  /// countInto's slow path: finds or adds the processor's count slot.
  void countIntoSlot(uint32_t processor, uint64_t events);
  void completeWindows(uint64_t watermark);
  void pruneHeartbeats();
  MonitorVars varsForWindow(const Window& w, uint64_t cumEvents) const;

  StreamEngineConfig config_;
  std::vector<DerivedMonitor> monitors_;
  std::vector<std::unique_ptr<Fold>> folds_;
  std::vector<Fold*> mergedFolds_;        // declared order Merged
  std::vector<Fold*> perProcessorFolds_;  // declared order PerProcessor
  uint64_t mergedMajors_ = 0;
  // [major]: the folds whose declared majors include it, in addFold order.
  std::array<std::vector<Fold*>, kMaxMajors> foldsByMajor_;

  std::map<uint64_t, Window> windows_;
  std::vector<Processor> processors_;  // ascending id
  size_t hotProcessor_ = 0;            // index of the last one observed
  bool keepHeartbeats_ = false;        // windows and monitors are on

  // What the last event touched, so the next one of the same processor
  // and window costs O(1). The hot window (map nodes are stable, so valid
  // until it ages out; nullptr for an aged-out index) covers the ticks
  // [hotStart_, hotEnd_) — an empty range until the first event.
  Window* hotWindow_ = nullptr;
  uint64_t hotStart_ = 1;
  uint64_t hotEnd_ = 0;
  uint64_t* hotCount_ = nullptr;  // hot window's count of hotCountCpu_
  uint32_t hotCountCpu_ = 0;
  // The minimum last tick over every processor but the hot one: only the
  // hot processor's events move last ticks, so it holds until another
  // processor's events arrive.
  uint64_t othersLastTick_ = 0;

  uint64_t watermark_ = 0;
  uint64_t eventsObserved_ = 0;
  uint64_t windowsCompleted_ = 0;
  uint64_t completedBelow_ = 0;  // windows with index < this are complete
  uint64_t prunedBelow_ = 0;     // aged-out indices; late events counted, not resurrected
  uint64_t lateEvents_ = 0;
  bool finished_ = false;
};

}  // namespace ktrace::analysis::streaming
