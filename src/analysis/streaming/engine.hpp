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
//   onOrdered(e)  the ORDERED plane: events in merged (timestamp,
//                 processor) order — from a StreamCursor/OrderedMerger —
//                 feeding the attached Folds (lock contention needs exact
//                 merge order).
//
// Both planes also take whole runs, which is how the live tap feeds them:
// observeRun() a decoded buffer as it arrives (one processor, timestamps
// never decreasing), onOrdered(span) each span the merger releases —
// the longest prefix of one lane's front run that sorts before every
// other lane's next possible event. Neither keeps a reference past the
// call: a released span is valid only until the merger's next push or
// call. The run entry counts a window's events by segment, sets the
// processor's last tick and advances the watermark once per run, and
// parses heartbeats only from Major::Monitor events; the engine ends up
// exactly as the same events fed to observe() one by one would leave it.
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
/// offline replay can never disagree on it.
inline uint64_t windowTicksForMs(double windowMs, double ticksPerSecond) {
  const double ticks = windowMs * ticksPerSecond / 1000.0;
  return ticks < 1.0 ? 1 : static_cast<uint64_t>(ticks);
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

  /// Order-insensitive plane: every decoded event, any arrival order.
  void observe(const DecodedEvent& event);

  /// Order-insensitive plane, a run at a time: the same state as
  /// observe() on each event in turn (a span that switches processor is
  /// taken one same-processor stretch at a time).
  void observeRun(std::span<const DecodedEvent> run);

  /// Ordered plane: merged-order feed for the folds.
  void onOrdered(const DecodedEvent& event);

  /// Ordered plane, a released span at a time (one call per fold).
  void onOrdered(std::span<const DecodedEvent> events);

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

  Processor& processorFor(uint32_t id);
  void observeSlice(std::span<const DecodedEvent> events);
  Window* windowFor(uint64_t index, uint64_t watermark);
  void countInto(Window* w, uint32_t processor, uint64_t events);
  void completeWindows(uint64_t watermark);
  void pruneHeartbeats();
  MonitorVars varsForWindow(const Window& w, uint64_t cumEvents) const;

  StreamEngineConfig config_;
  std::vector<DerivedMonitor> monitors_;
  std::vector<std::unique_ptr<Fold>> folds_;

  std::map<uint64_t, Window> windows_;
  Window* hotWindow_ = nullptr;  // last window counted into; map nodes are
                                 // stable, so valid until it ages out
  std::vector<Processor> processors_;  // ascending id
  size_t hotProcessor_ = 0;            // index of the last one looked up
  bool keepHeartbeats_ = false;        // windows and monitors are on

  uint64_t watermark_ = 0;
  uint64_t eventsObserved_ = 0;
  uint64_t windowsCompleted_ = 0;
  uint64_t completedBelow_ = 0;  // windows with index < this are complete
  uint64_t prunedBelow_ = 0;     // aged-out indices; late events counted, not resurrected
  uint64_t lateEvents_ = 0;
  bool finished_ = false;
};

}  // namespace ktrace::analysis::streaming
