// Streaming analysis folds (DESIGN.md §13).
//
// The paper's claim is *unified* monitoring: one event stream serving both
// post-hoc analysis and live observation. A Fold is the seam that makes
// that literal — an incremental analysis consuming events one at a time in
// merged (timestamp, processor) order, never caring whether the stream
// ends. The post-hoc tools become "run the fold to EOF over a closed
// trace"; the live path runs the very same fold over a tenant's pipeline
// while it is still logging. Results are identical by construction.
//
// The live tap hands events over in spans (a released prefix of one
// decoded buffer, DESIGN.md §13), so the batch entry onEvents() is what
// the engine calls: one virtual dispatch per span, not per event. Folds
// override foldSpan() with a loop over their own onEvent, which a final
// class calls directly; the default forwards event by event.
#pragma once

#include <span>
#include <string>

#include "core/decode.hpp"

namespace ktrace::analysis::streaming {

class Fold {
 public:
  virtual ~Fold() = default;

  /// Stable identifier ("locks", "rates", "profile", "completeness").
  virtual const char* name() const noexcept = 0;

  /// One event in merged (fullTimestamp, processor) order — the exact
  /// order MergeCursor yields for a closed trace.
  virtual void onEvent(const DecodedEvent& event) = 0;

  /// Consecutive events of that same order, as onEvent would see them one
  /// by one.
  void onEvents(std::span<const DecodedEvent> events) { foldSpan(events); }

  /// End of stream: the replay reached EOF or the live session drained.
  /// Folds finalize end-of-stream accounting here (e.g. unmatched
  /// contention). Called at most once.
  virtual void finish() {}

  /// One-line JSON object (no newline) summarizing current state; embedded
  /// in the "top" snapshot line. Values may be arrival-order dependent
  /// before finish(), so snapshots never diff these across live/replay.
  virtual std::string summaryJson() const = 0;

 protected:
  virtual void foldSpan(std::span<const DecodedEvent> events) {
    for (const DecodedEvent& e : events) onEvent(e);
  }
};

}  // namespace ktrace::analysis::streaming
