// Streaming analysis folds (DESIGN.md §13).
//
// The paper's claim is *unified* monitoring: one event stream serving both
// post-hoc analysis and live observation. A Fold is the seam that makes
// that literal — an incremental analysis consuming events one at a time,
// never caring whether the stream ends. The post-hoc tools become "run the
// fold to EOF over a closed trace"; the live path runs the very same fold
// over a tenant's pipeline while it is still logging. Results are
// identical by construction.
//
// Each fold declares what it reads (FoldProperties): the major classes it
// looks at and the order it needs. A merged (timestamp, processor) feed
// of every event satisfies every fold, which is what offline replay
// gives. The live tap gives each fold only what it declares: a
// PerProcessor fold gets each harvested buffer whole, decoded to views of
// its words, and a Merged fold gets only its majors, in merged order,
// span by released span. Either way a fold reads the same DecodedEvents,
// as spans (onEvents) or one at a time (onEvent), through one
// implementation.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/decode.hpp"

namespace ktrace::analysis::streaming {

/// The order a fold needs its events in.
enum class FoldOrder : uint8_t {
  /// Global (fullTimestamp, processor) order — the order MergeCursor
  /// yields for a closed trace.
  Merged,
  /// Each processor's events in the order they were logged; processors
  /// may interleave in any way (a merged feed is one such way).
  PerProcessor,
};

constexpr uint64_t majorBit(Major m) noexcept {
  return uint64_t{1} << static_cast<uint32_t>(m);
}

/// Whether the major-class mask `majors` has `m`.
constexpr bool hasMajor(uint64_t majors, Major m) noexcept {
  return (majors & majorBit(m)) != 0;
}

/// What a fold reads: events of the major classes in `majors` — it
/// ignores every other event, so leaving those out of its feed changes
/// nothing — in `order`.
struct FoldProperties {
  uint64_t majors = ~uint64_t{0};  // bit m set: reads Major m
  FoldOrder order = FoldOrder::Merged;
};

class Fold {
 public:
  virtual ~Fold() = default;

  /// Stable identifier ("locks", "rates", "profile", "completeness").
  virtual const char* name() const noexcept = 0;

  virtual FoldProperties properties() const noexcept = 0;

  /// One event, in an order the fold's properties allow.
  virtual void onEvent(const DecodedEvent& event) = 0;

  /// Consecutive events of that same order, as onEvent would see them one
  /// by one: a span the merger released, or one harvested buffer.
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
  virtual void foldSpan(std::span<const DecodedEvent> events) = 0;
};

/// Base of the shipped folds: `Derived::fold(const DecodedEvent&)` is the
/// fold's one implementation, and both entry points call it directly —
/// one virtual dispatch per span, not per event — for the events of the
/// majors the fold reads, skipping the rest on their major alone.
/// The members are defined, and instantiated for each shipped fold, in
/// folds.cpp, next to the folds they inline.
template <class Derived>
class FoldOf : public Fold {
 public:
  void onEvent(const DecodedEvent& e) final;

 protected:
  void foldSpan(std::span<const DecodedEvent> events) final;
};

}  // namespace ktrace::analysis::streaming
