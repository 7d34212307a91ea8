// Tailing live trace output (DESIGN.md §13).
//
// StreamCursor extends MergeCursor's semantics to files that are still
// growing: the v3 writer rewrites its footer directory + EOF trailer in
// place on every flush, so at any flush boundary a growing file is a
// valid v3 file. poll() re-opens each file, decodes only the records past
// the saved per-file cursor (no re-decoding of what was already seen),
// each record once into a run, and feeds the runs into an OrderedMerger —
// the merge MergeCursor runs over a closed TraceSet — that releases them,
// as spans, in (fullTimestamp, processor) order once it is safe to do so.
// Between flushes — appended records but a stale footer — the strict open
// fails and the file is simply skipped until the next poll; nothing is
// ever decoded twice and nothing torn is ever decoded at all.
//
// The per-file cursor (record index + timestamp base) is exposed so a
// restarted reader resumes where it left off instead of re-decoding the
// prefix — the live analogue of the daemon's recovery manifest.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/decode.hpp"

namespace ktrace::analysis::streaming {

/// Resume point for one growing file (or rotation chain of files).
struct FileCursor {
  uint64_t recordsDecoded = 0;  // records already decoded in this segment
  uint64_t tsBase = 0;          // running 64-bit timestamp base at that point
  /// Fingerprint of the file the cursor was taken against (header
  /// metadata + first record), filled in by the first successful poll().
  /// 0 = unknown (a cursor saved by an older reader). resume() with a
  /// non-zero identity is validated on the next poll: a rewritten file no
  /// longer matches and poll() throws instead of silently replaying from
  /// a bogus offset.
  uint64_t identity = 0;
  /// Rotation-chain position: which segment of the configured path's
  /// chain (rotationSegmentPath) the cursor is in. recordsDecoded and
  /// identity are relative to this segment; tsBase carries across the
  /// whole chain (every segment re-anchors it exactly).
  uint32_t segment = 0;
};

/// K-way ordering buffer with a watermark, at run granularity: push
/// decoded runs per lane (one lane per processor / per file), take them
/// back out as spans in global (fullTimestamp, processor) order. It is the
/// one merge: MergeCursor runs it over a closed TraceSet, StreamCursor
/// over growing files, and the live tap over harvested buffers.
///
/// Each run comes from one processor. The merger never moves an event
/// after the push. nextSpan() picks the candidate lane — the one whose
/// front event sorts first — and a single bound over the other lanes:
/// each one's front event, or, before finish(), for a lane that has
/// produced data before but holds none now, its last tick (it may still
/// produce an event there). The span is the longest prefix of the
/// candidate's front run that sorts before that bound, so a lane that is
/// merely draining slower cannot cause misordering. Both come from a
/// winner tree over the lanes' positions, so a span costs O(log lanes)
/// however many processors a trace has.
///
/// Precondition for exact order before finish(): a lane's timestamps
/// never step backwards, within a run or across its successive runs,
/// since a lane that holds no data bounds the others at its last tick
/// (the live tap and StreamCursor release spans early). After finish(),
/// borrowed runs included, only lanes holding data bound a span and a
/// run may step backwards: the spans still join into exactly what
/// repeatedly taking the smallest (fullTimestamp, processor) front event
/// gives — lower lane first on a tie.
///
/// A lane's last tick is the largest timestamp pushed to it or punctuated
/// on it. The live tap merges only the events a Merged fold reads (the
/// lock events), so most of each harvested buffer never reaches the
/// merger: punctuate() advances the lane to the buffer's last timestamp
/// all the same. A lane whose buffers carry no merged events therefore
/// bounds the others at the tick it has provably reached — its own future
/// events sort at or after it, and a tie there ranks as for any empty
/// lane — instead of at a stale tick that would hold them back until
/// finish().
///
/// How much it holds is set by the harvest order: under backpressure
/// SessionWatchdog drains each processor's whole backlog in turn, so a
/// lane can hold up to a ring's worth of merged events while another
/// catches up. That order stays: interleaving processors in the harvest
/// saved memory here but halved the records per compressed block
/// (DESIGN.md §13).
///
/// A lane that produces its very first event late (behind what has been
/// released) is the one hazard this cannot defend against: live feeds are
/// best-effort ordered until finish(), and exactly ordered for any
/// finish()-terminated run whose lanes all appeared before their data was
/// due.
///
/// Span lifetime: a span (and a pointer from next()) into a pushed run
/// stays valid until the next push(), punctuate(), nextSpan() or next()
/// call, and so do the payload words its events view, which the run
/// keeps; one into a borrowed run, as long as the borrowed events. Pushed
/// runs stay where they are when lanes are added or the merger is moved;
/// a merger is not copyable.
class OrderedMerger {
 public:
  /// Lane index space is dense [0, lanes); grows on demand.
  explicit OrderedMerger(uint32_t lanes = 0);
  OrderedMerger(OrderedMerger&&) = default;
  OrderedMerger& operator=(OrderedMerger&&) = default;

  /// Appends one run to `lane` (an empty run is ignored). `words` holds
  /// what the run's events view, if anything — the record they were
  /// decoded from: the run keeps it, in place, until it is released.
  void push(uint32_t lane, std::vector<DecodedEvent>&& run,
            std::unique_ptr<const uint64_t[]> words = nullptr);
  /// Appends a run the merger reads in place and does not own: a closed
  /// trace's events, borrowed into a finished merger. Nothing is copied
  /// and no event is read until it is merged, so the run does not advance
  /// the lane's last tick, which bounds nothing after finish().
  void borrow(uint32_t lane, std::span<const DecodedEvent> run);
  /// `lane`, which carries `processor`'s events, has reached `tick`: any
  /// event it is still to push sorts at or after (tick, processor).
  void punctuate(uint32_t lane, uint32_t processor, uint64_t tick);
  void finish();

  /// The next span that is safe to release, or an empty span when none is
  /// yet (after finish(): empty means fully drained).
  std::span<const DecodedEvent> nextSpan();

  /// Next safely-ordered event, or nullptr when none can be released yet
  /// (after finish(): nullptr means fully drained): a pointer bump over
  /// the last span, refilled by nextSpan(). Events it has not returned yet
  /// go back to the merger on the next call into it, so next() may
  /// interleave freely with push() and nextSpan().
  const DecodedEvent* next() {
    if (cursor_ == cursorEnd_) [[unlikely]] return refill();
    return cursor_++;
  }

  /// Events pushed but not yet handed out.
  size_t buffered() const noexcept {
    return buffered_ + static_cast<size_t>(cursorEnd_ - cursor_);
  }
  bool drained() const noexcept { return buffered() == 0; }

 private:
  struct Run {
    std::vector<DecodedEvent> owned;  // empty for a borrowed run
    std::unique_ptr<const uint64_t[]> words;  // what the owned events view
    const DecodedEvent* next;         // first event not handed out
    const DecodedEvent* end;
  };
  struct Lane {
    // Runs point into their own storage, so a lane is moved (the deque
    // keeps its runs where they are), never copied.
    Lane() = default;
    Lane(Lane&&) = default;
    Lane& operator=(Lane&&) = default;

    std::deque<Run> runs;  // never holds a fully released run between calls
    uint64_t lastTick = 0;
    uint32_t processor = 0;
    bool seen = false;
  };
  /// A lane's merge position: (fullTimestamp, processor), then a rank
  /// that settles exact ties as an event-by-event merge would. A front
  /// event ranks lane + 1 (the lower lane goes first); an empty lane's
  /// last tick ranks 0 (a candidate tied with it must wait); a lane that
  /// bounds nothing is kNone, after every real position. One 128-bit
  /// integer — fullTimestamp << 64 | processor << 32 | rank — so the tree
  /// compares and selects without a branch.
  using Key = unsigned __int128;
  static constexpr Key kNone = ~Key{0};
  static Key keyOf(uint64_t tick, uint32_t processor, uint32_t rank) noexcept {
    return Key{tick} << 64 | (uint64_t{processor} << 32 | rank);
  }
  static Key keyOf(const DecodedEvent& e, uint32_t rank) noexcept {
    return keyOf(e.fullTimestamp, e.processor, rank);
  }

  Lane& lane(uint32_t index);
  Key laneKey(uint32_t index) const noexcept;
  void replay(uint32_t node, Key key) noexcept;
  void rebuild();
  void settle();
  const DecodedEvent* refill();

  std::vector<Lane> lanes_;
  // Winner tree over the lanes' keys: leaf i at tree_[width_ + i] (width_
  // a power of two, unused leaves kNone), each inner node the smaller of
  // its two children, so tree_[1] is the smallest key.
  std::vector<Key> tree_;
  uint32_t width_ = 1;
  // The lane of the last span; its front run is popped, once fully
  // released, at the start of the next call (the span points into it).
  uint32_t spentLane_ = UINT32_MAX;
  // next()'s position in the last span, which ends at the run's `next`.
  const DecodedEvent* cursor_ = nullptr;
  const DecodedEvent* cursorEnd_ = nullptr;
  size_t buffered_ = 0;  // pushed, not yet released
  bool finished_ = false;
};

/// Moves `decoded` into a run of exactly its size and clears it; the
/// caller's decode scratch keeps its capacity for the next buffer. Runs
/// held back by the merger thus cost what their events occupy. The
/// events keep viewing what they viewed.
std::vector<DecodedEvent> exactRun(std::vector<DecodedEvent>& decoded);

struct StreamCursorOptions {
  /// Decode knobs (keepFillers/keepAnchors honored; salvage is not — a
  /// growing file is read strictly via its footer, which is what makes
  /// incremental re-open safe. Run post-hoc salvage on closed files).
  DecodeOptions decode{};
  /// Follow FileSink rotation chains: when a configured path's writer
  /// rotates (close-and-open-next, DESIGN.md §15), poll() finishes the
  /// closed segment and hands off to its successor
  /// (rotationSegmentPath(path, segment+1)) in place — same merge lane,
  /// tsBase carried across the boundary — instead of going quiet on the
  /// closed file. The tail never restarts from zero.
  bool followRotations = true;
};

/// Tail a set of growing (or closed) v3 trace files as one merged stream.
/// Usage: poll() whenever the files may have grown, then drain next()
/// until it returns nullptr; finish() when the writer is done, after
/// which next() drains everything remaining. Over closed files,
/// poll()+finish() yields exactly what a MergeCursor over
/// TraceSet::fromFiles yields.
class StreamCursor {
 public:
  explicit StreamCursor(std::vector<std::string> paths,
                        StreamCursorOptions options = {});

  /// Restores per-file resume points (parallel to the constructor's
  /// paths). Call before the first poll().
  void resume(const std::vector<FileCursor>& cursors);

  /// Decodes newly flushed records from every file; returns how many
  /// events were ingested. Files that cannot be opened (absent, or
  /// mid-write with a stale footer) are skipped until the next poll.
  ///
  /// Throws std::runtime_error when a record inside a file's record count
  /// fails validation (the error strict TraceSet::fromFiles raises, file
  /// and record named), or when a resumed cursor does not belong to the
  /// file now at its path: the fingerprint saved in the cursor no longer
  /// matches (rotation / rewrite), or the file holds fewer records than
  /// the cursor claims to have decoded (truncation).
  size_t poll();

  /// Next event in merged order, or nullptr (need more polls / drained).
  const DecodedEvent* next();

  /// The writers are done: performs a final poll and unblocks the merge
  /// so next() drains every buffered event.
  void finish();

  bool done() const noexcept { return finished_ && merger_.drained(); }

  const std::vector<FileCursor>& cursors() const noexcept { return cursors_; }
  const DecodeStats& stats() const noexcept { return stats_; }
  /// From the first readable file's metadata; 0 until one opens.
  double ticksPerSecond() const noexcept { return ticksPerSecond_; }
  bool metadataKnown() const noexcept { return metadataKnown_; }

 private:
  bool segmentExists(const std::string& path) const;

  std::vector<std::string> paths_;
  std::vector<FileCursor> cursors_;
  StreamCursorOptions options_;
  OrderedMerger merger_;
  DecodeStats stats_{};
  std::vector<DecodedEvent> scratch_;
  double ticksPerSecond_ = 0.0;
  bool metadataKnown_ = false;
  bool finished_ = false;
};

}  // namespace ktrace::analysis::streaming
