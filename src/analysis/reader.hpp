// TraceSet: a fully decoded trace, grouped per processor and mergeable
// into one time-ordered stream (paper §2 goal 3: unified buffer with
// monotonically increasing timestamps per processor; tools merge across
// processors by timestamp).
//
// Ingestion is parallel and zero-copy: fromFiles decodes one file per
// thread-pool task (per-processor event vectors are disjoint, so the
// result is identical to serial decode regardless of thread count) and
// serves record payloads straight from an mmap of each file. A decoded
// event is a 48-byte view: its payload points into the words the
// TraceSet keeps (DESIGN.md §7, §12). Tools stream the cross-processor
// merge through a MergeCursor, which reads the per-processor events in
// place.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/streaming/stream_cursor.hpp"
#include "core/decode.hpp"
#include "core/sink.hpp"

namespace ktrace::analysis {

class TraceSet {
 public:
  TraceSet() = default;
  /// Event storage is recycled through a process-wide arena: the
  /// destructor returns large per-processor vectors so the next decode
  /// reuses their (already faulted-in) pages instead of paying
  /// first-touch cost on hundreds of MB again. Purely an optimization —
  /// observable behavior is unchanged.
  ~TraceSet();
  /// A copy's events own copies of their payloads, so it does not share
  /// this set's words. A move keeps every event, and every view, where it
  /// is.
  TraceSet(const TraceSet& o)
      : perProcessor_(o.perProcessor_), stats_(o.stats_),
        ticksPerSecond_(o.ticksPerSecond_) {}
  TraceSet(TraceSet&&) noexcept = default;
  TraceSet& operator=(const TraceSet& o) {
    if (this != &o) *this = TraceSet(o);
    return *this;
  }
  TraceSet& operator=(TraceSet&&) noexcept = default;

  /// Decode completed buffers (e.g. a MemorySink's records). Records are
  /// grouped by processor and decoded in seq order. Their words are
  /// copied: the events view the set's copy, not `records`.
  static TraceSet fromRecords(const std::vector<BufferRecord>& records,
                              const DecodeOptions& options = {});

  /// Decode per-processor trace files written by FileSink. Files are
  /// decoded concurrently (options.threads) and the result is
  /// bit-identical to a serial decode: per-file results are merged in
  /// path order, and clock metadata is taken from the first readable
  /// file (files that disagree are counted in
  /// stats().metadataMismatchFiles).
  ///
  /// The events view the files' words in place: the set keeps a raw
  /// file's mapping for as long as its events point into it (truncating
  /// the file meanwhile makes reading the lost pages fault, as it would
  /// mid-decode), and keeps in its own storage the words it decompressed
  /// from LZ blocks or read through stdio (--no-mmap, options.fs).
  static TraceSet fromFiles(const std::vector<std::string>& paths,
                            const DecodeOptions& options = {});

  uint32_t numProcessors() const noexcept {
    return static_cast<uint32_t>(perProcessor_.size());
  }
  const std::vector<DecodedEvent>& processorEvents(uint32_t p) const {
    return perProcessor_[p];
  }
  const DecodeStats& stats() const noexcept { return stats_; }
  double ticksPerSecond() const noexcept { return ticksPerSecond_; }

  size_t totalEvents() const noexcept;

  /// Earliest / latest event timestamps across all processors (0 if empty).
  uint64_t firstTimestamp() const noexcept;
  uint64_t lastTimestamp() const noexcept;

 private:
  // What the events' payloads view: file mappings and word arenas.
  // Declared first so it outlives the events.
  std::vector<std::shared_ptr<const void>> storage_;
  std::vector<std::vector<DecodedEvent>> perProcessor_;
  DecodeStats stats_;
  double ticksPerSecond_ = 1e9;
};

/// A TraceSet's events in full-timestamp order (stable for equal stamps:
/// lower processor first), from an OrderedMerger that borrows each
/// processor's events as one finished run. Nothing is copied; every span
/// and event pointer points into the TraceSet and stays valid for its
/// lifetime, after the cursor is gone too. The TraceSet must not be
/// mutated while a cursor over it is live.
class MergeCursor {
 public:
  explicit MergeCursor(const TraceSet& trace);

  /// The next event in global time order, or nullptr when exhausted: an
  /// inline pointer bump over the current span.
  const DecodedEvent* next() { return merger_.next(); }

  /// The next consecutive events of one processor in global time order —
  /// what next() would return one by one — or an empty span when
  /// exhausted. Interleaves freely with next().
  std::span<const DecodedEvent> nextSpan() { return merger_.nextSpan(); }

  bool done() const noexcept { return merger_.drained(); }

 private:
  streaming::OrderedMerger merger_;
};

}  // namespace ktrace::analysis
