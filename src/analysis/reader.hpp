// TraceSet: a fully decoded trace, grouped per processor and mergeable
// into one time-ordered stream (paper §2 goal 3: unified buffer with
// monotonically increasing timestamps per processor; tools merge across
// processors by timestamp).
//
// Ingestion is parallel and zero-copy: fromFiles decodes one file per
// thread-pool task (per-processor event vectors are disjoint, so the
// result is identical to serial decode regardless of thread count) and
// serves record payloads straight from an mmap of each file. Tools
// stream the cross-processor merge through a MergeCursor, which reads
// the per-processor events in place.
#pragma once

#include <cstdint>
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
  TraceSet(const TraceSet&) = default;
  TraceSet(TraceSet&&) noexcept = default;
  TraceSet& operator=(const TraceSet&) = default;
  TraceSet& operator=(TraceSet&&) noexcept = default;

  /// Decode completed buffers (e.g. a MemorySink's records). Records are
  /// grouped by processor and decoded in seq order.
  static TraceSet fromRecords(const std::vector<BufferRecord>& records,
                              const DecodeOptions& options = {});

  /// Decode per-processor trace files written by FileSink. Files are
  /// decoded concurrently (options.threads) and the result is
  /// bit-identical to a serial decode: per-file results are merged in
  /// path order, and clock metadata is taken from the first readable
  /// file (files that disagree are counted in
  /// stats().metadataMismatchFiles).
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
