// Live analysis as a Sink decorator (DESIGN.md §13).
//
// Sits between a tenant's BatchingSink and its FileSink: every buffer
// record that is about to become durable is read in place, then handed to
// the real sink untouched. decodeBuffer decodes the record into a reused
// scratch vector of views over its own words; that run goes to the window
// plane and to every PerProcessor fold whole, with no payload copied.
// Only the events a Merged fold reads (the lock events) are copied out,
// into one exact-size run for the OrderedMerger, whose lane the record
// then punctuates at its last timestamp; each span the merger releases
// goes to the Merged folds. Placing the tap *downstream* of the batching queue
// means quota sheds and queue drops never reach the engine, so the live
// numbers describe exactly the events that land in the files: an offline
// replay of those files reproduces the snapshots bit for bit.
//
// The BatchingSink's single writer thread serializes onBuffer/
// onBufferBatch, but snapshots arrive from the control plane thread, so
// all state is mutex-guarded (never on the producers' logging path).
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/streaming/engine.hpp"
#include "analysis/streaming/stream_cursor.hpp"
#include "core/sink.hpp"

namespace ktrace::analysis::streaming {

class LiveAnalyzer final : public Sink {
 public:
  /// `downstream` must outlive this. `numProcessors` sizes the merge
  /// lanes and timestamp bases. The four standard folds (locks, rates,
  /// profile, completeness) are attached automatically.
  LiveAnalyzer(Sink& downstream, uint32_t numProcessors,
               StreamEngineConfig config,
               std::vector<DerivedMonitor> monitors);

  void onBuffer(BufferRecord&& record) override;
  void onBufferBatch(std::vector<BufferRecord>&& records) override;
  SinkCounters counters() const override { return downstream_.counters(); }
  bool exhausted() const override { return downstream_.exhausted(); }

  /// The pipeline has drained (tenant detach): unblocks the ordered merge
  /// and finalizes the folds. Idempotent.
  void finish();

  /// Engine snapshot (see StreamEngine::snapshotJson).
  std::string snapshotJson(const std::string& tenant) const;

  uint64_t eventsObserved() const;
  uint64_t windowsCompleted() const;

  /// The attached folds, in the order above. Read them only after
  /// finish(): until then the writer thread folds into them.
  const std::vector<std::unique_ptr<Fold>>& folds() const noexcept {
    return engine_.folds();
  }

 private:
  void ingest(const BufferRecord& record);
  void drainOrdered();

  Sink& downstream_;
  mutable std::mutex mutex_;
  StreamEngine engine_;
  OrderedMerger merger_;
  std::vector<uint64_t> tsBase_;
  std::vector<DecodedEvent> events_;  // the current record, decoded to views
  std::vector<uint32_t> selected_;    // its events the merger takes
  bool finished_ = false;
};

}  // namespace ktrace::analysis::streaming
