#include "analysis/streaming/live_analyzer.hpp"

#include "analysis/streaming/folds.hpp"

namespace ktrace::analysis::streaming {

LiveAnalyzer::LiveAnalyzer(Sink& downstream, uint32_t numProcessors,
                           StreamEngineConfig config,
                           std::vector<DerivedMonitor> monitors)
    : downstream_(downstream), engine_(config, std::move(monitors)),
      merger_(numProcessors), tsBase_(numProcessors, 0) {
  engine_.addFold(std::make_unique<LockContentionFold>());
  engine_.addFold(std::make_unique<EventRateFold>(numProcessors));
  engine_.addFold(std::make_unique<ProfileFold>());
  engine_.addFold(std::make_unique<CompletenessFold>());
}

void LiveAnalyzer::ingest(const BufferRecord& record) {
  const uint32_t p = record.processor;
  if (p >= tsBase_.size()) tsBase_.resize(p + 1, 0);
  scratch_.clear();
  decodeBuffer(record.words, record.seq, p, tsBase_[p], scratch_,
               decodeOptions_);
  if (scratch_.empty()) return;
  engine_.observeRun(scratch_);
  merger_.push(p, exactRun(scratch_));
  drainOrdered();
}

void LiveAnalyzer::drainOrdered() {
  for (auto span = merger_.nextSpan(); !span.empty();
       span = merger_.nextSpan()) {
    engine_.onOrdered(span);
  }
}

void LiveAnalyzer::onBuffer(BufferRecord&& record) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ingest(record);
  }
  downstream_.onBuffer(std::move(record));
}

void LiveAnalyzer::onBufferBatch(std::vector<BufferRecord>&& records) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const BufferRecord& r : records) ingest(r);
  }
  downstream_.onBufferBatch(std::move(records));
}

void LiveAnalyzer::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finished_) return;
  finished_ = true;
  merger_.finish();
  drainOrdered();
  engine_.finish();
}

std::string LiveAnalyzer::snapshotJson(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return engine_.snapshotJson(tenant);
}

uint64_t LiveAnalyzer::eventsObserved() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return engine_.eventsObserved();
}

uint64_t LiveAnalyzer::windowsCompleted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return engine_.windowsCompleted();
}

}  // namespace ktrace::analysis::streaming
