#include "analysis/streaming/live_analyzer.hpp"

#include <algorithm>
#include <cstring>
#include <memory>

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
  // A record holds at most one event per word: reserved so, the scratch
  // never grows inside decodeBuffer.
  events_.clear();
  events_.reserve(record.words.size());
  decodeBuffer(record.words, record.seq, p, tsBase_[p], events_);
  if (events_.empty()) return;
  engine_.onRun(events_);

  // Copy out only what the Merged folds read, into a run of exactly that
  // size, so what the merger holds costs what it occupies. The selection
  // is branch-free: lock events interleave with the rest too irregularly
  // for a per-event branch to predict.
  const uint64_t majors = engine_.mergedMajors();
  selected_.resize(events_.size());
  size_t merged = 0;
  size_t payloadWords = 0;
  uint64_t last = 0;
  for (size_t i = 0; i < events_.size(); ++i) {
    const DecodedEvent& e = events_[i];
    const bool take = hasMajor(majors, e.header.major);
    selected_[merged] = static_cast<uint32_t>(i);
    merged += take;
    payloadWords += take * e.data.size();
    last = std::max(last, e.fullTimestamp);
  }
  if (merged != 0) {
    // The run keeps a copy of the selected events' payloads, which its
    // events view: the record itself moves on downstream. Each event is
    // built as a view of that copy; copying a DecodedEvent would give it a
    // heap copy of its own.
    auto words = std::make_unique_for_overwrite<uint64_t[]>(payloadWords);
    std::vector<DecodedEvent> run;
    run.reserve(merged);
    uint64_t* payload = words.get();
    for (size_t k = 0; k < merged; ++k) {
      const DecodedEvent& e = events_[selected_[k]];
      const uint32_t n = e.data.size();
      std::memcpy(payload, e.data.data(), n * sizeof(uint64_t));
      run.emplace_back(e.header, payload, n, e.fullTimestamp, e.bufferSeq,
                       e.offsetInBuffer, e.processor);
      payload += n;
    }
    merger_.push(p, std::move(run), std::move(words));
  }
  merger_.punctuate(p, p, last);
  drainOrdered();
}

void LiveAnalyzer::drainOrdered() {
  for (auto span = merger_.nextSpan(); !span.empty();
       span = merger_.nextSpan()) {
    engine_.onMerged(span);
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
