// The four shipped analyses, ported onto the Fold interface (DESIGN.md
// §13). Each fold is the single implementation of its analysis: the
// post-hoc classes (LockAnalysis, EventStats, Profile, CompletenessReport)
// construct one, replay a closed trace through it, and steal the results —
// so a fold run to EOF over a closed trace is bit-identical to the
// pre-streaming tools, and the live path shares every line of logic.
//
// Declared properties (what each fold reads, and in what order):
//   LockContentionFold   Lock only, Merged: row creation order and
//                        start→acquire matching depend on the exact
//                        (timestamp, processor) order.
//   EventRateFold        every major, PerProcessor (it aggregates with
//                        sums and min/max, so any order would do).
//   ProfileFold          Prof only, PerProcessor (a pure histogram).
//   CompletenessFold     every major, PerProcessor: it follows each
//                        processor's buffer sequence and heartbeats in
//                        logged order; how processors interleave does not
//                        matter.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/completeness.hpp"
#include "analysis/event_stats.hpp"
#include "analysis/lock_analysis.hpp"
#include "analysis/streaming/fold.hpp"
#include "core/monitor.hpp"
#include "util/pair_index.hpp"

namespace ktrace::analysis::streaming {

/// Lock contention (the Figure 7 tool) as a fold.
class LockContentionFold final : public FoldOf<LockContentionFold> {
 public:
  const char* name() const noexcept override { return "locks"; }
  FoldProperties properties() const noexcept override {
    return {majorBit(Major::Lock), FoldOrder::Merged};
  }
  void finish() override;
  std::string summaryJson() const override;

  const std::vector<LockStats>& rows() const noexcept { return rows_; }
  uint64_t unmatchedContends() const noexcept { return unmatchedContends_; }
  std::vector<LockStats> takeRows() noexcept { return std::move(rows_); }

 private:
  friend class FoldOf<LockContentionFold>;
  void fold(const DecodedEvent& event);

  // Everything the fold tracks for one (lock, pid); created by the pair's
  // first contention.
  struct PairState {
    bool contending = false;
    bool holding = false;
    uint64_t contendTs = 0;
    uint64_t acquireTs = 0;
    std::vector<uint64_t> chain;  // of the open contention
    // This pair's rows as (chain hash, index into rows_), and the row a
    // release folds its hold time into: the first-created one with the
    // most contentions.
    std::vector<std::pair<uint64_t, size_t>> rows;
    size_t bestRow = SIZE_MAX;
  };

  size_t rowFor(PairState& s, uint64_t lockId, uint64_t pid);

  util::PairIndex pairIndex_;      // (lock, pid) -> index into pairs_
  std::vector<PairState> pairs_;
  std::vector<LockStats> rows_;
  uint64_t unmatchedContends_ = 0;
  uint64_t openContends_ = 0;  // pairs with a contention still unmatched
};

/// Event-frequency statistics (paper §4.2) as a fold.
class EventRateFold final : public FoldOf<EventRateFold> {
 public:
  /// `numProcessors` sizes the per-type per-processor counts; 0 grows them
  /// on demand (events name their processor anyway).
  explicit EventRateFold(uint32_t numProcessors = 0)
      : numProcessors_(numProcessors), stride_(numProcessors) {}

  const char* name() const noexcept override { return "rates"; }
  FoldProperties properties() const noexcept override {
    return {~uint64_t{0}, FoldOrder::PerProcessor};
  }
  std::string summaryJson() const override;

  uint64_t totalEvents() const noexcept { return totalEvents_; }
  uint64_t totalWords() const noexcept { return totalWords_; }
  uint32_t numProcessors() const noexcept { return numProcessors_; }
  /// Per-type statistics keyed (major << 16) | minor; leaves the fold
  /// empty.
  std::map<uint32_t, EventTypeStats> takeStats();

 private:
  friend class FoldOf<EventRateFold>;
  void fold(const DecodedEvent& event);

  // Types with a minor below this are found by direct index; the rest
  // (no shipped event has one) through a hash.
  static constexpr uint32_t kDirectMinors = 256;

  // One event type's counters, in flat arrays indexed by type (first-seen
  // order).
  struct TypeCounts {
    uint64_t count = 0;
    uint64_t words = 0;
    uint64_t firstTick = UINT64_MAX;
    uint64_t lastTick = 0;
    uint32_t key = 0;         // (major << 16) | minor
    uint32_t processors = 0;  // numProcessors_ as of its latest event
  };

  /// The type of (major, minor) when the direct index does not have it:
  /// a wide minor, or a type not seen yet (added).
  uint32_t findType(Major major, uint16_t minor);
  void growProcessors(uint32_t count);

  std::vector<TypeCounts> types_;
  // [type * stride_ + processor] -> events
  std::vector<uint64_t> perProcessor_;
  // [major * kDirectMinors + minor] -> type + 1 (0: not seen)
  std::vector<uint32_t> direct_;
  std::unordered_map<uint32_t, uint32_t> wide_;  // type key -> type + 1
  uint64_t totalEvents_ = 0;
  uint64_t totalWords_ = 0;
  uint32_t numProcessors_ = 0;
  uint32_t stride_ = 0;  // perProcessor_ row width, >= numProcessors_
};

/// Statistical execution profile (the Figure 6 tool) as a fold.
class ProfileFold final : public FoldOf<ProfileFold> {
 public:
  const char* name() const noexcept override { return "profile"; }
  FoldProperties properties() const noexcept override {
    return {majorBit(Major::Prof), FoldOrder::PerProcessor};
  }
  std::string summaryJson() const override;

  uint64_t totalSamples() const noexcept { return totalSamples_; }
  /// pid -> function -> samples; leaves the fold empty.
  std::map<uint64_t, std::map<uint64_t, uint64_t>> takeSamples();

 private:
  friend class FoldOf<ProfileFold>;
  void fold(const DecodedEvent& event);

  struct Samples {
    uint64_t pid = 0;
    uint64_t function = 0;
    uint64_t count = 0;
  };

  util::PairIndex index_;         // (pid, function) -> index into samples_
  std::vector<Samples> samples_;  // first-seen order
  util::PairIndex pids_;          // (pid, 0): the distinct pids
  uint64_t totalSamples_ = 0;
};

/// Heartbeat-replay completeness verification (DESIGN.md §8) as a fold.
/// Incremental restatement of CompletenessReport::analyze: heartbeat
/// intervals close as their heartbeats stream past, instead of in one
/// index-based pass over a closed per-processor vector. finish() settles
/// the tail (gaps after the last heartbeat, clamp observed to the last
/// heartbeat's window) — after it, gaps()/processors() match the post-hoc
/// analysis field for field.
class CompletenessFold final : public FoldOf<CompletenessFold> {
 public:
  const char* name() const noexcept override { return "completeness"; }
  FoldProperties properties() const noexcept override {
    return {~uint64_t{0}, FoldOrder::PerProcessor};
  }
  void finish() override;
  std::string summaryJson() const override;

  bool hasHeartbeats() const noexcept { return hasHeartbeats_; }
  /// Valid after finish(): processors ascending, gaps in per-processor
  /// chronological order, bounded zero-loss gaps already filtered.
  const std::vector<CompletenessGap>& gaps() const noexcept { return gaps_; }
  const std::vector<ProcessorCompleteness>& processors() const noexcept {
    return processors_;
  }
  std::vector<CompletenessGap> takeGaps() noexcept { return std::move(gaps_); }
  std::vector<ProcessorCompleteness> takeProcessors() noexcept {
    return std::move(processors_);
  }

 private:
  friend class FoldOf<CompletenessFold>;

  struct ProcState {
    uint32_t processor = 0;
    bool sawFirst = false;
    uint64_t firstBufferSeq = 0;
    uint64_t firstTick = 0;
    uint64_t prevBufferSeq = 0;
    uint64_t prevTick = 0;
    uint64_t cum = 0;  // logger events so far (fillers/anchors excluded)
    // Last heartbeat seen (interval anchor).
    bool hasBeat = false;
    uint64_t beatCount = 0;
    uint64_t prevBeatCumBefore = 0;
    uint64_t prevBeatTick = 0;
    uint64_t prevBeatBufferSeq = 0;
    Heartbeat prevHb{};
    // Gaps detected since the last heartbeat (they belong to the interval
    // the *next* heartbeat closes).
    std::vector<CompletenessGap> pending;
    // Interval-closed gaps, chronological.
    std::vector<CompletenessGap> closed;
    uint64_t lostEvents = 0;
    uint64_t unboundedGaps = 0;
    bool tailUnverified = false;
  };

  void fold(const DecodedEvent& event);
  ProcState& findState(uint32_t processor);
  // The rare arms of fold(), out of line: the first event or a lost
  // buffer, and a heartbeat.
  void noteSequence(ProcState& s, uint64_t bufferSeq, uint64_t tick);
  void noteHeartbeat(ProcState& s, const DecodedEvent& event);
  void closeInterval(ProcState& s, uint64_t bufferSeq, uint64_t tick,
                     const Heartbeat& hb);

  std::vector<ProcState> procs_;  // ascending processor
  size_t hot_ = 0;                // index of the last one looked up (valid
                                  // whenever procs_ is not empty)
  std::vector<CompletenessGap> gaps_;
  std::vector<ProcessorCompleteness> processors_;
  bool hasHeartbeats_ = false;
  bool finished_ = false;
};

}  // namespace ktrace::analysis::streaming
