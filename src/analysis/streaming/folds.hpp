// The four shipped analyses, ported onto the Fold interface (DESIGN.md
// §13). Each fold is the single implementation of its analysis: the
// post-hoc classes (LockAnalysis, EventStats, Profile, CompletenessReport)
// construct one, replay a MergeCursor through it, and steal the results —
// so a fold run to EOF over a closed trace is bit-identical to the
// pre-streaming tools, and the live path shares every line of logic.
//
// Ordering contracts:
//   LockContentionFold   needs exact merged (timestamp, processor) order —
//                        row creation order and start→acquire matching
//                        depend on it.
//   EventRateFold        order-insensitive (min/max/sum aggregation).
//   ProfileFold          order-insensitive (pure histogram).
//   CompletenessFold     needs per-processor relative order only (any
//                        interleaving across processors is fine — exactly
//                        what a merged feed preserves).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/completeness.hpp"
#include "analysis/event_stats.hpp"
#include "analysis/lock_analysis.hpp"
#include "analysis/streaming/fold.hpp"
#include "core/monitor.hpp"

namespace ktrace::analysis::streaming {

/// Lock contention (the Figure 7 tool) as a fold.
class LockContentionFold final : public Fold {
 public:
  const char* name() const noexcept override { return "locks"; }
  void onEvent(const DecodedEvent& event) override;
  void finish() override;
  std::string summaryJson() const override;

  const std::vector<LockStats>& rows() const noexcept { return rows_; }
  uint64_t unmatchedContends() const noexcept { return unmatchedContends_; }
  std::vector<LockStats> takeRows() noexcept { return std::move(rows_); }

 protected:
  void foldSpan(std::span<const DecodedEvent> events) override {
    for (const DecodedEvent& e : events) onEvent(e);
  }

 private:
  using PairKey = std::pair<uint64_t, uint64_t>;  // (lock, pid)
  struct PairHash {
    size_t operator()(const PairKey& k) const noexcept;
  };
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

  std::unordered_map<PairKey, PairState, PairHash> pairs_;
  std::vector<LockStats> rows_;
  uint64_t unmatchedContends_ = 0;
  uint64_t openContends_ = 0;  // pairs with a contention still unmatched
};

/// Event-frequency statistics (paper §4.2) as a fold.
class EventRateFold final : public Fold {
 public:
  /// `numProcessors` sizes the per-type per-processor count vectors; 0
  /// grows them on demand (live mode, where the processor count is known
  /// but events name it anyway).
  explicit EventRateFold(uint32_t numProcessors = 0)
      : numProcessors_(numProcessors) {}

  const char* name() const noexcept override { return "rates"; }
  void onEvent(const DecodedEvent& event) override;
  std::string summaryJson() const override;

  uint64_t totalEvents() const noexcept { return totalEvents_; }
  uint64_t totalWords() const noexcept { return totalWords_; }
  uint32_t numProcessors() const noexcept { return numProcessors_; }
  /// Per-type statistics keyed (major << 16) | minor; leaves the fold
  /// empty.
  std::map<uint32_t, EventTypeStats> takeStats();

 protected:
  void foldSpan(std::span<const DecodedEvent> events) override {
    for (const DecodedEvent& e : events) onEvent(e);
  }

 private:
  // Types with a minor below this are found by direct index; the rest
  // (no shipped event has one) through a hash.
  static constexpr uint32_t kDirectMinors = 256;

  EventTypeStats& statsFor(Major major, uint16_t minor);

  std::vector<EventTypeStats> types_;  // first-seen order
  // [major][minor] -> types_ index + 1 (0: not seen); each major's row
  // grows to its largest minor seen.
  std::vector<std::vector<uint32_t>> direct_;
  std::unordered_map<uint32_t, uint32_t> wide_;  // type key -> index + 1
  uint64_t totalEvents_ = 0;
  uint64_t totalWords_ = 0;
  uint32_t numProcessors_ = 0;
};

/// Statistical execution profile (the Figure 6 tool) as a fold.
class ProfileFold final : public Fold {
 public:
  const char* name() const noexcept override { return "profile"; }
  void onEvent(const DecodedEvent& event) override;
  std::string summaryJson() const override;

  uint64_t totalSamples() const noexcept { return totalSamples_; }
  /// pid -> function -> samples; leaves the fold empty.
  std::map<uint64_t, std::map<uint64_t, uint64_t>> takeSamples();

 protected:
  void foldSpan(std::span<const DecodedEvent> events) override {
    for (const DecodedEvent& e : events) onEvent(e);
  }

 private:
  // pid -> function -> samples
  std::unordered_map<uint64_t, std::unordered_map<uint64_t, uint64_t>>
      samples_;
  uint64_t totalSamples_ = 0;
};

/// Heartbeat-replay completeness verification (DESIGN.md §8) as a fold.
/// Incremental restatement of CompletenessReport::analyze: heartbeat
/// intervals close as their heartbeats stream past, instead of in one
/// index-based pass over a closed per-processor vector. finish() settles
/// the tail (gaps after the last heartbeat, clamp observed to the last
/// heartbeat's window) — after it, gaps()/processors() match the post-hoc
/// analysis field for field.
class CompletenessFold final : public Fold {
 public:
  const char* name() const noexcept override { return "completeness"; }
  void onEvent(const DecodedEvent& event) override;
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

 protected:
  void foldSpan(std::span<const DecodedEvent> events) override;

 private:
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

  ProcState& stateFor(uint32_t processor);
  void step(ProcState& s, const DecodedEvent& e);
  void closeInterval(ProcState& s, const DecodedEvent& beatEvent,
                     const Heartbeat& hb);

  std::vector<ProcState> procs_;  // ascending processor
  size_t hot_ = 0;                // index of the last one looked up
  std::vector<CompletenessGap> gaps_;
  std::vector<ProcessorCompleteness> processors_;
  bool hasHeartbeats_ = false;
  bool finished_ = false;
};

}  // namespace ktrace::analysis::streaming
