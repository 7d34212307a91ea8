// The input mix every workload replays: the non-control events of a seeded
// SDET run on the ossim machine with PC sampling, decoded once.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/event.hpp"

namespace pipebench {

struct MixEvent {
  ktrace::Major major = ktrace::Major::Test;
  uint16_t minor = 0;
  uint32_t first = 0;  // index of the payload in Mix::words_
  uint32_t words = 0;  // payload words (the header is extra)
};

class Mix {
 public:
  /// SDET with `scripts` scripts on a 2-processor machine sampling the PC
  /// every 50 us, seeded with `seed`; events in merged timestamp order.
  static Mix fromSdet(uint64_t seed, uint32_t scripts);

  size_t size() const noexcept { return events_.size(); }
  /// Event at replay position `pos` (wraps around the mix).
  const MixEvent& at(uint64_t pos) const noexcept {
    return events_[pos % events_.size()];
  }
  std::span<const uint64_t> payload(const MixEvent& e) const noexcept {
    return {words_.data() + e.first, e.words};
  }
  /// True when the event at `pos` equals (major, minor, payload).
  bool matches(uint64_t pos, ktrace::Major major, uint16_t minor,
               std::span<const uint64_t> payload) const noexcept;

  /// Mean event length in words, header included.
  double wordsPerEvent() const noexcept { return wordsPerEvent_; }
  /// Share of events whose payload exceeds EventPayload's inline words.
  double heapPayloadShare() const noexcept { return heapShare_; }
  double lockShare() const noexcept { return lockShare_; }
  /// Largest event in words, header included.
  uint32_t maxEventWords() const noexcept { return maxEventWords_; }

 private:
  std::vector<MixEvent> events_;
  std::vector<uint64_t> words_;
  double wordsPerEvent_ = 0;
  double heapShare_ = 0;
  double lockShare_ = 0;
  uint32_t maxEventWords_ = 0;
};

/// Replay start offset into the mix for stream `stream` of a run seeded
/// with `seed`.
uint64_t replayOffset(uint64_t seed, uint32_t stream, size_t mixSize);

}  // namespace pipebench
