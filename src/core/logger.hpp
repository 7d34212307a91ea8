// Event logging entry points (paper Fig. 2, traceLog).
//
// The typed fast path logEvent<Ws...> corresponds to K42's per-major-ID
// macros for events with a constant number of data words: the length is a
// compile-time constant and no variable-argument machinery is involved.
// logEventData/logEventString are the "generic function per major ID" for
// non-constant-length data.
//
// All entry points are non-blocking and safe to call from any number of
// threads (or processes) sharing a control block.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <string_view>

#include "core/control.hpp"
#include "core/event.hpp"
#include "core/packing.hpp"

namespace ktrace {

/// Log an event whose payload is a fixed set of word-convertible values.
template <typename... Ws>
  requires(std::convertible_to<Ws, uint64_t> && ...)
inline bool logEvent(ShmTraceControl& control, Major major, uint16_t minor,
                     Ws... words) noexcept {
  return control.logEvent(major, minor, words...);
}

/// Log an event with a runtime-sized word payload.
inline bool logEventData(ShmTraceControl& control, Major major, uint16_t minor,
                         std::span<const uint64_t> data) noexcept {
  return control.logEventData(major, minor, data);
}

/// Log an event whose payload is `leading` fixed words followed by a
/// string (length word + packed bytes).
inline bool logEventString(ShmTraceControl& control, Major major, uint16_t minor,
                           std::string_view text,
                           std::span<const uint64_t> leading = {}) {
  const uint32_t length =
      1 + static_cast<uint32_t>(leading.size()) + stringWords(text.size());
  return control.logWith(major, minor, length, [&](uint64_t at) {
    for (const uint64_t w : leading) control.storeWord(at++, w);
    forEachStringWord(text, [&](uint64_t w) { control.storeWord(at++, w); });
  });
}

/// Incremental builder for events mixing words and strings. Capacity is a
/// template parameter so typical events stay on the stack.
template <uint32_t Capacity = 64>
class EventBuilder {
 public:
  EventBuilder& addWord(uint64_t w) noexcept {
    if (n_ < Capacity) {
      words_[n_++] = w;
    } else {
      overflow_ = true;
    }
    return *this;
  }

  EventBuilder& addString(std::string_view s) noexcept {
    const uint32_t need = stringWords(s.size());
    if (n_ + need > Capacity) {
      overflow_ = true;
      return *this;
    }
    forEachStringWord(s, [&](uint64_t w) { words_[n_++] = w; });
    return *this;
  }

  /// Logs the built payload; returns false on builder overflow or
  /// reservation failure.
  bool post(ShmTraceControl& control, Major major, uint16_t minor) const noexcept {
    if (overflow_) return false;
    return logEventData(control, major, minor, std::span(words_, n_));
  }

  uint32_t sizeWords() const noexcept { return n_; }
  bool overflowed() const noexcept { return overflow_; }

 private:
  uint64_t words_[Capacity];
  uint32_t n_ = 0;
  bool overflow_ = false;
};

}  // namespace ktrace
