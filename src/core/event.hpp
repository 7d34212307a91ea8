// Trace event header word layout.
//
// Reproduces the K42 event encoding (paper §3.2): every event is a series
// of 64-bit words. The first word packs
//
//   [63:32] 32 bits of timestamp (low bits of the facility clock)
//   [31:22] 10 bits of length, in 64-bit words, INCLUDING this header
//   [21:16]  6 bits of major ID (so at most 64 major classes)
//   [15: 0] 16 bits of major-class-defined data, typically a minor ID
//
// followed by length-1 data words. The 10-bit length bounds a single event
// at 1023 words; buffer-remainder fillers larger than that are emitted as
// chains of maximal fillers.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/bits.hpp"

namespace ktrace {

/// Major event classes. At most 64 (6-bit field); one bit each in the
/// trace mask. Mirrors K42's per-subsystem classes (traceMem, traceProc,
/// traceIO, ...).
enum class Major : uint8_t {
  Control = 0,  // infrastructure events: fillers, buffer anchors
  Test = 1,     // unit tests and microbenchmarks
  Mem = 2,      // memory subsystem (regions, FCMs, allocator)
  Proc = 3,     // process lifecycle
  Exception = 4,  // page faults, PPC (protected procedure call) entry/exit
  Io = 5,
  Lock = 6,     // contended-lock paths
  Sched = 7,    // dispatch / context switch / idle
  Ipc = 8,
  User = 9,     // user-level run/return markers
  App = 10,     // application-defined events
  Linux = 11,   // Linux-emulation-layer transitions
  Prof = 12,    // statistical PC samples
  HwPerf = 13,  // hardware-counter samples logged as events (paper §2)
  Monitor = 14, // the tracer monitoring itself: heartbeats with counters
  MajorCount = 15,
};

constexpr uint32_t kMaxMajors = 64;

/// Minor IDs of Major::Control events emitted by the infrastructure itself.
enum class ControlMinor : uint16_t {
  Filler = 0,        // header-only event padding to the buffer boundary
  BufferAnchor = 1,  // full 64-bit timestamp + global buffer sequence
};

/// Minor IDs of Major::Monitor — the tracer's self-monitoring stream
/// (DESIGN.md §8). Heartbeats embed per-processor counter snapshots into
/// the trace so a decoded trace is self-describing about its own health.
enum class MonitorMinor : uint16_t {
  Heartbeat = 0,  // periodic counter snapshot (core/monitor.hpp layout)
};

/// Field geometry of the header word.
struct EventHeader {
  static constexpr uint32_t kTimestampShift = 32;
  static constexpr uint32_t kTimestampBits = 32;
  static constexpr uint32_t kLengthShift = 22;
  static constexpr uint32_t kLengthBits = 10;
  static constexpr uint32_t kMajorShift = 16;
  static constexpr uint32_t kMajorBits = 6;
  static constexpr uint32_t kMinorShift = 0;
  static constexpr uint32_t kMinorBits = 16;

  /// Largest encodable event, in words, header included.
  static constexpr uint32_t kMaxWords = (1u << kLengthBits) - 1;

  uint32_t timestamp = 0;  // low 32 bits of the clock
  uint32_t lengthWords = 0;
  Major major = Major::Control;
  uint16_t minor = 0;

  static constexpr uint64_t encode(uint32_t timestamp, uint32_t lengthWords,
                                   Major major, uint16_t minor) noexcept {
    return util::depositBits(timestamp, kTimestampShift, kTimestampBits) |
           util::depositBits(lengthWords, kLengthShift, kLengthBits) |
           util::depositBits(static_cast<uint64_t>(major), kMajorShift, kMajorBits) |
           util::depositBits(minor, kMinorShift, kMinorBits);
  }

  static constexpr EventHeader decode(uint64_t word) noexcept {
    EventHeader h;
    h.timestamp = static_cast<uint32_t>(util::extractBits(word, kTimestampShift, kTimestampBits));
    h.lengthWords = static_cast<uint32_t>(util::extractBits(word, kLengthShift, kLengthBits));
    h.major = static_cast<Major>(util::extractBits(word, kMajorShift, kMajorBits));
    h.minor = static_cast<uint16_t>(util::extractBits(word, kMinorShift, kMinorBits));
    return h;
  }

  constexpr uint64_t encode() const noexcept {
    return encode(timestamp, lengthWords, major, minor);
  }

  constexpr bool isFiller() const noexcept {
    return major == Major::Control &&
           minor == static_cast<uint16_t>(ControlMinor::Filler);
  }
};

/// Tiles `words` words of dead space with filler events (§3.2), calling
/// emit(offset, headerWord) for each filler's header. The 10-bit length
/// field caps one filler at 1023 words, so long spans become chains of
/// maximal fillers.
template <typename Emit>
constexpr void forEachFiller(uint64_t words, uint32_t ts32, Emit&& emit) {
  for (uint64_t at = 0; at < words;) {
    const uint32_t len =
        static_cast<uint32_t>(std::min<uint64_t>(words - at, EventHeader::kMaxWords));
    emit(at, EventHeader::encode(ts32, len, Major::Control,
                                 static_cast<uint16_t>(ControlMinor::Filler)));
    at += len;
  }
}

static_assert(EventHeader::kTimestampBits + EventHeader::kLengthBits +
                  EventHeader::kMajorBits + EventHeader::kMinorBits == 64,
              "header fields must exactly fill the 64-bit word");
static_assert(static_cast<uint32_t>(Major::MajorCount) <= kMaxMajors,
              "at most 64 major classes (single-word trace mask)");

}  // namespace ktrace
