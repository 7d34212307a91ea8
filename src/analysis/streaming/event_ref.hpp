// Events read in place (DESIGN.md §13).
//
// The paper's events describe themselves in the buffer (§3.1–3.2): the
// header word gives the length and the major class, so a tool can walk a
// buffer without copying it. EventRef is what a fold or the engine's
// window plane reads of one event, wherever that event lives — the fields
// of a DecodedEvent, or an index entry over its record's own words — so
// each analysis has one implementation for the live tap (which reads
// harvested buffers in place) and for offline replay (which holds decoded
// events).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/decode.hpp"

namespace ktrace::analysis::streaming {

/// A view of one event. Cheap to build (a few registers); valid as long as
/// what it views. It holds the header's low word (length, major, minor)
/// and decodes fields on demand, so a view built from an index entry
/// touches the buffer only when the payload is read.
class EventRef {
 public:
  EventRef(uint32_t type, const uint64_t* payload, uint32_t payloadWords,
           uint64_t fullTimestamp, uint64_t bufferSeq, uint32_t processor,
           uint32_t offsetInBuffer) noexcept
      : payload_(payload), fullTimestamp_(fullTimestamp), bufferSeq_(bufferSeq),
        type_(type), processor_(processor), offsetInBuffer_(offsetInBuffer),
        payloadWords_(payloadWords) {}

  static EventRef of(const DecodedEvent& e) noexcept {
    return {static_cast<uint32_t>(e.header.encode()), e.data.data(), e.data.size(),
            e.fullTimestamp, e.bufferSeq, e.processor, e.offsetInBuffer};
  }

  Major major() const noexcept {
    return static_cast<Major>(field(EventHeader::kMajorShift, EventHeader::kMajorBits));
  }
  uint16_t minor() const noexcept {
    return static_cast<uint16_t>(field(EventHeader::kMinorShift, EventHeader::kMinorBits));
  }
  /// Length in words, header included.
  uint32_t lengthWords() const noexcept {
    return field(EventHeader::kLengthShift, EventHeader::kLengthBits);
  }
  /// The payload words: lengthWords() - 1 of them in a well-formed event.
  std::span<const uint64_t> data() const noexcept { return {payload_, payloadWords_}; }
  uint64_t fullTimestamp() const noexcept { return fullTimestamp_; }
  uint64_t bufferSeq() const noexcept { return bufferSeq_; }
  uint32_t processor() const noexcept { return processor_; }
  /// Word offset of the header in its buffer.
  uint32_t offsetInBuffer() const noexcept { return offsetInBuffer_; }

 private:
  uint32_t field(uint32_t shift, uint32_t bits) const noexcept {
    return static_cast<uint32_t>(util::extractBits(type_, shift, bits));
  }

  const uint64_t* payload_;
  uint64_t fullTimestamp_;  // 32-bit timestamp unwrapped via anchors
  uint64_t bufferSeq_;      // which buffer lap the event came from
  uint32_t type_;           // the header word's bits [31:0]
  uint32_t processor_;
  uint32_t offsetInBuffer_;
  uint32_t payloadWords_;
};

/// One harvested buffer read in place: the buffer's words and indexBuffer's
/// entries over them. One processor, timestamps never decreasing — a run.
/// Valid as long as the words and entries it views.
struct IndexRun {
  std::span<const uint64_t> words;
  std::span<const IndexEntry> entries;
  uint64_t bufferSeq = 0;
  uint32_t processor = 0;

  size_t size() const noexcept { return entries.size(); }
  bool empty() const noexcept { return entries.empty(); }
  EventRef operator[](size_t i) const noexcept {
    const IndexEntry& x = entries[i];
    return {x.type, words.data() + x.offset + 1, x.lengthWords() - 1, x.fullTimestamp,
            bufferSeq, processor, x.offset};
  }
};

/// Decoded events seen as EventRefs, so a loop templated on its input
/// reads a span of DecodedEvents and an IndexRun alike.
struct DecodedRefs {
  std::span<const DecodedEvent> events;

  size_t size() const noexcept { return events.size(); }
  EventRef operator[](size_t i) const noexcept { return EventRef::of(events[i]); }
};

}  // namespace ktrace::analysis::streaming
