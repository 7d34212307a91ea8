// Low-level decoding of trace-buffer words into events.
//
// Because events are variable length, a corrupted header can make the rest
// of a buffer uninterpretable; the paper's tools "have ways of handling
// this situation" (§3.1) — concretely: validate each header structurally,
// and on failure abandon the remainder of the buffer and resynchronize at
// the next buffer boundary (the alignment points of §3.2). Random access
// into a large trace works the same way: seek to any buffer boundary and
// decode forward.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/event.hpp"

namespace ktrace::util {
class FileSystem;  // util/faultfs.hpp
}

namespace ktrace {

/// A decoded event's payload words: a view of the words that follow its
/// header, which the event either borrows or owns (DESIGN.md §12). The
/// decoder emits borrowed views into the words it is given, with no copy
/// and no allocation, so whoever holds a decoded event keeps its words: a
/// TraceSet keeps each file's mapping and the words it decompressed or
/// read, an OrderedMerger run keeps its record's words. An owned payload
/// is a heap copy: the pointer, the word count and an owned bit fit in 12
/// bytes. Copying makes an owned copy, so a copied event outlives the
/// words it was decoded from; moving transfers the view or the copy and
/// leaves the source empty.
class EventPayload {
 public:
  /// The longest payload a decode stores without allocating: every one.
  /// Decode never copies a payload, whatever its length, and an event
  /// header describes at most kMaxWords - 1 payload words.
  static constexpr uint32_t kInlineWords = EventHeader::kMaxWords - 1;

  EventPayload() noexcept : size_(0), owned_(0) {}
  /// An owned copy of `n` words at `words`.
  EventPayload(const uint64_t* words, uint32_t n) : EventPayload() { assign(words, n); }
  /// A borrowed view of `n` words at `words`, which must outlive it.
  static EventPayload view(const uint64_t* words, uint32_t n) noexcept {
    return {words, n, 0};
  }
  ~EventPayload() { release(); }

  EventPayload(const EventPayload& o) : EventPayload(o.data_, o.size_) {}
  EventPayload& operator=(const EventPayload& o) {
    if (this != &o) assign(o.data_, o.size_);
    return *this;
  }
  EventPayload(EventPayload&& o) noexcept
      : data_(o.data_), size_(o.size_), owned_(o.owned_) {
    o.forget();
  }
  EventPayload& operator=(EventPayload&& o) noexcept {
    if (this != &o) {
      release();
      data_ = o.data_;
      size_ = o.size_;
      owned_ = o.owned_;
      o.forget();
    }
    return *this;
  }

  /// Makes this an owned copy of `n` words at `words`, which may be this
  /// payload's own.
  void assign(const uint64_t* words, uint32_t n) {
    uint64_t* copy = nullptr;
    if (n != 0) {
      copy = new uint64_t[n];
      std::memcpy(copy, words, n * sizeof(uint64_t));
    }
    release();
    data_ = copy;
    size_ = n;
    owned_ = n != 0;
  }

  /// True when the words are this payload's own heap copy.
  bool owned() const noexcept { return owned_ != 0; }
  uint32_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const uint64_t* data() const noexcept { return data_; }
  const uint64_t* begin() const noexcept { return data_; }
  const uint64_t* end() const noexcept { return data_ + size_; }
  uint64_t operator[](size_t i) const noexcept { return data_[i]; }

  bool operator==(const EventPayload& o) const noexcept {
    return std::equal(begin(), end(), o.begin(), o.end());
  }
  /// Lets payloads compare against vectors/arrays of words directly (an
  /// empty one may have a null data pointer).
  bool operator==(std::span<const uint64_t> o) const noexcept {
    return std::equal(begin(), end(), o.begin(), o.end());
  }

 private:
  EventPayload(const uint64_t* words, uint32_t n, uint32_t owned) noexcept
      : data_(words), size_(n), owned_(owned) {}
  void forget() noexcept {
    data_ = nullptr;
    size_ = 0;
    owned_ = 0;
  }
  void release() noexcept {
    if (owned_ != 0) delete[] data_;
  }

  const uint64_t* data_ = nullptr;
  uint32_t size_ : 31;   // payload words
  uint32_t owned_ : 1;   // data_ is this payload's heap copy
};

/// A decoded event: its header, where it came from, and a view of its
/// payload words (see EventPayload for who keeps them).
struct DecodedEvent {
  EventHeader header;
  uint32_t processor = 0;
  // No unique address: offsetInBuffer sits in the payload's tail padding,
  // which keeps the event at 48 bytes.
  [[no_unique_address]] EventPayload data;  // header.lengthWords - 1 payload words
  uint32_t offsetInBuffer = 0;  // word offset of the header in its buffer
  uint64_t fullTimestamp = 0;   // 32-bit timestamp unwrapped via anchors
  uint64_t bufferSeq = 0;       // which buffer lap the event came from

  DecodedEvent() = default;
  /// Decode-loop constructor: every field initialized directly, so
  /// emplace_back does a single store pass; the payload is a borrowed
  /// view of `payloadCount` words at `payloadWords`.
  DecodedEvent(const EventHeader& h, const uint64_t* payloadWords,
               uint32_t payloadCount, uint64_t ts, uint64_t seq, uint32_t offset,
               uint32_t proc) noexcept
      : header(h), processor(proc), data(EventPayload::view(payloadWords, payloadCount)),
        offsetInBuffer(offset), fullTimestamp(ts), bufferSeq(seq) {}
};
static_assert(sizeof(DecodedEvent) <= 48,
              "decoded events are stored by the million; keep them small");

struct DecodeStats {
  uint64_t events = 0;        // non-filler events decoded (anchors included)
  uint64_t fillers = 0;       // filler events skipped
  uint64_t fillerWords = 0;   // words of filler skipped
  uint64_t garbledBuffers = 0;  // buffers abandoned at a bad header
  uint64_t garbledWords = 0;    // words skipped due to garbling
  uint64_t commitMismatchBuffers = 0;  // buffers flagged partially written
                                       // at consume time (§3.1 anomaly)

  // File-level damage tolerated by salvage mode (TraceSet::fromFiles with
  // DecodeOptions::salvage); mirrors the per-file SalvageReport totals.
  uint64_t tornRecords = 0;     // tail records cut short by a crash
  uint64_t corruptRecords = 0;  // records failing their magic/CRC, skipped
  uint64_t skippedBytes = 0;    // file bytes passed over while resynchronizing
  uint64_t unreadableFiles = 0; // files whose header could not be read at all
  uint64_t metadataMismatchFiles = 0;  // files whose clock metadata disagrees
                                       // with the first readable file's
  uint64_t damagedFooters = 0;  // v3 files whose footer directory was missing
                                // or corrupt (salvage fell back to scanning)
  uint64_t corruptBlocks = 0;   // v3 compressed blocks dropped whole (CRC)

  void merge(const DecodeStats& other) noexcept {
    events += other.events;
    fillers += other.fillers;
    fillerWords += other.fillerWords;
    garbledBuffers += other.garbledBuffers;
    garbledWords += other.garbledWords;
    commitMismatchBuffers += other.commitMismatchBuffers;
    tornRecords += other.tornRecords;
    corruptRecords += other.corruptRecords;
    skippedBytes += other.skippedBytes;
    unreadableFiles += other.unreadableFiles;
    metadataMismatchFiles += other.metadataMismatchFiles;
    damagedFooters += other.damagedFooters;
    corruptBlocks += other.corruptBlocks;
  }

  bool operator==(const DecodeStats&) const noexcept = default;
};

struct DecodeOptions {
  bool keepFillers = false;   // emit filler events too (space accounting)
  bool keepAnchors = false;   // emit buffer-anchor events
  bool salvage = false;       // fromFiles: tolerate torn/corrupt records and
                              // unreadable files instead of stopping at them
  uint32_t threads = 0;       // fromFiles: decode tasks run on this many
                              // threads (0 = hardware concurrency; capped at
                              // hardware concurrency either way); results are
                              // identical regardless of the count
  bool useMmap = true;        // fromFiles: serve records from an mmap'd view
                              // when the platform allows (falls back to stdio)
  util::FileSystem* fs = nullptr;  // fromFiles: file I/O goes through this
                                   // (fault injection in tests; forces the
                                   // stdio path); nullptr = FileSystem::stdio()
};

/// Structural validity of a header at `offset` within a buffer of
/// `bufferWords` words: nonzero length, fits within the buffer, known
/// major class.
bool headerLooksValid(uint64_t headerWord, uint32_t offset, uint32_t bufferWords) noexcept;

/// Unwraps a 32-bit timestamp against a 64-bit base, assuming forward
/// progress of less than 2^32 ticks between consecutive events.
constexpr uint64_t unwrapTimestamp(uint64_t base, uint32_t ts32) noexcept {
  return base + static_cast<uint32_t>(ts32 - static_cast<uint32_t>(base));
}

/// Decodes one buffer's words. `tsBase` carries the running 64-bit time
/// base across buffers; a leading anchor event updates it exactly.
/// `limitWords`, when nonzero, stops decoding at that offset (used for the
/// in-flight buffer of a flight-recorder snapshot). Appends to `out`.
///
/// The events it appends borrow their payloads: each is a view into
/// `words`, valid only as long as those words are, and nothing is copied
/// or allocated. A caller that keeps the events past the words keeps the
/// words too (a TraceSet, an OrderedMerger run), or copies the events,
/// which makes each payload an owned copy. Every event takes at least one
/// word, so it appends at most `words.size()` events.
DecodeStats decodeBuffer(std::span<const uint64_t> words, uint64_t bufferSeq,
                         uint32_t processor, uint64_t& tsBase,
                         std::vector<DecodedEvent>& out,
                         const DecodeOptions& options = {},
                         uint32_t limitWords = 0);

}  // namespace ktrace
