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

/// A decoded event's payload words. Almost every trace event carries at
/// most a few words (the paper's events are "typically 2-4 words"), so the
/// payload lives inline in the event with no allocation; only the rare
/// long event (monitor heartbeats, app blobs) spills to the heap. This is
/// what lets the batched decoder emit events at memcpy speed instead of
/// one vector allocation each. The inline capacity is sized to the
/// longest common event: a lock-contention start with its three-frame
/// call chain carries 6 payload words. The spill pointer overlays the
/// inline words, so the size alone says which one is live.
class EventPayload {
 public:
  static constexpr uint32_t kInlineWords = 6;

  /// Tag for the branch-free inline-copy constructor below.
  struct PaddedTag {};

  /// Starts the spill pointer null: data() may load it even while the
  /// payload is inline, and it must not read an uninitialized union then.
  EventPayload() noexcept { words_.heap_ = nullptr; }
  EventPayload(const uint64_t* words, uint32_t n) : EventPayload() { assign(words, n); }
  /// Hot-path constructor: copies kInlineWords words unconditionally and
  /// keeps n of them (n <= kInlineWords; the caller must guarantee
  /// kInlineWords words are readable at `words`). Unlike assign, nothing
  /// is zeroed first — one store pass per event in the decode loop.
  EventPayload(PaddedTag, const uint64_t* words, uint32_t n) noexcept
      : size_(n) {
    std::memcpy(words_.inline_, words, sizeof(words_.inline_));
  }
  ~EventPayload() { release(); }

  EventPayload(const EventPayload& o) : EventPayload() { assign(o.data(), o.size_); }
  EventPayload& operator=(const EventPayload& o) {
    if (this != &o) assign(o.data(), o.size_);
    return *this;
  }
  /// A move takes the inline words or the spill pointer and leaves `o`
  /// empty.
  EventPayload(EventPayload&& o) noexcept : words_(o.words_), size_(o.size_) {
    o.size_ = 0;
  }
  EventPayload& operator=(EventPayload&& o) noexcept {
    if (this != &o) {
      release();
      words_ = o.words_;
      size_ = o.size_;
      o.size_ = 0;
    }
    return *this;
  }

  void assign(const uint64_t* words, uint32_t n) {
    if (n > kInlineWords) {
      uint64_t* spill = new uint64_t[n];
      std::memcpy(spill, words, n * sizeof(uint64_t));
      release();
      words_.heap_ = spill;
    } else {
      release();
      std::copy_n(words, n, words_.inline_);  // unlike memcpy, null-safe at n == 0
    }
    size_ = n;
  }

  uint32_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const uint64_t* data() const noexcept {
    return spilled() ? words_.heap_ : words_.inline_;
  }
  const uint64_t* begin() const noexcept { return data(); }
  const uint64_t* end() const noexcept { return data() + size_; }
  uint64_t operator[](size_t i) const noexcept { return data()[i]; }

  bool operator==(const EventPayload& o) const noexcept {
    return std::equal(begin(), end(), o.begin(), o.end());
  }
  /// Lets payloads compare against vectors/arrays of words directly (an
  /// empty one may have a null data pointer).
  bool operator==(std::span<const uint64_t> o) const noexcept {
    return std::equal(begin(), end(), o.begin(), o.end());
  }

 private:
  bool spilled() const noexcept { return size_ > kInlineWords; }
  void release() noexcept {
    if (spilled()) delete[] words_.heap_;
    size_ = 0;
  }

  union Words {
    uint64_t* heap_;                 // live when size_ > kInlineWords
    uint64_t inline_[kInlineWords];  // live otherwise
  };
  Words words_;        // a move copies whichever member is live
  uint32_t size_ = 0;  // payload words
};

/// An event copied out of a trace buffer.
struct DecodedEvent {
  EventHeader header;
  uint32_t processor = 0;
  // No unique address: offsetInBuffer sits in the payload's tail padding,
  // which keeps the event at 88 bytes.
  [[no_unique_address]] EventPayload data;  // header.lengthWords - 1 payload words
  uint32_t offsetInBuffer = 0;  // word offset of the header in its buffer
  uint64_t fullTimestamp = 0;   // 32-bit timestamp unwrapped via anchors
  uint64_t bufferSeq = 0;       // which buffer lap the event came from

  DecodedEvent() = default;
  /// Decode-loop constructor: initializes every field directly so
  /// emplace_back does a single store pass (no default-construct-then-
  /// overwrite).
  DecodedEvent(const EventHeader& h, EventPayload::PaddedTag tag,
               const uint64_t* payloadWords, uint32_t payloadCount,
               uint64_t ts, uint64_t seq, uint32_t offset,
               uint32_t proc) noexcept
      : header(h), processor(proc), data(tag, payloadWords, payloadCount),
        offsetInBuffer(offset), fullTimestamp(ts), bufferSeq(seq) {}

  /// View of the payload for Registry::formatEvent.
  Event asEvent() const noexcept {
    Event e;
    e.header = header;
    e.data = data.data();
    e.fullTimestamp = fullTimestamp;
    e.processor = processor;
    return e;
  }
};
static_assert(sizeof(DecodedEvent) <= 88,
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
DecodeStats decodeBuffer(std::span<const uint64_t> words, uint64_t bufferSeq,
                         uint32_t processor, uint64_t& tsBase,
                         std::vector<DecodedEvent>& out,
                         const DecodeOptions& options = {},
                         uint32_t limitWords = 0);

/// Appends the event whose header `h` sits at word `pos` of `words` to
/// `out` as a DecodedEvent with timestamp `ts`: decodeBuffer's emit, and
/// how a reader of an index run copies out the events it keeps.
inline void appendDecoded(std::vector<DecodedEvent>& out,
                          std::span<const uint64_t> words, const EventHeader& h,
                          uint32_t pos, uint64_t ts, uint64_t bufferSeq,
                          uint32_t processor) {
  const uint64_t* const payload = words.data() + pos + 1;
  // A payload that fits inline and sits at least kInlineWords words before
  // the buffer end takes the branch-free padded copy and the single-pass
  // constructor; a long one, or one brushing the buffer end, is assigned.
  if (h.lengthWords <= EventPayload::kInlineWords + 1 &&
      pos + 1 + EventPayload::kInlineWords <= words.size()) [[likely]] {
    out.emplace_back(h, EventPayload::PaddedTag{}, payload, h.lengthWords - 1,
                     ts, bufferSeq, pos, processor);
    return;
  }
  DecodedEvent& e = out.emplace_back();
  e.header = h;
  e.data.assign(payload, h.lengthWords - 1);
  e.fullTimestamp = ts;
  e.bufferSeq = bufferSeq;
  e.offsetInBuffer = pos;
  e.processor = processor;
}

/// One event of an index run: its unwrapped timestamp, where its header
/// sits in the buffer, and the header's low word — length, major and
/// minor (EventHeader's bits [31:0]) — so a reader that only classifies
/// events never touches the buffer. The payload stays in the buffer's
/// words, which the event is read from in place (DESIGN.md §13).
struct IndexEntry {
  uint64_t fullTimestamp = 0;
  uint32_t offset = 0;  // word offset of the header in its buffer
  uint32_t type = 0;    // the header word's bits [31:0]

  Major major() const noexcept {
    return static_cast<Major>(
        util::extractBits(type, EventHeader::kMajorShift, EventHeader::kMajorBits));
  }
};

/// The same walk as decodeBuffer — same validity rules, anchor re-basing,
/// timestamp unwrap, options and DecodeStats — but appends one IndexEntry
/// per event decodeBuffer would emit, in the same order, instead of
/// copying the event out. The entries index `words`, so they are valid
/// as long as those words are.
DecodeStats indexBuffer(std::span<const uint64_t> words, uint64_t& tsBase,
                        std::vector<IndexEntry>& out,
                        const DecodeOptions& options = {},
                        uint32_t limitWords = 0);

}  // namespace ktrace
