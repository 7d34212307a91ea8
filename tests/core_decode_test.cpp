// Buffer decoding: filler skipping, anchor re-basing, timestamp unwrap,
// garbled-header resynchronization (paper §3.1-§3.2), and the properties
// every decode holds to, whatever the words it is given.
#include "core/decode.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/ktrace.hpp"
#include "core/trace_file.hpp"
#include "util/rng.hpp"

namespace ktrace {
namespace {

constexpr uint16_t kFiller = static_cast<uint16_t>(ControlMinor::Filler);
constexpr uint16_t kAnchor = static_cast<uint16_t>(ControlMinor::BufferAnchor);

std::vector<uint64_t> makeBuffer(uint32_t words) { return std::vector<uint64_t>(words, 0); }

void putAnchor(std::vector<uint64_t>& buf, uint32_t at, uint64_t fullTs, uint64_t seq) {
  buf[at] = EventHeader::encode(static_cast<uint32_t>(fullTs), 3, Major::Control, kAnchor);
  buf[at + 1] = fullTs;
  buf[at + 2] = seq;
}

uint32_t putEvent(std::vector<uint64_t>& buf, uint32_t at, uint32_t ts, Major major,
                  uint16_t minor, std::initializer_list<uint64_t> data) {
  buf[at] = EventHeader::encode(ts, 1 + static_cast<uint32_t>(data.size()), major, minor);
  uint32_t i = at + 1;
  for (uint64_t w : data) buf[i++] = w;
  return i;
}

TEST(Decode, SkipsFillersByDefault) {
  auto buf = makeBuffer(64);
  putAnchor(buf, 0, 100, 0);
  uint32_t at = putEvent(buf, 3, 101, Major::Test, 1, {7});
  buf[at] = EventHeader::encode(102, 64 - at, Major::Control, kFiller);

  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  const DecodeStats stats = decodeBuffer(buf, 0, 2, tsBase, events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(stats.fillers, 1u);
  EXPECT_EQ(stats.fillerWords, 64u - at);
  EXPECT_EQ(events[0].processor, 2u);
  EXPECT_EQ(events[0].header.minor, 1u);
  EXPECT_EQ(events[0].fullTimestamp, 101u);  // re-based by the anchor
}

TEST(Decode, KeepFillersAndAnchorsWhenAsked) {
  auto buf = makeBuffer(64);
  putAnchor(buf, 0, 50, 0);
  buf[3] = EventHeader::encode(51, 61, Major::Control, kFiller);

  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  DecodeOptions opts;
  opts.keepFillers = true;
  opts.keepAnchors = true;
  decodeBuffer(buf, 0, 0, tsBase, events, opts);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].header.minor, kAnchor);
  EXPECT_TRUE(events[1].header.isFiller());
}

TEST(Decode, AnchorRebasesAcrossWrap) {
  // The anchor carries a full 64-bit timestamp beyond 2^32; later events'
  // 32-bit stamps unwrap against it.
  const uint64_t big = (5ull << 32) + 0xFFFFFFF0ull;
  auto buf = makeBuffer(64);
  putAnchor(buf, 0, big, 0);
  putEvent(buf, 3, static_cast<uint32_t>(big + 0x20), Major::Test, 1, {});

  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  decodeBuffer(buf, 0, 0, tsBase, events);
  ASSERT_EQ(events.size(), 1u);
  // 0xFFFFFFF0 + 0x20 wraps the low word; the full time must not go back.
  EXPECT_EQ(events[0].fullTimestamp, big + 0x20);
}

TEST(Decode, TimestampChainAdvancesBetweenAnchors) {
  auto buf = makeBuffer(64);
  putAnchor(buf, 0, 0xFFFFFF00ull, 0);
  uint32_t at = putEvent(buf, 3, 0xFFFFFFF0u, Major::Test, 1, {});
  at = putEvent(buf, at, 0x10u, Major::Test, 2, {});  // wrapped low word
  putEvent(buf, at, 0x30u, Major::Test, 3, {});

  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  decodeBuffer(buf, 0, 0, tsBase, events);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].fullTimestamp, 0xFFFFFFF0u);
  EXPECT_EQ(events[1].fullTimestamp, 0x100000010ull);
  EXPECT_EQ(events[2].fullTimestamp, 0x100000030ull);
}

TEST(Decode, GarbledHeaderAbandonsBuffer) {
  auto buf = makeBuffer(64);
  putAnchor(buf, 0, 10, 0);
  uint32_t at = putEvent(buf, 3, 11, Major::Test, 1, {1});
  // Garbage: a "header" whose length crosses the buffer boundary.
  buf[at] = EventHeader::encode(12, 1000, Major::Test, 2);
  putEvent(buf, at + 2, 13, Major::Test, 3, {});  // unreachable

  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  const DecodeStats stats = decodeBuffer(buf, 0, 0, tsBase, events);
  EXPECT_EQ(stats.garbledBuffers, 1u);
  EXPECT_EQ(stats.garbledWords, 64u - at);
  ASSERT_EQ(events.size(), 1u);  // only the event before the garbage
}

TEST(Decode, ZeroLengthHeaderIsGarbage) {
  auto buf = makeBuffer(64);
  putAnchor(buf, 0, 10, 0);
  // buf[3] stays zero: decodes as length 0.
  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  const DecodeStats stats = decodeBuffer(buf, 0, 0, tsBase, events);
  EXPECT_EQ(stats.garbledBuffers, 1u);
  EXPECT_TRUE(events.empty());
}

TEST(Decode, UnknownMajorIsGarbage) {
  auto buf = makeBuffer(64);
  putAnchor(buf, 0, 10, 0);
  buf[3] = EventHeader::encode(11, 2, static_cast<Major>(63), 0);
  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  const DecodeStats stats = decodeBuffer(buf, 0, 0, tsBase, events);
  EXPECT_EQ(stats.garbledBuffers, 1u);
}

TEST(Decode, MalformedAnchorLengthIsGarbage) {
  auto buf = makeBuffer(64);
  buf[0] = EventHeader::encode(1, 5, Major::Control, kAnchor);  // anchors are 3 words
  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  const DecodeStats stats = decodeBuffer(buf, 0, 0, tsBase, events);
  EXPECT_EQ(stats.garbledBuffers, 1u);
}

TEST(Decode, LimitWordsStopsAtPartialBuffer) {
  auto buf = makeBuffer(64);
  putAnchor(buf, 0, 10, 0);
  uint32_t at = putEvent(buf, 3, 11, Major::Test, 1, {});
  at = putEvent(buf, at, 12, Major::Test, 2, {9, 9});
  const uint32_t limit = at;  // pretend logging reached exactly here
  putEvent(buf, at, 13, Major::Test, 3, {});  // beyond the limit

  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  decodeBuffer(buf, 0, 0, tsBase, events, {}, limit);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events.back().header.minor, 2u);
}

TEST(Decode, EventStraddlingLimitIsExcluded) {
  auto buf = makeBuffer(64);
  putAnchor(buf, 0, 10, 0);
  putEvent(buf, 3, 11, Major::Test, 1, {1, 2, 3});
  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  decodeBuffer(buf, 0, 0, tsBase, events, {}, /*limitWords=*/5);  // event ends at 7
  EXPECT_TRUE(events.empty());
}

TEST(Decode, PayloadsOfEverySizeDecodeIntact) {
  // Payloads from empty to 8 words, the last one ending exactly at the
  // buffer end. Every one is a view into the buffer: decode copies and
  // allocates nothing.
  auto buf = makeBuffer(64);
  putAnchor(buf, 0, 100, 0);
  uint32_t at = 3;
  std::vector<std::vector<uint64_t>> sent;
  std::vector<uint32_t> offsets;
  for (uint32_t n = 0; n <= 8; ++n) {
    std::vector<uint64_t> words;
    for (uint32_t i = 0; i < n; ++i) words.push_back(0x1000u * n + i);
    buf[at] = EventHeader::encode(100 + n, 1 + n, Major::Test, static_cast<uint16_t>(n));
    std::copy(words.begin(), words.end(), buf.begin() + at + 1);
    offsets.push_back(at);
    at += 1 + n;
    sent.push_back(std::move(words));
  }
  std::vector<uint64_t> last(64 - at - 1, 0xEE);
  buf[at] = EventHeader::encode(200, 64 - at, Major::Test, 99);
  std::copy(last.begin(), last.end(), buf.begin() + at + 1);
  offsets.push_back(at);
  sent.push_back(last);

  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  decodeBuffer(buf, 0, 0, tsBase, events);
  ASSERT_EQ(events.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    EXPECT_TRUE(events[i].data == std::span<const uint64_t>(sent[i])) << i;
    EXPECT_EQ(events[i].data.size(), events[i].header.lengthWords - 1) << i;
    EXPECT_FALSE(events[i].data.owned()) << i;
    EXPECT_EQ(events[i].data.data(), buf.data() + offsets[i] + 1) << i;
  }
  EXPECT_EQ(events.back().offsetInBuffer, at);
  EXPECT_GT(EventPayload::kInlineWords, EventHeader::kMaxWords - 2)
      << "every payload a header can describe decodes without allocating";
}

// --- EventPayload: owned copies and borrowed views ----------------------

std::vector<uint64_t> payloadWords(uint32_t n, uint64_t tag) {
  std::vector<uint64_t> words(n);
  for (uint32_t i = 0; i < n; ++i) words[i] = tag * 0x10000u + i;
  return words;
}

bool holds(const EventPayload& p, const std::vector<uint64_t>& words) {
  return p.size() == words.size() && p == std::span<const uint64_t>(words) &&
         std::equal(p.begin(), p.end(), words.begin(), words.end());
}

// Sizes around a typical event's payload, up to the largest payload an
// event header can describe.
constexpr uint32_t kPayloadSizes[] = {0, 5, 6, 7, EventHeader::kMaxWords - 1};

// A payload is either a view of words someone else keeps or a copy of its
// own; both must behave as values.
enum class Form { Owned, Borrowed };
constexpr Form kForms[] = {Form::Owned, Form::Borrowed};

EventPayload make(Form form, const std::vector<uint64_t>& words) {
  const auto n = static_cast<uint32_t>(words.size());
  return form == Form::Owned ? EventPayload(words.data(), n)
                             : EventPayload::view(words.data(), n);
}

const char* name(Form form) { return form == Form::Owned ? "owned" : "borrowed"; }

/// A copy is always an owned copy of its own: never the source's words.
bool ownsCopyOf(const EventPayload& copy, const std::vector<uint64_t>& words) {
  return holds(copy, words) && copy.owned() == !words.empty() &&
         (words.empty() || copy.data() != words.data());
}

TEST(EventPayload, CopiesOwnedAndBorrowedForms) {
  for (const Form fromForm : kForms) {
    for (const Form toForm : kForms) {
      for (const uint32_t from : kPayloadSizes) {
        for (const uint32_t to : kPayloadSizes) {
          const std::string what = std::string(name(fromForm)) + " " +
                                   std::to_string(from) + " over " + name(toForm) +
                                   " " + std::to_string(to);
          const auto a = payloadWords(from, 1);
          const auto b = payloadWords(to, 2);
          const EventPayload src = make(fromForm, a);

          const EventPayload copied(src);
          EXPECT_TRUE(ownsCopyOf(copied, a)) << what;
          EXPECT_TRUE(holds(src, a)) << what;

          EventPayload assigned = make(toForm, b);
          assigned = src;
          EXPECT_TRUE(ownsCopyOf(assigned, a)) << what;
          EXPECT_TRUE(holds(src, a)) << what;

          assigned.assign(b.data(), to);  // and back the other way
          EXPECT_TRUE(ownsCopyOf(assigned, b)) << what;
        }
      }
    }
  }
}

TEST(EventPayload, MovesOwnedAndBorrowedFormsAndEmptiesTheSource) {
  for (const Form fromForm : kForms) {
    for (const Form toForm : kForms) {
      for (const uint32_t from : kPayloadSizes) {
        for (const uint32_t to : kPayloadSizes) {
          const std::string what = std::string(name(fromForm)) + " " +
                                   std::to_string(from) + " over " + name(toForm) +
                                   " " + std::to_string(to);
          const auto a = payloadWords(from, 3);
          const auto b = payloadWords(to, 4);

          EventPayload src = make(fromForm, a);
          const uint64_t* const words = src.data();
          EventPayload moved(std::move(src));
          EXPECT_TRUE(holds(moved, a)) << what;
          EXPECT_EQ(moved.data(), words) << what;  // transferred, not copied
          EXPECT_EQ(moved.owned(), fromForm == Form::Owned && from != 0) << what;
          EXPECT_EQ(src.size(), 0u);
          EXPECT_TRUE(src.empty());
          EXPECT_FALSE(src.owned());
          EXPECT_EQ(src.begin(), src.end());

          EventPayload target = make(toForm, b);
          target = std::move(moved);
          EXPECT_TRUE(holds(target, a)) << what;
          EXPECT_EQ(target.data(), words) << what;
          EXPECT_TRUE(moved.empty());

          // A moved-from payload is reusable in either form.
          src.assign(b.data(), to);
          EXPECT_TRUE(ownsCopyOf(src, b)) << what;
          moved = std::move(src);
          EXPECT_TRUE(holds(moved, b)) << what;
          src = make(toForm, b);
          EXPECT_TRUE(holds(src, b)) << what;
          EventPayload fromEmpty(std::move(target));
          target = fromEmpty;
          EXPECT_TRUE(ownsCopyOf(target, a)) << what;
        }
      }
    }
  }
}

TEST(EventPayload, SelfAssignmentKeepsTheWords) {
  for (const Form form : kForms) {
    for (const uint32_t n : kPayloadSizes) {
      const auto a = payloadWords(n, 5);
      EventPayload p = make(form, a);
      EventPayload& alias = p;
      p = alias;
      EXPECT_TRUE(holds(p, a)) << name(form) << " " << n;
      p = std::move(alias);
      EXPECT_TRUE(holds(p, a)) << name(form) << " " << n;
      // Assigning a payload its own words makes an owned copy of them.
      p.assign(p.data(), p.size());
      EXPECT_TRUE(ownsCopyOf(p, a)) << name(form) << " " << n;
      p.assign(p.data(), p.size());
      EXPECT_TRUE(ownsCopyOf(p, a)) << name(form) << " " << n;
    }
  }
}

TEST(EventPayload, EqualityIgnoresForm) {
  // Only the viewed words take part in comparisons, never the words past
  // the payload or where the words live.
  for (const uint32_t n : kPayloadSizes) {
    std::vector<uint64_t> longer = payloadWords(n + 1, 6);
    const std::vector<uint64_t> a(longer.begin(), longer.end() - 1);
    const EventPayload owned = make(Form::Owned, a);
    const EventPayload borrowed = EventPayload::view(longer.data(), n);
    EXPECT_TRUE(owned == borrowed) << n;
    EXPECT_TRUE(borrowed == owned) << n;
    EXPECT_TRUE(borrowed == std::span<const uint64_t>(a)) << n;
    EXPECT_FALSE(borrowed == std::span<const uint64_t>(longer)) << n;
    EXPECT_FALSE(owned == EventPayload::view(longer.data(), n + 1)) << n;
  }
  const auto longWords = payloadWords(EventHeader::kMaxWords - 1, 7);
  const auto shortWords = payloadWords(3, 7);
  EventPayload reused(longWords.data(), EventHeader::kMaxWords - 1);
  EXPECT_TRUE(reused == std::span<const uint64_t>(longWords));
  EXPECT_FALSE(reused == EventPayload::view(shortWords.data(), 3));
  reused.assign(shortWords.data(), 3);
  EXPECT_TRUE(reused == EventPayload::view(shortWords.data(), 3));
  EXPECT_TRUE(EventPayload() == EventPayload(nullptr, 0));
  EXPECT_TRUE(EventPayload() == EventPayload::view(nullptr, 0));
}

TEST(EventPayload, DecodedEventsCopyDeepAndMoveShallow) {
  // The 48-byte layout, and value semantics at the event level: a copied
  // decoded event owns its payload and outlives the buffer it came from.
  static_assert(sizeof(DecodedEvent) == 48);
  std::vector<DecodedEvent> copies;
  std::vector<DecodedEvent> moved;
  {
    auto buf = makeBuffer(64);
    putAnchor(buf, 0, 100, 0);
    uint32_t at = putEvent(buf, 3, 101, Major::Test, 1, {1, 2, 3});
    putEvent(buf, at, 102, Major::Test, 2, {});
    std::vector<DecodedEvent> events;
    uint64_t tsBase = 0;
    decodeBuffer(buf, 7, 3, tsBase, events);
    ASSERT_EQ(events.size(), 2u);
    copies = events;
    const uint64_t* const viewed = events[0].data.data();
    moved = std::move(events);
    EXPECT_EQ(moved[0].data.data(), viewed);  // a move keeps the view
    EXPECT_FALSE(moved[0].data.owned());
    EXPECT_TRUE(copies[0].data.owned());
    EXPECT_NE(copies[0].data.data(), viewed);
    buf.assign(buf.size(), ~0ull);  // the copies do not see later writes
  }
  ASSERT_EQ(copies.size(), 2u);
  EXPECT_TRUE(copies[0].data == std::vector<uint64_t>({1, 2, 3}));
  EXPECT_TRUE(copies[1].data.empty());
  EXPECT_EQ(copies[0].fullTimestamp, 101u);
  EXPECT_EQ(copies[0].bufferSeq, 7u);
  EXPECT_EQ(copies[0].processor, 3u);
  EXPECT_EQ(copies[0].offsetInBuffer, 3u);
  EXPECT_EQ(copies[1].offsetInBuffer, 7u);
  EXPECT_EQ(copies[0].header.minor, 1u);
}

// --- What holds of every decode -----------------------------------------

/// Decodes `words` from `tsBase` with `options` and `limitWords`, and
/// checks what holds whatever the words are: each event is the header word
/// at its offset, its payload the view of the words after it — inside
/// `words`, ending at or before the limit — and its timestamp that
/// header's stamp unwrapped (an anchor's, the word it carries); offsets
/// increase without overlap; and with fillers and anchors both kept,
/// every event the stats count is emitted.
void expectDecodeProperties(std::span<const uint64_t> words, uint64_t seq,
                            uint64_t tsBase, const DecodeOptions& options,
                            uint32_t limitWords, const std::string& what) {
  std::vector<DecodedEvent> events;
  const DecodeStats stats =
      decodeBuffer(words, seq, 1, tsBase, events, options, limitWords);
  const size_t end =
      limitWords != 0 && limitWords < words.size() ? limitWords : words.size();
  size_t covered = 0;  // words the events before this one cover
  for (size_t i = 0; i < events.size(); ++i) {
    const DecodedEvent& e = events[i];
    const size_t at = e.offsetInBuffer;
    ASSERT_GE(at, covered) << what << " event " << i;
    ASSERT_LT(at, end) << what << " event " << i;
    ASSERT_EQ(e.header.encode(), words[at]) << what << " event " << i;
    ASSERT_EQ(e.data.data(), words.data() + at + 1) << what << " event " << i;
    ASSERT_FALSE(e.data.owned()) << what << " event " << i;
    ASSERT_EQ(e.data.size() + 1, e.header.lengthWords) << what << " event " << i;
    ASSERT_LE(at + 1 + e.data.size(), end) << what << " event " << i;
    ASSERT_EQ(e.processor, 1u) << what << " event " << i;
    ASSERT_EQ(e.bufferSeq, seq) << what << " event " << i;
    if (e.header.major == Major::Control && e.header.minor == kAnchor) {
      ASSERT_EQ(e.fullTimestamp, words[at + 1]) << what << " event " << i;
    } else {
      ASSERT_EQ(static_cast<uint32_t>(e.fullTimestamp), e.header.timestamp)
          << what << " event " << i;
    }
    covered = at + e.header.lengthWords;
  }
  EXPECT_LE(events.size(), stats.events + stats.fillers) << what;
  if (options.keepFillers && options.keepAnchors) {
    EXPECT_EQ(events.size(), stats.events + stats.fillers) << what;
  }
}

std::vector<DecodeOptions> optionSets() {
  std::vector<DecodeOptions> sets(4);
  sets[1].keepFillers = true;
  sets[2].keepAnchors = true;
  sets[3].keepFillers = sets[3].keepAnchors = true;
  return sets;
}

/// A buffer with everything the walk treats specially: an anchor, a wrap
/// of the 32-bit stamp, payloads from empty to past the inline capacity,
/// an unknown-to-the-fast-path Control minor, and a filler tail.
std::vector<uint64_t> busyBuffer() {
  auto buf = makeBuffer(64);
  const uint64_t t0 = (3ull << 32) - 40;
  putAnchor(buf, 0, t0, 5);
  uint32_t at = putEvent(buf, 3, static_cast<uint32_t>(t0 + 10), Major::Lock, 0, {1, 2, 0});
  at = putEvent(buf, at, static_cast<uint32_t>(t0 + 50), Major::Test, 1, {});  // wraps
  at = putEvent(buf, at, static_cast<uint32_t>(t0 + 60), Major::Prof, 0,
                {1, 2, 3, 4, 5, 6, 7, 8});
  at = putEvent(buf, at, static_cast<uint32_t>(t0 + 70), Major::Control, 7, {9});
  at = putEvent(buf, at, static_cast<uint32_t>(t0 + 70), Major::Monitor, 0, {1, 2, 3});
  buf[at] = EventHeader::encode(static_cast<uint32_t>(t0 + 80), 64 - at, Major::Control,
                                kFiller);
  return buf;
}

TEST(DecodeProperties, HoldOverGarbledAndTruncatedBuffers) {
  const std::vector<uint64_t> clean = busyBuffer();
  for (const DecodeOptions& options : optionSets()) {
    // Whole, then cut at every limit and every truncated length.
    for (uint32_t limit = 0; limit <= 64; ++limit) {
      expectDecodeProperties(clean, 5, 0, options, limit,
                             "limit " + std::to_string(limit));
    }
    for (size_t n = 0; n <= clean.size(); ++n) {
      expectDecodeProperties(std::span<const uint64_t>(clean).first(n), 5, 7,
                             options, 0, "truncated to " + std::to_string(n));
    }
    // Garbled: a zero length, a length past the end, an unknown major and
    // a 5-word anchor, each at every header position in turn.
    const uint64_t garbage[] = {
        EventHeader::encode(1, 0, Major::Test, 0),
        EventHeader::encode(1, 100, Major::Test, 0),
        EventHeader::encode(1, 2, static_cast<Major>(40), 0),
        EventHeader::encode(1, 5, Major::Control, kAnchor),
    };
    for (const uint64_t bad : garbage) {
      for (uint32_t at = 0; at < clean.size(); ++at) {
        std::vector<uint64_t> buf = clean;
        buf[at] = bad;
        expectDecodeProperties(buf, 5, 0, options, 0,
                               "garbage at " + std::to_string(at));
      }
    }
    // Random bit flips anywhere, with random limits.
    util::Rng rng(42);
    for (int iter = 0; iter < 2000; ++iter) {
      std::vector<uint64_t> buf = clean;
      const int flips = 1 + static_cast<int>(rng.nextBelow(3));
      for (int f = 0; f < flips; ++f) {
        buf[rng.nextBelow(buf.size())] ^= uint64_t{1} << rng.nextBelow(64);
      }
      const auto limit = static_cast<uint32_t>(rng.nextBelow(2) ? 0 : rng.nextBelow(65));
      expectDecodeProperties(buf, 5, rng.next(), options, limit,
                             "flips, iteration " + std::to_string(iter));
    }
  }
}

TEST(DecodeProperties, HoldOverFormatMatrixRecords) {
  // Real records — anchors, fillers, stamps wrapping 2^32, payloads of 0
  // to 9 words — written in v2, v3 and compressed v3 and read back.
  constexpr uint32_t kProcs = 2;
  constexpr uint32_t kBufferWords = 64;
  FakeClock clock((1ull << 32) - 3000, 17);
  FacilityConfig cfg;
  cfg.numProcessors = kProcs;
  cfg.bufferWords = kBufferWords;
  cfg.buffersPerProcessor = 64;
  cfg.clockKind = ClockKind::Fake;
  cfg.clockOverride = clock.ref();
  cfg.mode = Mode::Stream;
  Facility facility(cfg);
  facility.mask().enableAll();
  MemorySink sink;
  Consumer consumer(facility, sink, {});
  util::Rng rng(7);
  for (int i = 0; i < 1500; ++i) {
    const auto p = static_cast<uint32_t>(rng.nextBelow(kProcs));
    const std::vector<uint64_t> words(rng.nextBelow(10), static_cast<uint64_t>(i));
    ASSERT_TRUE(logEventData(facility.control(p), Major::App,
                             static_cast<uint16_t>(i % 5), words));
  }
  facility.flushAll();
  consumer.drainNow();
  const std::vector<BufferRecord> logged = sink.records();

  const auto dir = std::filesystem::temp_directory_path() /
                   ("ktrace_decode_properties_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  TraceWriterOptions v2;
  v2.formatVersion = 2;
  TraceWriterOptions v3;
  TraceWriterOptions v3z;
  v3z.compress = true;
  const std::pair<const char*, TraceWriterOptions> formats[] = {
      {"v2", v2}, {"v3", v3}, {"v3z", v3z}};
  size_t records = 0;
  for (const auto& [name, options] : formats) {
    for (uint32_t p = 0; p < kProcs; ++p) {
      TraceFileMeta meta;
      meta.processorId = p;
      meta.numProcessors = kProcs;
      meta.bufferWords = kBufferWords;
      meta.clockKind = ClockKind::Fake;
      const std::string path =
          (dir / (std::string(name) + ".cpu" + std::to_string(p) + ".ktrc")).string();
      {
        TraceFileWriter writer(path, meta, nullptr, options);
        std::vector<const BufferRecord*> mine;
        for (const BufferRecord& r : logged) {
          if (r.processor == p) mine.push_back(&r);
        }
        ASSERT_EQ(writer.writeBufferBatch(mine.data(), mine.size()), mine.size());
        ASSERT_TRUE(writer.flush());
      }
      TraceFileReader reader(path);
      uint64_t tsBase = 0;
      for (uint64_t k = 0; k < reader.bufferCount(); ++k) {
        BufferView view;
        ASSERT_TRUE(reader.readBufferView(k, view));
        for (const DecodeOptions& decode : optionSets()) {
          expectDecodeProperties(view.words, view.seq, tsBase, decode, 0,
                                 std::string(name) + " record " + std::to_string(k));
        }
        std::vector<DecodedEvent> events;
        decodeBuffer(view.words, view.seq, p, tsBase, events);  // carry the base on
        ++records;
      }
    }
  }
  std::filesystem::remove_all(dir);
  EXPECT_GT(records, 3u * 40u);
}

TEST(Decode, HeaderValidationRules) {
  EXPECT_FALSE(headerLooksValid(EventHeader::encode(0, 0, Major::Test, 0), 0, 64));
  EXPECT_FALSE(headerLooksValid(EventHeader::encode(0, 65, Major::Test, 0), 0, 64));
  EXPECT_FALSE(headerLooksValid(EventHeader::encode(0, 2, Major::Test, 0), 63, 64));
  EXPECT_TRUE(headerLooksValid(EventHeader::encode(0, 1, Major::Test, 0), 63, 64));
  EXPECT_TRUE(headerLooksValid(EventHeader::encode(0, 64, Major::Test, 0), 0, 64));
}

}  // namespace
}  // namespace ktrace
