// Typed and generic logging entry points (paper Fig. 2 traceLog).
#include "core/logger.hpp"

#include <gtest/gtest.h>

#include "core/decode.hpp"

namespace ktrace {
namespace {

struct LoggerFixture : ::testing::Test {
  FakeClock clock{1, 1};
  TraceControl control;

  LoggerFixture() : control(makeConfig()) {}

  TraceControlConfig makeConfig() {
    TraceControlConfig cfg;
    cfg.bufferWords = 256;
    cfg.numBuffers = 4;
    cfg.clock = clock.ref();
    return cfg;
  }

  std::vector<DecodedEvent> decodeCurrentBuffer(const DecodeOptions& opts = {}) {
    const uint32_t limit = static_cast<uint32_t>(control.currentIndex() & 255);
    std::vector<uint64_t> words(256);
    for (uint32_t i = 0; i < 256; ++i) words[i] = control.loadWord(i);
    std::vector<DecodedEvent> events;
    uint64_t tsBase = 0;
    decodeBuffer(words, 0, 0, tsBase, events, opts, limit);
    // The events outlive `words`: each takes an owned copy of its payload.
    for (DecodedEvent& e : events) e.data.assign(e.data.data(), e.data.size());
    return events;
  }
};

TEST_F(LoggerFixture, HeaderOnlyEvent) {
  ASSERT_TRUE(logEvent(control, Major::Proc, 7));
  const auto events = decodeCurrentBuffer();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].header.major, Major::Proc);
  EXPECT_EQ(events[0].header.minor, 7u);
  EXPECT_EQ(events[0].header.lengthWords, 1u);
  EXPECT_TRUE(events[0].data.empty());
}

TEST_F(LoggerFixture, FixedArityPayloads) {
  ASSERT_TRUE(logEvent(control, Major::Mem, 1, uint64_t{0xAAAA}));
  ASSERT_TRUE(logEvent(control, Major::Mem, 2, uint64_t{1}, uint64_t{2}, uint64_t{3}));
  const auto events = decodeCurrentBuffer();
  ASSERT_EQ(events.size(), 2u);
  ASSERT_EQ(events[0].data.size(), 1u);
  EXPECT_EQ(events[0].data[0], 0xAAAAu);
  ASSERT_EQ(events[1].data.size(), 3u);
  EXPECT_EQ(events[1].data[2], 3u);
}

TEST_F(LoggerFixture, NarrowIntegerArgumentsWiden) {
  const uint16_t pid = 42;
  const uint8_t flag = 3;
  ASSERT_TRUE(logEvent(control, Major::Sched, 0, pid, flag));
  const auto events = decodeCurrentBuffer();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].data[0], 42u);
  EXPECT_EQ(events[0].data[1], 3u);
}

TEST_F(LoggerFixture, RuntimeSizedPayload) {
  std::vector<uint64_t> payload(17);
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = i * i;
  ASSERT_TRUE(logEventData(control, Major::Io, 5, payload));
  const auto events = decodeCurrentBuffer();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].data, payload);
}

TEST_F(LoggerFixture, OversizedPayloadIsRejected) {
  std::vector<uint64_t> payload(control.maxEventWords());  // +1 header word too big
  EXPECT_FALSE(logEventData(control, Major::Io, 5, payload));
  EXPECT_EQ(control.rejectedEvents(), 1u);
}

TEST_F(LoggerFixture, StringPayloadRoundTrips) {
  const uint64_t leading[] = {6, 7};
  ASSERT_TRUE(logEventString(control, Major::User, 1, "/shellServer", leading));
  const auto events = decodeCurrentBuffer();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_GE(events[0].data.size(), 3u);
  EXPECT_EQ(events[0].data[0], 6u);
  EXPECT_EQ(events[0].data[1], 7u);
  std::string text;
  const size_t consumed =
      unpackString(events[0].data.data() + 2, events[0].data.size() - 2, text);
  EXPECT_GT(consumed, 0u);
  EXPECT_EQ(text, "/shellServer");
}

TEST_F(LoggerFixture, EventBuilderMixesWordsAndStrings) {
  EventBuilder<> builder;
  builder.addWord(11).addString("fork").addWord(22);
  ASSERT_TRUE(builder.post(control, Major::App, 9));
  const auto events = decodeCurrentBuffer();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].data[0], 11u);
  std::string text;
  const size_t consumed =
      unpackString(events[0].data.data() + 1, events[0].data.size() - 1, text);
  ASSERT_GT(consumed, 0u);
  EXPECT_EQ(text, "fork");
  EXPECT_EQ(events[0].data[1 + consumed], 22u);
}

TEST_F(LoggerFixture, EventBuilderOverflowIsDetectedNotTruncated) {
  EventBuilder<4> builder;
  builder.addWord(1).addWord(2).addWord(3).addWord(4).addWord(5);
  EXPECT_TRUE(builder.overflowed());
  EXPECT_FALSE(builder.post(control, Major::App, 9));
  builder = {};
  builder.addString("a string that needs more than four words");
  EXPECT_TRUE(builder.overflowed());
}

TEST_F(LoggerFixture, ManyEventsSurviveBufferCrossings) {
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(logEvent(control, Major::Test, static_cast<uint16_t>(i & 0xFFFF), i));
  }
  // Walk all buffers the ring still holds and count Test events.
  control.flushCurrentBuffer();
  uint64_t seen = 0;
  uint64_t tsBase = 0;
  const uint64_t currentSeq = control.currentBufferSeq();
  const uint64_t oldest = currentSeq >= 3 ? currentSeq - 3 : 0;
  std::vector<DecodedEvent> events;
  for (uint64_t seq = oldest; seq < currentSeq; ++seq) {
    std::vector<uint64_t> words(256);
    const uint64_t base = (seq & 3) * 256;
    for (uint32_t i = 0; i < 256; ++i) words[i] = control.loadWord(base + i);
    events.clear();
    decodeBuffer(words, seq, 0, tsBase, events);
    for (const auto& e : events) {
      if (e.header.major == Major::Test) ++seen;
    }
  }
  // The ring keeps at most numBuffers-1 complete old buffers plus the
  // current one; with 1000 3-word events in a 1024-word region most are
  // overwritten, but whatever remains must decode cleanly.
  EXPECT_GT(seen, 0u);
  EXPECT_LE(seen, 1000u);
}

}  // namespace
}  // namespace ktrace
