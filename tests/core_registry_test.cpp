// Self-describing event descriptors and display formatting (paper §4.4).
#include "core/registry.hpp"

#include <gtest/gtest.h>

#include "core/decode.hpp"
#include "core/packing.hpp"

namespace ktrace {
namespace {

TEST(Registry, GlobalHasInfrastructureEvents) {
  Registry& reg = Registry::global();
  EXPECT_NE(reg.find(Major::Control, static_cast<uint16_t>(ControlMinor::Filler)), nullptr);
  EXPECT_NE(reg.find(Major::Control, static_cast<uint16_t>(ControlMinor::BufferAnchor)),
            nullptr);
}

TEST(Registry, AddAndFind) {
  Registry reg;
  reg.add({Major::Mem, 3, KT_TR(TRACE_MEM_FCMCOM_ATCH_REG), "64 64",
           "Region %0[%llx] attached to FCM %1[%llx]"});
  const EventDescriptor* d = reg.find(Major::Mem, 3);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->name, "TRACE_MEM_FCMCOM_ATCH_REG");
  EXPECT_EQ(reg.eventName(Major::Mem, 3), "TRACE_MEM_FCMCOM_ATCH_REG");
}

TEST(Registry, UnknownEventNameFallsBack) {
  Registry reg;
  EXPECT_EQ(reg.eventName(Major::Io, 99), "major5/minor99");
}

TEST(Registry, ParseFormatTokens) {
  std::vector<std::string> tokens;
  EXPECT_TRUE(parseFormatTokens("64 32 16 8 str", tokens));
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[4], "str");
  EXPECT_TRUE(parseFormatTokens("", tokens));
  EXPECT_TRUE(tokens.empty());
  EXPECT_FALSE(parseFormatTokens("64 banana", tokens));
}

TEST(Registry, DecodeValuesFullWords) {
  Registry reg;
  EventDescriptor d{Major::Mem, 1, "E", "64 64", ""};
  std::vector<FieldValue> values;
  const uint64_t data[] = {0x1111, 0x2222};
  ASSERT_TRUE(reg.decodeValues(d, data, values));
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0].num, 0x1111u);
  EXPECT_EQ(values[1].num, 0x2222u);
}

TEST(Registry, DecodeValuesPacksSmallFieldsIntoOneWord) {
  // 8+16+32 = 56 bits: all three live in data[0], packed low to high.
  Registry reg;
  EventDescriptor d{Major::Proc, 1, "E", "8 16 32", ""};
  const uint64_t word = 0xABu | (0x1234ull << 8) | (0xDEADBEEFull << 24);
  std::vector<FieldValue> values;
  ASSERT_TRUE(reg.decodeValues(d, {&word, 1}, values));
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0].num, 0xABu);
  EXPECT_EQ(values[1].num, 0x1234u);
  EXPECT_EQ(values[2].num, 0xDEADBEEFu);
}

TEST(Registry, DecodeValuesSpillsWhenWordIsFull) {
  // Two 32s fill word 0; the next 32 must come from word 1.
  Registry reg;
  EventDescriptor d{Major::Proc, 2, "E", "32 32 32", ""};
  const uint64_t data[] = {pack2x32(1, 2), 3};
  std::vector<FieldValue> values;
  ASSERT_TRUE(reg.decodeValues(d, data, values));
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0].num, 1u);
  EXPECT_EQ(values[1].num, 2u);
  EXPECT_EQ(values[2].num, 3u);
}

TEST(Registry, DecodeValuesWithString) {
  Registry reg;
  EventDescriptor d{Major::User, 1, "E", "64 str 64", ""};
  std::vector<uint64_t> data{42};
  packString("init", data);
  data.push_back(77);
  std::vector<FieldValue> values;
  ASSERT_TRUE(reg.decodeValues(d, data, values));
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0].num, 42u);
  EXPECT_TRUE(values[1].isString);
  EXPECT_EQ(values[1].str, "init");
  EXPECT_EQ(values[2].num, 77u);
}

TEST(Registry, DecodeValuesRejectsShortPayload) {
  Registry reg;
  EventDescriptor d{Major::User, 2, "E", "64 64 64", ""};
  const uint64_t data[] = {1, 2};
  std::vector<FieldValue> values;
  EXPECT_FALSE(reg.decodeValues(d, data, values));
}

TEST(DisplayTemplate, SubstitutesNumbersInRequestedBase) {
  std::vector<FieldValue> values(2);
  values[0].num = 255;
  values[1].num = 255;
  EXPECT_EQ(applyDisplayTemplate("hex %0[%llx] dec %1[%lld]", values), "hex ff dec 255");
}

TEST(DisplayTemplate, SubstitutesStrings) {
  std::vector<FieldValue> values(1);
  values[0].isString = true;
  values[0].str = "/shellServer";
  EXPECT_EQ(applyDisplayTemplate("name %0[%s]", values), "name /shellServer");
}

TEST(DisplayTemplate, OutOfOrderAndRepeatedReferences) {
  // The paper: "the numbers do not need to be in order in the third field".
  std::vector<FieldValue> values(2);
  values[0].num = 1;
  values[1].num = 2;
  EXPECT_EQ(applyDisplayTemplate("%1[%llu] then %0[%llu] then %1[%llu]", values),
            "2 then 1 then 2");
}

TEST(DisplayTemplate, EscapedPercentAndBadRefs) {
  std::vector<FieldValue> values(1);
  values[0].num = 5;
  EXPECT_EQ(applyDisplayTemplate("100%% of %0[%llu]", values), "100% of 5");
  EXPECT_EQ(applyDisplayTemplate("missing %7[%llu]", values), "missing <?7>");
  EXPECT_EQ(applyDisplayTemplate("dangling %0[no close", values), "dangling %0[no close");
  EXPECT_EQ(applyDisplayTemplate("plain % sign", values), "plain % sign");
}

TEST(Registry, FormatEventEndToEnd) {
  Registry reg;
  reg.add({Major::Mem, 3, "TRACE_MEM_FCMCOM_ATCH_REG", "64 64",
           "Region %0[%llx] attached to FCM %1[%llx]"});
  const uint64_t data[] = {0x800000001022cc98ull, 0xe100000000003f30ull};
  const DecodedEvent e(EventHeader::decode(EventHeader::encode(0, 3, Major::Mem, 3)),
                       data, 2, 0, 0, 0, 0);
  EXPECT_EQ(reg.formatEvent(e),
            "Region 800000001022cc98 attached to FCM e100000000003f30");
}

TEST(Registry, FormatEventFallsBackToHexDump) {
  Registry reg;
  const uint64_t data[] = {0xFF};
  const DecodedEvent e(EventHeader::decode(EventHeader::encode(0, 2, Major::Io, 12)),
                       data, 1, 0, 0, 0, 0);
  EXPECT_EQ(reg.formatEvent(e), "major5/minor12 ff");
}

}  // namespace
}  // namespace ktrace
