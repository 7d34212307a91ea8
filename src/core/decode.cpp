#include "core/decode.hpp"

namespace ktrace {

bool headerLooksValid(uint64_t headerWord, uint32_t offset, uint32_t bufferWords) noexcept {
  const EventHeader h = EventHeader::decode(headerWord);
  if (h.lengthWords == 0) return false;
  if (offset + h.lengthWords > bufferWords) return false;  // crosses boundary
  if (static_cast<uint32_t>(h.major) >= static_cast<uint32_t>(Major::MajorCount)) return false;
  if (h.major == Major::Control &&
      h.minor == static_cast<uint16_t>(ControlMinor::BufferAnchor) &&
      h.lengthWords != 3) {
    return false;
  }
  return true;
}

DecodeStats decodeBuffer(std::span<const uint64_t> words, uint64_t bufferSeq,
                         uint32_t processor, uint64_t& tsBase,
                         std::vector<DecodedEvent>& out,
                         const DecodeOptions& options, uint32_t limitWords) {
  // The tallies live in locals, not in `stats`: the event stores could
  // alias a DecodeStats field, which would pin every tally to memory for
  // the whole walk.
  uint64_t events = 0;
  uint64_t fillers = 0;
  uint64_t fillerWords = 0;
  DecodeStats stats;
  const uint64_t* const w = words.data();
  const uint32_t bufferWords = static_cast<uint32_t>(words.size());
  const uint32_t end = (limitWords != 0 && limitWords < bufferWords) ? limitWords : bufferWords;
  // The header's fields are read straight off the word as integers (no
  // EventHeader): a struct here would round-trip through the stack, and
  // the anchor test's combined load of its narrow fields would stall on
  // store forwarding once per event.
  const auto field = [](uint64_t word, uint32_t shift, uint32_t bits) {
    return static_cast<uint32_t>(util::extractBits(word, shift, bits));
  };
  const auto emit = [&](uint64_t word, uint32_t pos, uint64_t ts) {
    const EventHeader h = EventHeader::decode(word);
    out.emplace_back(h, w + pos + 1, h.lengthWords - 1, ts, bufferSeq, pos, processor);
  };
  uint64_t base = tsBase;
  uint32_t pos = 0;
  while (pos < end) {
    const uint64_t word = w[pos];
    const uint32_t length = field(word, EventHeader::kLengthShift, EventHeader::kLengthBits);
    const uint32_t major = field(word, EventHeader::kMajorShift, EventHeader::kMajorBits);
    const uint32_t ts32 = field(word, EventHeader::kTimestampShift, EventHeader::kTimestampBits);
    // Structural validity (headerLooksValid, with the anchor's length
    // checked on the Control arm below): nonzero length, within the
    // buffer, a known major class.
    bool valid = length != 0 && pos + length <= bufferWords &&
                 major < static_cast<uint32_t>(Major::MajorCount);

    // The hot path: an ordinary (non-Control) event. Everything rare —
    // fillers, anchors — drops to the slow arm.
    if (valid && major != static_cast<uint32_t>(Major::Control)) [[likely]] {
      if (pos + length > end) break;  // event extends past the snapshot limit
      events += 1;
      base = unwrapTimestamp(base, ts32);
      emit(word, pos, base);
      pos += length;
      continue;
    }

    const uint32_t minor = field(word, EventHeader::kMinorShift, EventHeader::kMinorBits);
    const bool isFiller = minor == static_cast<uint32_t>(ControlMinor::Filler);
    const bool isAnchor = minor == static_cast<uint32_t>(ControlMinor::BufferAnchor);
    if (isAnchor && length != 3) valid = false;
    if (!valid) {
      // Abandon this buffer; the caller resynchronizes at the next one.
      stats.garbledBuffers += 1;
      stats.garbledWords += bufferWords - pos;
      break;
    }
    if (pos + length > end) break;  // event extends past the snapshot limit

    if (isAnchor) {
      // The anchor carries the full 64-bit timestamp: exact re-basing.
      base = w[pos + 1];
    }

    if (isFiller) {
      fillers += 1;
      fillerWords += length;
    } else {
      events += 1;
    }

    const bool keep = isFiller ? options.keepFillers
                    : isAnchor ? options.keepAnchors
                               : true;
    if (keep) emit(word, pos, isAnchor ? base : unwrapTimestamp(base, ts32));
    if (!isAnchor && !isFiller) {
      // Keep the base advancing so long gaps between anchors still unwrap.
      base = unwrapTimestamp(base, ts32);
    }
    pos += length;
  }
  tsBase = base;
  stats.events = events;
  stats.fillers = fillers;
  stats.fillerWords = fillerWords;
  return stats;
}

}  // namespace ktrace
