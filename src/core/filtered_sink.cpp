#include "core/filtered_sink.hpp"

namespace ktrace {

void FilteredSink::onBuffer(BufferRecord&& record) {
  const uint32_t bufferWords = static_cast<uint32_t>(record.words.size());
  uint32_t pos = 0;
  while (pos < bufferWords) {
    const uint64_t headerWord = record.words[pos];
    if (!headerLooksValid(headerWord, pos, bufferWords)) {
      // Unclassifiable region: zero it and cover with filler chains so the
      // unprivileged consumer sees nothing and the buffer still decodes.
      wordsScrubbed_ += bufferWords - pos;
      for (uint32_t i = pos; i < bufferWords; ++i) record.words[i] = 0;
      forEachFiller(bufferWords - pos, 0, [&](uint64_t at, uint64_t header) {
        record.words[pos + at] = header;
      });
      break;
    }
    const EventHeader h = EventHeader::decode(headerWord);
    const bool anchorOrFiller =
        h.major == Major::Control;  // infrastructure events always pass
    const bool visible =
        anchorOrFiller || (allowed_ & (1ull << static_cast<uint32_t>(h.major))) != 0;
    if (!visible) {
      // Same length, same timestamp, payload zeroed: structure preserved.
      record.words[pos] = EventHeader::encode(
          h.timestamp, h.lengthWords, Major::Control,
          static_cast<uint16_t>(ControlMinor::Filler));
      for (uint32_t i = 1; i < h.lengthWords; ++i) record.words[pos + i] = 0;
      eventsScrubbed_ += 1;
      wordsScrubbed_ += h.lengthWords;
    }
    pos += h.lengthWords;
  }
  inner_.onBuffer(std::move(record));
}

}  // namespace ktrace
