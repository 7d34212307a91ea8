#include "core/flight_recorder.hpp"

#include <sstream>

#include "util/table.hpp"

namespace ktrace {

std::vector<DecodedEvent> flightRecorderSnapshot(const ShmTraceControl& control,
                                                 const FlightRecorderOptions& options) {
  const uint32_t bufferWords = control.bufferWords();
  const uint32_t numBuffers = control.numBuffers();
  const uint64_t index = control.currentIndex();
  const uint64_t currentSeq = control.bufferSeq(index);
  const uint32_t currentOffset = static_cast<uint32_t>(index & (bufferWords - 1));

  const uint64_t oldestSeq = control.oldestIntactSeq(currentSeq);

  // The events first view a copy of the ring's buffers, oldest first;
  // the ones kept then take owned copies of their payloads, so the
  // snapshot stands alone once the copy is gone.
  std::vector<DecodedEvent> events;
  uint64_t tsBase = 0;
  std::vector<uint64_t> copy((currentSeq - oldestSeq + 1) * bufferWords);
  for (uint64_t seq = oldestSeq; seq <= currentSeq; ++seq) {
    if (seq == currentSeq && currentOffset == 0) break;  // lap not yet begun
    const uint32_t slot = static_cast<uint32_t>(seq & (numBuffers - 1));
    const uint64_t base = static_cast<uint64_t>(slot) * bufferWords;
    const std::span<uint64_t> words(copy.data() + (seq - oldestSeq) * bufferWords,
                                    bufferWords);
    for (uint32_t i = 0; i < bufferWords; ++i) words[i] = control.loadWord(base + i);

    DecodeOptions dopt;
    dopt.keepAnchors = options.includeAnchors;
    const uint32_t limit = seq == currentSeq ? currentOffset : 0;
    decodeBuffer(words, seq, control.processorId(), tsBase, events, dopt, limit);
  }

  if (options.majorMask != ~0ull) {
    std::erase_if(events, [&](const DecodedEvent& e) {
      return (options.majorMask & (1ull << static_cast<uint32_t>(e.header.major))) == 0;
    });
  }
  if (options.maxEvents != 0 && events.size() > options.maxEvents) {
    events.erase(events.begin(),
                 events.begin() + static_cast<ptrdiff_t>(events.size() - options.maxEvents));
  }
  for (DecodedEvent& e : events) e.data.assign(e.data.data(), e.data.size());
  return events;
}

std::string flightRecorderReport(const ShmTraceControl& control, const Registry& registry,
                                 double ticksPerSecond,
                                 const FlightRecorderOptions& options) {
  const auto events = flightRecorderSnapshot(control, options);
  std::ostringstream out;
  for (const DecodedEvent& e : events) {
    const double seconds = static_cast<double>(e.fullTimestamp) / ticksPerSecond;
    out << util::strprintf("%14.7f  %-34s %s\n", seconds,
                           registry.eventName(e.header.major, e.header.minor).c_str(),
                           registry.formatEvent(e).c_str());
  }
  return out.str();
}

}  // namespace ktrace
