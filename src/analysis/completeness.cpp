#include "analysis/completeness.hpp"

#include <sstream>

#include "analysis/streaming/folds.hpp"
#include "core/monitor.hpp"
#include "util/table.hpp"

namespace ktrace::analysis {

namespace {

const char* kindName(CompletenessGap::Kind kind) noexcept {
  switch (kind) {
    case CompletenessGap::Kind::Head: return "head";
    case CompletenessGap::Kind::Middle: return "middle";
    case CompletenessGap::Kind::Tail: return "tail";
  }
  return "?";
}

}  // namespace

CompletenessReport CompletenessReport::analyze(const TraceSet& trace) {
  // The post-hoc tool is the streaming fold run to EOF (DESIGN.md §13):
  // one implementation, identical results live and offline. The fold only
  // needs per-processor relative order, which the per-processor vectors
  // trivially provide.
  streaming::CompletenessFold fold;
  for (uint32_t p = 0; p < trace.numProcessors(); ++p) {
    fold.onEvents(trace.processorEvents(p));
  }
  fold.finish();
  return fromFold(std::move(fold), trace.stats());
}

CompletenessReport CompletenessReport::fromFold(
    streaming::CompletenessFold&& fold, const DecodeStats& stats) {
  CompletenessReport report;
  report.hasHeartbeats_ = fold.hasHeartbeats();
  report.gaps_ = fold.takeGaps();
  report.processors_ = fold.takeProcessors();
  report.decodeStats_ = stats;
  return report;
}

bool CompletenessReport::complete() const noexcept {
  if (!gaps_.empty()) return false;
  for (const ProcessorCompleteness& s : processors_) {
    if (s.lostEvents != 0 || s.droppedAtSource != 0) return false;
  }
  return decodeStats_.garbledBuffers == 0 && decodeStats_.tornRecords == 0 &&
         decodeStats_.corruptRecords == 0 && decodeStats_.unreadableFiles == 0;
}

uint64_t CompletenessReport::totalLostEvents() const noexcept {
  uint64_t n = 0;
  for (const ProcessorCompleteness& s : processors_) n += s.lostEvents;
  return n;
}

uint64_t CompletenessReport::totalLostBuffers() const noexcept {
  uint64_t n = 0;
  for (const CompletenessGap& g : gaps_) n += g.lostBuffers;
  return n;
}

uint64_t CompletenessReport::totalDroppedAtSource() const noexcept {
  uint64_t n = 0;
  for (const ProcessorCompleteness& s : processors_) n += s.droppedAtSource;
  return n;
}

std::string CompletenessReport::report(double ticksPerSecond) const {
  std::ostringstream out;
  const bool ok = complete();
  out << "completeness: " << (ok ? "COMPLETE" : "INCOMPLETE");
  if (!hasHeartbeats_) out << " (no heartbeats: loss cannot be bounded)";
  out << util::strprintf(
      " — %zu gap(s), %llu buffer(s) lost, %llu event(s) lost, "
      "%llu dropped at source\n",
      gaps_.size(), static_cast<unsigned long long>(totalLostBuffers()),
      static_cast<unsigned long long>(totalLostEvents()),
      static_cast<unsigned long long>(totalDroppedAtSource()));
  if (decodeStats_.tornRecords != 0 || decodeStats_.corruptRecords != 0 ||
      decodeStats_.garbledBuffers != 0 || decodeStats_.unreadableFiles != 0) {
    out << util::strprintf(
        "  file damage: %llu torn, %llu corrupt record(s), "
        "%llu garbled buffer(s), %llu unreadable file(s)\n",
        static_cast<unsigned long long>(decodeStats_.tornRecords),
        static_cast<unsigned long long>(decodeStats_.corruptRecords),
        static_cast<unsigned long long>(decodeStats_.garbledBuffers),
        static_cast<unsigned long long>(decodeStats_.unreadableFiles));
  }
  for (const ProcessorCompleteness& s : processors_) {
    out << util::strprintf(
        "  cpu %u: %llu heartbeat(s), %llu observed, %llu expected, "
        "%llu lost",
        s.processor, static_cast<unsigned long long>(s.heartbeats),
        static_cast<unsigned long long>(s.observedEvents),
        static_cast<unsigned long long>(s.expectedEvents),
        static_cast<unsigned long long>(s.lostEvents));
    if (s.droppedAtSource != 0) {
      out << util::strprintf(", %llu dropped at source",
                             static_cast<unsigned long long>(s.droppedAtSource));
    }
    if (s.tailUnverified) out << ", tail unverified";
    out << "\n";
  }
  for (const CompletenessGap& g : gaps_) {
    out << util::strprintf("  gap cpu %u [%s]: ", g.processor, kindName(g.kind));
    if (g.lostBuffers != 0) {
      out << util::strprintf(
          "buffers %llu..%llu missing (%llu)",
          static_cast<unsigned long long>(g.kind == CompletenessGap::Kind::Head
                                              ? 0
                                              : g.beforeSeq + 1),
          static_cast<unsigned long long>(g.afterSeq - 1),
          static_cast<unsigned long long>(g.lostBuffers));
    } else {
      out << "short buffer";
    }
    out << util::strprintf(" in ticks [%llu, %llu]",
                           static_cast<unsigned long long>(g.startTick),
                           static_cast<unsigned long long>(g.endTick));
    if (ticksPerSecond > 0.0) {
      out << util::strprintf(" (%.6fs..%.6fs)",
                             static_cast<double>(g.startTick) / ticksPerSecond,
                             static_cast<double>(g.endTick) / ticksPerSecond);
    }
    if (g.bounded) {
      out << util::strprintf(" — exactly %llu event(s) lost",
                             static_cast<unsigned long long>(g.lostEvents));
    } else {
      out << " — loss unbounded";
    }
    out << "\n";
  }
  return out.str();
}

std::string CompletenessReport::toJson() const {
  std::ostringstream out;
  out << "{\n";
  out << util::strprintf("  \"complete\": %s,\n", complete() ? "true" : "false");
  out << util::strprintf("  \"verified\": %s,\n",
                         hasHeartbeats_ ? "true" : "false");
  out << util::strprintf("  \"total_lost_events\": %llu,\n",
                         static_cast<unsigned long long>(totalLostEvents()));
  out << util::strprintf("  \"total_lost_buffers\": %llu,\n",
                         static_cast<unsigned long long>(totalLostBuffers()));
  out << util::strprintf("  \"dropped_at_source\": %llu,\n",
                         static_cast<unsigned long long>(totalDroppedAtSource()));
  out << "  \"processors\": [";
  for (size_t i = 0; i < processors_.size(); ++i) {
    const ProcessorCompleteness& s = processors_[i];
    out << (i == 0 ? "\n" : ",\n");
    out << util::strprintf(
        "    {\"cpu\": %u, \"heartbeats\": %llu, \"observed_events\": %llu, "
        "\"expected_events\": %llu, \"lost_events\": %llu, "
        "\"unbounded_gaps\": %llu, \"dropped_at_source\": %llu, "
        "\"consumer_lost_buffers\": %llu, \"tail_unverified\": %s}",
        s.processor, static_cast<unsigned long long>(s.heartbeats),
        static_cast<unsigned long long>(s.observedEvents),
        static_cast<unsigned long long>(s.expectedEvents),
        static_cast<unsigned long long>(s.lostEvents),
        static_cast<unsigned long long>(s.unboundedGaps),
        static_cast<unsigned long long>(s.droppedAtSource),
        static_cast<unsigned long long>(s.consumerLost),
        s.tailUnverified ? "true" : "false");
  }
  out << (processors_.empty() ? "],\n" : "\n  ],\n");
  out << "  \"gaps\": [";
  for (size_t i = 0; i < gaps_.size(); ++i) {
    const CompletenessGap& g = gaps_[i];
    out << (i == 0 ? "\n" : ",\n");
    out << util::strprintf(
        "    {\"cpu\": %u, \"kind\": \"%s\", \"before_seq\": %llu, "
        "\"after_seq\": %llu, \"lost_buffers\": %llu, \"start_tick\": %llu, "
        "\"end_tick\": %llu, \"bounded\": %s, \"lost_events\": %llu}",
        g.processor, kindName(g.kind),
        static_cast<unsigned long long>(g.beforeSeq),
        static_cast<unsigned long long>(g.afterSeq),
        static_cast<unsigned long long>(g.lostBuffers),
        static_cast<unsigned long long>(g.startTick),
        static_cast<unsigned long long>(g.endTick),
        g.bounded ? "true" : "false",
        static_cast<unsigned long long>(g.lostEvents));
  }
  out << (gaps_.empty() ? "]\n" : "\n  ]\n");
  out << "}\n";
  return out.str();
}

}  // namespace ktrace::analysis
