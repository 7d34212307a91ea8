#include "analysis/lister.hpp"

#include <deque>
#include <map>
#include <sstream>

#include "analysis/completeness.hpp"
#include "util/table.hpp"

namespace ktrace::analysis {

std::string listEvents(const TraceSet& trace, const Registry& registry,
                       double ticksPerSecond, const ListerOptions& options) {
  std::ostringstream out;

  // Per-processor queues of drop windows, emitted as warning lines just
  // before the first event observed after each gap.
  std::map<uint32_t, std::deque<CompletenessGap>> pendingGaps;
  if (options.annotateGaps) {
    const CompletenessReport report = CompletenessReport::analyze(trace);
    for (const CompletenessGap& g : report.gaps()) {
      pendingGaps[g.processor].push_back(g);
    }
  }

  size_t emitted = 0;
  MergeCursor cursor(trace);
  while (const DecodedEvent* e = cursor.next()) {
    if ((options.majorMask & (1ull << static_cast<uint32_t>(e->header.major))) == 0) {
      continue;
    }
    if (e->fullTimestamp < options.startTick) continue;
    if (options.endTick != 0 && e->fullTimestamp > options.endTick) continue;
    if (options.maxEvents != 0 && emitted >= options.maxEvents) break;

    if (options.annotateGaps) {
      auto it = pendingGaps.find(e->processor);
      if (it != pendingGaps.end()) {
        std::deque<CompletenessGap>& q = it->second;
        while (!q.empty() && e->bufferSeq >= q.front().afterSeq) {
          const CompletenessGap& g = q.front();
          out << util::strprintf("!!! gap cpu%u: %llu buffer(s) missing, ",
                                 g.processor,
                                 static_cast<unsigned long long>(g.lostBuffers));
          if (g.bounded) {
            out << util::strprintf("%llu event(s) lost\n",
                                   static_cast<unsigned long long>(g.lostEvents));
          } else {
            out << "loss unbounded\n";
          }
          q.pop_front();
        }
      }
    }

    const double seconds = static_cast<double>(e->fullTimestamp) / ticksPerSecond;
    if (options.showProcessor) {
      out << util::strprintf("[cpu%u] ", e->processor);
    }
    out << util::strprintf("%12.7f %-32s %s\n", seconds,
                           registry.eventName(e->header.major, e->header.minor).c_str(),
                           registry.formatEvent(*e).c_str());
    ++emitted;
  }
  return out.str();
}

}  // namespace ktrace::analysis
