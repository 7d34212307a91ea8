#include "analysis/event_stats.hpp"

#include <algorithm>
#include <sstream>

#include "analysis/streaming/folds.hpp"
#include "util/table.hpp"

namespace ktrace::analysis {

namespace {
uint32_t key(Major major, uint16_t minor) noexcept {
  return (static_cast<uint32_t>(major) << 16) | minor;
}
}  // namespace

EventStats::EventStats(const TraceSet& trace) {
  // The post-hoc tool is the streaming fold run to EOF (DESIGN.md §13):
  // one implementation, identical results live and offline.
  streaming::EventRateFold fold(trace.numProcessors());
  for (uint32_t p = 0; p < trace.numProcessors(); ++p) {
    fold.onEvents(trace.processorEvents(p));
  }
  fold.finish();
  *this = EventStats(std::move(fold));
}

EventStats::EventStats(streaming::EventRateFold&& fold)
    : stats_(fold.takeStats()),
      totalEvents_(fold.totalEvents()),
      totalWords_(fold.totalWords()),
      numProcessors_(fold.numProcessors()) {}

std::vector<EventTypeStats> EventStats::byCount() const {
  std::vector<EventTypeStats> out;
  out.reserve(stats_.size());
  for (const auto& [_, s] : stats_) out.push_back(s);
  std::stable_sort(out.begin(), out.end(),
                   [](const EventTypeStats& a, const EventTypeStats& b) {
                     return a.count > b.count;
                   });
  return out;
}

const EventTypeStats* EventStats::find(Major major, uint16_t minor) const {
  const auto it = stats_.find(key(major, minor));
  return it == stats_.end() ? nullptr : &it->second;
}

std::string EventStats::report(const Registry& registry, double ticksPerSecond,
                               size_t topN) const {
  std::ostringstream out;
  out << util::strprintf("%llu events, %llu words (%.2f words/event average)\n\n",
                         static_cast<unsigned long long>(totalEvents_),
                         static_cast<unsigned long long>(totalWords_),
                         meanEventWords());
  util::TextTable table;
  table.addColumn("event");
  table.addColumn("count", util::Align::Right);
  table.addColumn("share", util::Align::Right);
  table.addColumn("words/evt", util::Align::Right);
  table.addColumn("rate/s", util::Align::Right);
  size_t emitted = 0;
  for (const EventTypeStats& s : byCount()) {
    if (emitted++ == topN) break;
    table.addRow({registry.eventName(s.major, s.minor),
                  util::strprintf("%llu", static_cast<unsigned long long>(s.count)),
                  util::strprintf("%.1f%%", 100.0 * static_cast<double>(s.count) /
                                                static_cast<double>(totalEvents_)),
                  util::strprintf("%.2f", static_cast<double>(s.totalWords) /
                                              static_cast<double>(s.count)),
                  util::strprintf("%.0f", s.ratePerSecond(ticksPerSecond))});
  }
  out << table.render();
  return out.str();
}

}  // namespace ktrace::analysis
