#include "analysis/timeline.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "analysis/lister.hpp"
#include "ossim/events.hpp"
#include "util/table.hpp"

namespace ktrace::analysis {

const char* activityName(Activity a) noexcept {
  switch (a) {
    case Activity::Idle: return "idle";
    case Activity::User: return "user";
    case Activity::Kernel: return "kernel";
    case Activity::LockWait: return "lock-wait";
    case Activity::Emulation: return "emulation";
    case Activity::ActivityCount: break;
  }
  return "?";
}

namespace {

const char* activityColor(Activity a) noexcept {
  switch (a) {
    case Activity::Idle: return "#e8e8e8";
    case Activity::User: return "#4caf50";
    case Activity::Kernel: return "#e53935";  // the paper's "chunks of red (kernel time)"
    case Activity::LockWait: return "#fb8c00";
    case Activity::Emulation: return "#1e88e5";
    case Activity::ActivityCount: break;
  }
  return "#000000";
}

char activityChar(Activity a) noexcept {
  switch (a) {
    case Activity::Idle: return '.';
    case Activity::User: return 'U';
    case Activity::Kernel: return 'K';
    case Activity::LockWait: return 'L';
    case Activity::Emulation: return 'E';
    case Activity::ActivityCount: break;
  }
  return '?';
}

// Walker deriving the current activity from the event stream; mirrors the
// state machine of TimeAttribution but coarser.
struct LaneState {
  bool idle = true;
  uint64_t pid = ~0ull;
  int syscallDepth = 0;
  bool inIpc = false;
  bool inFault = false;
  bool inEmu = false;
  bool inLockWait = false;

  Activity activity() const noexcept {
    if (idle) return Activity::Idle;
    if (inLockWait) return Activity::LockWait;
    if (inIpc || inFault || syscallDepth > 0) return Activity::Kernel;
    if (inEmu) return Activity::Emulation;
    return Activity::User;
  }

  void apply(const DecodedEvent& e) noexcept {
    switch (e.header.major) {
      case Major::Sched:
        switch (static_cast<ossim::SchedMinor>(e.header.minor)) {
          case ossim::SchedMinor::Dispatch:
            idle = false;
            pid = e.data.empty() ? ~0ull : e.data[0];
            break;
          case ossim::SchedMinor::Preempt:
          case ossim::SchedMinor::Block:
          case ossim::SchedMinor::ThreadExit:
          case ossim::SchedMinor::Idle:
            idle = true;
            pid = ~0ull;
            syscallDepth = 0;
            inIpc = inFault = inEmu = inLockWait = false;
            break;
          default:
            break;
        }
        break;
      case Major::Linux:
        switch (static_cast<ossim::LinuxMinor>(e.header.minor)) {
          case ossim::LinuxMinor::SyscallEnter: ++syscallDepth; break;
          case ossim::LinuxMinor::SyscallExit:
            if (syscallDepth > 0) --syscallDepth;
            break;
          case ossim::LinuxMinor::EmuEnter: inEmu = true; break;
          case ossim::LinuxMinor::EmuExit: inEmu = false; break;
        }
        break;
      case Major::Exception:
        switch (static_cast<ossim::ExcMinor>(e.header.minor)) {
          case ossim::ExcMinor::PgfltStart: inFault = true; break;
          case ossim::ExcMinor::PgfltDone: inFault = false; break;
          case ossim::ExcMinor::PpcCall: inIpc = true; break;
          case ossim::ExcMinor::PpcReturn: inIpc = false; break;
        }
        break;
      case Major::Lock:
        switch (static_cast<ossim::LockMinor>(e.header.minor)) {
          case ossim::LockMinor::ContendStart: inLockWait = true; break;
          case ossim::LockMinor::Acquired: inLockWait = false; break;
          case ossim::LockMinor::Release: break;
          case ossim::LockMinor::HotSwap: break;
        }
        break;
      default:
        break;
    }
  }
};

}  // namespace

Timeline::Timeline(const TraceSet& trace) : trace_(trace) {
  numProcessors_ = trace.numProcessors();
  firstTick_ = trace.firstTimestamp();
  lastTick_ = trace.lastTimestamp();
  for (uint32_t p = 0; p < numProcessors_; ++p) {
    LaneState state;
    uint64_t segmentStart = firstTick_;
    Activity current = state.activity();
    for (const DecodedEvent& e : trace.processorEvents(p)) {
      state.apply(e);
      const Activity next = state.activity();
      if (next != current) {
        if (e.fullTimestamp > segmentStart) {
          segments_.push_back({p, current, segmentStart, e.fullTimestamp, state.pid});
        }
        segmentStart = e.fullTimestamp;
        current = next;
      }
    }
    if (lastTick_ > segmentStart) {
      segments_.push_back({p, current, segmentStart, lastTick_, state.pid});
    }
  }
}

uint64_t Timeline::activityTicks(uint32_t processor, Activity activity) const {
  uint64_t total = 0;
  for (const ActivitySegment& s : segments_) {
    if (s.processor == processor && s.activity == activity) {
      total += s.endTick - s.startTick;
    }
  }
  return total;
}

std::string Timeline::renderSvg(const Registry& registry, double ticksPerSecond,
                                const TimelineOptions& options) const {
  const uint64_t t0 = options.startTick != 0 ? options.startTick : firstTick_;
  const uint64_t t1 = options.endTick != 0 ? options.endTick : lastTick_;
  const double span = t1 > t0 ? static_cast<double>(t1 - t0) : 1.0;
  const uint32_t laneH = options.laneHeightPx;
  const uint32_t headerH = 30;
  const uint32_t legendH = 24;
  const uint32_t width = options.widthPx;
  const uint32_t height = headerH + numProcessors_ * laneH + legendH + 10;

  auto xOf = [&](uint64_t tick) {
    const double frac = (static_cast<double>(tick) - static_cast<double>(t0)) / span;
    return 60.0 + frac * (width - 80);
  };

  std::ostringstream svg;
  svg << util::strprintf(
      "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%u\" height=\"%u\" "
      "font-family=\"monospace\" font-size=\"11\">\n",
      width, height);
  svg << util::strprintf(
      "<text x=\"10\" y=\"18\">trace timeline  %.6fs .. %.6fs</text>\n",
      static_cast<double>(t0) / ticksPerSecond, static_cast<double>(t1) / ticksPerSecond);

  for (uint32_t p = 0; p < numProcessors_; ++p) {
    const double y = headerH + p * laneH;
    svg << util::strprintf("<text x=\"8\" y=\"%.0f\">cpu%u</text>\n", y + laneH * 0.65, p);
  }
  for (const ActivitySegment& s : segments_) {
    if (s.endTick <= t0 || s.startTick >= t1) continue;
    const double xA = xOf(std::max(s.startTick, t0));
    const double xB = xOf(std::min(s.endTick, t1));
    const double y = headerH + s.processor * laneH;
    svg << util::strprintf(
        "<rect x=\"%.2f\" y=\"%.1f\" width=\"%.2f\" height=\"%u\" fill=\"%s\">"
        "<title>%s pid=%llu</title></rect>\n",
        xA, y + 2, std::max(0.5, xB - xA), laneH - 4, activityColor(s.activity),
        activityName(s.activity), static_cast<unsigned long long>(s.pid));
  }

  // Marked events (the paper's selected-events feature of Figure 4).
  for (const TimelineMark& mark : options.marks) {
    for (uint32_t p = 0; p < numProcessors_; ++p) {
      for (const DecodedEvent& e : trace_.processorEvents(p)) {
        if (e.header.major != mark.major || e.header.minor != mark.minor) continue;
        if (e.fullTimestamp < t0 || e.fullTimestamp > t1) continue;
        const double x = xOf(e.fullTimestamp);
        const double y = headerH + p * laneH;
        svg << util::strprintf(
            "<line x1=\"%.2f\" y1=\"%.1f\" x2=\"%.2f\" y2=\"%.1f\" stroke=\"black\" "
            "stroke-width=\"1.2\"><title>%s</title></line>\n",
            x, y, x, y + laneH,
            registry.eventName(mark.major, mark.minor).c_str());
      }
    }
  }

  // Legend.
  double lx = 60;
  const double ly = headerH + numProcessors_ * laneH + 6;
  for (uint32_t a = 0; a < static_cast<uint32_t>(Activity::ActivityCount); ++a) {
    const Activity act = static_cast<Activity>(a);
    svg << util::strprintf(
        "<rect x=\"%.0f\" y=\"%.0f\" width=\"12\" height=\"12\" fill=\"%s\"/>\n", lx, ly,
        activityColor(act));
    svg << util::strprintf("<text x=\"%.0f\" y=\"%.0f\">%s</text>\n", lx + 16, ly + 10,
                           activityName(act));
    lx += 110;
  }
  svg << "</svg>\n";
  return svg.str();
}

std::string Timeline::renderAscii(uint32_t widthCols, const TimelineOptions& options) const {
  const uint64_t t0 = options.startTick != 0 ? options.startTick : firstTick_;
  const uint64_t t1 = options.endTick != 0 ? options.endTick : lastTick_;
  if (t1 <= t0 || widthCols == 0) return "";
  const double span = static_cast<double>(t1 - t0);

  std::ostringstream out;
  for (uint32_t p = 0; p < numProcessors_; ++p) {
    // Dominant activity per bucket, by accumulated ticks.
    std::vector<std::array<uint64_t, 5>> buckets(
        widthCols, std::array<uint64_t, 5>{0, 0, 0, 0, 0});
    for (const ActivitySegment& s : segments_) {
      if (s.processor != p || s.endTick <= t0 || s.startTick >= t1) continue;
      const uint64_t a = std::max(s.startTick, t0);
      const uint64_t b = std::min(s.endTick, t1);
      const auto bucketOf = [&](uint64_t tick) {
        const auto idx = static_cast<size_t>(
            (static_cast<double>(tick - t0) / span) * widthCols);
        return std::min<size_t>(idx, widthCols - 1);
      };
      const size_t firstBucket = bucketOf(a);
      const size_t lastBucket = bucketOf(b == t0 ? t0 : b - 1);
      for (size_t bk = firstBucket; bk <= lastBucket; ++bk) {
        const uint64_t bkStart = t0 + static_cast<uint64_t>(span * bk / widthCols);
        const uint64_t bkEnd = t0 + static_cast<uint64_t>(span * (bk + 1) / widthCols);
        const uint64_t overlap =
            std::min(b, bkEnd) - std::max(a, bkStart);
        buckets[bk][static_cast<size_t>(s.activity)] += overlap;
      }
    }
    out << util::strprintf("cpu%-2u |", p);
    for (const auto& bucket : buckets) {
      size_t best = 0;
      for (size_t a = 1; a < 5; ++a) {
        if (bucket[a] > bucket[best]) best = a;
      }
      out << activityChar(static_cast<Activity>(best));
    }
    out << "|\n";
  }
  return out.str();
}

std::string Timeline::listRegion(const Registry& registry, double ticksPerSecond,
                                 uint64_t aroundTick, uint64_t radius) const {
  ListerOptions opts;
  opts.startTick = aroundTick > radius ? aroundTick - radius : 0;
  opts.endTick = aroundTick + radius;
  opts.showProcessor = true;
  return listEvents(trace_, registry, ticksPerSecond, opts);
}

}  // namespace ktrace::analysis
