#include "analysis/streaming/engine.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/table.hpp"

namespace ktrace::analysis::streaming {

namespace {

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += util::strprintf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  return util::strprintf("%.10g", v);
}

}  // namespace

StreamEngine::StreamEngine(StreamEngineConfig config,
                           std::vector<DerivedMonitor> monitors)
    : config_(config), monitors_(std::move(monitors)),
      keepHeartbeats_(config_.windowTicks != 0 && !monitors_.empty()) {}

void StreamEngine::addFold(std::unique_ptr<Fold> fold) {
  const FoldProperties props = fold->properties();
  if (props.order == FoldOrder::Merged) {
    mergedFolds_.push_back(fold.get());
    mergedMajors_ |= props.majors;
  } else {
    perProcessorFolds_.push_back(fold.get());
  }
  for (uint32_t m = 0; m < kMaxMajors; ++m) {
    if (hasMajor(props.majors, static_cast<Major>(m))) {
      foldsByMajor_[m].push_back(fold.get());
    }
  }
  folds_.push_back(std::move(fold));
}

void StreamEngine::selectProcessor(uint32_t id) {
  auto it = std::lower_bound(
      processors_.begin(), processors_.end(), id,
      [](const Processor& p, uint32_t v) { return p.id < v; });
  if (it == processors_.end() || it->id != id) {
    it = processors_.insert(it, Processor{});
    it->id = id;
  }
  hotProcessor_ = static_cast<size_t>(it - processors_.begin());
  othersLastTick_ = UINT64_MAX;
  for (const Processor& p : processors_) {
    if (p.id != id) othersLastTick_ = std::min(othersLastTick_, p.lastTick);
  }
}

void StreamEngine::selectWindow(uint64_t index, uint64_t watermark) {
  hotStart_ = index * config_.windowTicks;
  hotEnd_ = hotStart_ + config_.windowTicks;
  hotCount_ = nullptr;
  hotWindow_ = nullptr;
  if (index < prunedBelow_) return;  // aged out: a late event
  auto [it, inserted] = windows_.try_emplace(index);
  if (inserted) {
    it->second.index = index;
    // A window created below the watermark (a straggler processor's first
    // buffer) is already complete — its end has been passed.
    if (finished_ || hotEnd_ <= watermark) {
      it->second.complete = true;
      ++windowsCompleted_;
    }
    // Catch up on completions a per-event feed would have made by now
    // (a no-op there); the new window cannot change what they are.
    completeWindows(watermark);
    if (windows_.size() > config_.maxWindows) {
      while (windows_.size() > config_.maxWindows) {
        const auto oldest = windows_.begin();
        prunedBelow_ = oldest->first + 1;
        windows_.erase(oldest);
      }
      pruneHeartbeats();
      // The new window itself can be the oldest: then it is late too.
      if (index < prunedBelow_) return;
    }
  }
  hotWindow_ = &it->second;
}

inline void StreamEngine::countInto(uint32_t processor, uint64_t events) {
  if (hotCount_ != nullptr && hotCountCpu_ == processor) [[likely]] {
    hotWindow_->events += events;
    *hotCount_ += events;
  } else if (events != 0) {
    countIntoSlot(processor, events);
  }
}

void StreamEngine::countIntoSlot(uint32_t processor, uint64_t events) {
  if (hotWindow_ == nullptr) {
    lateEvents_ += events;
    return;
  }
  auto& cpus = hotWindow_->perProcessor;
  auto it = cpus.begin();
  while (it != cpus.end() && it->first < processor) ++it;
  if (it == cpus.end() || it->first != processor) {
    it = cpus.insert(it, {processor, 0});
  }
  hotCount_ = &it->second;
  hotCountCpu_ = processor;
  hotWindow_->events += events;
  *hotCount_ += events;
}

inline void StreamEngine::completeWindows(uint64_t watermark) {
  // Every window from completedBelow_ on ends at or after this tick.
  if (config_.windowTicks == 0 ||
      watermark < (completedBelow_ + 1) * config_.windowTicks) [[likely]] {
    return;
  }
  for (auto it = windows_.lower_bound(completedBelow_); it != windows_.end();
       ++it) {
    if ((it->first + 1) * config_.windowTicks > watermark) break;
    if (!it->second.complete) {
      it->second.complete = true;
      ++windowsCompleted_;
    }
    completedBelow_ = it->first + 1;
  }
}

void StreamEngine::pruneHeartbeats() {
  // varsForWindow reads, per processor, the newest heartbeat at or before
  // a retained window's end; no retained window ends at or before the
  // start of window prunedBelow_, so one heartbeat at or before that
  // start is all the history it can still reach.
  const uint64_t start = prunedBelow_ * config_.windowTicks;
  for (Processor& p : processors_) {
    std::deque<HeartbeatAt>& hist = p.heartbeats;
    const auto after = std::upper_bound(
        hist.begin(), hist.end(), start,
        [](uint64_t v, const HeartbeatAt& h) { return v < h.tick; });
    if (after - hist.begin() > 1) hist.erase(hist.begin(), after - 1);
  }
}

size_t StreamEngine::heartbeatsRetained() const noexcept {
  size_t n = 0;
  for (const Processor& p : processors_) n += p.heartbeats.size();
  return n;
}

void StreamEngine::noteHeartbeat(Processor& proc, const DecodedEvent& e) {
  Heartbeat hb;
  if (parseHeartbeat(e, hb)) proc.heartbeats.push_back({e.fullTimestamp, hb});
}

void StreamEngine::observeRun(std::span<const DecodedEvent> events) {
  // One processor's events. `watermark` tracks what observe() would hold
  // before each event — the minimum last tick over every processor — so a
  // window created mid-run is born complete, and older windows complete
  // before it can push them out, exactly as event by event. After the
  // run's first event that watermark never falls, so completing windows
  // only there and at the end reaches the same state as after every event.
  // Events of the processor and window the last ones touched take no
  // lookup: the slow paths run only at a switch.
  const uint32_t cpu = events[0].processor;
  if (hotProcessor_ >= processors_.size() ||
      processors_[hotProcessor_].id != cpu) [[unlikely]] {
    selectProcessor(cpu);
  }
  Processor& proc = processors_[hotProcessor_];
  const uint64_t others = othersLastTick_;
  eventsObserved_ += events.size();
  uint64_t last = proc.lastTick;
  uint64_t watermark = watermark_;

  const uint64_t width = config_.windowTicks;
  uint64_t counted = 0;  // events of the hot window not counted yet
  for (const DecodedEvent& e : events) {
    const uint64_t tick = e.fullTimestamp;
    if (e.header.major == Major::Monitor && keepHeartbeats_) [[unlikely]] {
      noteHeartbeat(proc, e);
    }
    if (width != 0) {
      if (tick < hotStart_ || tick >= hotEnd_) [[unlikely]] {
        countInto(cpu, counted);
        counted = 0;
        selectWindow(tick / width, watermark);
      }
      ++counted;
    }
    if (tick > last) last = tick;
    watermark = std::min(others, last);
  }
  countInto(cpu, counted);
  proc.lastTick = last;
  watermark_ = watermark;
  completeWindows(watermark_);
}

void StreamEngine::observe(const DecodedEvent& e) { observeRun({&e, 1}); }

void StreamEngine::onRun(std::span<const DecodedEvent> run) {
  if (run.empty()) return;
  observeRun(run);
  for (Fold* fold : perProcessorFolds_) fold->onEvents(run);
}

void StreamEngine::onMerged(std::span<const DecodedEvent> events) {
  for (Fold* fold : mergedFolds_) fold->onEvents(events);
}

void StreamEngine::finish() {
  if (finished_) return;
  finished_ = true;
  for (auto& [index, w] : windows_) {
    if (!w.complete) {
      w.complete = true;
      ++windowsCompleted_;
    }
  }
  if (!windows_.empty()) completedBelow_ = windows_.rbegin()->first + 1;
  uint64_t wm = watermark_;
  for (const Processor& p : processors_) wm = std::max(wm, p.lastTick);
  watermark_ = wm;
  for (const auto& fold : folds_) fold->finish();
}

MonitorVars StreamEngine::varsForWindow(const Window& w,
                                        uint64_t cumEvents) const {
  const uint64_t end = (w.index + 1) * config_.windowTicks;
  MonitorVars vars;
  double logged = 0, dropped = 0, retries = 0, slowpath = 0, filler = 0,
         wordsReserved = 0, stale = 0;
  const HeartbeatAt* newest = nullptr;
  uint32_t newestProc = 0;
  for (const Processor& proc : processors_) {
    const uint32_t p = proc.id;
    const std::deque<HeartbeatAt>& hist = proc.heartbeats;
    // Newest heartbeat at or before the window end; per-processor
    // histories are timestamp-ordered, so this is a binary search.
    const auto it = std::upper_bound(
        hist.begin(), hist.end(), end,
        [](uint64_t v, const HeartbeatAt& h) { return v < h.tick; });
    if (it == hist.begin()) continue;
    const HeartbeatAt& h = *(it - 1);
    logged += static_cast<double>(h.hb.eventsLogged);
    dropped += static_cast<double>(h.hb.eventsDropped);
    retries += static_cast<double>(h.hb.reserveRetries);
    slowpath += static_cast<double>(h.hb.slowPathEntries);
    filler += static_cast<double>(h.hb.fillerWords);
    wordsReserved += static_cast<double>(h.hb.wordsReserved);
    stale += static_cast<double>(h.hb.staleCommits);
    // Session-global words come from the newest heartbeat overall;
    // deterministic tie-break on (tick, heartbeatSeq, processor).
    if (newest == nullptr || h.tick > newest->tick ||
        (h.tick == newest->tick &&
         (h.hb.heartbeatSeq > newest->hb.heartbeatSeq ||
          (h.hb.heartbeatSeq == newest->hb.heartbeatSeq && p > newestProc)))) {
      newest = &h;
      newestProc = p;
    }
  }
  vars["logged"] = logged;
  vars["dropped"] = dropped;
  vars["retries"] = retries;
  vars["slowpath"] = slowpath;
  vars["filler_words"] = filler;
  vars["words_reserved"] = wordsReserved;
  vars["stale_commits"] = stale;
  const Heartbeat zero{};
  const Heartbeat& g = newest != nullptr ? newest->hb : zero;
  vars["consumed"] = static_cast<double>(g.consumerBuffers);
  vars["lost"] = static_cast<double>(g.consumerLost);
  vars["mismatches"] = static_cast<double>(g.consumerMismatches);
  vars["sink_dropped"] = static_cast<double>(g.sinkDropped);
  vars["backpressure"] = static_cast<double>(g.sinkBackpressure);
  vars["bytes_written"] = static_cast<double>(g.sinkBytesWritten);
  vars["raw_bytes"] = static_cast<double>(g.sinkRawBytes);
  vars["reclaimed_words"] = static_cast<double>(g.reclaimedWords);
  vars["torn_buffers"] = static_cast<double>(g.tornBuffers);
  vars["window_index"] = static_cast<double>(w.index);
  vars["window_events"] = static_cast<double>(w.events);
  vars["window_seconds"] =
      config_.ticksPerSecond > 0.0
          ? static_cast<double>(config_.windowTicks) / config_.ticksPerSecond
          : 0.0;
  vars["events"] = static_cast<double>(cumEvents);
  vars["processors"] = static_cast<double>(w.perProcessor.size());
  return vars;
}

std::string StreamEngine::snapshotJson(const std::string& tenant) const {
  const std::string name = jsonEscape(tenant);
  std::ostringstream out;

  out << util::strprintf(
      "{\"type\":\"top\",\"tenant\":\"%s\",\"window_ticks\":%llu,"
      "\"ticks_per_second\":%s,\"processors\":%zu,\"events\":%llu,"
      "\"late_events\":%llu,\"windows_completed\":%llu,"
      "\"watermark_tick\":%llu,\"folds\":[",
      name.c_str(), static_cast<unsigned long long>(config_.windowTicks),
      jsonNumber(config_.ticksPerSecond).c_str(), processors_.size(),
      static_cast<unsigned long long>(eventsObserved_),
      static_cast<unsigned long long>(lateEvents_),
      static_cast<unsigned long long>(windowsCompleted_),
      static_cast<unsigned long long>(watermark_));
  for (size_t i = 0; i < folds_.size(); ++i) {
    if (i != 0) out << ',';
    out << folds_[i]->summaryJson();
  }
  out << "]}\n";

  struct MonitorSummary {
    uint64_t windows = 0;
    double last = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  std::vector<MonitorSummary> summaries(monitors_.size());

  uint64_t cum = 0;
  for (const auto& [index, w] : windows_) {
    cum += w.events;
    if (!w.complete) continue;
    out << util::strprintf(
        "{\"type\":\"window\",\"tenant\":\"%s\",\"index\":%llu,"
        "\"start_tick\":%llu,\"end_tick\":%llu,\"events\":%llu,"
        "\"cum_events\":%llu,\"per_cpu\":[",
        name.c_str(), static_cast<unsigned long long>(index),
        static_cast<unsigned long long>(index * config_.windowTicks),
        static_cast<unsigned long long>((index + 1) * config_.windowTicks),
        static_cast<unsigned long long>(w.events),
        static_cast<unsigned long long>(cum));
    bool first = true;
    for (const auto& [p, n] : w.perProcessor) {
      if (!first) out << ',';
      first = false;
      out << util::strprintf("{\"cpu\":%u,\"events\":%llu}", p,
                             static_cast<unsigned long long>(n));
    }
    out << "],\"monitors\":[";
    if (!monitors_.empty()) {
      const MonitorVars vars = varsForWindow(w, cum);
      for (size_t m = 0; m < monitors_.size(); ++m) {
        if (m != 0) out << ',';
        const double v = monitors_[m].expr.eval(vars);
        out << util::strprintf("{\"name\":\"%s\",\"value\":%s}",
                               jsonEscape(monitors_[m].name).c_str(),
                               jsonNumber(v).c_str());
        if (std::isfinite(v)) {
          MonitorSummary& s = summaries[m];
          if (s.windows == 0) {
            s.min = s.max = v;
          } else {
            s.min = std::min(s.min, v);
            s.max = std::max(s.max, v);
          }
          s.last = v;
          ++s.windows;
        }
      }
    }
    out << "]}\n";
  }

  for (size_t m = 0; m < monitors_.size(); ++m) {
    const MonitorSummary& s = summaries[m];
    out << util::strprintf(
        "{\"type\":\"monitor\",\"tenant\":\"%s\",\"name\":\"%s\","
        "\"expr\":\"%s\",\"windows\":%llu,\"last\":%s,\"min\":%s,"
        "\"max\":%s}\n",
        name.c_str(), jsonEscape(monitors_[m].name).c_str(),
        jsonEscape(monitors_[m].source).c_str(),
        static_cast<unsigned long long>(s.windows),
        s.windows != 0 ? jsonNumber(s.last).c_str() : "null",
        s.windows != 0 ? jsonNumber(s.min).c_str() : "null",
        s.windows != 0 ? jsonNumber(s.max).c_str() : "null");
  }
  return out.str();
}

}  // namespace ktrace::analysis::streaming
