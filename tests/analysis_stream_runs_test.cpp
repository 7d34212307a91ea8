// The live tap at run granularity (DESIGN.md §13): a buffer is one run,
// observed, merged and folded whole. These tests pin the claims that make
// that safe:
//   - StreamEngine::onRun, over a buffer decoded to views of its words,
//     leaves the engine exactly as observe() on each event would,
//     snapshot for snapshot, through window creation below the watermark,
//     stragglers and pruning inside a run — and, fed finely interleaved
//     processors, both print the window lines of a reference model;
//   - the heartbeat history is bounded by the retained windows, without
//     changing any retained window's monitor values;
//   - OrderedMerger's released spans join into exactly the reference
//     merge's order (test_support.hpp) for randomized per-lane runs with
//     timestamp ties, pushed interleaved or whole-backlog-first, over 1
//     to 24 lanes, into lanes added after others hold runs and across a
//     move of the merger, as do MergeCursor's events and spans and
//     StreamCursor's events over lanes with ties, an empty lane and a
//     backwards step; and LiveAnalyzer's folds after finish() equal the
//     post-hoc tools over the same files — with lanes whose long
//     lock-free stretches reach the merger only as punctuation, which
//     bounds the other lanes without holding them back.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/completeness.hpp"
#include "analysis/event_stats.hpp"
#include "analysis/lock_analysis.hpp"
#include "analysis/profile.hpp"
#include "analysis/reader.hpp"
#include "analysis/streaming/engine.hpp"
#include "analysis/streaming/folds.hpp"
#include "analysis/streaming/live_analyzer.hpp"
#include "analysis/streaming/monitors.hpp"
#include "analysis/streaming/stream_cursor.hpp"
#include "core/ktrace.hpp"
#include "ossim/events.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace ktrace {
namespace {

namespace streaming = analysis::streaming;

DecodedEvent makeEvent(uint32_t proc, uint64_t tick) {
  DecodedEvent e;
  e.header.timestamp = static_cast<uint32_t>(tick);
  e.header.lengthWords = 1;
  e.header.major = Major::App;
  e.fullTimestamp = tick;
  e.processor = proc;
  return e;
}

DecodedEvent makeHeartbeat(uint32_t proc, uint64_t tick, uint64_t seq,
                           uint64_t eventsLogged, uint64_t consumerLost) {
  std::vector<uint64_t> payload(kHeartbeatPayloadWords, 0);
  payload[0] = seq;
  payload[2] = eventsLogged;
  payload[9] = consumerLost;
  DecodedEvent e = makeEvent(proc, tick);
  e.header.lengthWords = kHeartbeatPayloadWords + 1;
  e.header.major = Major::Monitor;
  e.header.minor = static_cast<uint16_t>(MonitorMinor::Heartbeat);
  e.data.assign(payload.data(), kHeartbeatPayloadWords);
  return e;
}

const char* kMonitors =
    "loss_ratio = lost / (logged + lost)\n"
    "logged_total = logged\n";

// --- onRun == observe, event by event -----------------------------------

/// `events` (one processor, timestamps never decreasing) as a harvested
/// buffer holds them: an anchor carrying the first event's full timestamp,
/// then each event's header and payload words.
std::vector<uint64_t> encodeBuffer(const std::vector<DecodedEvent>& events) {
  const uint64_t first = events.front().fullTimestamp;
  std::vector<uint64_t> words = {
      EventHeader::encode(static_cast<uint32_t>(first), 3, Major::Control,
                          static_cast<uint16_t>(ControlMinor::BufferAnchor)),
      first, 0};
  for (const DecodedEvent& e : events) {
    words.push_back(e.header.encode());
    words.insert(words.end(), e.data.begin(), e.data.end());
  }
  return words;
}

TEST(StreamEngineRunTest, RunEntryMatchesEventByEvent) {
  constexpr uint32_t kProcs = 4;
  constexpr uint32_t kStraggler = 3;  // starts producing late, far behind
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    util::Rng rng(seed);
    streaming::StreamEngineConfig cfg;
    cfg.windowTicks = 10;
    cfg.ticksPerSecond = 1000;
    cfg.maxWindows = 1 + rng.nextBelow(6);
    streaming::StreamEngine byRun(cfg, streaming::parseMonitorConfig(kMonitors));
    streaming::StreamEngine byEvent(cfg,
                                    streaming::parseMonitorConfig(kMonitors));
    std::vector<uint64_t> tick(kProcs, 0);
    std::vector<uint64_t> beats(kProcs, 0);
    std::vector<uint64_t> tsBase(kProcs, 0);
    std::vector<DecodedEvent> decoded;
    for (int r = 0; r < 200; ++r) {
      uint32_t p = static_cast<uint32_t>(rng.nextBelow(kProcs));
      if (p == kStraggler && r < 100) p = 0;
      std::vector<DecodedEvent> run;
      const uint64_t n = 1 + rng.nextBelow(40);
      for (uint64_t i = 0; i < n; ++i) {
        tick[p] += rng.nextBelow(8);  // 0: a tie within the run
        if (rng.nextBelow(6) == 0) {
          ++beats[p];
          run.push_back(makeHeartbeat(p, tick[p], beats[p], 10 * tick[p],
                                      beats[p] % 5));
        } else {
          run.push_back(makeEvent(p, tick[p]));
        }
      }
      const std::vector<uint64_t> words = encodeBuffer(run);
      decoded.clear();
      decodeBuffer(words, static_cast<uint64_t>(r), p, tsBase[p], decoded);
      ASSERT_EQ(decoded.size(), run.size());
      byRun.onRun(decoded);
      for (const DecodedEvent& e : run) byEvent.observe(e);
      ASSERT_EQ(byRun.snapshotJson("t"), byEvent.snapshotJson("t"))
          << "seed " << seed << " run " << r;
      ASSERT_EQ(byRun.heartbeatsRetained(), byEvent.heartbeatsRetained());
    }
    byRun.finish();
    byEvent.finish();
    EXPECT_EQ(byRun.snapshotJson("t"), byEvent.snapshotJson("t"))
        << "seed " << seed;
  }
}

/// The window lines of a snapshot, each cut before its "monitors" list.
std::string windowLines(const std::string& snapshot) {
  std::string out;
  size_t pos = 0;
  while (pos < snapshot.size()) {
    size_t end = snapshot.find('\n', pos);
    if (end == std::string::npos) end = snapshot.size();
    const std::string line = snapshot.substr(pos, end - pos);
    pos = end + 1;
    if (line.find("\"type\":\"window\"") == std::string::npos) continue;
    out += line.substr(0, line.find(",\"monitors\"")) + "\n";
  }
  return out;
}

/// What the window plane states, recomputed event by event: per-window,
/// per-processor counts; a window complete once every processor seen so
/// far has a tick at or past its end; past maxWindows the oldest windows
/// age out, and an event for one of them is late.
class WindowModel {
 public:
  WindowModel(uint64_t width, size_t maxWindows)
      : width_(width), maxWindows_(maxWindows) {}

  void observe(uint32_t cpu, uint64_t tick) {
    const uint64_t index = tick / width_;
    if (index >= prunedBelow_ && windows_.try_emplace(index).second) {
      completeUpTo(watermark());
      while (windows_.size() > maxWindows_) {
        prunedBelow_ = windows_.begin()->first + 1;
        windows_.erase(windows_.begin());
      }
    }
    if (index >= prunedBelow_) ++windows_[index].perCpu[cpu];
    uint64_t& last = lastTick_[cpu];
    last = std::max(last, tick);
    completeUpTo(watermark());
  }

  /// The window lines as StreamEngine::snapshotJson prints them, up to
  /// their "monitors" list.
  std::string lines() const {
    std::string out;
    uint64_t cum = 0;
    for (const auto& [index, w] : windows_) {
      uint64_t events = 0;
      for (const auto& [cpu, n] : w.perCpu) events += n;
      cum += events;
      if (!w.complete) continue;
      out += "{\"type\":\"window\",\"tenant\":\"t\",\"index\":" +
             std::to_string(index) + ",\"start_tick\":" +
             std::to_string(index * width_) + ",\"end_tick\":" +
             std::to_string((index + 1) * width_) + ",\"events\":" +
             std::to_string(events) + ",\"cum_events\":" +
             std::to_string(cum) + ",\"per_cpu\":[";
      const char* sep = "";
      for (const auto& [cpu, n] : w.perCpu) {
        out += std::string(sep) + "{\"cpu\":" + std::to_string(cpu) +
               ",\"events\":" + std::to_string(n) + "}";
        sep = ",";
      }
      out += "]\n";
    }
    return out;
  }

 private:
  struct Window {
    std::map<uint32_t, uint64_t> perCpu;
    bool complete = false;
  };

  uint64_t watermark() const {
    if (lastTick_.empty()) return 0;
    uint64_t wm = UINT64_MAX;
    for (const auto& [cpu, tick] : lastTick_) wm = std::min(wm, tick);
    return wm;
  }
  void completeUpTo(uint64_t wm) {
    for (auto& [index, w] : windows_) {
      if ((index + 1) * width_ <= wm) w.complete = true;
    }
  }

  uint64_t width_;
  size_t maxWindows_;
  std::map<uint64_t, Window> windows_;
  std::map<uint32_t, uint64_t> lastTick_;
  uint64_t prunedBelow_ = 0;
};

TEST(StreamEngineRunTest, FineInterleavingMatchesRunsAndReferenceModel) {
  constexpr uint32_t kProcs = 4;
  constexpr uint32_t kLaggard = 3;  // falls behind past maxWindows, then
                                    // catches up
  constexpr uint32_t kLateJoiner = 2;  // first logs after a laggard stretch
  constexpr size_t kCheckEvery = 50;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    util::Rng rng(seed * 31);
    streaming::StreamEngineConfig cfg;
    cfg.windowTicks = 10;
    cfg.ticksPerSecond = 1000;
    cfg.maxWindows = 3 + rng.nextBelow(4);
    const auto engine = [&] {
      auto e = std::make_unique<streaming::StreamEngine>(
          cfg, streaming::parseMonitorConfig(kMonitors));
      e->addFold(std::make_unique<streaming::LockContentionFold>());
      e->addFold(std::make_unique<streaming::EventRateFold>(kProcs));
      e->addFold(std::make_unique<streaming::ProfileFold>());
      e->addFold(std::make_unique<streaming::CompletenessFold>());
      return e;
    };
    const auto byEvent = engine();
    const auto byRun = engine();
    WindowModel model(cfg.windowTicks, cfg.maxWindows);

    // The feed: the first event of every processor but the late joiner at
    // tick 0, in a random order, then a processor switch every 1-3 events
    // and a window boundary every few, the laggard's ticks far behind the
    // others' until it catches up; the late joiner's first event right
    // after a laggard stretch, when the others' minimum last tick is the
    // laggard's; now and then a run that opens with an event older than
    // its processor's last tick.
    std::vector<DecodedEvent> feed;
    std::vector<uint64_t> clock(kProcs, 0);
    uint64_t now = 0;
    std::vector<uint32_t> first = {0, 1, 3};
    std::swap(first[rng.nextBelow(3)], first[rng.nextBelow(3)]);
    for (const uint32_t p : first) feed.push_back(makeEvent(p, 0));
    uint64_t beats = 0;
    size_t older = 0;
    bool joined = false;
    uint32_t p = first.back();
    while (feed.size() < 1500) {
      const uint32_t from = p;
      if (!joined && from == kLaggard && feed.size() >= 200) {
        p = kLateJoiner;
      } else {
        do {
          p = static_cast<uint32_t>((from + 1 + rng.nextBelow(kProcs - 1)) % kProcs);
        } while (p == kLateJoiner && !joined);
      }
      joined |= p == kLateJoiner;
      if (p == kLaggard && rng.nextBelow(12) == 0) clock[p] = now;
      if (rng.nextBelow(6) == 0 && clock[p] > 0) {
        ++older;
        feed.push_back(makeEvent(p, clock[p] - 1 - rng.nextBelow(
                                                       std::min<uint64_t>(clock[p], 30))));
      }
      for (uint64_t n = 1 + rng.nextBelow(3); n > 0; --n) {
        now += rng.nextBelow(3);
        clock[p] = p == kLaggard ? clock[p] + rng.nextBelow(2) : std::max(clock[p], now);
        if (rng.nextBelow(5) == 0) {
          ++beats;
          feed.push_back(makeHeartbeat(p, clock[p], beats, 10 * clock[p], beats % 3));
        } else {
          feed.push_back(makeEvent(p, clock[p]));
        }
      }
      ASSERT_NE(p, from);
    }

    std::vector<uint64_t> tsBase(kProcs, 0);
    std::vector<DecodedEvent> decoded;
    size_t begin = 0;
    bool completed = false;
    for (size_t i = 0; i < feed.size(); ++i) {
      const DecodedEvent& e = feed[i];
      byEvent->observe(e);
      byEvent->onOrdered(e);
      model.observe(e.processor, e.fullTimestamp);
      // A run ends at a processor switch, before an older event and at
      // each check.
      const bool last = i + 1 == feed.size() || (i + 1) % kCheckEvery == 0 ||
                        feed[i + 1].processor != e.processor ||
                        feed[i + 1].fullTimestamp < e.fullTimestamp;
      if (!last) continue;
      const std::vector<DecodedEvent> run(feed.begin() + static_cast<ptrdiff_t>(begin),
                                          feed.begin() + static_cast<ptrdiff_t>(i + 1));
      begin = i + 1;
      const std::vector<uint64_t> words = encodeBuffer(run);
      decoded.clear();
      decodeBuffer(words, e.bufferSeq, e.processor, tsBase[e.processor], decoded);
      ASSERT_EQ(decoded.size(), run.size());
      byRun->onRun(decoded);
      if ((i + 1) % kCheckEvery == 0) {
        const std::string snapshot = byEvent->snapshotJson("t");
        ASSERT_EQ(snapshot, byRun->snapshotJson("t"))
            << "seed " << seed << " event " << i;
        ASSERT_EQ(windowLines(snapshot), model.lines())
            << "seed " << seed << " event " << i;
        completed |= !windowLines(snapshot).empty();
      }
    }
    const std::string snapshot = byEvent->snapshotJson("t");
    EXPECT_EQ(snapshot, byRun->snapshotJson("t")) << "seed " << seed;
    EXPECT_EQ(windowLines(snapshot), model.lines()) << "seed " << seed;
    EXPECT_GT(older, 0u);
    EXPECT_EQ(snapshot.find("\"late_events\":0,"), std::string::npos)
        << "no event came late, seed " << seed;
    EXPECT_TRUE(completed) << "no window completed, seed " << seed;
  }
}

// --- Ties the lane order settles -----------------------------------------

DecodedEvent tagged(uint32_t proc, uint64_t tick, uint16_t tag) {
  DecodedEvent e = makeEvent(proc, tick);
  e.header.minor = tag;
  return e;
}

TEST(OrderedMergerRunTest, EqualPositionsGoInLaneOrderAndWaitForEmptyLanes) {
  // Two lanes naming the same processor: an exact (tick, processor) tie
  // with another lane's front goes to the lower lane, and a tie with an
  // empty lane's last tick waits — that lane may still log there.
  streaming::OrderedMerger merger(2);
  merger.push(1, {tagged(5, 10, 1)});
  const DecodedEvent* e = merger.next();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->header.minor, 1u);
  merger.push(0, {tagged(5, 10, 0)});
  EXPECT_EQ(merger.next(), nullptr);
  merger.push(1, {tagged(5, 10, 2)});
  e = merger.next();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->header.minor, 0u);  // lane 0 before lane 1 at (10, 5)
  EXPECT_EQ(merger.next(), nullptr);
  merger.finish();
  e = merger.next();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->header.minor, 2u);
  EXPECT_TRUE(merger.drained());
}

// --- Punctuation: a lane with no merged events still bounds the others ----

DecodedEvent at(uint32_t proc, uint64_t tick) { return tagged(proc, tick, 0); }

std::vector<DecodedEvent> runOf(std::initializer_list<DecodedEvent> events) {
  return std::vector<DecodedEvent>(events);
}

std::vector<std::pair<uint64_t, uint32_t>> releasedBy(streaming::OrderedMerger& m) {
  std::vector<std::pair<uint64_t, uint32_t>> out;
  for (auto span = m.nextSpan(); !span.empty(); span = m.nextSpan()) {
    for (const DecodedEvent& e : span) out.emplace_back(e.fullTimestamp, e.processor);
  }
  return out;
}

TEST(OrderedMergerRunTest, PunctuatedLaneBoundsOthersAtItsTickWithoutHoldingThemBack) {
  using Released = std::vector<std::pair<uint64_t, uint32_t>>;
  // Lane 1 (processor 1) has logged through tick 100, none of it merged.
  streaming::OrderedMerger merger(4);
  merger.punctuate(1, 1, 100);
  merger.push(0, runOf({at(0, 40), at(0, 100), at(0, 130)}));
  merger.push(2, runOf({at(2, 60), at(2, 100), at(2, 120)}));
  // Lane 3 names processor 1 too: its event at exactly (100, 1) ties with
  // the punctuated tick and, as with any empty lane's last tick, waits.
  merger.push(3, runOf({at(1, 100)}));
  // Nothing at or after (100, 1) is released: (100, 0) sorts before it,
  // (100, 1) ties and (100, 2) sorts after it.
  EXPECT_EQ(releasedBy(merger), (Released{{40, 0}, {60, 2}, {100, 0}}));
  EXPECT_EQ(merger.buffered(), 4u);

  // Lane 1's next buffer again carries nothing merged, but takes it to
  // tick 125 (and lane 3 moves on too): what waited behind them goes on
  // that very drain.
  merger.punctuate(1, 1, 125);
  merger.punctuate(3, 1, 125);
  EXPECT_EQ(releasedBy(merger), (Released{{100, 1}, {100, 2}, {120, 2}}));
  // Punctuation never moves a lane backwards.
  merger.punctuate(1, 1, 90);
  EXPECT_TRUE(releasedBy(merger).empty());
  merger.finish();
  EXPECT_EQ(releasedBy(merger), (Released{{130, 0}}));
  EXPECT_TRUE(merger.drained());
}

// --- Many lanes, lanes added late, a moved merger -------------------------

/// `lanes` processors' events, each lane's in non-decreasing timestamp
/// order, a lane switch every 1-3 events of the merged order and timestamp
/// ties across lanes; an event's offsetInBuffer is its index in its lane.
std::vector<std::vector<DecodedEvent>> randomLanes(util::Rng& rng, uint32_t lanes,
                                                   size_t events) {
  std::vector<std::vector<DecodedEvent>> out(lanes);
  uint64_t tick = 1;
  for (size_t i = 0; i < events;) {
    const auto p = static_cast<uint32_t>(rng.nextBelow(lanes));
    for (uint64_t k = 1 + rng.nextBelow(3); k > 0 && i < events; --k, ++i) {
      tick += rng.nextBelow(2);
      DecodedEvent e = makeEvent(p, tick);
      e.offsetInBuffer = static_cast<uint32_t>(out[p].size());
      out[p].push_back(e);
    }
  }
  return out;
}

/// Splits each lane into runs of 1 to 40 events.
std::vector<std::vector<std::vector<DecodedEvent>>> splitRuns(
    util::Rng& rng, const std::vector<std::vector<DecodedEvent>>& lanes) {
  std::vector<std::vector<std::vector<DecodedEvent>>> runs(lanes.size());
  for (size_t l = 0; l < lanes.size(); ++l) {
    for (size_t i = 0; i < lanes[l].size();) {
      const size_t n = std::min<size_t>(1 + rng.nextBelow(40), lanes[l].size() - i);
      runs[l].emplace_back(lanes[l].begin() + static_cast<ptrdiff_t>(i),
                           lanes[l].begin() + static_cast<ptrdiff_t>(i + n));
      i += n;
    }
  }
  return runs;
}

using Identity = std::pair<uint32_t, uint32_t>;  // (processor, index in lane)

std::vector<Identity> referenceIdentities(
    const std::vector<std::vector<DecodedEvent>>& lanes) {
  std::vector<std::span<const DecodedEvent>> spans(lanes.begin(), lanes.end());
  std::vector<Identity> out;
  for (const DecodedEvent* e : testing::referenceMerge(spans)) {
    out.emplace_back(e->processor, e->offsetInBuffer);
  }
  return out;
}

TEST(OrderedMergerRunTest, LanesAddedLaterAndAMoveKeepPushedRunsInPlace) {
  static_assert(!std::is_copy_constructible_v<streaming::OrderedMerger>);
  util::Rng rng(17);
  constexpr uint32_t kLanes = 12;
  const auto lanes = randomLanes(rng, kLanes, 3000);
  auto runs = splitRuns(rng, lanes);

  // A merger sized for nothing: lane 0's first run is pushed before lane 3
  // and lane 11 exist, so the lanes (and the tree over them) grow twice
  // while lane 0 holds a run the merger points into.
  auto merger = std::make_unique<streaming::OrderedMerger>();
  std::vector<size_t> pushed(kLanes, 0);
  const auto pushNext = [&](streaming::OrderedMerger& m, uint32_t l) {
    if (pushed[l] < runs[l].size()) m.push(l, std::move(runs[l][pushed[l]++]));
  };
  pushNext(*merger, 0);
  pushNext(*merger, 3);
  for (uint32_t l = kLanes; l-- > 1;) {
    if (l != 3) pushNext(*merger, l);
  }

  std::vector<Identity> released;
  const auto take = [&](streaming::OrderedMerger& m, uint64_t events) {
    for (; events > 0; --events) {
      const DecodedEvent* e = m.next();
      if (e == nullptr) return;
      released.emplace_back(e->processor, e->offsetInBuffer);
    }
  };
  for (size_t round = 0;; ++round) {
    bool any = false;
    for (uint32_t l = 0; l < kLanes; ++l) {
      any |= pushed[l] < runs[l].size();
      pushNext(*merger, l);
      take(*merger, rng.nextBelow(30));
    }
    if (!any) break;
    // Half way, move the merger while next() is part way through a span.
    if (round == 20) merger = std::make_unique<streaming::OrderedMerger>(std::move(*merger));
  }
  merger->finish();
  take(*merger, UINT64_MAX);
  EXPECT_TRUE(merger->drained());
  EXPECT_EQ(released, referenceIdentities(lanes));
}

TEST(OrderedMergerRunTest, ManyLanesReleaseReferenceOrderPushedOrBorrowed) {
  for (const uint32_t laneCount : {1u, 2u, 3u, 5u, 16u, 24u}) {
    util::Rng rng(laneCount * 7907);
    auto lanes = randomLanes(rng, laneCount, 4000);
    const std::vector<Identity> expected = referenceIdentities(lanes);
    auto runs = splitRuns(rng, lanes);

    // Pushed runs, round-robin, each lane registered before its data is
    // due and drained as spans after every push.
    streaming::OrderedMerger merger(laneCount);
    for (uint32_t l = 0; l < laneCount; ++l) merger.punctuate(l, l, 0);
    std::vector<Identity> released;
    size_t spans = 0;
    const auto drain = [&] {
      for (auto span = merger.nextSpan(); !span.empty(); span = merger.nextSpan()) {
        ++spans;
        for (const DecodedEvent& e : span) {
          EXPECT_EQ(e.processor, span.front().processor);
          released.emplace_back(e.processor, e.offsetInBuffer);
        }
      }
    };
    for (size_t k = 0;; ++k) {
      bool any = false;
      for (uint32_t l = 0; l < laneCount; ++l) {
        if (k >= runs[l].size()) continue;
        any = true;
        merger.push(l, std::move(runs[l][k]));
        drain();
      }
      if (!any) break;
    }
    merger.finish();
    drain();
    EXPECT_TRUE(merger.drained());
    EXPECT_EQ(released, expected) << laneCount << " lanes, pushed";
    if (laneCount > 1) {
      EXPECT_LT(spans, expected.size());
    }

    // Borrowed whole lanes into a finished merger, as MergeCursor does,
    // one lane stepping backwards half way.
    auto& stepper = lanes[laneCount / 2];
    for (size_t i = stepper.size() / 2; i < stepper.size(); ++i) {
      stepper[i].fullTimestamp -= std::min<uint64_t>(stepper[i].fullTimestamp, 5);
    }
    streaming::OrderedMerger borrowed(laneCount);
    borrowed.finish();
    for (uint32_t l = 0; l < laneCount; ++l) borrowed.borrow(l, lanes[l]);
    released.clear();
    while (const DecodedEvent* e = borrowed.next()) {
      released.emplace_back(e->processor, e->offsetInBuffer);
    }
    EXPECT_EQ(released, referenceIdentities(lanes)) << laneCount << " lanes, borrowed";
  }
}

// --- Heartbeat history is bounded --------------------------------------

/// Window index -> the "monitors":[...] tail of that window's line.
std::map<uint64_t, std::string> windowMonitors(const std::string& snapshot) {
  std::map<uint64_t, std::string> out;
  size_t pos = 0;
  while (pos < snapshot.size()) {
    size_t end = snapshot.find('\n', pos);
    if (end == std::string::npos) end = snapshot.size();
    const std::string line = snapshot.substr(pos, end - pos);
    pos = end + 1;
    if (line.find("\"type\":\"window\"") == std::string::npos) continue;
    const size_t index = line.find("\"index\":");
    const size_t monitors = line.find("\"monitors\":");
    if (index == std::string::npos || monitors == std::string::npos) continue;
    out[std::stoull(line.substr(index + 8))] = line.substr(monitors);
  }
  return out;
}

TEST(StreamEngineRunTest, HeartbeatHistoryIsBoundedByRetainedWindows) {
  streaming::StreamEngineConfig cfg;
  cfg.windowTicks = 100;
  cfg.ticksPerSecond = 1000;
  cfg.maxWindows = 4;
  streaming::StreamEngineConfig keepAll = cfg;
  keepAll.maxWindows = 1u << 20;
  streaming::StreamEngine pruned(cfg, streaming::parseMonitorConfig(kMonitors));
  streaming::StreamEngine full(keepAll,
                               streaming::parseMonitorConfig(kMonitors));

  constexpr uint64_t kWindows = 10'000;
  size_t most = 0;
  uint64_t beats = 0;
  for (uint64_t w = 0; w < kWindows; ++w) {
    const uint64_t base = w * 100;
    // Processor 0 beats in every window, processor 1 in every fifth one,
    // so the last four windows read processor 1's value from before the
    // oldest retained window's start.
    std::vector<DecodedEvent> events;
    events.push_back(makeEvent(0, base + 10));
    events.push_back(makeHeartbeat(0, base + 50, w, 10 * w, w % 7));
    ++beats;
    if (w % 5 == 0) {
      events.push_back(makeHeartbeat(1, base + 60, w, 5 * w, 1));
      ++beats;
    }
    events.push_back(makeEvent(1, base + 70));
    for (const DecodedEvent& e : events) {
      pruned.observe(e);
      full.observe(e);
    }
    most = std::max(most, pruned.heartbeatsRetained());
  }
  // Per processor: at most one beat per retained window plus the one at
  // or before the oldest retained window's start (and the window that is
  // being created when the oldest ages out).
  EXPECT_LE(most, 2 * (cfg.maxWindows + 2));
  EXPECT_EQ(full.heartbeatsRetained(), beats);

  pruned.finish();
  full.finish();
  const auto kept = windowMonitors(pruned.snapshotJson("t"));
  const auto all = windowMonitors(full.snapshotJson("t"));
  ASSERT_EQ(kept.size(), cfg.maxWindows);
  ASSERT_EQ(all.size(), kWindows);
  for (const auto& [index, monitors] : kept) {
    ASSERT_EQ(all.count(index), 1u) << index;
    EXPECT_EQ(monitors, all.at(index)) << "window " << index;
  }
  EXPECT_NE(kept.rbegin()->second.find("logged_total"), std::string::npos);
}

// --- Randomized run merge vs the reference, live folds vs post-hoc -------

constexpr uint32_t kProcs = 4;
constexpr uint32_t kBufferWords = 64;

class RunMergeTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ktrace_stream_runs_" + std::to_string(::getpid()) + "_" +
            std::to_string(GetParam()));
    std::filesystem::create_directories(dir_);
    generate(GetParam());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Logs a random mix — locks, pc samples, heartbeats, app events of 1 to
  // 7 words — on kProcs processors of a virtual clock that often does
  // not move between events, so timestamps tie within a buffer and across
  // processors. Processors 2 and 3 log long lock-free stretches (many
  // whole buffers) — processor 3's first lock event comes near the end —
  // so the live tap's merger sees their lanes only through punctuation
  // there. Each processor's first buffer holds a single event, at ticks
  // 1, 2, ... in processor order: pushing those first registers every
  // lane before any of its data is due.
  void generate(uint64_t seed) {
    FakeClock clock(0, 0);
    FacilityConfig fcfg;
    fcfg.numProcessors = kProcs;
    fcfg.bufferWords = kBufferWords;
    fcfg.buffersPerProcessor = 1024;
    fcfg.clockKind = ClockKind::Virtual;
    fcfg.clockOverride = clock.ref();
    fcfg.mode = Mode::Stream;
    Facility facility(fcfg);
    facility.mask().enableAll();
    MemorySink sink;
    Consumer consumer(facility, sink, {});

    for (uint32_t p = 0; p < kProcs; ++p) {
      clock.set(1 + p);
      logEvent(facility.control(p), Major::App, 0, p);
    }
    facility.flushAll();

    util::Rng rng(seed);
    uint64_t tick = kProcs + 1;
    uint64_t beatSeq = 0;
    for (int i = 0; i < 4000; ++i) {
      tick += rng.nextBelow(3);
      clock.set(tick);
      const auto p = static_cast<uint32_t>(rng.nextBelow(kProcs));
      ShmTraceControl& control = facility.control(p);
      const bool lockFree = (p == 2 && i >= 2000) || (p == 3 && i < 3500);
      uint64_t kind = rng.nextBelow(10);
      if (kind < 3 && lockFree) kind = 5;
      if (kind < 3) {
        const uint64_t lock = 1 + rng.nextBelow(3);
        const uint64_t pid = 1 + rng.nextBelow(3);
        const uint64_t minor = rng.nextBelow(3);
        std::vector<uint64_t> words = {lock, pid};
        if (minor == 0) {
          const uint64_t chain = rng.nextBelow(3);
          words.push_back(chain);
          for (uint64_t c = 0; c < chain; ++c) words.push_back(rng.nextBelow(4));
        } else {
          words.push_back(rng.nextBelow(50));
        }
        logEventData(control, Major::Lock, static_cast<uint16_t>(minor),
                     std::span<const uint64_t>(words));
      } else if (kind == 3) {
        logEvent(control, Major::Prof,
                 static_cast<uint16_t>(ossim::ProfMinor::PcSample),
                 rng.nextBelow(3), rng.nextBelow(6));
      } else if (kind == 4) {
        ASSERT_TRUE(logMonitorHeartbeat(control, ++beatSeq, nullptr));
      } else {
        std::vector<uint64_t> words(rng.nextBelow(7), tick);
        logEventData(control, Major::App, static_cast<uint16_t>(kind),
                     std::span<const uint64_t>(words));
      }
    }
    facility.flushAll();
    consumer.drainNow();

    perProcessor_.assign(kProcs, {});
    for (BufferRecord& r : sink.records()) {
      perProcessor_[r.processor].push_back(std::move(r));
    }
    TraceFileMeta meta;
    meta.numProcessors = kProcs;
    meta.bufferWords = kBufferWords;
    meta.clockKind = ClockKind::Virtual;
    meta.ticksPerSecond = 1e9;
    FileSink files(dir_.string(), "t", meta);
    for (const auto& records : perProcessor_) {
      for (const BufferRecord& r : records) files.onBuffer(BufferRecord(r));
      ASSERT_GE(records.size(), 3u);
    }
    ASSERT_TRUE(files.flush());
    for (uint32_t p = 0; p < kProcs; ++p) paths_.push_back(files.pathFor(p));
  }

  // Round-robin over the processors' records.
  std::vector<const BufferRecord*> interleaved() const {
    std::vector<const BufferRecord*> order;
    for (size_t k = 0;; ++k) {
      bool any = false;
      for (const auto& records : perProcessor_) {
        if (k < records.size()) {
          order.push_back(&records[k]);
          any = true;
        }
      }
      if (!any) return order;
    }
  }

  // Every lane's first record, then each processor's whole backlog in
  // turn — how SessionWatchdog drains under backpressure.
  std::vector<const BufferRecord*> backlogFirst() const {
    std::vector<const BufferRecord*> order;
    for (const auto& records : perProcessor_) order.push_back(&records[0]);
    for (const auto& records : perProcessor_) {
      for (size_t k = 1; k < records.size(); ++k) order.push_back(&records[k]);
    }
    return order;
  }

  using Key = std::tuple<uint64_t, uint32_t, uint64_t, uint32_t, uint8_t,
                         uint16_t>;
  static Key key(const DecodedEvent& e) {
    return {e.fullTimestamp, e.processor, e.bufferSeq, e.offsetInBuffer,
            static_cast<uint8_t>(e.header.major), e.header.minor};
  }

  std::vector<Key> referenceOrder() const {
    const auto trace = analysis::TraceSet::fromFiles(paths_);
    std::vector<Key> keys;
    for (const DecodedEvent* e : testing::referenceMerge(trace)) {
      keys.push_back(key(*e));
    }
    return keys;
  }

  std::filesystem::path dir_;
  std::vector<std::vector<BufferRecord>> perProcessor_;
  std::vector<std::string> paths_;
};

TEST_P(RunMergeTest, ReleasedSpansJoinIntoReferenceOrder) {
  const std::vector<Key> expected = referenceOrder();
  ASSERT_GT(expected.size(), 4000u);
  bool tiesAcrossLanes = false;
  for (size_t i = 1; i < expected.size(); ++i) {
    if (std::get<0>(expected[i]) == std::get<0>(expected[i - 1]) &&
        std::get<1>(expected[i]) != std::get<1>(expected[i - 1])) {
      tiesAcrossLanes = true;
    }
  }
  ASSERT_TRUE(tiesAcrossLanes);

  for (const auto& order : {interleaved(), backlogFirst()}) {
    streaming::OrderedMerger merger(kProcs);
    std::vector<uint64_t> tsBase(kProcs, 0);
    std::vector<DecodedEvent> scratch;
    std::vector<Key> released;
    size_t spans = 0;
    const auto drain = [&] {
      for (auto span = merger.nextSpan(); !span.empty();
           span = merger.nextSpan()) {
        ++spans;
        for (const DecodedEvent& e : span) released.push_back(key(e));
      }
    };
    for (const BufferRecord* r : order) {
      decodeBuffer(r->words, r->seq, r->processor, tsBase[r->processor],
                   scratch);
      merger.push(r->processor, streaming::exactRun(scratch));
      drain();
    }
    EXPECT_GT(merger.buffered(), 0u);  // the tail waits for finish()
    merger.finish();
    drain();
    EXPECT_TRUE(merger.drained());
    EXPECT_LT(spans, expected.size());  // spans, not single events
    ASSERT_EQ(released.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(released[i], expected[i]) << "order diverged at " << i;
    }
  }
}

TEST_P(RunMergeTest, NextInterleavedWithPushKeepsReferenceOrder) {
  // next() hands back what it has not returned when a push arrives, so a
  // reader that drains only part way between pushes sees the same order.
  const std::vector<Key> expected = referenceOrder();
  util::Rng rng(GetParam() * 7919);
  streaming::OrderedMerger merger(kProcs);
  std::vector<uint64_t> tsBase(kProcs, 0);
  std::vector<DecodedEvent> scratch;
  std::vector<Key> released;
  for (const BufferRecord* r : backlogFirst()) {
    decodeBuffer(r->words, r->seq, r->processor, tsBase[r->processor],
                 scratch);
    merger.push(r->processor, streaming::exactRun(scratch));
    for (uint64_t take = rng.nextBelow(60); take > 0; --take) {
      const DecodedEvent* e = merger.next();
      if (e == nullptr) break;
      released.push_back(key(*e));
    }
  }
  merger.finish();
  while (const DecodedEvent* e = merger.next()) released.push_back(key(*e));
  ASSERT_EQ(released.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(released[i], expected[i]) << "order diverged at " << i;
  }
}

// --- MergeCursor and StreamCursor vs the reference merge ----------------

TEST(MergeOracleTest, CursorsFollowReferenceWithTiesAnEmptyLaneAndABackwardsStep) {
  constexpr uint32_t kLanes = 4;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const auto dir = std::filesystem::temp_directory_path() /
                     ("ktrace_merge_oracle_" + std::to_string(::getpid()) + "_" +
                      std::to_string(seed));
    std::filesystem::create_directories(dir);
    util::Rng rng(seed * 104729);
    // Lane `empty` logs nothing; lane `stepper`'s second buffer starts 7
    // ticks before its first one ends.
    const auto empty = static_cast<uint32_t>(1 + rng.nextBelow(kLanes - 2));
    const uint32_t stepper = (empty + 1) % kLanes;
    std::vector<std::string> paths;
    {
      FakeClock clock(0, 0);
      FacilityConfig fcfg;
      fcfg.numProcessors = kLanes;
      fcfg.bufferWords = kBufferWords;
      fcfg.buffersPerProcessor = 1024;
      fcfg.clockKind = ClockKind::Virtual;
      fcfg.clockOverride = clock.ref();
      fcfg.mode = Mode::Stream;
      Facility facility(fcfg);
      facility.mask().enableAll();
      TraceFileMeta meta;
      meta.numProcessors = kLanes;
      meta.bufferWords = kBufferWords;
      meta.clockKind = ClockKind::Virtual;
      meta.ticksPerSecond = 1e9;
      FileSink files(dir.string(), "t", meta);
      Consumer consumer(facility, files, {});
      uint64_t tick = 10;
      for (int i = 0; i < 3000; ++i) {
        tick += rng.nextBelow(3);  // 0: a tie, often across lanes
        clock.set(tick);
        if (i == 20) {
          ShmTraceControl& control = facility.control(stepper);
          logEvent(control, Major::App, 1, uint64_t{1});
          control.flushCurrentBuffer();
          clock.set(tick - 7);
          logEvent(control, Major::App, 2, uint64_t{2});
          continue;
        }
        const auto p = static_cast<uint32_t>(rng.nextBelow(kLanes));
        if (p == empty) continue;
        std::vector<uint64_t> words(rng.nextBelow(5), tick);
        logEventData(facility.control(p), Major::App, 0,
                     std::span<const uint64_t>(words));
      }
      facility.flushAll();
      consumer.drainNow();
      ASSERT_TRUE(files.flush());
      for (uint32_t p = 0; p < kLanes; ++p) {
        if (p != empty) paths.push_back(files.pathFor(p));
      }
    }

    const auto trace = analysis::TraceSet::fromFiles(paths);
    ASSERT_EQ(trace.numProcessors(), kLanes);
    EXPECT_TRUE(trace.processorEvents(empty).empty());
    const auto& lane = trace.processorEvents(stepper);
    bool stepsBack = false;
    for (size_t i = 1; i < lane.size(); ++i) {
      stepsBack |= lane[i].fullTimestamp < lane[i - 1].fullTimestamp;
    }
    EXPECT_TRUE(stepsBack) << "seed " << seed;
    const std::vector<const DecodedEvent*> expected = testing::referenceMerge(trace);
    ASSERT_EQ(expected.size(), trace.totalEvents());
    bool tiesAcrossLanes = false;
    for (size_t i = 1; i < expected.size(); ++i) {
      tiesAcrossLanes |= expected[i]->fullTimestamp == expected[i - 1]->fullTimestamp &&
                         expected[i]->processor != expected[i - 1]->processor;
    }
    EXPECT_TRUE(tiesAcrossLanes) << "seed " << seed;

    // next(), event by event: the TraceSet's own events.
    std::vector<const DecodedEvent*> got;
    {
      analysis::MergeCursor cursor(trace);
      while (const DecodedEvent* e = cursor.next()) got.push_back(e);
      EXPECT_TRUE(cursor.done());
      EXPECT_EQ(cursor.next(), nullptr);
    }
    EXPECT_EQ(got, expected) << "next(), seed " << seed;

    // nextSpan(), concatenated: one processor per span.
    got.clear();
    size_t spans = 0;
    {
      analysis::MergeCursor cursor(trace);
      for (auto span = cursor.nextSpan(); !span.empty(); span = cursor.nextSpan()) {
        ++spans;
        for (const DecodedEvent& e : span) {
          EXPECT_EQ(e.processor, span.front().processor);
          got.push_back(&e);
        }
      }
    }
    EXPECT_EQ(got, expected) << "nextSpan(), seed " << seed;
    EXPECT_LT(spans, expected.size());

    // next() and nextSpan() interleaved.
    got.clear();
    {
      analysis::MergeCursor cursor(trace);
      for (;;) {
        if (rng.nextBelow(2) == 0) {
          const DecodedEvent* e = cursor.next();
          if (e == nullptr) break;
          got.push_back(e);
        } else {
          const auto span = cursor.nextSpan();
          if (span.empty()) break;
          for (const DecodedEvent& e : span) got.push_back(&e);
        }
      }
    }
    EXPECT_EQ(got, expected) << "interleaved, seed " << seed;

    // StreamCursor over the same files: pushed runs, one per record.
    streaming::StreamCursor cursor(paths);
    cursor.finish();
    size_t i = 0;
    while (const DecodedEvent* e = cursor.next()) {
      ASSERT_LT(i, expected.size());
      ASSERT_EQ(e->fullTimestamp, expected[i]->fullTimestamp) << "at " << i;
      ASSERT_EQ(e->processor, expected[i]->processor) << "at " << i;
      ASSERT_EQ(e->bufferSeq, expected[i]->bufferSeq) << "at " << i;
      ASSERT_EQ(e->offsetInBuffer, expected[i]->offsetInBuffer) << "at " << i;
      ++i;
    }
    EXPECT_EQ(i, expected.size());
    std::filesystem::remove_all(dir);
  }
}

template <class F>
F copyFold(const streaming::LiveAnalyzer& live, size_t index) {
  const auto* fold = dynamic_cast<const F*>(live.folds().at(index).get());
  EXPECT_NE(fold, nullptr);
  return *fold;
}

TEST_P(RunMergeTest, LiveFoldsAfterFinishMatchPostHocTools) {
  const auto trace = analysis::TraceSet::fromFiles(paths_);
  const analysis::LockAnalysis postLocks(trace);
  const analysis::EventStats postStats(trace);
  const analysis::Profile postProfile(trace);
  const auto postCompleteness = analysis::CompletenessReport::analyze(trace);
  const analysis::SymbolTable symbols;

  // The offline dashboard: MergeCursor event by event, as `ktracetool top`
  // replays closed files.
  streaming::StreamEngineConfig cfg;
  cfg.ticksPerSecond = 1e9;
  cfg.windowTicks = 50;
  streaming::StreamEngine offline(cfg, streaming::defaultMonitors());
  offline.addFold(std::make_unique<streaming::LockContentionFold>());
  offline.addFold(std::make_unique<streaming::EventRateFold>(kProcs));
  offline.addFold(std::make_unique<streaming::ProfileFold>());
  offline.addFold(std::make_unique<streaming::CompletenessFold>());
  {
    analysis::MergeCursor cursor(trace);
    while (const DecodedEvent* e = cursor.next()) {
      offline.observe(*e);
      offline.onOrdered(*e);
    }
  }
  offline.finish();

  for (const auto& order : {interleaved(), backlogFirst()}) {
    NullSink null;
    streaming::LiveAnalyzer live(null, kProcs, cfg,
                                 streaming::defaultMonitors());
    for (const BufferRecord* r : order) live.onBuffer(BufferRecord(*r));
    live.finish();

    const analysis::LockAnalysis liveLocks(
        copyFold<streaming::LockContentionFold>(live, 0));
    EXPECT_GT(postLocks.totalWaitTicks(), 0u);
    EXPECT_EQ(postLocks.totalWaitTicks(), liveLocks.totalWaitTicks());
    EXPECT_EQ(postLocks.unmatchedContends(), liveLocks.unmatchedContends());
    EXPECT_EQ(postLocks.report(symbols, 1e9, 100),
              liveLocks.report(symbols, 1e9, 100));

    const analysis::EventStats liveStats(
        copyFold<streaming::EventRateFold>(live, 1));
    EXPECT_EQ(postStats.totalEvents(), liveStats.totalEvents());
    EXPECT_EQ(postStats.report(Registry::global(), 1e9, 100),
              liveStats.report(Registry::global(), 1e9, 100));

    const analysis::Profile liveProfile(copyFold<streaming::ProfileFold>(live, 2));
    ASSERT_EQ(postProfile.pids(), liveProfile.pids());
    for (const uint64_t pid : postProfile.pids()) {
      EXPECT_EQ(postProfile.report(pid, symbols, "t"),
                liveProfile.report(pid, symbols, "t"));
    }

    const auto liveCompleteness = analysis::CompletenessReport::fromFold(
        copyFold<streaming::CompletenessFold>(live, 3), trace.stats());
    EXPECT_EQ(postCompleteness.toJson(), liveCompleteness.toJson());

    // Every fold has settled and every window completed, so the whole
    // live snapshot is the offline one.
    EXPECT_EQ(live.snapshotJson("t"), offline.snapshotJson("t"));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunMergeTest, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace ktrace
