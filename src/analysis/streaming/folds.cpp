#include "analysis/streaming/folds.hpp"

#include <algorithm>

#include "ossim/events.hpp"
#include "util/table.hpp"

namespace ktrace::analysis::streaming {

namespace {

uint64_t chainHash(const std::vector<uint64_t>& chain) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const uint64_t v : chain) {
    h ^= v;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint32_t typeKey(Major major, uint16_t minor) noexcept {
  return (static_cast<uint32_t>(major) << 16) | minor;
}

// Fillers and anchors are written by the reservation machinery itself, not
// through a logger entry point, so they are excluded from both sides of
// the heartbeat identity (see analysis/completeness.cpp).
bool isInfrastructure(const DecodedEvent& e) noexcept {
  return e.header.major == Major::Control &&
         (e.header.minor == static_cast<uint16_t>(ControlMinor::Filler) ||
          e.header.minor == static_cast<uint16_t>(ControlMinor::BufferAnchor));
}

}  // namespace

// --- LockContentionFold ------------------------------------------------

size_t LockContentionFold::PairHash::operator()(
    const PairKey& k) const noexcept {
  uint64_t h = k.first * 0x9e3779b97f4a7c15ull + k.second;
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ull;
  return static_cast<size_t>(h ^ (h >> 32));
}

size_t LockContentionFold::rowFor(PairState& s, uint64_t lockId,
                                  uint64_t pid) {
  const uint64_t hash = chainHash(s.chain);
  for (const auto& [h, index] : s.rows) {
    if (h == hash) return index;
  }
  s.rows.emplace_back(hash, rows_.size());
  LockStats row;
  row.lockId = lockId;
  row.pid = pid;
  row.chain = s.chain;
  rows_.push_back(std::move(row));
  return rows_.size() - 1;
}

void LockContentionFold::onEvent(const DecodedEvent& e) {
  if (e.header.major != Major::Lock) return;
  const auto minor = static_cast<ossim::LockMinor>(e.header.minor);
  if (e.data.size() < 2) return;
  const uint64_t lockId = e.data[0];
  const uint64_t pid = e.data[1];

  switch (minor) {
    case ossim::LockMinor::ContendStart: {
      PairState& s = pairs_[{lockId, pid}];
      if (s.contending) {
        ++unmatchedContends_;
      } else {
        s.contending = true;
        ++openContends_;
      }
      s.contendTs = e.fullTimestamp;
      s.chain.clear();
      if (e.data.size() >= 3) {
        const uint64_t chainLen =
            std::min<uint64_t>(e.data[2], e.data.size() - 3);
        s.chain.assign(e.data.begin() + 3,
                       e.data.begin() + 3 + static_cast<ptrdiff_t>(chainLen));
      }
      break;
    }
    case ossim::LockMinor::Acquired: {
      // A pair that has never contended has no row for its hold time to
      // go into, so it needs no record at all.
      const auto it = pairs_.find({lockId, pid});
      if (it == pairs_.end()) break;
      PairState& s = it->second;
      if (s.contending) {
        const size_t index = rowFor(s, lockId, pid);
        LockStats& row = rows_[index];
        const uint64_t spins = e.data.size() > 2 ? e.data[2] : 0;
        const uint64_t wait = e.fullTimestamp - s.contendTs;
        row.totalWaitTicks += wait;
        row.maxWaitTicks = std::max(row.maxWaitTicks, wait);
        row.contendedCount += 1;
        row.totalSpins += spins;
        if (s.bestRow == SIZE_MAX ||
            row.contendedCount > rows_[s.bestRow].contendedCount ||
            (row.contendedCount == rows_[s.bestRow].contendedCount &&
             index < s.bestRow)) {
          s.bestRow = index;
        }
        s.contending = false;
        --openContends_;
      }
      s.holding = true;
      s.acquireTs = e.fullTimestamp;
      break;
    }
    case ossim::LockMinor::Release: {
      const auto it = pairs_.find({lockId, pid});
      if (it != pairs_.end() && it->second.holding) {
        // The release event carries no chain, so fold hold time into the
        // (lock, pid) row with the most contention (display-only detail).
        PairState& s = it->second;
        if (s.bestRow != SIZE_MAX) {
          LockStats& best = rows_[s.bestRow];
          best.totalHoldTicks += e.fullTimestamp - s.acquireTs;
          best.releaseCount += 1;
        }
        s.holding = false;
      }
      break;
    }
    case ossim::LockMinor::HotSwap:
      break;
  }
}

void LockContentionFold::finish() {
  unmatchedContends_ += openContends_;
  openContends_ = 0;
  for (auto& [key, s] : pairs_) s.contending = false;
}

std::string LockContentionFold::summaryJson() const {
  uint64_t wait = 0;
  uint64_t count = 0;
  for (const LockStats& row : rows_) {
    wait += row.totalWaitTicks;
    count += row.contendedCount;
  }
  return util::strprintf(
      "{\"name\":\"locks\",\"rows\":%zu,\"contended\":%llu,"
      "\"wait_ticks\":%llu,\"unmatched\":%llu}",
      rows_.size(), static_cast<unsigned long long>(count),
      static_cast<unsigned long long>(wait),
      static_cast<unsigned long long>(unmatchedContends_ + openContends_));
}

// --- EventRateFold -----------------------------------------------------

EventTypeStats& EventRateFold::statsFor(Major major, uint16_t minor) {
  const auto m = static_cast<uint32_t>(major);
  uint32_t* slot;
  if (minor < kDirectMinors) {
    if (m >= direct_.size()) direct_.resize(m + 1);
    std::vector<uint32_t>& row = direct_[m];
    if (minor >= row.size()) row.resize(minor + 1, 0);
    slot = &row[minor];
  } else {
    slot = &wide_[typeKey(major, minor)];
  }
  if (*slot == 0) {
    types_.emplace_back();
    *slot = static_cast<uint32_t>(types_.size());
  }
  return types_[*slot - 1];
}

void EventRateFold::onEvent(const DecodedEvent& e) {
  if (numProcessors_ <= e.processor) numProcessors_ = e.processor + 1;
  EventTypeStats& s = statsFor(e.header.major, e.header.minor);
  if (s.count == 0) {
    s.major = e.header.major;
    s.minor = e.header.minor;
    s.firstTick = e.fullTimestamp;
    s.perProcessor.assign(numProcessors_, 0);
  }
  if (s.perProcessor.size() < numProcessors_) s.perProcessor.resize(numProcessors_, 0);
  s.count += 1;
  s.totalWords += e.header.lengthWords;
  s.firstTick = std::min(s.firstTick, e.fullTimestamp);
  s.lastTick = std::max(s.lastTick, e.fullTimestamp);
  s.perProcessor[e.processor] += 1;
  totalEvents_ += 1;
  totalWords_ += e.header.lengthWords;
}

std::map<uint32_t, EventTypeStats> EventRateFold::takeStats() {
  std::map<uint32_t, EventTypeStats> out;
  for (EventTypeStats& s : types_) {
    const uint32_t key = typeKey(s.major, s.minor);
    out.emplace(key, std::move(s));
  }
  types_.clear();
  direct_.clear();
  wide_.clear();
  return out;
}

std::string EventRateFold::summaryJson() const {
  return util::strprintf(
      "{\"name\":\"rates\",\"types\":%zu,\"events\":%llu,\"words\":%llu}",
      types_.size(), static_cast<unsigned long long>(totalEvents_),
      static_cast<unsigned long long>(totalWords_));
}

// --- ProfileFold -------------------------------------------------------

void ProfileFold::onEvent(const DecodedEvent& e) {
  if (e.header.major != Major::Prof ||
      e.header.minor != static_cast<uint16_t>(ossim::ProfMinor::PcSample) ||
      e.data.size() < 2) {
    return;
  }
  samples_[e.data[0]][e.data[1]] += 1;
  ++totalSamples_;
}

std::map<uint64_t, std::map<uint64_t, uint64_t>> ProfileFold::takeSamples() {
  std::map<uint64_t, std::map<uint64_t, uint64_t>> out;
  for (const auto& [pid, funcs] : samples_) {
    out[pid].insert(funcs.begin(), funcs.end());
  }
  samples_.clear();
  return out;
}

std::string ProfileFold::summaryJson() const {
  return util::strprintf("{\"name\":\"profile\",\"pids\":%zu,\"samples\":%llu}",
                         samples_.size(),
                         static_cast<unsigned long long>(totalSamples_));
}

// --- CompletenessFold --------------------------------------------------

void CompletenessFold::closeInterval(ProcState& s, const DecodedEvent& e,
                                     const Heartbeat& hb) {
  // Interval identity: expected logger events vs. events actually decoded
  // in (previous heartbeat, this heartbeat] — see completeness.hpp.
  const uint64_t expected =
      s.hasBeat ? hb.eventsLogged - s.prevHb.eventsLogged : hb.eventsLogged;
  const uint64_t observed = s.hasBeat ? s.cum - s.prevBeatCumBefore : s.cum;
  const uint64_t lost = expected > observed ? expected - observed : 0;
  s.lostEvents += lost;

  if (s.pending.size() == 1) {
    s.pending[0].bounded = true;
    s.pending[0].lostEvents = lost;
  } else if (s.pending.size() > 1) {
    // Several drop windows share one counter delta: the total is exact
    // but cannot be split between them.
    for (CompletenessGap& g : s.pending) {
      g.bounded = false;
      ++s.unboundedGaps;
    }
  } else if (lost > 0) {
    // Loss with no sequence discontinuity: a buffer decoded short
    // (garbled tail) or was partially committed. Synthesize a zero-buffer
    // gap spanning the interval so the loss is still localized in time.
    CompletenessGap g;
    g.processor = s.processor;
    g.beforeSeq = s.hasBeat ? s.prevBeatBufferSeq : s.firstBufferSeq;
    g.afterSeq = e.bufferSeq;
    g.startTick = s.hasBeat ? s.prevBeatTick : s.firstTick;
    g.endTick = e.fullTimestamp;
    g.bounded = true;
    g.lostEvents = lost;
    s.pending.push_back(g);
  }
  s.closed.insert(s.closed.end(), s.pending.begin(), s.pending.end());
  s.pending.clear();

  s.hasBeat = true;
  ++s.beatCount;
  s.prevBeatCumBefore = s.cum;
  s.prevBeatTick = e.fullTimestamp;
  s.prevBeatBufferSeq = e.bufferSeq;
  s.prevHb = hb;
}

CompletenessFold::ProcState& CompletenessFold::stateFor(uint32_t processor) {
  if (hot_ < procs_.size() && procs_[hot_].processor == processor) {
    return procs_[hot_];
  }
  auto it = std::lower_bound(
      procs_.begin(), procs_.end(), processor,
      [](const ProcState& s, uint32_t p) { return s.processor < p; });
  if (it == procs_.end() || it->processor != processor) {
    it = procs_.insert(it, ProcState{});
    it->processor = processor;
  }
  hot_ = static_cast<size_t>(it - procs_.begin());
  return *it;
}

void CompletenessFold::onEvent(const DecodedEvent& e) {
  step(stateFor(e.processor), e);
}

void CompletenessFold::foldSpan(std::span<const DecodedEvent> events) {
  ProcState* s = nullptr;
  for (const DecodedEvent& e : events) {
    if (s == nullptr || s->processor != e.processor) s = &stateFor(e.processor);
    step(*s, e);
  }
}

void CompletenessFold::step(ProcState& s, const DecodedEvent& e) {
  if (!s.sawFirst) {
    s.sawFirst = true;
    s.firstBufferSeq = e.bufferSeq;
    s.firstTick = e.fullTimestamp;
    if (e.bufferSeq > 0) {
      // Buffers before the first observed one (flight-recorder lap).
      CompletenessGap g;
      g.processor = e.processor;
      g.kind = CompletenessGap::Kind::Head;
      g.afterSeq = e.bufferSeq;
      g.lostBuffers = e.bufferSeq;
      g.endTick = e.fullTimestamp;
      s.pending.push_back(g);
    }
  } else if (e.bufferSeq > s.prevBufferSeq + 1) {
    CompletenessGap g;
    g.processor = e.processor;
    g.beforeSeq = s.prevBufferSeq;
    g.afterSeq = e.bufferSeq;
    g.lostBuffers = e.bufferSeq - s.prevBufferSeq - 1;
    g.startTick = s.prevTick;
    g.endTick = e.fullTimestamp;
    s.pending.push_back(g);
  }
  s.prevBufferSeq = e.bufferSeq;
  s.prevTick = e.fullTimestamp;

  if (isInfrastructure(e)) return;
  if (e.header.major == Major::Monitor) {
    Heartbeat hb;
    if (parseHeartbeat(e, hb)) closeInterval(s, e, hb);
  }
  ++s.cum;  // heartbeats are logger events too; counted after marking
}

void CompletenessFold::finish() {
  if (finished_) return;
  finished_ = true;
  for (ProcState& s : procs_) {
    ProcessorCompleteness summary;
    summary.processor = s.processor;
    summary.heartbeats = s.beatCount;
    summary.lostEvents = s.lostEvents;
    summary.unboundedGaps = s.unboundedGaps;
    if (s.hasBeat) {
      hasHeartbeats_ = true;
      // Compare like with like: the last heartbeat's counter covers
      // events strictly before it, so clamp "observed" to that window.
      summary.observedEvents = s.prevBeatCumBefore;
      summary.expectedEvents = s.prevHb.eventsLogged;
      summary.droppedAtSource = s.prevHb.eventsDropped;
      summary.consumerLost = s.prevHb.consumerLost;
      // Gaps after the last heartbeat: no closing delta, unbounded.
      for (CompletenessGap& g : s.pending) {
        g.bounded = false;
        g.kind = CompletenessGap::Kind::Tail;
        ++summary.unboundedGaps;
        summary.tailUnverified = true;
      }
    } else {
      summary.observedEvents = s.cum;
      for (CompletenessGap& g : s.pending) {
        g.bounded = false;
        ++summary.unboundedGaps;
      }
    }
    s.closed.insert(s.closed.end(), s.pending.begin(), s.pending.end());
    s.pending.clear();
    for (const CompletenessGap& g : s.closed) {
      // A missing buffer whose loss the heartbeat identity bounds at
      // exactly zero events held nothing but fillers and anchors; nothing
      // observable was lost, so it is not a completeness defect.
      if (g.bounded && g.lostEvents == 0) continue;
      gaps_.push_back(g);
    }
    processors_.push_back(summary);
  }
}

std::string CompletenessFold::summaryJson() const {
  uint64_t lost = 0;
  uint64_t beats = 0;
  size_t gaps = 0;
  for (const ProcState& s : procs_) {
    lost += s.lostEvents;
    beats += s.beatCount;
    // Same benign-gap filter as the final report: a bounded gap whose
    // loss the heartbeat identity pins at zero held only fillers and
    // anchors — not a defect, so the live summary must not cry wolf.
    // Pending gaps (no closing heartbeat yet) always count.
    for (const CompletenessGap& g : s.closed) {
      if (g.bounded && g.lostEvents == 0) continue;
      ++gaps;
    }
    gaps += s.pending.size();
  }
  return util::strprintf(
      "{\"name\":\"completeness\",\"heartbeats\":%llu,\"lost_events\":%llu,"
      "\"gaps\":%zu}",
      static_cast<unsigned long long>(beats),
      static_cast<unsigned long long>(lost), gaps);
}

}  // namespace ktrace::analysis::streaming
