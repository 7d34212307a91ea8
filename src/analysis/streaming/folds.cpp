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

void LockContentionFold::fold(const DecodedEvent& e) {
  if (e.header.major != Major::Lock) return;
  const auto minor = static_cast<ossim::LockMinor>(e.header.minor);
  const EventPayload& data = e.data;
  if (data.size() < 2) return;
  const uint64_t lockId = data[0];
  const uint64_t pid = data[1];

  switch (minor) {
    case ossim::LockMinor::ContendStart: {
      const uint32_t slot = pairIndex_.insert(lockId, pid);
      if (slot == pairs_.size()) pairs_.emplace_back();
      PairState& s = pairs_[slot];
      if (s.contending) {
        ++unmatchedContends_;
      } else {
        s.contending = true;
        ++openContends_;
      }
      s.contendTs = e.fullTimestamp;
      s.chain.clear();
      if (data.size() >= 3) {
        const uint64_t chainLen =
            std::min<uint64_t>(data[2], data.size() - 3);
        s.chain.assign(data.begin() + 3,
                       data.begin() + 3 + static_cast<ptrdiff_t>(chainLen));
      }
      break;
    }
    case ossim::LockMinor::Acquired: {
      // A pair that has never contended has no row for its hold time to
      // go into, so it needs no record at all.
      const uint32_t slot = pairIndex_.find(lockId, pid);
      if (slot == util::PairIndex::kAbsent) break;
      PairState& s = pairs_[slot];
      if (s.contending) {
        const size_t index = rowFor(s, lockId, pid);
        LockStats& row = rows_[index];
        const uint64_t spins = data.size() > 2 ? data[2] : 0;
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
      const uint32_t slot = pairIndex_.find(lockId, pid);
      if (slot != util::PairIndex::kAbsent && pairs_[slot].holding) {
        // The release event carries no chain, so fold hold time into the
        // (lock, pid) row with the most contention (display-only detail).
        PairState& s = pairs_[slot];
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
  for (PairState& s : pairs_) s.contending = false;
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

uint32_t EventRateFold::findType(Major major, uint16_t minor) {
  uint32_t* slot;
  if (minor < kDirectMinors) {
    if (direct_.empty()) direct_.assign(kMaxMajors * kDirectMinors, 0);
    slot = &direct_[static_cast<uint32_t>(major) * kDirectMinors + minor];
  } else {
    slot = &wide_[typeKey(major, minor)];
  }
  if (*slot == 0) {
    types_.emplace_back().key = typeKey(major, minor);
    perProcessor_.resize(types_.size() * stride_, 0);
    *slot = static_cast<uint32_t>(types_.size());
  }
  return *slot - 1;
}

void EventRateFold::growProcessors(uint32_t count) {
  numProcessors_ = count;
  if (count <= stride_) return;
  const uint32_t stride = std::max(count, 2 * stride_);
  std::vector<uint64_t> wider(types_.size() * stride, 0);
  for (size_t t = 0; t < types_.size(); ++t) {
    std::copy_n(perProcessor_.begin() + static_cast<ptrdiff_t>(t * stride_),
                stride_, wider.begin() + static_cast<ptrdiff_t>(t * stride));
  }
  perProcessor_.swap(wider);
  stride_ = stride;
}

inline void EventRateFold::fold(const DecodedEvent& e) {
  const uint32_t p = e.processor;
  if (numProcessors_ <= p) [[unlikely]] growProcessors(p + 1);
  const Major major = e.header.major;
  const uint16_t minor = e.header.minor;
  const uint32_t direct =
      minor < kDirectMinors && !direct_.empty()
          ? direct_[static_cast<uint32_t>(major) * kDirectMinors + minor]
          : 0;
  const uint32_t t = direct != 0 ? direct - 1 : findType(major, minor);
  TypeCounts& c = types_[t];
  const uint64_t tick = e.fullTimestamp;
  const uint32_t words = e.header.lengthWords;
  c.count += 1;
  c.words += words;
  c.firstTick = std::min(c.firstTick, tick);
  c.lastTick = std::max(c.lastTick, tick);
  c.processors = numProcessors_;
  perProcessor_[static_cast<size_t>(t) * stride_ + p] += 1;
  totalEvents_ += 1;
  totalWords_ += words;
}

std::map<uint32_t, EventTypeStats> EventRateFold::takeStats() {
  std::map<uint32_t, EventTypeStats> out;
  for (size_t t = 0; t < types_.size(); ++t) {
    const TypeCounts& c = types_[t];
    EventTypeStats s;
    s.major = static_cast<Major>(c.key >> 16);
    s.minor = static_cast<uint16_t>(c.key);
    s.count = c.count;
    s.totalWords = c.words;
    s.firstTick = c.firstTick;
    s.lastTick = c.lastTick;
    const auto row = perProcessor_.begin() + static_cast<ptrdiff_t>(t * stride_);
    s.perProcessor.assign(row, row + c.processors);
    out.emplace(c.key, std::move(s));
  }
  types_.clear();
  perProcessor_.clear();
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

void ProfileFold::fold(const DecodedEvent& e) {
  const EventPayload& data = e.data;
  if (e.header.major != Major::Prof ||
      e.header.minor != static_cast<uint16_t>(ossim::ProfMinor::PcSample) ||
      data.size() < 2) {
    return;
  }
  const uint64_t pid = data[0];
  const uint64_t function = data[1];
  const uint32_t slot = index_.insert(pid, function);
  if (slot == samples_.size()) {
    samples_.push_back({pid, function, 0});
    pids_.insert(pid, 0);
  }
  samples_[slot].count += 1;
  ++totalSamples_;
}

std::map<uint64_t, std::map<uint64_t, uint64_t>> ProfileFold::takeSamples() {
  std::map<uint64_t, std::map<uint64_t, uint64_t>> out;
  for (const Samples& s : samples_) out[s.pid][s.function] = s.count;
  index_.clear();
  samples_.clear();
  pids_.clear();
  return out;
}

std::string ProfileFold::summaryJson() const {
  return util::strprintf("{\"name\":\"profile\",\"pids\":%zu,\"samples\":%llu}",
                         pids_.size(),
                         static_cast<unsigned long long>(totalSamples_));
}

// --- CompletenessFold --------------------------------------------------

void CompletenessFold::closeInterval(ProcState& s, uint64_t bufferSeq,
                                     uint64_t tick, const Heartbeat& hb) {
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
    g.afterSeq = bufferSeq;
    g.startTick = s.hasBeat ? s.prevBeatTick : s.firstTick;
    g.endTick = tick;
    g.bounded = true;
    g.lostEvents = lost;
    s.pending.push_back(g);
  }
  s.closed.insert(s.closed.end(), s.pending.begin(), s.pending.end());
  s.pending.clear();

  s.hasBeat = true;
  ++s.beatCount;
  s.prevBeatCumBefore = s.cum;
  s.prevBeatTick = tick;
  s.prevBeatBufferSeq = bufferSeq;
  s.prevHb = hb;
}

CompletenessFold::ProcState& CompletenessFold::findState(uint32_t processor) {
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

void CompletenessFold::noteSequence(ProcState& s, uint64_t bufferSeq,
                                    uint64_t tick) {
  if (!s.sawFirst) {
    s.sawFirst = true;
    s.firstBufferSeq = bufferSeq;
    s.firstTick = tick;
    if (bufferSeq > 0) {
      // Buffers before the first observed one (flight-recorder lap).
      CompletenessGap g;
      g.processor = s.processor;
      g.kind = CompletenessGap::Kind::Head;
      g.afterSeq = bufferSeq;
      g.lostBuffers = bufferSeq;
      g.endTick = tick;
      s.pending.push_back(g);
    }
  } else {
    CompletenessGap g;
    g.processor = s.processor;
    g.beforeSeq = s.prevBufferSeq;
    g.afterSeq = bufferSeq;
    g.lostBuffers = bufferSeq - s.prevBufferSeq - 1;
    g.startTick = s.prevTick;
    g.endTick = tick;
    s.pending.push_back(g);
  }
}

void CompletenessFold::noteHeartbeat(ProcState& s, const DecodedEvent& e) {
  Heartbeat hb;
  if (parseHeartbeat(e, hb)) closeInterval(s, e.bufferSeq, e.fullTimestamp, hb);
}

inline void CompletenessFold::fold(const DecodedEvent& e) {
  ProcState& s = !procs_.empty() && procs_[hot_].processor == e.processor
                     ? procs_[hot_]
                     : findState(e.processor);
  // The first event, or a jump in the buffer sequence (a lost buffer).
  if (!s.sawFirst || e.bufferSeq > s.prevBufferSeq + 1) [[unlikely]] {
    noteSequence(s, e.bufferSeq, e.fullTimestamp);
  }
  s.prevBufferSeq = e.bufferSeq;
  s.prevTick = e.fullTimestamp;

  if (isInfrastructure(e)) return;
  if (e.header.major == Major::Monitor) [[unlikely]] {
    noteHeartbeat(s, e);
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

// --- FoldOf: the entry points, one loop each over Derived::fold -------

template <class Derived>
void FoldOf<Derived>::onEvent(const DecodedEvent& e) {
  Derived& self = static_cast<Derived&>(*this);
  if (hasMajor(self.properties().majors, e.header.major)) self.fold(e);
}

template <class Derived>
void FoldOf<Derived>::foldSpan(std::span<const DecodedEvent> events) {
  Derived& self = static_cast<Derived&>(*this);
  const uint64_t majors = self.properties().majors;
  for (const DecodedEvent& e : events) {
    if (hasMajor(majors, e.header.major)) self.fold(e);
  }
}

template class FoldOf<LockContentionFold>;
template class FoldOf<EventRateFold>;
template class FoldOf<ProfileFold>;
template class FoldOf<CompletenessFold>;

}  // namespace ktrace::analysis::streaming
