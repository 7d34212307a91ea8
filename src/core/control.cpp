#include "core/control.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/bits.hpp"

namespace ktrace {

namespace {

constexpr uint32_t kAnchorWords = ShmTraceControl::kAnchorWords;

/// Byte offset of the ring words: after the header and the slot states,
/// on a fresh cache line so the first ring words never share a line with
/// the commit counts.
size_t ringOffset(uint32_t numBuffers) noexcept {
  return util::roundUpPow2(sizeof(ShmControlState) + sizeof(ShmSlotState) * numBuffers,
                           64);
}

void checkConfig(const TraceControlConfig& config) {
  if (!ShmTraceControl::validGeometry(config.bufferWords, config.numBuffers)) {
    throw std::invalid_argument(
        "trace control: bufferWords and numBuffers must be powers of two "
        "within the block ceilings, with bufferWords >= 6 and numBuffers >= 2");
  }
  if (!config.clock.valid()) {
    throw std::invalid_argument("trace control: a valid clock is required");
  }
}

}  // namespace

bool ShmTraceControl::validGeometry(uint32_t bufferWords, uint32_t numBuffers) noexcept {
  return util::isPowerOfTwo(bufferWords) && util::isPowerOfTwo(numBuffers) &&
         bufferWords >= 2 * kAnchorWords && numBuffers >= 2 &&
         bufferWords <= ShmControlState::kMaxBufferWords &&
         numBuffers <= ShmControlState::kMaxNumBuffers;
}

size_t ShmTraceControl::bytesFor(uint32_t bufferWords, uint32_t numBuffers) noexcept {
  return ringOffset(numBuffers) +
         static_cast<size_t>(bufferWords) * numBuffers * sizeof(uint64_t);
}

ShmTraceControl::ShmTraceControl(ShmControlState* state, ClockRef clock)
    : state_(state), clock_(clock) {
  processorId_ = state_->processorId;
  bufferWords_ = state_->bufferWords;
  numBuffers_ = state_->numBuffers;
  bufferShift_ = util::log2Exact(bufferWords_);
  regionMask_ = static_cast<uint64_t>(bufferWords_) * numBuffers_ - 1;
  // An event must fit in one buffer alongside the buffer's anchor, and in
  // the 10-bit header length field.
  maxEventWords_ = std::min<uint32_t>(EventHeader::kMaxWords, bufferWords_ - kAnchorWords);
  char* base = reinterpret_cast<char*>(state_);
  slots_ = reinterpret_cast<ShmSlotState*>(base + sizeof(ShmControlState));
  words_ = reinterpret_cast<uint64_t*>(base + ringOffset(numBuffers_));
  localEpoch_ = state_->writerEpoch.load(std::memory_order_acquire);
}

ShmTraceControl ShmTraceControl::create(void* memory, const TraceControlConfig& config) {
  checkConfig(config);
  std::memset(memory, 0, bytesFor(config.bufferWords, config.numBuffers));
  auto* state = new (memory) ShmControlState{};
  state->magic = ShmControlState::kMagic;
  state->version = ShmControlState::kVersion;
  state->processorId = config.processorId;
  state->bufferWords = config.bufferWords;
  state->numBuffers = config.numBuffers;

  ShmTraceControl control(state, config.clock);
  control.commitCounts_ = config.commitCounts;
  control.timestampPerAttempt_ = config.timestampPerAttempt;
  control.selfMonitoring_ = config.selfMonitoring;
  for (uint32_t i = 0; i < config.numBuffers; ++i) {
    new (&control.slots_[i]) ShmSlotState{};
  }
  // Lap 0 of slot 0 starts now; write its anchor so that every buffer lap
  // begins with an anchor event carrying the full 64-bit timestamp.
  const uint64_t t0 = control.clock_();
  control.writeAnchor(0, t0, 0);
  state->index.store(kAnchorWords, std::memory_order_release);
  control.commit(0, kAnchorWords);
  return control;
}

ShmTraceControl ShmTraceControl::attach(void* memory, ClockRef clock,
                                        size_t availableBytes) {
  if (availableBytes != 0 && availableBytes < sizeof(ShmControlState)) {
    throw std::runtime_error("ShmTraceControl: block too small for a header");
  }
  auto* state = static_cast<ShmControlState*>(memory);
  if (state->magic != ShmControlState::kMagic ||
      state->version != ShmControlState::kVersion) {
    throw std::runtime_error(
        "ShmTraceControl: not an initialized version-5 trace block");
  }
  // The same geometry check as create()'s: a bit-flipped header must
  // produce an error here, never an out-of-bounds region walk.
  if (!validGeometry(state->bufferWords, state->numBuffers)) {
    throw std::runtime_error("ShmTraceControl: implausible trace-block geometry");
  }
  if (availableBytes != 0 &&
      bytesFor(state->bufferWords, state->numBuffers) > availableBytes) {
    throw std::runtime_error(
        "ShmTraceControl: declared geometry exceeds the mapped block "
        "(truncated or corrupt segment)");
  }
  if (!clock.valid()) throw std::invalid_argument("ShmTraceControl: clock required");
  return ShmTraceControl(state, clock);
}

bool ShmTraceControl::reserveSlow(uint32_t lengthWords, Reservation& out) noexcept {
  state_->slowPathEntries.fetch_add(1, std::memory_order_relaxed);
  const uint64_t oldIndex = state_->index.load(std::memory_order_relaxed);
  const uint64_t offsetInBuffer = oldIndex & (bufferWords_ - 1);
  if (offsetInBuffer != 0 && offsetInBuffer + lengthWords <= bufferWords_) {
    return false;  // another thread already crossed; take the fast path
  }
  if (offsetInBuffer == 0) {
    state_->exactFitCrossings.fetch_add(1, std::memory_order_relaxed);
  }
  if (crossInto(oldIndex, lengthWords, out)) return true;
  state_->reserveRetries.fetch_add(1, std::memory_order_relaxed);
  return false;
}

bool ShmTraceControl::crossInto(uint64_t oldIndex, uint32_t extraWords,
                                Reservation& out) noexcept {
  const uint64_t offsetInBuffer = oldIndex & (bufferWords_ - 1);
  const uint64_t remainder = offsetInBuffer == 0 ? 0 : bufferWords_ - offsetInBuffer;
  const uint64_t newBufferStart = oldIndex + remainder;
  const uint64_t newSeq = bufferSeq(newBufferStart);
  ShmSlotState& slot = slots_[newSeq & (numBuffers_ - 1)];

  // Snapshot the new slot's committed count *before* publishing the new
  // index: no thread can commit into the new lap until the CAS succeeds.
  // (A writer still holding a reservation from a previous lap of this slot
  // can violate this; that is exactly the long-blocked-writer anomaly the
  // per-buffer counts exist to detect, §3.1.)
  const uint64_t committedSnapshot = slot.committed.load(std::memory_order_relaxed);
  const uint64_t ts = clock_();
  uint64_t expected = oldIndex;
  if (!state_->index.compare_exchange_strong(
          expected, newBufferStart + kAnchorWords + extraWords,
          std::memory_order_relaxed, std::memory_order_relaxed)) {
    return false;
  }

  // We own [oldIndex, newIndex). Record the new lap's zero point, pad the
  // old buffer with fillers, and write the new buffer's anchor.
  slot.lapStartCommitted.store(committedSnapshot, std::memory_order_relaxed);
  slot.lapSeq.store(newSeq, std::memory_order_release);
  // Seqlock writer side (Boehm): lapSeq is the harvest's sequence word,
  // so no store into the new lap may become visible before it.
  std::atomic_thread_fence(std::memory_order_release);
  if (leaseHeartbeat_ != nullptr) {
    // Lease liveness: one relaxed fetch_add per buffer crossing, the whole
    // fast-path cost of the session watchdog. An RMW, not load+store: one
    // lease may have several writers (forked children, one per processor)
    // crossing concurrently, and a lost increment could rewind the word to
    // a value the watchdog already recorded. Relaxed: the watchdog only
    // compares successive values.
    leaseHeartbeat_->fetch_add(1, std::memory_order_relaxed);
  }
  if (remainder > 0) {
    state_->fillerWords.fetch_add(remainder, std::memory_order_relaxed);
    stampFillers(oldIndex, remainder, static_cast<uint32_t>(ts));
    commit(oldIndex, static_cast<uint32_t>(remainder));
  }
  writeAnchor(newBufferStart, ts, newSeq);
  commit(newBufferStart, kAnchorWords);
  fillReservation(out, newBufferStart + kAnchorWords, ts);
  return true;
}

void ShmTraceControl::flushCurrentBuffer() noexcept {
  for (;;) {
    const uint64_t oldIndex = state_->index.load(std::memory_order_relaxed);
    if ((oldIndex & (bufferWords_ - 1)) == 0) return;  // empty: nothing to flush
    Reservation unused;
    if (crossInto(oldIndex, 0, unused)) return;
  }
}

void ShmTraceControl::stampFillers(uint64_t from, uint64_t words, uint32_t ts32) noexcept {
  forEachFiller(words, ts32, [&](uint64_t at, uint64_t header) { storeWord(from + at, header); });
}

void ShmTraceControl::writeAnchor(uint64_t index, uint64_t fullTs, uint64_t seq) noexcept {
  storeWord(index, EventHeader::encode(static_cast<uint32_t>(fullTs), kAnchorWords,
                                       Major::Control,
                                       static_cast<uint16_t>(ControlMinor::BufferAnchor)));
  storeWord(index + 1, fullTs);
  storeWord(index + 2, seq);
}

bool ShmTraceControl::harvestOne(uint64_t& nextSeq, Sink& sink,
                                 std::chrono::nanoseconds grace,
                                 bool stopAtIncomplete) const {
  const uint64_t seq = nextSeq;
  const uint64_t currentSeq = currentBufferSeq();
  if (seq >= currentSeq) return false;  // that lap is still being filled

  // Lap detection: laps older than the oldest intact one were overwritten.
  const uint64_t oldest = oldestIntactSeq(currentSeq);
  if (seq < oldest) {
    state_->buffersLost.fetch_add(oldest - seq, std::memory_order_relaxed);
    nextSeq = oldest;
    return true;
  }

  const ShmSlotState& s = slots_[seq & (numBuffers_ - 1)];
  if (s.lapSeq.load(std::memory_order_acquire) != seq) {
    // The slot was already recycled for a newer lap: this buffer is gone.
    state_->buffersLost.fetch_add(1, std::memory_order_relaxed);
    nextSeq = seq + 1;
    return true;
  }

  // Wait (bounded) for stragglers to commit; pairs with commit()'s add.
  const uint64_t lapStart = s.lapStartCommitted.load(std::memory_order_relaxed);
  uint64_t delta = s.committed.load(std::memory_order_acquire) - lapStart;
  if (commitCounts_ && delta < bufferWords_ && grace.count() > 0) {
    const auto deadline = std::chrono::steady_clock::now() + grace;
    for (;;) {
      delta = s.committed.load(std::memory_order_acquire) - lapStart;
      if (delta >= bufferWords_) break;
      if (std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::yield();
    }
  }
  const bool mismatch = commitCounts_ && delta != bufferWords_;
  if (mismatch && stopAtIncomplete) return false;

  BufferRecord record;
  record.processor = processorId_;
  record.seq = seq;
  record.committedDelta = delta;
  record.commitMismatch = mismatch;
  record.words.resize(bufferWords_);
  const uint64_t base = seq * bufferWords_;
  for (uint32_t i = 0; i < bufferWords_; ++i) record.words[i] = loadWord(base + i);

  // Seqlock validation (Boehm): the acquire fence pairs with the writers'
  // release fences after their index CAS and the crosser's lapSeq store,
  // so if the copy read any word of a newer lap, the loads below see
  // that lap's lapSeq or index. The index check closes the gap between a
  // crosser's CAS and its lapSeq store, in which a second writer can
  // already be storing into this slot's next lap.
  std::atomic_thread_fence(std::memory_order_acquire);
  const uint64_t nextLapStart = (seq + numBuffers_) * bufferWords_;
  nextSeq = seq + 1;
  if (s.lapSeq.load(std::memory_order_relaxed) != seq ||
      state_->index.load(std::memory_order_relaxed) > nextLapStart) {
    state_->buffersLost.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // nextSeq moved past this lap before the hand-off: once written out
  // (even with a mismatch flagged) the buffer is never re-examined, so a
  // straggler committing the tail afterwards cannot get it shipped — and
  // counted — twice.
  if (mismatch) state_->commitMismatches.fetch_add(1, std::memory_order_relaxed);
  state_->buffersConsumed.fetch_add(1, std::memory_order_relaxed);
  sink.onBuffer(std::move(record));
  return true;
}

uint64_t ShmTraceControl::eventsLogged() const noexcept {
  uint64_t total = 0;
  for (const auto& n : state_->perMajorLogged) total += load(n);
  return total;
}

uint64_t ShmTraceControl::withdrawOvercommit(uint64_t seq,
                                             uint64_t expectedLapWords) noexcept {
  ShmSlotState& s = slots_[seq & (numBuffers_ - 1)];
  if (s.lapSeq.load(std::memory_order_acquire) != seq) return 0;
  const uint64_t lapStart = s.lapStartCommitted.load(std::memory_order_relaxed);
  const uint64_t lapCommitted = s.committed.load(std::memory_order_seq_cst) - lapStart;
  if (lapCommitted <= expectedLapWords) return 0;
  const uint64_t excess = lapCommitted - expectedLapWords;
  s.committed.fetch_sub(excess, std::memory_order_seq_cst);
  state_->staleCommits.fetch_add(1, std::memory_order_relaxed);
  return excess;
}

void ShmTraceControl::copyBlockFrom(const ShmTraceControl& source) noexcept {
  const size_t words = bytesFor(bufferWords_, numBuffers_) / sizeof(uint64_t);
  auto* from = reinterpret_cast<uint64_t*>(source.state_);
  auto* to = reinterpret_cast<uint64_t*>(state_);
  for (size_t i = 0; i < words; ++i) {
    to[i] = std::atomic_ref<uint64_t>(from[i]).load(std::memory_order_relaxed);
  }
}

void* TraceControl::allocate(const TraceControlConfig& config) {
  // Validated first, so the create() below cannot throw and leak. Plain
  // malloc aligned by hand: aligned new or a private mapping shifted
  // glibc's heap layout enough to make pipebench analyze's RSS bimodal.
  checkConfig(config);
  void* raw = std::malloc(bytesFor(config.bufferWords, config.numBuffers) + 63);
  if (raw == nullptr) throw std::bad_alloc();
  return raw;
}

TraceControl::TraceControl(const TraceControlConfig& config)
    : TraceControl(config, allocate(config)) {}

TraceControl::TraceControl(const TraceControlConfig& config, void* raw)
    : ShmTraceControl(create(
          reinterpret_cast<void*>(util::roundUpPow2(reinterpret_cast<uintptr_t>(raw), 64)),
          config)),
      raw_(raw) {}

TraceControl::~TraceControl() { std::free(raw_); }

}  // namespace ktrace
