// Per-processor trace control: the lockless variable-length reservation
// algorithm of paper §3.1 (Figures 1 and 2), stated once.
//
// "To allow fast logging of events from user space, these control
// structures, containing for example the current index, and the trace
// buffers themselves, are mapped into each application's address space."
// (§2). All per-processor trace state — the atomic reservation index, the
// per-buffer commit counts, the counters and the ring words — lives in
// one relocatable, position-independent block (ShmControlState). The same
// block serves an in-process Facility (TraceControl owns one on the heap)
// and a cross-process ShmSession (one per processor inside a
// MAP_SHARED segment), so kernel (parent) and applications (children) log
// with one algorithm, and a crash image is just a copy of the blocks.
//
// ShmTraceControl is the one accessor over a block: it holds the block
// pointers, the cached geometry, the clock and the three ablation flags of
// TraceControlConfig, and nothing else. Each process (or thread) may build
// its own accessor over a common block.
//
// The trace memory region is `numBuffers` buffers of `bufferWords` 64-bit
// words each (both powers of two). `index` is a global, monotonically
// increasing word index; the physical slot of word i is i & (regionWords-1),
// and the buffer sequence number of word i is i >> log2(bufferWords).
//
// Reservation (traceReserve): CAS-increment `index` by the event length.
// The timestamp is (re)read on every CAS attempt so that buffer order is
// timestamp order — the paper's monotonicity requirement. If the event
// would cross the buffer boundary, the slow path reserves the remainder of
// the old buffer (filled with filler events), plus a buffer-anchor event,
// plus the caller's event at the start of the next buffer, in a single CAS.
//
// Commit (traceCommit): adds the event length to the per-buffer-slot
// cumulative committed count. A buffer whose committed delta for the
// current lap equals bufferWords is fully written; anything else indicates
// a writer that was preempted, blocked, or killed mid-log (§3.1's anomaly
// detection).
//
// Layout of a block (64-byte aligned sections):
//   ShmControlState header
//   numBuffers x ShmSlotState
//   bufferWords * numBuffers ring words
#pragma once

#include <atomic>
#include <chrono>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/event.hpp"
#include "core/sink.hpp"
#include "core/timestamp.hpp"

namespace ktrace {

/// A successful reservation: the caller owns words
/// [index, index+lengthWords) and must write the header at `slot`.
struct Reservation {
  uint64_t index = 0;       // global word index of the header word
  uint64_t* slot = nullptr;  // physical location of the header word
  uint32_t ts32 = 0;        // low 32 bits of the timestamp taken at reserve
  uint64_t fullTs = 0;      // the full timestamp (for anchors and tests)
};

struct TraceControlConfig {
  uint32_t processorId = 0;
  uint32_t bufferWords = 1u << 14;  // 128 KiB buffers: the paper's example
  uint32_t numBuffers = 8;
  ClockRef clock{};
  bool commitCounts = true;  // traceCommit is "optional" per the paper
  /// Ablation switch (DESIGN.md §4). true = the paper's algorithm: the
  /// timestamp is re-read on every CAS attempt, so buffer order is
  /// timestamp order. false = read the clock once before the loop; a
  /// losing CAS can then commit a stale timestamp after a later one — the
  /// exact hazard §3.1 warns about ("that process may be interrupted by
  /// another process [that] gets the next slot in the buffer, but obtains
  /// an earlier timestamp").
  bool timestampPerAttempt = true;
  /// Self-monitoring counters on the log hot path (DESIGN.md §8): per-major
  /// event counts and reserved words, read by core::MonitorSnapshot and
  /// embedded in TRACE_MONITOR heartbeats. Costs ~1 ns/event
  /// (bench_selfmon); disable for the absolute minimum hot path.
  bool selfMonitoring = true;
};

/// Per-buffer-slot completion metadata, read by the harvest.
struct ShmSlotState {
  /// Cumulative words committed into this physical slot across all laps.
  /// Commits add with seq_cst: the release half publishes the event's
  /// words to the harvest's acquire load, and the total order with
  /// writerEpoch is what the fence needs (see ShmTraceControl::commit).
  std::atomic<uint64_t> committed;
  /// Snapshot of `committed` taken by the crosser entering this slot.
  /// Relaxed: published by the release store of lapSeq that follows it.
  std::atomic<uint64_t> lapStartCommitted;
  /// The buffer sequence number this lap corresponds to. Release store
  /// by the crosser (after lapStartCommitted) and acquire load by the
  /// harvest, which therefore sees the lap's zero point; the crosser's
  /// release fence after the store makes it the harvest's seqlock word.
  std::atomic<uint64_t> lapSeq;
};

/// The per-processor control block. Every mutable word the algorithm
/// touches lives here, so the block works at any address in any process.
/// Counters are relaxed throughout: they are statistics, never used to
/// order other memory.
struct ShmControlState {
  // Written once by create() before the block is shared, then read-only.
  uint32_t magic;
  uint32_t version;
  uint32_t processorId;
  uint32_t bufferWords;   // power of two
  uint32_t numBuffers;    // power of two
  uint32_t reserved;
  /// The writer fence (DESIGN.md §10). A watchdog reclaiming this
  /// processor bumps it; accessors cache the epoch they attached under,
  /// so a producer stalled past its lease deadline — but still alive —
  /// has its late reservations rejected and late commits discarded as
  /// stale instead of corrupting the reclaimed lap. Read-mostly, so it
  /// shares the immutable line. seq_cst bump and commit-side re-read; the
  /// per-attempt reserve check is relaxed because a reservation that
  /// slips past the fence is absorbed by the watchdog's re-reclaim.
  std::atomic<uint64_t> writerEpoch;

  /// The reservation index, alone on its line. Relaxed CAS: it orders
  /// nothing by itself. Writers publish their words through commit; the
  /// harvest's seqlock re-check reads it behind an acquire fence that
  /// pairs with the writers' release fences after their CAS.
  alignas(64) std::atomic<uint64_t> index;

  // Producer-side anomaly counters.
  alignas(64) std::atomic<uint64_t> reserveRetries;  // lost CAS attempts
  std::atomic<uint64_t> slowPathEntries;  // traceReserveSlow entries
  std::atomic<uint64_t> rejected;         // zero/oversized or fenced reserves
  std::atomic<uint64_t> fillerWords;      // words padding buffer tails
  std::atomic<uint64_t> exactFitCrossings;
  std::atomic<uint64_t> staleCommits;     // stale-lap and fenced commits

  // Harvest-side accounting, on its own line so draining never contends
  // with producers: any process mapping the block sees how much of the
  // stream reached a sink and how much was lost to lapping.
  alignas(64) std::atomic<uint64_t> buffersConsumed;
  std::atomic<uint64_t> buffersLost;
  std::atomic<uint64_t> commitMismatches;

  // Self-monitoring counters (DESIGN.md §8), updated by the loggers with
  // relaxed load/add/store — exact under one writer per processor,
  // statistically accurate when writers share a block.
  alignas(64) std::atomic<uint64_t> wordsReserved;
  std::atomic<uint64_t> perMajorLogged[kMaxMajors];

  static constexpr uint32_t kMagic = 0x4B54524Bu;  // "KTRK"
  /// 5: one layout for in-process and shared controls (per-major counters,
  /// reserveRetries and exactFitCrossings); older blocks do not attach.
  static constexpr uint32_t kVersion = 5;
  /// Geometry ceilings enforced on attach: large enough for any real
  /// configuration (a max-size region is 512 GiB), small enough that a
  /// corrupted header cannot drive bytesFor into overflow or make
  /// validation walk gigabytes of garbage.
  static constexpr uint32_t kMaxBufferWords = 1u << 26;
  static constexpr uint32_t kMaxNumBuffers = 1u << 20;
};

static_assert(std::is_trivially_destructible_v<ShmControlState>);
static_assert(std::is_trivially_destructible_v<ShmSlotState>);

/// The one accessor over a control block: reserve, the slow-path crossing,
/// commit, flush, filler chains, anchors, the harvest and the counters.
/// Copyable; a copy is another accessor over the same block.
class ShmTraceControl {
 public:
  /// Words in a buffer-anchor event: header + full timestamp + buffer seq.
  static constexpr uint32_t kAnchorWords = 3;

  /// Bytes needed for a block with this geometry.
  static size_t bytesFor(uint32_t bufferWords, uint32_t numBuffers) noexcept;
  /// Powers of two, at least two buffers of at least two anchors each, and
  /// within the kMax ceilings: the one geometry rule for every block.
  static bool validGeometry(uint32_t bufferWords, uint32_t numBuffers) noexcept;

  /// Initializes a raw block (zeroed or not) and returns an accessor with
  /// `config`'s ablation flags. `memory` must be 64-byte aligned and at
  /// least bytesFor(...) bytes. Writes the lap-0 anchor. Throws
  /// std::invalid_argument on bad geometry or a missing clock.
  static ShmTraceControl create(void* memory, const TraceControlConfig& config);

  /// Attaches to an already-initialized block (e.g. in another process's
  /// creation order). Validates magic/version/geometry — including the
  /// kMaxBufferWords/kMaxNumBuffers ceilings — and, when `availableBytes`
  /// is nonzero, that the declared geometry fits inside the mapping: a
  /// truncated or header-corrupted segment is rejected with
  /// std::runtime_error instead of reading past the end of the block.
  static ShmTraceControl attach(void* memory, ClockRef clock,
                                size_t availableBytes = 0);

  // --- the lockless algorithm --------------------------------------------

  /// traceReserve (Fig. 2): returns false only if lengthWords is zero or
  /// exceeds maxEventWords(), or the accessor is fenced. Never blocks;
  /// retries CAS until success.
  bool reserve(uint32_t lengthWords, Reservation& out) noexcept {
    if (lengthWords == 0 || lengthWords > maxEventWords_) {
      state_->rejected.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    uint64_t staleTs = 0;
    bool haveStaleTs = false;
    for (;;) {
      // Fenced accessor: the watchdog reclaimed this processor out from
      // under us. Refusing the reservation (rather than racing the
      // reclamation CAS) is what lets reclamation terminate. Checked per
      // attempt so a producer preempted inside this loop cannot keep
      // CASing the index after the fence.
      if (fenced()) {
        state_->rejected.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      uint64_t oldIndex = state_->index.load(std::memory_order_relaxed);
      const uint64_t offsetInBuffer = oldIndex & (bufferWords_ - 1);
      // offset 0 means the previous event ended exactly on the boundary
      // (the paper observes 30-40% of events do): the new lap still needs
      // its anchor and commit zero-point, so it also takes the slow path —
      // with zero filler words.
      if (offsetInBuffer == 0 || offsetInBuffer + lengthWords > bufferWords_) {
        if (reserveSlow(lengthWords, out)) return true;
        continue;  // lost the slow-path race; retry from scratch
      }
      // The timestamp is taken inside the CAS loop: a winner with a stale
      // timestamp would break the buffer's monotonic timestamp order
      // (§3.1). timestampPerAttempt=false is the DESIGN.md §4 ablation.
      uint64_t ts;
      if (timestampPerAttempt_) {
        ts = clock_();
      } else {
        if (!haveStaleTs) {
          staleTs = clock_();
          haveStaleTs = true;
        }
        ts = staleTs;
      }
      if (state_->index.compare_exchange_weak(oldIndex, oldIndex + lengthWords,
                                              std::memory_order_relaxed,
                                              std::memory_order_relaxed)) {
        // Seqlock writer side: the words stored next must not be seen by
        // a harvest whose index re-check misses this CAS.
        std::atomic_thread_fence(std::memory_order_release);
        fillReservation(out, oldIndex, ts);
        return true;
      }
      state_->reserveRetries.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// traceCommit (Fig. 2): publish lengthWords at the buffer slot covering
  /// `index`.
  ///
  /// Stale-lap guard: a writer that reserved words, then stalled long
  /// enough for the ring to lap its buffer, commits into a lap that no
  /// longer exists. Its slot has been recycled (lapSeq moved past the
  /// reservation's seq), so adding the words to `committed` would bleed
  /// into the *current* lap's delta — enough of them and a torn buffer
  /// reads as complete, with no mismatch flagged. Strictly `>` matters:
  /// lapSeq < seq means the crosser entering this reservation's lap has
  /// not stamped lapSeq yet, and the commit legitimately belongs to the
  /// new lap (the crosser's committed-snapshot was taken before its CAS,
  /// so the delta arithmetic still works out).
  ///
  /// Writer fence: a commit arriving after this processor was reclaimed
  /// belongs to a producer the watchdog already gave up on; its words may
  /// sit under freshly stamped filler. The epoch check before the add is
  /// check-then-act, so the epoch is re-read AFTER the add and the commit
  /// withdrawn if the fence won. seq_cst on the add, the re-read and the
  /// fence's bump rules out the store-buffering outcome where the
  /// watchdog's post-fence scan misses the add AND this writer misses the
  /// fence. Dropped and withdrawn commits are tallied in staleCommits().
  void commit(uint64_t index, uint32_t lengthWords) noexcept {
    if (!commitCounts_) return;
    if (fenced()) {
      state_->staleCommits.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const uint64_t seq = bufferSeq(index);
    ShmSlotState& slot = slots_[seq & (numBuffers_ - 1)];
    if (slot.lapSeq.load(std::memory_order_relaxed) > seq) {
      state_->staleCommits.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    slot.committed.fetch_add(lengthWords, std::memory_order_seq_cst);
    if (state_->writerEpoch.load(std::memory_order_seq_cst) != localEpoch_) {
      slot.committed.fetch_sub(lengthWords, std::memory_order_seq_cst);
      state_->staleCommits.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Writes a 64-bit word into the trace array. Relaxed atomic store so
  /// concurrent readers of in-flight buffers are race-free; publication
  /// happens via commit()'s release.
  void storeWord(uint64_t index, uint64_t value) noexcept {
    std::atomic_ref<uint64_t>(words_[index & regionMask_])
        .store(value, std::memory_order_relaxed);
  }

  uint64_t loadWord(uint64_t index) const noexcept {
    return std::atomic_ref<uint64_t>(words_[index & regionMask_])
        .load(std::memory_order_relaxed);
  }

  /// Self-monitoring update, called by the logger entry points after a
  /// successful commit. Relaxed load/add/store rather than fetch_add:
  /// under the one-writer-per-processor binding model the counts are
  /// exact, and when writers share a block they are statistically
  /// accurate — the same trade K42 makes for per-processor counters,
  /// keeping the hot-path cost to ~1 ns instead of two locked RMWs.
  void noteLogged(Major major, uint32_t lengthWords) noexcept {
    if (!selfMonitoring_) return;
    auto& n = state_->perMajorLogged[static_cast<uint32_t>(major)];
    n.store(n.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    auto& w = state_->wordsReserved;
    w.store(w.load(std::memory_order_relaxed) + lengthWords,
            std::memory_order_relaxed);
  }

  /// traceLog (Fig. 2): reserves `lengthWords`, writes the header, lets
  /// `payload(at)` store the data words from index `at` on, then commits
  /// and counts the event. Every logger entry point is this sequence.
  template <typename Payload>
  bool logWith(Major major, uint16_t minor, uint32_t lengthWords,
               Payload&& payload) noexcept {
    Reservation r;
    if (!reserve(lengthWords, r)) return false;
    storeWord(r.index, EventHeader::encode(r.ts32, lengthWords, major, minor));
    payload(r.index + 1);
    commit(r.index, lengthWords);
    noteLogged(major, lengthWords);
    return true;
  }

  /// Logs an event whose payload is a fixed set of word-convertible values
  /// (K42's per-major macros for constant-length events).
  template <typename... Ws>
    requires(std::convertible_to<Ws, uint64_t> && ...)
  bool logEvent(Major major, uint16_t minor, Ws... words) noexcept {
    constexpr uint32_t length = 1 + sizeof...(Ws);
    static_assert(length <= EventHeader::kMaxWords, "event too large");
    return logWith(major, minor, length, [&](uint64_t at) {
      ((storeWord(at++, static_cast<uint64_t>(words))), ...);
    });
  }

  /// Logs an event with a runtime-sized word payload.
  bool logEventData(Major major, uint16_t minor,
                    std::span<const uint64_t> data) noexcept {
    return logWith(major, minor, 1 + static_cast<uint32_t>(data.size()),
               [&](uint64_t at) {
                 for (const uint64_t w : data) storeWord(at++, w);
               });
  }

  /// Forces the current buffer to complete by reserving its remainder as
  /// filler (plus the next buffer's anchor). No-op when the current buffer
  /// is empty. Facility::flush and the watchdog's reclaim use it so
  /// partially filled buffers reach the harvest.
  void flushCurrentBuffer() noexcept;

  /// Writes a filler chain (forEachFiller) over [from, from+words). Counts
  /// nothing; the crossing tallies fillerWords itself.
  void stampFillers(uint64_t from, uint64_t words, uint32_t ts32) noexcept;

  // --- the harvest -------------------------------------------------------

  /// Harvests the buffer at `nextSeq` into `sink` and advances `nextSeq`;
  /// returns false, leaving `nextSeq` alone, when there is nothing to take
  /// yet (that lap is still being filled, or — with `stopAtIncomplete` —
  /// its commit count disagrees with its size). Callers loop until false.
  ///
  /// Laps the producers overwrote are counted in buffersLost(). A buffer
  /// whose commit count is short waits up to `grace` for stragglers, then
  /// ships with commitMismatch set (§3.1's anomaly), unless
  /// `stopAtIncomplete` holds it back — the watchdog uses that so torn
  /// buffers are stamped with filler before a sink sees them. The copy is
  /// validated seqlock-style: if the slot's lap changed, or the index
  /// moved into the slot's next lap, while copying, the copy may be torn
  /// and the buffer counts as lost.
  bool harvestOne(uint64_t& nextSeq, Sink& sink, std::chrono::nanoseconds grace,
                  bool stopAtIncomplete) const;

  // --- geometry ----------------------------------------------------------
  uint32_t processorId() const noexcept { return processorId_; }
  uint32_t bufferWords() const noexcept { return bufferWords_; }
  uint32_t numBuffers() const noexcept { return numBuffers_; }
  uint64_t regionWords() const noexcept { return regionMask_ + 1; }
  /// Largest loggable event in words (header included).
  uint32_t maxEventWords() const noexcept { return maxEventWords_; }
  const uint64_t* regionData() const noexcept { return words_; }

  uint64_t bufferSeq(uint64_t index) const noexcept { return index >> bufferShift_; }
  /// The oldest lap whose slot may still hold it: the current lap's slot
  /// plus the numBuffers-1 preceding laps'.
  uint64_t oldestIntactSeq(uint64_t currentSeq) const noexcept {
    return currentSeq >= numBuffers_ - 1 ? currentSeq - (numBuffers_ - 1) : 0;
  }
  uint64_t physicalWord(uint64_t index) const noexcept { return index & regionMask_; }

  const ShmSlotState& slot(uint32_t i) const noexcept { return slots_[i]; }

  ClockRef clock() const noexcept { return clock_; }
  void setClock(ClockRef clock) noexcept { clock_ = clock; }
  bool commitCountsEnabled() const noexcept { return commitCounts_; }
  bool selfMonitoringEnabled() const noexcept { return selfMonitoring_; }

  // --- progress & anomaly counters -----------------------------------------
  uint64_t currentIndex() const noexcept {
    return state_->index.load(std::memory_order_acquire);
  }
  uint64_t currentBufferSeq() const noexcept { return bufferSeq(currentIndex()); }
  uint64_t reserveRetries() const noexcept { return load(state_->reserveRetries); }
  uint64_t slowPathEntries() const noexcept { return load(state_->slowPathEntries); }
  uint64_t rejectedEvents() const noexcept { return load(state_->rejected); }
  uint64_t fillerWordsWritten() const noexcept { return load(state_->fillerWords); }
  /// Buffer crossings where the previous event ended exactly on the
  /// boundary, needing no filler (the paper reports 30-40% of events).
  uint64_t exactFitCrossings() const noexcept { return load(state_->exactFitCrossings); }
  /// Commits discarded by the stale-lap guard or the writer fence.
  uint64_t staleCommits() const noexcept { return load(state_->staleCommits); }
  uint64_t buffersConsumed() const noexcept { return load(state_->buffersConsumed); }
  uint64_t buffersLost() const noexcept { return load(state_->buffersLost); }
  uint64_t commitMismatches() const noexcept { return load(state_->commitMismatches); }
  /// Events logged through the logger entry points for one major class.
  uint64_t eventsLoggedFor(Major major) const noexcept {
    return load(state_->perMajorLogged[static_cast<uint32_t>(major)]);
  }
  /// Events logged through the logger entry points, all classes.
  uint64_t eventsLogged() const noexcept;
  /// Total words reserved by logger entry points (headers included).
  uint64_t wordsReservedCount() const noexcept { return load(state_->wordsReserved); }

  // --- producer leases & the writer fence --------------------------------
  /// Binds this accessor to a lease heartbeat word (normally a ShmLease's,
  /// living in the same shared segment): every buffer crossing performs
  /// one relaxed fetch_add refreshing it, so a consumer-side watchdog can
  /// tell a logging producer from a stalled or dead one without touching
  /// the fast path otherwise.
  void bindHeartbeat(std::atomic<uint64_t>* heartbeat) noexcept {
    leaseHeartbeat_ = heartbeat;
  }

  /// Invalidates every accessor attached under the current epoch: their
  /// subsequent reserves fail (counted rejected) and their in-flight
  /// commits are discarded as stale. Used by SessionWatchdog to quiesce a
  /// dead or expired producer's processor before reclaiming its buffers.
  /// seq_cst pairs with commit()'s post-add epoch re-read: a commit racing
  /// this bump is either visible to the fencer's subsequent scan or
  /// withdraws itself — never neither.
  void fenceWriters() noexcept {
    state_->writerEpoch.fetch_add(1, std::memory_order_seq_cst);
  }
  /// Re-reads the fence so *this* accessor logs under the current epoch
  /// (the watchdog calls it after fenceWriters, before reclaiming).
  void refreshEpoch() noexcept {
    localEpoch_ = state_->writerEpoch.load(std::memory_order_acquire);
  }
  /// True when fenceWriters has been called since this accessor attached
  /// (or last refreshed): its writes no longer count.
  bool fenced() const noexcept {
    return state_->writerEpoch.load(std::memory_order_relaxed) != localEpoch_;
  }

  /// Recovery-side clamp (call only with writers fenced): if slot `seq`'s
  /// lap commit count exceeds `expectedLapWords` — only possible when a
  /// stale commit raced the fence and its withdrawal was lost to SIGKILL
  /// or is still pending — subtract the excess and count it stale.
  /// Returns the words withdrawn. If a pending withdrawal lands later,
  /// the watchdog's next reclaim pass re-closes the resulting gap.
  uint64_t withdrawOvercommit(uint64_t seq, uint64_t expectedLapWords) noexcept;

  /// Copies `source`'s whole block — header, counters, slot states and
  /// ring words — into this accessor's block, one relaxed load per word
  /// (a crash image is as racy as the crash). Geometry must match.
  void copyBlockFrom(const ShmTraceControl& source) noexcept;

 private:
  ShmTraceControl(ShmControlState* state, ClockRef clock);

  static uint64_t load(const std::atomic<uint64_t>& counter) noexcept {
    return counter.load(std::memory_order_relaxed);
  }

  void fillReservation(Reservation& out, uint64_t index, uint64_t ts) const noexcept {
    out.index = index;
    out.slot = words_ + (index & regionMask_);
    out.ts32 = static_cast<uint32_t>(ts);
    out.fullTs = ts;
  }

  /// Fig. 2's traceReserveSlow: counts the entry, re-checks the boundary,
  /// then crosses.
  bool reserveSlow(uint32_t lengthWords, Reservation& out) noexcept;
  /// The one crossing: reserves the old buffer's remainder + the next
  /// buffer's anchor + `extraWords` in a single CAS from `oldIndex`, then
  /// zero-points the new lap, stamps the fillers and writes the anchor.
  bool crossInto(uint64_t oldIndex, uint32_t extraWords, Reservation& out) noexcept;
  void writeAnchor(uint64_t index, uint64_t fullTs, uint64_t seq) noexcept;

  ShmControlState* state_ = nullptr;
  ShmSlotState* slots_ = nullptr;
  uint64_t* words_ = nullptr;
  ClockRef clock_{};
  uint64_t regionMask_ = 0;
  /// The writer epoch this accessor attached under (see fenceWriters).
  uint64_t localEpoch_ = 0;
  /// Optional lease heartbeat refreshed at buffer crossings.
  std::atomic<uint64_t>* leaseHeartbeat_ = nullptr;
  uint32_t processorId_ = 0;
  uint32_t bufferWords_ = 0;
  uint32_t numBuffers_ = 0;
  uint32_t bufferShift_ = 0;
  uint32_t maxEventWords_ = 0;
  bool commitCounts_ = true;
  bool timestampPerAttempt_ = true;
  bool selfMonitoring_ = true;
};

/// An in-process control: owns one cache-line-aligned block on the heap,
/// created through ShmTraceControl::create with the config's flags. One
/// per (simulated or physical) processor; logging on different processors
/// never shares a cache line (paper §2).
class TraceControl : public ShmTraceControl {
 public:
  explicit TraceControl(const TraceControlConfig& config);
  ~TraceControl();

  TraceControl(const TraceControl&) = delete;
  TraceControl& operator=(const TraceControl&) = delete;

  /// Per-buffer-slot completion metadata (the accessor's slot()).
  const ShmSlotState& bufferState(uint32_t i) const noexcept { return slot(i); }

 private:
  TraceControl(const TraceControlConfig& config, void* raw);
  static void* allocate(const TraceControlConfig& config);

  void* raw_;  // the allocation the block is aligned within
};

}  // namespace ktrace
