// Cross-process, crash-surviving trace sessions (DESIGN.md §10).
//
// The paper's recovery claim (§3.1) is that per-buffer commit counts let
// the infrastructure detect writers "interrupted, blocked, or killed"
// mid-log and recover the trace buffers afterwards. This layer makes that
// real across process boundaries:
//
//   - ShmSession: a file-backed MAP_SHARED segment (tmpfs path) holding a
//     validated session header, a per-producer lease table, and one
//     ShmControlState block per processor. Any process attaching the file
//     logs with the same lockless algorithm; the header is checked field
//     by field on attach so a corrupt or truncated segment is an error,
//     never undefined behaviour.
//   - ShmLease: pid + acquisition epoch + a monotonic heartbeat word the
//     log fast path refreshes at buffer crossings (one relaxed fetch_add;
//     see ShmTraceControl::bindHeartbeat). A consumer-side watchdog reads
//     it to tell a logging producer from a stalled or dead one.
//   - writeCrashDump: the §4.2 crash image of an in-process Facility is a
//     segment of this format with no leases, its control blocks copies of
//     the facility's — the recovery and flight-recorder tools read both.
//   - SessionWatchdog: drains complete buffers, detects dead pids and
//     expired leases, fences the affected processors (writerEpoch bump —
//     the cross-process analogue of the lapSeq stale-commit guard),
//     classifies each undrained buffer complete / torn / abandoned with
//     the §3.1 commit-count check, stamps filler events over torn
//     reservations, and resumes draining. Surviving producers keep
//     logging; only the dead producer's processors are touched.
//
// Segment layout (all offsets 64-byte aligned, recomputed and verified on
// attach):
//   ShmSessionHeader
//   maxProducers x ShmLease            (64 bytes each; none in a crash
//                                       image)
//   numProcessors x control block      (ShmTraceControl::bytesFor each,
//                                       rounded up to 64)
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/control.hpp"
#include "core/facility.hpp"
#include "core/monitor.hpp"
#include "core/sink.hpp"
#include "core/timestamp.hpp"
#include "core/trace_file.hpp"

namespace ktrace {

/// One producer's claim on a slice of the session's processors. Lives in
/// the shared segment; everything the watchdog reads is atomic.
struct alignas(64) ShmLease {
  enum : uint32_t { kFree = 0, kClaiming = 1, kActive = 2, kReclaimed = 3 };

  /// The claim: acq_rel CAS out of kFree/kReclaimed, then a release
  /// store of kActive after the fields below, so the watchdog's acquire
  /// load of kActive sees them.
  std::atomic<uint32_t> state;
  uint32_t firstProcessor;  // owned processors: [firstProcessor, endProcessor)
  uint32_t endProcessor;
  uint32_t reserved0;
  // Relaxed: published by the release store of kActive.
  std::atomic<uint64_t> pid;
  std::atomic<uint64_t> epoch;      // session-wide acquisition counter
  /// Bumped by the producer at buffer crossings. Relaxed: the watchdog
  /// only compares successive values, it never reads data through it.
  std::atomic<uint64_t> heartbeat;
  uint64_t reserved1[3];
};
static_assert(sizeof(ShmLease) == 64);
static_assert(std::is_trivially_destructible_v<ShmLease>);

struct ShmSessionHeader {
  uint32_t magic;
  uint32_t version;
  uint32_t numProcessors;
  uint32_t maxProducers;
  uint32_t bufferWords;  // power of two, same for every processor
  uint32_t numBuffers;   // power of two
  uint64_t leaseOffset;    // byte offset of the lease table
  uint64_t controlOffset;  // byte offset of processor 0's control block
  uint64_t controlStride;  // bytes per control block (64-byte aligned)
  uint64_t totalBytes;     // whole-segment size the creator truncated to
  uint32_t clockKind;      // ClockKind for decode metadata
  uint32_t reserved0;
  double ticksPerSecond;
  uint64_t startWallNs;
  uint64_t startTicks;
  std::atomic<uint64_t> leaseEpochCounter;  // monotonic lease epochs

  static constexpr uint32_t kMagic = 0x5345534Bu;  // "KSES"
  static constexpr uint32_t kVersion = 1;
  /// Ceilings enforced on attach, same rationale as ShmControlState's: a
  /// bit-flipped header must fail validation, never drive layout math into
  /// overflow or a multi-gigabyte walk.
  static constexpr uint32_t kMaxProcessors = 4096;
  static constexpr uint32_t kMaxLeases = 65536;
};
static_assert(std::is_trivially_destructible_v<ShmSessionHeader>);

/// A file-backed shared trace session. Move-only; owns the mapping and the
/// file descriptor. Accessors built by control()/producerControl() are
/// plain copies that stay valid as long as the session (the mapping) does.
class ShmSession {
 public:
  struct Config {
    uint32_t numProcessors = 1;
    uint32_t bufferWords = 256;
    uint32_t numBuffers = 8;
    uint32_t maxProducers = 8;
    ClockKind clockKind = ClockKind::Tsc;
    double ticksPerSecond = 1e9;
    uint64_t startWallNs = 0;
    uint64_t startTicks = 0;
  };

  /// Segment size for a geometry (what create() truncates the file to).
  static size_t bytesFor(const Config& config);

  /// Creates the segment file (truncating any old content), maps it
  /// MAP_SHARED, and initializes the header, lease table, and every
  /// processor's control block. Throws std::invalid_argument on bad
  /// geometry, std::runtime_error on I/O failure.
  static ShmSession create(const std::string& path, const Config& config,
                           ClockRef clock);

  /// Maps an existing segment MAP_SHARED and validates it: magic, version,
  /// geometry within ceilings, layout offsets recomputed and compared, and
  /// declared size within the file — then every control block's own
  /// header. Throws std::runtime_error on any mismatch (a corrupted or
  /// truncated segment is an error, never UB).
  static ShmSession attach(const std::string& path, ClockRef clock);

  /// Like attach but MAP_PRIVATE copy-on-write: recovery can stamp filler
  /// over torn buffers without mutating the on-disk evidence. Used by
  /// `ktracetool recover`; the file is opened read-only.
  static ShmSession attachForRecovery(const std::string& path, ClockRef clock);

  ShmSession(ShmSession&& other) noexcept;
  ShmSession& operator=(ShmSession&& other) noexcept;
  ShmSession(const ShmSession&) = delete;
  ShmSession& operator=(const ShmSession&) = delete;
  ~ShmSession();

  const ShmSessionHeader& header() const noexcept { return *header_; }
  uint32_t numProcessors() const noexcept { return header_->numProcessors; }
  uint32_t maxProducers() const noexcept { return header_->maxProducers; }
  uint32_t bufferWords() const noexcept { return header_->bufferWords; }
  uint32_t numBuffers() const noexcept { return header_->numBuffers; }
  const std::string& path() const noexcept { return path_; }
  ClockRef clock() const noexcept { return clock_; }

  ShmLease& lease(uint32_t i) const noexcept { return leases_[i]; }

  /// Plain accessor over processor `p`'s control block (consumer side:
  /// drain, snapshot, fencing).
  ShmTraceControl control(uint32_t p) const;

  /// Claims a lease covering processors [firstProcessor, endProcessor):
  /// records the pid, assigns a fresh epoch, and zeroes the heartbeat.
  /// Returns the lease index, or -1 when the table is full. Ranges are the
  /// caller's contract — the watchdog fences exactly [first, end) when the
  /// lease dies, so producers must not share processors across leases.
  int acquireLease(uint64_t pid, uint32_t firstProcessor,
                   uint32_t endProcessor);

  /// Clean producer exit: flushes nothing, just frees the slot.
  void releaseLease(uint32_t leaseIndex);

  /// Accessor bound for logging under a lease: the lease's heartbeat word
  /// is refreshed at every buffer crossing. The producer should construct
  /// this BEFORE forking children that log (no allocation needed after).
  ShmTraceControl producerControl(uint32_t processor,
                                  uint32_t leaseIndex) const;

  /// Decode metadata for processor `p`'s output file.
  TraceFileMeta fileMeta(uint32_t p) const;

 private:
  ShmSession() = default;
  static ShmSession mapAndValidate(const std::string& path, ClockRef clock,
                                   bool privateCopy);

  void* base_ = nullptr;
  size_t mappedBytes_ = 0;
  int fd_ = -1;
  std::string path_;
  ClockRef clock_{};
  ShmSessionHeader* header_ = nullptr;
  ShmLease* leases_ = nullptr;
};

/// Writes a crash image of `facility` (paper §4.2): a session segment with
/// no leases whose control blocks are copies of the facility's, readable
/// with ShmSession::attachForRecovery by `ktracetool crashdump` (the
/// flight-recorder view) and `ktracetool recover` (trace files). Best
/// taken with producers quiesced; it is exactly as racy as a crash dump.
/// Returns false on I/O failure.
bool writeCrashDump(const Facility& facility, const std::string& path);

/// Consumer-side recovery: drains the session, watches leases, and
/// reclaims dead or expired producers' processors. One instance per
/// session; pollOnce() may also be driven manually (tests, `ktracetool
/// recover`) instead of via the background thread.
class SessionWatchdog {
 public:
  struct Config {
    /// Background poll cadence.
    std::chrono::microseconds checkInterval{2'000};
    /// Minimum consecutive polls with no heartbeat AND no index movement
    /// before a lease with pending data can be declared expired and
    /// fenced. The fence makes an aggressive deadline safe: a
    /// slow-but-alive producer's late commits are discarded as stale,
    /// never miscounted.
    uint32_t expiryPolls = 5;
    /// Monotonic (steady-clock) time a lease must stay stale before it is
    /// fenced, measured from the first stale observation. Poll counting
    /// alone is not a deadline: an external driver (the daemon's
    /// WatchdogScheduler, tests, a doorbell burst) may call pollOnce() at
    /// an arbitrary cadence, and a wall-clock step must not shrink the
    /// grace window either — so expiry requires BOTH expiryPolls stale
    /// observations AND this much steady time elapsed. Negative (the
    /// default) derives expiryPolls * checkInterval.
    std::chrono::microseconds expiryTimeout{-1};
    /// Probe lease pids with kill(pid, 0): ESRCH short-circuits the
    /// expiry deadline. Off for offline recovery, where a recycled pid
    /// could make a dead segment's producer look alive.
    bool checkPids = true;
  };

  SessionWatchdog(ShmSession& session, Sink& sink);
  SessionWatchdog(ShmSession& session, Sink& sink, Config config);
  ~SessionWatchdog();

  SessionWatchdog(const SessionWatchdog&) = delete;
  SessionWatchdog& operator=(const SessionWatchdog&) = delete;

  void start();
  void stop();

  /// One full pass: drain every processor up to the first incomplete
  /// buffer, update lease liveness, reclaim anything dead or expired,
  /// drain again. Serialized against the background thread.
  void pollOnce();

  /// Offline/terminal recovery: fences EVERY processor, reclaims all torn
  /// or pending buffers regardless of lease state, and drains the session
  /// dry. Used by `ktracetool recover` and at orderly shutdown.
  void recoverNow();

  RecoveryStats stats() const noexcept;
  uint64_t polls() const noexcept {
    return polls_.load(std::memory_order_relaxed);
  }

  /// Seeds the per-processor drained-up-to cursors from a recovery
  /// manifest, so a restarted daemon resumes where the previous
  /// incarnation's drain stopped instead of re-emitting buffers it
  /// already wrote (exactly-once across daemon restarts). A seed ahead of
  /// the segment's live sequence means the segment was recreated since
  /// the manifest was written — that cursor resets to 0 and the new
  /// segment drains from the start. Call before start()/pollOnce().
  void seedDrained(const std::vector<uint64_t>& nextSeq);

  /// Snapshot of the per-processor drained-up-to cursors (manifest
  /// writes). Safe against a concurrent pollOnce().
  std::vector<uint64_t> drainedSeqs();

  /// True when any processor still holds data a plain drain can reach or
  /// a reclaim is in flight — i.e. stopping now would leave events
  /// behind.
  bool pendingData();

 private:
  struct LeaseTrack {
    uint64_t epoch = 0;          // lease epoch this track belongs to
    uint64_t lastHeartbeat = 0;
    uint64_t lastIndexSum = 0;   // sum of owned processors' indexes
    uint32_t stalePolls = 0;
    /// First poll that observed the current stale streak, on the steady
    /// clock: expiry needs real elapsed time, not just poll count.
    std::chrono::steady_clock::time_point staleSince{};
  };

  void run();
  void pollLocked();
  void drainProcessor(uint32_t p);
  /// True when processor `p` holds data the drain cannot reach: an
  /// undrained torn buffer or a partially filled current buffer.
  bool hasPending(uint32_t p) const;
  /// Fence + classify + stamp + flush one processor (lease already deemed
  /// dead/expired, or recoverNow). Torn laps get filler stamped over the
  /// reserved-but-uncommitted words so they drain as complete buffers.
  void reclaimProcessor(uint32_t p);
  static bool pidDead(uint64_t pid) noexcept;

  ShmSession& session_;
  Sink& sink_;
  Config config_;
  std::chrono::microseconds expiryTimeout_{0};  // resolved from config
  std::vector<ShmTraceControl> controls_;  // one accessor per processor
  std::vector<uint64_t> nextSeq_;
  std::vector<LeaseTrack> tracks_;
  /// Processors whose producer was fenced for recovery. Reclamation is
  /// check-then-act against a possibly-preempted producer (a reserve/commit
  /// already in flight can land after a reclaim pass computed its bounds),
  /// so each poll re-runs the idempotent reclaim on these until they drain
  /// dry — accounting converges instead of wedging on a commit mismatch a
  /// single pass missed. Cleared when an Active lease re-covers the
  /// processor, so a new producer is never fenced by a stale flag.
  std::vector<uint8_t> recovering_;

  std::atomic<uint64_t> tornBuffers_{0};
  std::atomic<uint64_t> reclaimedWords_{0};
  std::atomic<uint64_t> abandonedBuffers_{0};
  std::atomic<uint64_t> buffersRecovered_{0};
  std::atomic<uint64_t> deadProducers_{0};
  std::atomic<uint64_t> fencedProducers_{0};
  std::atomic<uint64_t> polls_{0};

  std::mutex pollMutex_;      // serializes pollOnce/recoverNow vs the thread
  std::mutex lifecycleMutex_; // start/stop-once (same pattern as Monitor)
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace ktrace
