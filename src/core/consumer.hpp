// The buffer consumer: moves completed buffers from the per-processor
// rings to a Sink (paper §3.1's "code responsible for writing the data").
//
// The consumer never synchronizes with the logging fast path. It loops
// ShmTraceControl::harvestOne — the same routine the shm watchdog drains
// with — over each control: a buffer lap is consumable once the index has
// moved past it, lapped buffers are counted as lost (the logging side
// never blocks — the paper's design choice), and the commit-count-vs-size
// comparison detects partially written buffers, reported via
// commitMismatches. The counts live in each control's block.
//
// Write-out is sharded (DESIGN.md §9): the processors are split into N
// contiguous slices, each owned by one worker with its own nextSeq slice
// and doorbell — no global mutex serializes drains. Workers are
// event-driven rather than fixed-interval pollers: between passes they
// watch a cheap relaxed "buffer completed" signal (the sum of the owned
// controls' currentBufferSeq, which moves exactly when a producer crosses
// a buffer boundary) and escalate an adaptive backoff from minBackoff up
// to pollInterval while the signal is quiet. notify() rings all doorbells
// for immediate wake-up (used by flush paths and tests).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/facility.hpp"
#include "core/sink.hpp"

namespace ktrace {

struct ConsumerConfig {
  /// Maximum sleep between idle passes — the adaptive backoff's ceiling.
  std::chrono::microseconds pollInterval{200};
  /// How long to wait for a buffer's commit count to reach its size before
  /// writing it out anyway with the mismatch anomaly flagged.
  std::chrono::microseconds commitWait{2000};
  /// Worker shards, each owning a contiguous slice of processors.
  /// 0 = one shard per processor; clamped to [1, numProcessors].
  uint32_t shards = 1;
  /// Initial (shortest) idle backoff; doubles per quiet pass up to
  /// pollInterval.
  std::chrono::microseconds minBackoff{10};
};

class Consumer {
 public:
  Consumer(Facility& facility, Sink& sink, ConsumerConfig config = {});
  ~Consumer();

  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  /// Start the shard worker threads (idempotent).
  void start();
  /// Stop and join the workers. Safe to call concurrently from multiple
  /// threads and repeatedly: a lifecycle mutex makes exactly one caller
  /// perform the join (a bare joinable()/join() pair would let two
  /// concurrent stops both pass the check and race in join()).
  void stop();

  /// Synchronously consume every currently complete buffer. Safe to call
  /// whether or not the background threads run; typically used after
  /// Facility::flushAll() with producers quiesced.
  void drainNow();

  /// Rings every shard's doorbell: sleeping workers re-check their
  /// processors immediately instead of waiting out their backoff.
  void notify() noexcept;

  /// Marks a processor quiesced-for-recovery: its producer is dead or
  /// fenced, so no straggler will ever complete a partial commit count.
  /// The owning shard stops burning commitWait on that processor — a
  /// partial buffer is written out immediately with the mismatch flagged
  /// instead of being yield-spun on every pass. Clearing the flag restores
  /// normal straggler grace.
  void setQuiesced(uint32_t processor, bool quiesced) noexcept;
  bool quiesced(uint32_t processor) const noexcept;

  /// Total consumption passes across all shards (monotonic). Lets tests
  /// verify the idle backoff really sleeps — a worker busy-waiting against
  /// a permanently dead producer shows up as an unbounded pass rate.
  uint64_t totalPasses() const noexcept;

  /// Number of worker shards (after clamping).
  uint32_t shardCount() const noexcept {
    return static_cast<uint32_t>(shards_.size());
  }

  struct Stats {
    uint64_t buffersConsumed = 0;
    uint64_t commitMismatches = 0;  // partially written buffers (§3.1)
    uint64_t buffersLost = 0;       // producer lapped the consumer
  };
  /// Lock-free snapshot of the counters: sums the controls' harvest
  /// counters with relaxed loads. Callable from any thread — including
  /// Monitor::snapshot() — without blocking any shard's pass.
  Stats stats() const noexcept;

 private:
  /// One shard: a contiguous processor slice [firstProcessor, endProcessor)
  /// plus everything its worker thread touches. Shards share nothing but
  /// the facility and the sink, so passes on different shards never
  /// contend.
  struct Shard {
    uint32_t firstProcessor = 0;
    uint32_t endProcessor = 0;
    std::vector<uint64_t> nextSeq;  // indexed by p - firstProcessor

    /// Serializes passes over this shard's slice (worker vs drainNow).
    std::mutex passMutex;

    /// Doorbell: generation counter + cv. notify() bumps the generation
    /// under cvMutex and wakes the worker out of its backoff sleep.
    std::mutex cvMutex;
    std::condition_variable cv;
    uint64_t doorbell = 0;

    /// Passes taken (worker loop iterations + drain passes); see
    /// totalPasses().
    std::atomic<uint64_t> passes{0};

    std::thread thread;
  };

  /// One consumption pass over the shard's processors; returns true if any
  /// buffer was consumed. Caller holds shard.passMutex.
  bool shardPass(Shard& shard);
  /// The relaxed completion signal: sum of currentBufferSeq over the
  /// shard's processors. Moves exactly when a buffer completes, never
  /// touched by commits — so checking it costs one relaxed-ish load per
  /// processor and zero stores.
  uint64_t completedSeqSum(const Shard& shard) const noexcept;
  void shardRun(Shard& shard);

  Facility& facility_;
  Sink& sink_;
  ConsumerConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Per-processor quiesced-for-recovery flags (see setQuiesced).
  std::unique_ptr<std::atomic<bool>[]> quiesced_;

  /// Guards start/stop transitions only (never held during consumption).
  std::mutex lifecycleMutex_;
  std::atomic<bool> running_{false};
};

}  // namespace ktrace
