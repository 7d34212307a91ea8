#include "core/consumer.hpp"

#include <algorithm>

namespace ktrace {

Consumer::Consumer(Facility& facility, Sink& sink, ConsumerConfig config)
    : facility_(facility), sink_(sink), config_(config) {
  const uint32_t procs = facility.numProcessors();
  uint32_t n = config_.shards == 0 ? procs : config_.shards;
  n = std::clamp<uint32_t>(n, 1, procs);
  shards_.reserve(n);
  uint32_t begin = 0;
  for (uint32_t s = 0; s < n; ++s) {
    // Contiguous slices, remainder spread over the first shards.
    const uint32_t count = procs / n + (s < procs % n ? 1 : 0);
    auto shard = std::make_unique<Shard>();
    shard->firstProcessor = begin;
    shard->endProcessor = begin + count;
    shard->nextSeq.assign(count, 0);
    begin += count;
    shards_.push_back(std::move(shard));
  }
  quiesced_ = std::make_unique<std::atomic<bool>[]>(procs);
  for (uint32_t p = 0; p < procs; ++p) {
    quiesced_[p].store(false, std::memory_order_relaxed);
  }
}

Consumer::~Consumer() { stop(); }

void Consumer::start() {
  std::lock_guard lifecycle(lifecycleMutex_);
  if (running_.load(std::memory_order_relaxed)) return;
  running_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    shard->thread = std::thread([this, s = shard.get()] { shardRun(*s); });
  }
}

void Consumer::stop() {
  // The whole transition happens under the lifecycle mutex: concurrent
  // stops serialize (only the first finds joinable threads), and a stop
  // racing a start cannot observe half-spawned workers.
  std::lock_guard lifecycle(lifecycleMutex_);
  running_.store(false, std::memory_order_release);
  notify();  // wake sleeping workers so they see running_ == false now
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

void Consumer::notify() noexcept {
  for (auto& shard : shards_) {
    {
      std::lock_guard lock(shard->cvMutex);
      ++shard->doorbell;
    }
    shard->cv.notify_all();
  }
}

void Consumer::drainNow() {
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->passMutex);
    while (shardPass(*shard)) {
    }
  }
}

void Consumer::setQuiesced(uint32_t processor, bool quiesced) noexcept {
  if (processor >= facility_.numProcessors()) return;
  quiesced_[processor].store(quiesced, std::memory_order_release);
  if (quiesced) notify();  // wake the owner: ship the partial buffer now
}

bool Consumer::quiesced(uint32_t processor) const noexcept {
  return processor < facility_.numProcessors() &&
         quiesced_[processor].load(std::memory_order_acquire);
}

uint64_t Consumer::totalPasses() const noexcept {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->passes.load(std::memory_order_relaxed);
  }
  return total;
}

Consumer::Stats Consumer::stats() const noexcept {
  Stats s;
  for (uint32_t p = 0; p < facility_.numProcessors(); ++p) {
    const TraceControl& control = facility_.control(p);
    s.buffersConsumed += control.buffersConsumed();
    s.commitMismatches += control.commitMismatches();
    s.buffersLost += control.buffersLost();
  }
  return s;
}

uint64_t Consumer::completedSeqSum(const Shard& shard) const noexcept {
  uint64_t sum = 0;
  for (uint32_t p = shard.firstProcessor; p < shard.endProcessor; ++p) {
    sum += facility_.control(p).currentBufferSeq();
  }
  return sum;
}

void Consumer::shardRun(Shard& shard) {
  const auto minBackoff = std::max(config_.minBackoff,
                                   std::chrono::microseconds(1));
  const auto maxBackoff = std::max(config_.pollInterval, minBackoff);
  auto backoff = minBackoff;
  uint64_t lastSignal = completedSeqSum(shard);

  while (running_.load(std::memory_order_acquire)) {
    bool progressed;
    {
      std::lock_guard lock(shard.passMutex);
      progressed = shardPass(shard);
    }
    if (progressed) {
      backoff = minBackoff;
      continue;
    }
    // Idle: nothing complete right now. Sleep on the doorbell with the
    // current backoff, but wake early if a buffer completes (the relaxed
    // signal moved) or someone rings the doorbell. Each quiet wait doubles
    // the backoff up to pollInterval — poll→sleep escalation.
    const uint64_t signal = completedSeqSum(shard);
    if (signal != lastSignal) {
      lastSignal = signal;
      backoff = minBackoff;
      continue;  // a buffer completed since the pass: re-scan immediately
    }
    std::unique_lock lock(shard.cvMutex);
    const uint64_t rung = shard.doorbell;
    shard.cv.wait_for(lock, backoff, [&] {
      return shard.doorbell != rung ||
             !running_.load(std::memory_order_acquire);
    });
    lock.unlock();
    backoff = std::min(backoff * 2, maxBackoff);
  }
  // Final sweep so a stop() right after producer quiescence loses nothing
  // that was already complete.
  std::lock_guard lock(shard.passMutex);
  while (shardPass(shard)) {
  }
}

bool Consumer::shardPass(Shard& shard) {
  shard.passes.fetch_add(1, std::memory_order_relaxed);
  bool any = false;
  for (uint32_t p = shard.firstProcessor; p < shard.endProcessor; ++p) {
    const TraceControl& control = facility_.control(p);
    uint64_t& next = shard.nextSeq[p - shard.firstProcessor];
    for (;;) {
      // A quiesced-for-recovery processor gets no straggler grace: its
      // producer is dead or fenced, so no commit can ever arrive — waiting
      // commitWait per pass against it would be a busy-wait with no exit.
      const std::chrono::nanoseconds grace =
          quiesced_[p].load(std::memory_order_acquire)
              ? std::chrono::nanoseconds(0)
              : std::chrono::nanoseconds(config_.commitWait);
      if (!control.harvestOne(next, sink_, grace, /*stopAtIncomplete=*/false)) break;
      any = true;
    }
  }
  return any;
}

}  // namespace ktrace
