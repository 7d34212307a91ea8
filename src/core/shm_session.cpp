#include "core/shm_session.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <new>
#include <stdexcept>
#include <utility>

#include "util/bits.hpp"

namespace ktrace {

namespace {

[[noreturn]] void throwErrno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

struct Layout {
  uint64_t leaseOffset = 0;
  uint64_t controlOffset = 0;
  uint64_t controlStride = 0;
  uint64_t totalBytes = 0;
};

Layout layoutFor(uint32_t numProcessors, uint32_t maxProducers,
                 uint32_t bufferWords, uint32_t numBuffers) noexcept {
  Layout l;
  l.leaseOffset = util::roundUpPow2(sizeof(ShmSessionHeader), 64);
  l.controlOffset =
      util::roundUpPow2(l.leaseOffset + uint64_t{maxProducers} * sizeof(ShmLease), 64);
  l.controlStride = util::roundUpPow2(ShmTraceControl::bytesFor(bufferWords, numBuffers), 64);
  l.totalBytes = l.controlOffset + static_cast<uint64_t>(numProcessors) * l.controlStride;
  return l;
}

void validateGeometry(uint32_t numProcessors, uint32_t maxProducers,
                      uint32_t bufferWords, uint32_t numBuffers, bool attaching) {
  const auto fail = [attaching](const char* what) -> void {
    // Creation-time misuse is a programming error; attach-time failure
    // means the segment on disk is corrupt or hostile.
    if (attaching) throw std::runtime_error(std::string("ShmSession: ") + what);
    throw std::invalid_argument(std::string("ShmSession: ") + what);
  };
  if (numProcessors < 1 || numProcessors > ShmSessionHeader::kMaxProcessors) {
    fail("implausible processor count");
  }
  if (maxProducers > ShmSessionHeader::kMaxLeases) {
    fail("implausible lease-table size");
  }
  if (!ShmTraceControl::validGeometry(bufferWords, numBuffers)) {
    fail("implausible trace-buffer geometry");
  }
}

}  // namespace

size_t ShmSession::bytesFor(const Config& config) {
  validateGeometry(config.numProcessors, config.maxProducers, config.bufferWords,
                   config.numBuffers, /*attaching=*/false);
  return layoutFor(config.numProcessors, config.maxProducers, config.bufferWords,
                   config.numBuffers)
      .totalBytes;
}

ShmSession ShmSession::create(const std::string& path, const Config& config,
                              ClockRef clock) {
  validateGeometry(config.numProcessors, config.maxProducers, config.bufferWords,
                   config.numBuffers, /*attaching=*/false);
  if (!clock.valid()) throw std::invalid_argument("ShmSession: clock required");
  // Refuse to mint a header that attach would reject.
  if (!std::isfinite(config.ticksPerSecond) || config.ticksPerSecond <= 0.0) {
    throw std::invalid_argument(
        "ShmSession: ticksPerSecond must be positive and finite");
  }
  const Layout layout = layoutFor(config.numProcessors, config.maxProducers,
                                  config.bufferWords, config.numBuffers);

  ShmSession session;
  session.path_ = path;
  session.clock_ = clock;
  session.fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (session.fd_ < 0) throwErrno("ShmSession: open " + path);
  if (::ftruncate(session.fd_, static_cast<off_t>(layout.totalBytes)) != 0) {
    throwErrno("ShmSession: ftruncate " + path);
  }
  void* base = ::mmap(nullptr, layout.totalBytes, PROT_READ | PROT_WRITE,
                      MAP_SHARED, session.fd_, 0);
  if (base == MAP_FAILED) throwErrno("ShmSession: mmap " + path);
  session.base_ = base;
  session.mappedBytes_ = layout.totalBytes;

  auto* header = new (base) ShmSessionHeader{};
  header->magic = ShmSessionHeader::kMagic;
  header->version = ShmSessionHeader::kVersion;
  header->numProcessors = config.numProcessors;
  header->maxProducers = config.maxProducers;
  header->bufferWords = config.bufferWords;
  header->numBuffers = config.numBuffers;
  header->leaseOffset = layout.leaseOffset;
  header->controlOffset = layout.controlOffset;
  header->controlStride = layout.controlStride;
  header->totalBytes = layout.totalBytes;
  header->clockKind = static_cast<uint32_t>(config.clockKind);
  header->ticksPerSecond = config.ticksPerSecond;
  header->startWallNs = config.startWallNs;
  header->startTicks = config.startTicks;
  session.header_ = header;

  auto* leases = reinterpret_cast<ShmLease*>(static_cast<char*>(base) +
                                             layout.leaseOffset);
  for (uint32_t i = 0; i < config.maxProducers; ++i) new (&leases[i]) ShmLease{};
  session.leases_ = leases;

  for (uint32_t p = 0; p < config.numProcessors; ++p) {
    void* block = static_cast<char*>(base) + layout.controlOffset +
                  static_cast<uint64_t>(p) * layout.controlStride;
    ShmTraceControl::create(block, {.processorId = p,
                                    .bufferWords = config.bufferWords,
                                    .numBuffers = config.numBuffers,
                                    .clock = clock});
  }
  return session;
}

ShmSession ShmSession::mapAndValidate(const std::string& path, ClockRef clock,
                                      bool privateCopy) {
  if (!clock.valid()) throw std::invalid_argument("ShmSession: clock required");

  ShmSession session;
  session.path_ = path;
  session.clock_ = clock;
  session.fd_ = ::open(path.c_str(), privateCopy ? O_RDONLY : O_RDWR);
  if (session.fd_ < 0) throwErrno("ShmSession: open " + path);
  struct stat st{};
  if (::fstat(session.fd_, &st) != 0) throwErrno("ShmSession: fstat " + path);
  const auto fileBytes = static_cast<uint64_t>(st.st_size);
  if (fileBytes < sizeof(ShmSessionHeader)) {
    throw std::runtime_error("ShmSession: segment too small for a header");
  }
  // MAP_PRIVATE gives recovery a copy-on-write view: filler stamping and
  // drain accounting mutate only this process's pages, never the on-disk
  // evidence (and a read-only fd suffices).
  void* base = ::mmap(nullptr, fileBytes, PROT_READ | PROT_WRITE,
                      privateCopy ? MAP_PRIVATE : MAP_SHARED, session.fd_, 0);
  if (base == MAP_FAILED) throwErrno("ShmSession: mmap " + path);
  session.base_ = base;
  session.mappedBytes_ = fileBytes;

  auto* header = static_cast<ShmSessionHeader*>(base);
  if (header->magic != ShmSessionHeader::kMagic ||
      header->version != ShmSessionHeader::kVersion) {
    throw std::runtime_error("ShmSession: not a trace session segment");
  }
  validateGeometry(header->numProcessors, header->maxProducers,
                   header->bufferWords, header->numBuffers, /*attaching=*/true);
  // Never trust the stored offsets: recompute the layout from the (now
  // bounded) geometry and require an exact match, so a bit-flipped offset
  // cannot alias the lease table onto ring words or point past the file.
  const Layout layout = layoutFor(header->numProcessors, header->maxProducers,
                                  header->bufferWords, header->numBuffers);
  if (header->leaseOffset != layout.leaseOffset ||
      header->controlOffset != layout.controlOffset ||
      header->controlStride != layout.controlStride ||
      header->totalBytes != layout.totalBytes) {
    throw std::runtime_error("ShmSession: layout fields disagree with geometry");
  }
  if (layout.totalBytes > fileBytes) {
    throw std::runtime_error(
        "ShmSession: declared geometry exceeds the segment file "
        "(truncated or corrupt)");
  }
  // Clock metadata feeds fileMeta() and, through it, every recovered
  // .ktrc file's timestamp math: a corrupt ticksPerSecond (0, negative,
  // NaN from a bit flip) or unknown clockKind must fail here, not surface
  // as divide-by-zero/NaN timestamps downstream.
  if (!std::isfinite(header->ticksPerSecond) || header->ticksPerSecond <= 0.0) {
    throw std::runtime_error(
        "ShmSession: implausible ticksPerSecond (corrupt clock metadata)");
  }
  if (header->clockKind > static_cast<uint32_t>(ClockKind::Fake)) {
    throw std::runtime_error("ShmSession: unknown clockKind");
  }
  session.header_ = header;
  session.leases_ = reinterpret_cast<ShmLease*>(static_cast<char*>(base) +
                                                layout.leaseOffset);
  // Validate every control block eagerly (magic/version/geometry ceilings
  // via ShmTraceControl::attach, then coherence with the session header) so
  // corruption surfaces here, not on a later hot-path access.
  for (uint32_t p = 0; p < header->numProcessors; ++p) {
    ShmTraceControl c = session.control(p);
    if (c.processorId() != p || c.bufferWords() != header->bufferWords ||
        c.numBuffers() != header->numBuffers) {
      throw std::runtime_error(
          "ShmSession: control block disagrees with the session header");
    }
  }
  return session;
}

ShmSession ShmSession::attach(const std::string& path, ClockRef clock) {
  return mapAndValidate(path, clock, /*privateCopy=*/false);
}

ShmSession ShmSession::attachForRecovery(const std::string& path, ClockRef clock) {
  return mapAndValidate(path, clock, /*privateCopy=*/true);
}

ShmSession::ShmSession(ShmSession&& other) noexcept { *this = std::move(other); }

ShmSession& ShmSession::operator=(ShmSession&& other) noexcept {
  if (this == &other) return *this;
  // Release the held resources in place. An explicit destructor call here
  // would end the lifetime of every member (path_ included), making the
  // assignments below UB — and the object would be destroyed again at end
  // of scope.
  if (base_ != nullptr) ::munmap(base_, mappedBytes_);
  if (fd_ >= 0) ::close(fd_);
  base_ = std::exchange(other.base_, nullptr);
  mappedBytes_ = std::exchange(other.mappedBytes_, size_t{0});
  fd_ = std::exchange(other.fd_, -1);
  path_ = std::move(other.path_);
  clock_ = other.clock_;
  header_ = std::exchange(other.header_, nullptr);
  leases_ = std::exchange(other.leases_, nullptr);
  return *this;
}

ShmSession::~ShmSession() {
  if (base_ != nullptr) ::munmap(base_, mappedBytes_);
  if (fd_ >= 0) ::close(fd_);
  base_ = nullptr;
  fd_ = -1;
}

ShmTraceControl ShmSession::control(uint32_t p) const {
  if (p >= header_->numProcessors) {
    throw std::invalid_argument("ShmSession: processor out of range");
  }
  void* block = static_cast<char*>(base_) + header_->controlOffset +
                static_cast<uint64_t>(p) * header_->controlStride;
  return ShmTraceControl::attach(block, clock_,
                                 static_cast<size_t>(header_->controlStride));
}

int ShmSession::acquireLease(uint64_t pid, uint32_t firstProcessor,
                             uint32_t endProcessor) {
  if (firstProcessor >= endProcessor || endProcessor > header_->numProcessors) {
    throw std::invalid_argument("ShmSession: bad lease processor range");
  }
  for (uint32_t i = 0; i < header_->maxProducers; ++i) {
    ShmLease& lease = leases_[i];
    // Claim free or already-reclaimed slots; the intermediate kClaiming
    // state keeps the watchdog off the slot while its fields are garbage.
    uint32_t expected = ShmLease::kFree;
    if (!lease.state.compare_exchange_strong(expected, ShmLease::kClaiming,
                                             std::memory_order_acq_rel)) {
      expected = ShmLease::kReclaimed;
      if (!lease.state.compare_exchange_strong(expected, ShmLease::kClaiming,
                                               std::memory_order_acq_rel)) {
        continue;
      }
    }
    lease.firstProcessor = firstProcessor;
    lease.endProcessor = endProcessor;
    lease.pid.store(pid, std::memory_order_relaxed);
    lease.heartbeat.store(0, std::memory_order_relaxed);
    lease.epoch.store(
        header_->leaseEpochCounter.fetch_add(1, std::memory_order_acq_rel) + 1,
        std::memory_order_relaxed);
    lease.state.store(ShmLease::kActive, std::memory_order_release);
    return static_cast<int>(i);
  }
  return -1;
}

void ShmSession::releaseLease(uint32_t leaseIndex) {
  if (leaseIndex >= header_->maxProducers) return;
  leases_[leaseIndex].pid.store(0, std::memory_order_relaxed);
  leases_[leaseIndex].state.store(ShmLease::kFree, std::memory_order_release);
}

ShmTraceControl ShmSession::producerControl(uint32_t processor,
                                            uint32_t leaseIndex) const {
  if (leaseIndex >= header_->maxProducers) {
    throw std::invalid_argument("ShmSession: lease index out of range");
  }
  const ShmLease& lease = leases_[leaseIndex];
  if (processor < lease.firstProcessor || processor >= lease.endProcessor) {
    throw std::invalid_argument("ShmSession: processor outside the lease range");
  }
  ShmTraceControl c = control(processor);
  c.bindHeartbeat(&leases_[leaseIndex].heartbeat);
  return c;
}

TraceFileMeta ShmSession::fileMeta(uint32_t p) const {
  TraceFileMeta meta;
  meta.processorId = p;
  meta.numProcessors = header_->numProcessors;
  meta.bufferWords = header_->bufferWords;
  meta.clockKind = static_cast<ClockKind>(header_->clockKind);
  meta.ticksPerSecond = header_->ticksPerSecond;
  meta.startWallNs = header_->startWallNs;
  meta.startTicks = header_->startTicks;
  return meta;
}

bool writeCrashDump(const Facility& facility, const std::string& path) {
  const FacilityConfig& fc = facility.config();
  ShmSession::Config config;
  config.numProcessors = facility.numProcessors();
  config.bufferWords = fc.bufferWords;
  config.numBuffers = fc.buffersPerProcessor;
  config.maxProducers = 0;  // nobody holds a lease on a crash image
  config.clockKind = fc.clockKind;
  config.ticksPerSecond = clockTicksPerSecond(fc.clockKind);
  try {
    // create() lays out a valid segment; each block is then overwritten
    // by the facility's, so the clock only stamps anchors that vanish.
    ShmSession image = ShmSession::create(path, config, TscClock::ref());
    for (uint32_t p = 0; p < config.numProcessors; ++p) {
      image.control(p).copyBlockFrom(facility.control(p));
    }
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

// --- SessionWatchdog ---------------------------------------------------

SessionWatchdog::SessionWatchdog(ShmSession& session, Sink& sink)
    : SessionWatchdog(session, sink, Config()) {}

SessionWatchdog::SessionWatchdog(ShmSession& session, Sink& sink, Config config)
    : session_(session), sink_(sink), config_(config) {
  expiryTimeout_ = config_.expiryTimeout.count() >= 0
                       ? config_.expiryTimeout
                       : config_.checkInterval * config_.expiryPolls;
  controls_.reserve(session_.numProcessors());
  for (uint32_t p = 0; p < session_.numProcessors(); ++p) {
    controls_.push_back(session_.control(p));
  }
  nextSeq_.assign(session_.numProcessors(), 0);
  tracks_.assign(session_.maxProducers(), LeaseTrack{});
  recovering_.assign(session_.numProcessors(), 0);
}

SessionWatchdog::~SessionWatchdog() { stop(); }

void SessionWatchdog::start() {
  std::lock_guard lifecycle(lifecycleMutex_);
  if (running_.load(std::memory_order_relaxed)) return;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
}

void SessionWatchdog::stop() {
  std::lock_guard lifecycle(lifecycleMutex_);
  running_.store(false, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void SessionWatchdog::run() {
  while (running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(config_.checkInterval);
    if (!running_.load(std::memory_order_acquire)) break;
    pollOnce();
  }
}

void SessionWatchdog::pollOnce() {
  std::lock_guard lock(pollMutex_);
  pollLocked();
}

bool SessionWatchdog::pidDead(uint64_t pid) noexcept {
  if (pid == 0) return false;
  return ::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH;
}

bool SessionWatchdog::hasPending(uint32_t p) const {
  // Anything beyond the drained boundary plus one fresh anchor is data the
  // plain drain cannot reach: either an undrained (possibly torn) earlier
  // lap, or events parked in the current partial buffer.
  const ShmTraceControl& c = controls_[p];
  return c.currentIndex() >
         nextSeq_[p] * c.bufferWords() + ShmTraceControl::kAnchorWords;
}

void SessionWatchdog::drainProcessor(uint32_t p) {
  const ShmTraceControl& c = controls_[p];
  const uint64_t consumed0 = c.buffersConsumed();
  const uint64_t lost0 = c.buffersLost();
  // Stop at the first incomplete buffer (reclaim stamps it first), and
  // when the disk is full downstream: the undrained tail then stays parked
  // in the segment (cursor untouched) and drains after the storage
  // emergency clears, instead of being pulled into a sink that can only
  // shed it (DESIGN.md §15).
  while (!sink_.exhausted() &&
         c.harvestOne(nextSeq_[p], sink_, std::chrono::nanoseconds(0),
                      /*stopAtIncomplete=*/true)) {
  }
  buffersRecovered_.fetch_add(c.buffersConsumed() - consumed0,
                              std::memory_order_relaxed);
  abandonedBuffers_.fetch_add(c.buffersLost() - lost0, std::memory_order_relaxed);
}

void SessionWatchdog::reclaimProcessor(uint32_t p) {
  ShmTraceControl& c = controls_[p];
  recovering_[p] = 1;
  // Quiesce first: after the fence every accessor the (possibly live)
  // producer still holds fails its reserves and has its commits discarded
  // as stale, so the index stops moving and the scan below is against a
  // stable high-water mark. Our own accessor re-reads the epoch so the
  // reclamation commits count.
  c.fenceWriters();
  c.refreshEpoch();
  const uint32_t bufferWords = c.bufferWords();
  const uint32_t numBuffers = c.numBuffers();
  const uint64_t index = c.currentIndex();
  const uint64_t currentSeq = index / bufferWords;
  const uint32_t ts32 = static_cast<uint32_t>(session_.clock()());

  for (uint64_t seq = std::max(nextSeq_[p], c.oldestIntactSeq(currentSeq));
       seq <= currentSeq; ++seq) {
    const ShmSlotState& slot = c.slot(static_cast<uint32_t>(seq & (numBuffers - 1)));
    if (slot.lapSeq.load(std::memory_order_acquire) != seq) continue;
    const uint64_t expected =
        seq == currentSeq ? (index & (bufferWords - 1)) : bufferWords;
    // seq_cst: pairs with the seq_cst epoch bump above and the producer's
    // commit-side epoch re-check — a racing commit is either visible here
    // (counted into the preserved prefix) or withdraws itself.
    const uint64_t lapCommitted =
        slot.committed.load(std::memory_order_seq_cst) -
        slot.lapStartCommitted.load(std::memory_order_relaxed);
    if (lapCommitted >= expected) {
      // Past the reserved bound the surplus can only be a stale
      // double-count whose withdrawal was lost (SIGKILL between the add
      // and its epoch re-check) or is still pending; clamp it so the lap
      // cannot wedge the stop-at-incomplete drain forever.
      if (lapCommitted > expected) c.withdrawOvercommit(seq, expected);
      continue;
    }
    // §3.1 commit-count anomaly: [lapCommitted, expected) was reserved but
    // never committed — the producer died (or was fenced) mid-event. With
    // one producer per processor commits land in order, so the committed
    // prefix is intact and the tear is exactly this tail. Stamp filler
    // event headers over it so the buffer decodes cleanly (counted in
    // reclaimedWords, not the producers' fillerWords), then commit the
    // stamped words to close the lap's accounting.
    const uint64_t torn = expected - lapCommitted;
    c.stampFillers(seq * bufferWords + lapCommitted, torn, ts32);
    c.commit(seq * bufferWords + lapCommitted, static_cast<uint32_t>(torn));
    tornBuffers_.fetch_add(1, std::memory_order_relaxed);
    reclaimedWords_.fetch_add(torn, std::memory_order_relaxed);
  }
  // Pad the (now consistent) current buffer to its boundary so the drain
  // below can ship it.
  c.flushCurrentBuffer();
}

void SessionWatchdog::pollLocked() {
  polls_.fetch_add(1, std::memory_order_relaxed);
  const uint32_t numProcessors = session_.numProcessors();
  // A processor covered by an Active lease belongs to its producer again
  // (a fresh lease re-used it after reclamation): stop re-running recovery
  // there, or the retry below would fence the newcomer.
  for (uint32_t i = 0; i < session_.maxProducers(); ++i) {
    const ShmLease& lease = session_.lease(i);
    if (lease.state.load(std::memory_order_acquire) != ShmLease::kActive) continue;
    const uint32_t first = lease.firstProcessor;
    const uint32_t end = lease.endProcessor;
    if (first >= end || end > numProcessors) continue;
    for (uint32_t p = first; p < end; ++p) recovering_[p] = 0;
  }
  for (uint32_t p = 0; p < numProcessors; ++p) {
    // Re-run the idempotent reclaim on recovered processors until they
    // drain dry: a reserve or commit that was already in flight when the
    // fence landed can perturb the counts after a single pass, and the
    // retry is what guarantees convergence (see recovering_).
    if (recovering_[p] != 0) {
      if (hasPending(p)) {
        reclaimProcessor(p);
      } else {
        recovering_[p] = 0;
      }
    }
    drainProcessor(p);
  }

  for (uint32_t i = 0; i < session_.maxProducers(); ++i) {
    ShmLease& lease = session_.lease(i);
    if (lease.state.load(std::memory_order_acquire) != ShmLease::kActive) {
      tracks_[i] = LeaseTrack{};
      continue;
    }
    const uint32_t first = lease.firstProcessor;
    const uint32_t end = lease.endProcessor;
    if (first >= end || end > numProcessors) continue;  // garbled: ignore

    const uint64_t epoch = lease.epoch.load(std::memory_order_relaxed);
    LeaseTrack& track = tracks_[i];
    if (track.epoch != epoch) track = LeaseTrack{.epoch = epoch};

    const uint64_t heartbeat = lease.heartbeat.load(std::memory_order_relaxed);
    uint64_t indexSum = 0;
    for (uint32_t p = first; p < end; ++p) indexSum += controls_[p].currentIndex();
    const bool progressed =
        heartbeat != track.lastHeartbeat || indexSum != track.lastIndexSum;
    track.lastHeartbeat = heartbeat;
    track.lastIndexSum = indexSum;
    if (progressed) {
      track.stalePolls = 0;
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    if (track.stalePolls == 0) track.staleSince = now;
    ++track.stalePolls;

    bool pending = false;
    for (uint32_t p = first; p < end && !pending; ++p) pending = hasPending(p);
    const bool dead = config_.checkPids &&
                      pidDead(lease.pid.load(std::memory_order_relaxed));
    // A dead pid is reclaimed immediately; a live-but-stalled producer only
    // once it has both exceeded the deadline and left data stranded (an
    // idle producer with everything drained is left alone). The deadline is
    // poll count AND steady elapsed time: a burst of rapid polls (external
    // driver, doorbell) or a wall-clock step must not shrink the grace
    // window a slow producer was promised.
    const bool expired = track.stalePolls >= config_.expiryPolls &&
                         now - track.staleSince >= expiryTimeout_;
    if (!dead && !(expired && pending)) continue;

    (dead ? deadProducers_ : fencedProducers_).fetch_add(1,
                                                         std::memory_order_relaxed);
    for (uint32_t p = first; p < end; ++p) {
      if (hasPending(p)) reclaimProcessor(p);
      drainProcessor(p);
    }
    lease.state.store(ShmLease::kReclaimed, std::memory_order_release);
    tracks_[i] = LeaseTrack{};
  }
}

void SessionWatchdog::recoverNow() {
  std::lock_guard lock(pollMutex_);
  polls_.fetch_add(1, std::memory_order_relaxed);
  for (uint32_t i = 0; i < session_.maxProducers(); ++i) {
    ShmLease& lease = session_.lease(i);
    if (lease.state.load(std::memory_order_acquire) != ShmLease::kActive) continue;
    const bool dead = !config_.checkPids ||
                      pidDead(lease.pid.load(std::memory_order_relaxed));
    (dead ? deadProducers_ : fencedProducers_).fetch_add(1,
                                                         std::memory_order_relaxed);
    lease.state.store(ShmLease::kReclaimed, std::memory_order_release);
    tracks_[i] = LeaseTrack{};
  }
  for (uint32_t p = 0; p < session_.numProcessors(); ++p) {
    if (hasPending(p)) reclaimProcessor(p);
    drainProcessor(p);
  }
}

void SessionWatchdog::seedDrained(const std::vector<uint64_t>& nextSeq) {
  std::lock_guard lock(pollMutex_);
  const size_t n = std::min(nextSeq.size(), nextSeq_.size());
  for (size_t p = 0; p < n; ++p) {
    // A manifest cursor ahead of the live sequence can only mean the
    // segment was recreated after the manifest was written (the reserve
    // index is monotonic for a segment's lifetime): start that processor
    // from scratch rather than silently skipping the new segment's data.
    const uint64_t liveSeq =
        controls_[p].currentIndex() / controls_[p].bufferWords();
    nextSeq_[p] = nextSeq[p] <= liveSeq ? nextSeq[p] : 0;
  }
}

std::vector<uint64_t> SessionWatchdog::drainedSeqs() {
  std::lock_guard lock(pollMutex_);
  return nextSeq_;
}

bool SessionWatchdog::pendingData() {
  std::lock_guard lock(pollMutex_);
  for (uint32_t p = 0; p < session_.numProcessors(); ++p) {
    if (recovering_[p] != 0 || hasPending(p)) return true;
  }
  return false;
}

RecoveryStats SessionWatchdog::stats() const noexcept {
  RecoveryStats s;
  s.tornBuffers = tornBuffers_.load(std::memory_order_relaxed);
  s.reclaimedWords = reclaimedWords_.load(std::memory_order_relaxed);
  s.abandonedBuffers = abandonedBuffers_.load(std::memory_order_relaxed);
  s.buffersRecovered = buffersRecovered_.load(std::memory_order_relaxed);
  s.deadProducers = deadProducers_.load(std::memory_order_relaxed);
  s.fencedProducers = fencedProducers_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ktrace
