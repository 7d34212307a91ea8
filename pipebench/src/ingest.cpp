// ingest: the shipped collection path. Two shm tenant segments, two
// closed-loop producers, an in-process TraceDaemon configured as ktraced
// ships, and one control-socket client asking for `top` every 50 ms.
//
// The traced run cannot see inside TraceDaemon's per-tenant chain, so its
// traced half assembles the same chain from the same public classes and
// settings (ShmSession::attach, SessionWatchdog::pollOnce every 2 ms,
// BatchingSink -> LiveAnalyzer -> FileSink over a timing FileSystem) with a
// timing Sink decorator at each boundary.
#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "analysis/streaming/live_analyzer.hpp"
#include "analysis/streaming/monitors.hpp"
#include "core/batching_sink.hpp"
#include "core/decode.hpp"
#include "core/shm_session.hpp"
#include "core/trace_file.hpp"
#include "daemon/daemon.hpp"
#include "util/lz.hpp"
#include "util/net.hpp"
#include "workloads.hpp"

namespace pipebench {

namespace {

using namespace ktrace;
using namespace std::chrono_literals;
namespace fs = std::filesystem;
namespace streaming = ktrace::analysis::streaming;

constexpr uint32_t kTenants = 2;
constexpr uint32_t kProcessors = 2;  // per tenant segment
constexpr uint32_t kStint = 64;      // events a producer logs per processor turn
// Segment geometry: the defaults of the shipped producer tool
// (tools/kses_smoke.cpp `create`).
constexpr uint32_t kBufferWords = 256;
constexpr uint32_t kNumBuffers = 512;
constexpr auto kTopPeriod = 50ms;
constexpr auto kCompletionTimeout = 60s;

/// The daemon configuration tools/ktraced.cpp (main, lines 180-228) builds
/// when given only --dir, --out and --socket: every field it sets, at its
/// command-line default. The struct defaults differ (the tap off, no
/// monitors, a 5-poll lease expiry), so none of those fields is left to
/// them. batching.blockWhenFull keeps DaemonConfig's `true`, as ktraced
/// does.
daemon::DaemonConfig shippedDaemonConfig(const std::string& sessionDir,
                                         const std::string& outputDir,
                                         const std::string& socketPath) {
  daemon::DaemonConfig config;
  config.sessionDir = sessionDir;
  config.outputDir = outputDir;
  config.socketPath = socketPath;
  config.manifestPath = "";
  config.scanInterval = std::chrono::milliseconds(100);    // --scan-ms
  config.pollInterval = std::chrono::microseconds(2000);   // --poll-us
  config.schedulerThreads = 2;                             // --threads
  config.watchdog.expiryTimeout = std::chrono::milliseconds(1000);  // --expiry-ms
  config.batching.quotaBytesPerSecond = 0;                 // --quota-bps
  config.batching.quotaBurstBytes = 0;                     // --quota-burst
  config.batching.batchRecords = 8;                        // --batch
  config.batching.maxQueuedRecords = 64;                   // --queue
  config.compressOutput = false;                           // --compress
  config.rotateBytes = 0;                                  // --rotate-bytes
  config.rotateRecords = 0;                                // --rotate-records
  config.storageMaxTotalBytes = 0;                         // --max-bytes
  config.storageMaxTenantBytes = 0;                        // --tenant-bytes
  config.storageRetainAge = std::chrono::milliseconds(0);  // --retain-ms
  config.storageLowWaterBytes = 0;                         // --free-low
  config.storageHighWaterBytes = 0;                        // --free-high
  config.traceFs = nullptr;                                // no --disk-budget
  config.analysisWindow = std::chrono::milliseconds(100);  // --window-ms
  config.monitors = streaming::defaultMonitors();          // no --monitors
  return config;
}

struct Dirs {
  std::string root;
  std::string sessions;
  std::string out;
  std::string socket;
};

Dirs makeDirs(const std::string& runDir, const std::string& tag) {
  Dirs d;
  d.root = runDir + "/" + tag;
  d.sessions = d.root + "/sessions";
  d.out = d.root + "/out";
  d.socket = d.root + "/ctl.sock";
  fs::remove_all(d.root);
  fs::create_directories(d.sessions);
  fs::create_directories(d.out);
  return d;
}

std::string segmentPath(const Dirs& d, uint32_t tenant) {
  return d.sessions + "/tenant" + std::to_string(tenant) + ".kses";
}

/// A producer's segment, created as the shipped producer tool creates it.
std::unique_ptr<ShmSession> createSegment(const std::string& path) {
  ShmSession::Config config;
  config.numProcessors = kProcessors;
  config.bufferWords = kBufferWords;
  config.numBuffers = kNumBuffers;
  config.maxProducers = kProcessors;
  return std::make_unique<ShmSession>(
      ShmSession::create(path, config, TscClock::ref()));
}

// --- producers ------------------------------------------------------------------

// Cache-line aligned: the two producers' counters must not share a line.
struct alignas(64) Producer {
  uint64_t offset = 0;  // replay start in the mix
  uint64_t events = 0;  // logged: whole pairs of stints
  uint64_t refused = 0;
  uint64_t waitNs = 0;  // ring-space waits
  uint64_t runNs = 0;
  uint64_t produced[kProcessors] = {};  // complete buffers per processor
  bool stalled = false;                 // the drain stopped freeing ring space
  WindowPercentiles windows;            // per-stint ns/event, waits excluded
};

/// Closed loop: before entering buffer `seq`, wait until it cannot lap an
/// undrained buffer (one buffer of slack). Gives up after 30 s.
void waitForRing(const ShmTraceControl& c, uint64_t seq, Producer& out) {
  auto full = [&] {
    return seq + 1 >= c.buffersConsumed() + c.buffersLost() + c.numBuffers();
  };
  if (!full()) return;
  const uint64_t t0 = nowNs();
  while (full() && !out.stalled) {
    std::this_thread::sleep_for(200us);
    out.stalled = nowNs() - t0 > 30'000'000'000ull;
  }
  out.waitNs += nowNs() - t0;
}

/// Takes a lease, logs the mix from the producer's offset until the
/// deadline (a whole number of stint pairs, so processor p gets stints p,
/// p+2, ...), flushes and releases the lease.
void produce(ShmSession& session, const Mix& mix, uint64_t deadlineNs,
             std::atomic<int>& ready, Producer& out) {
  const int lease = session.acquireLease(static_cast<uint64_t>(::getpid()), 0,
                                         kProcessors);
  if (lease < 0) {
    ready.fetch_add(1);
    out.refused = 1;
    return;
  }
  std::vector<ShmTraceControl> controls;
  for (uint32_t p = 0; p < kProcessors; ++p) {
    controls.push_back(session.producerControl(p, static_cast<uint32_t>(lease)));
  }
  ready.fetch_add(1);
  while (ready.load() < static_cast<int>(kTenants)) {
  }
  const uint64_t firstNs = nowNs();
  uint64_t pos = out.offset;
  uint64_t refused = 0;
  for (uint64_t stint = 0;; ++stint) {
    ShmTraceControl& c = controls[stint % kProcessors];
    const uint64_t waited = out.waitNs;
    const uint64_t t0 = nowNs();
    for (uint32_t i = 0; i < kStint; ++i) {
      const MixEvent& e = mix.at(pos++);
      const uint64_t index = c.currentIndex();
      const uint64_t offset = index & (kBufferWords - 1);
      if (offset == 0 || offset + 1 + e.words > kBufferWords) {
        waitForRing(c, index / kBufferWords + (offset != 0 ? 1 : 0), out);
      }
      if (!c.logEventData(e.major, e.minor, mix.payload(e))) ++refused;
    }
    const uint64_t t1 = nowNs();
    out.windows.add(t1, static_cast<double>(t1 - t0 - (out.waitNs - waited)) / kStint);
    if (out.stalled) break;
    if (t1 >= deadlineNs && stint % kProcessors == kProcessors - 1) break;
  }
  out.windows.finish();
  out.events = pos - out.offset;
  out.refused += refused;
  for (uint32_t p = 0; p < kProcessors; ++p) {
    ShmTraceControl& c = controls[p];
    const uint64_t index = c.currentIndex();
    if ((index & (kBufferWords - 1)) != 0) {
      waitForRing(c, index / kBufferWords + 1, out);
    }
    c.flushCurrentBuffer();
    out.produced[p] = c.currentBufferSeq();
  }
  out.runNs = nowNs() - firstNs;
  session.releaseLease(static_cast<uint32_t>(lease));
}

uint64_t producedBuffers(const std::vector<Producer>& producers) {
  uint64_t n = 0;
  for (const Producer& p : producers) {
    for (const uint64_t b : p.produced) n += b;
  }
  return n;
}

// --- dashboard client -----------------------------------------------------------

struct Dashboard {
  uint64_t requests = 0;
  uint64_t failures = 0;
  std::vector<double> latencyMs;
};

/// Asks `ask()` for one snapshot every kTopPeriod, one request outstanding.
template <typename Ask>
void dashboardLoop(std::atomic<bool>& stop, Dashboard& out, Ask&& ask) {
  auto next = std::chrono::steady_clock::now();
  while (!stop.load()) {
    const uint64_t t0 = nowNs();
    const bool ok = ask();
    out.latencyMs.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
    ++out.requests;
    if (!ok) ++out.failures;
    next += kTopPeriod;
    const auto now = std::chrono::steady_clock::now();
    if (next < now) next = now;
    while (!stop.load() && std::chrono::steady_clock::now() < next) {
      std::this_thread::sleep_for(1ms);
    }
  }
}

/// One `top` request over the control socket. The reply is read in 64 KiB
/// chunks: the client is load, and one read(2) per byte (as ktracetool's
/// line reader does) would make its own CPU use the noise in the daemon's
/// numbers.
bool requestTop(util::UnixStream& stream) {
  if (!stream.valid() || !stream.writeAll(std::string("top\n"))) return false;
  std::string reply;
  char chunk[1 << 16];
  for (;;) {
    const long n = stream.readSome(chunk, sizeof(chunk));
    if (n > 0) {
      reply.append(chunk, static_cast<size_t>(n));
      if (reply.back() != '\n') continue;
      const size_t end = reply.rfind("{\"type\":\"end\"");
      if (end == std::string::npos) continue;
      const std::string last = reply.substr(end);
      return last.find("\"ok\":true") != std::string::npos &&
             last.find("\"count\":" + std::to_string(kTenants)) != std::string::npos;
    }
    if (n == 0 || n == -2) return false;  // EOF or error
    pollfd pfd{stream.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0) return false;
  }
}

// --- the gate: every event once, in order, per processor ---------------------------

struct FileCheck {
  uint64_t failed = 0;
  uint64_t rawBytes = 0;  // bytes of the records sampled for the LZ ratio
  uint64_t lzBytes = 0;
};

/// Streams one tenant's files record by record and compares every decoded
/// event with the producer's replay sequence: stint s of the producer went
/// to processor s % 2, so event k on processor p is replay position
/// offset + (2 * (k / 64) + p) * 64 + k % 64. Decoding into one TraceSet
/// instead would hold every event (88 B each) in memory.
void checkTenantFiles(const std::string& pathBase, const Mix& mix,
                      const Producer& producer, FileCheck& check,
                      std::string& why) {
  const uint64_t expected = producer.events / kProcessors;
  for (uint32_t p = 0; p < kProcessors; ++p) {
    const std::string path = pathBase + ".cpu" + std::to_string(p) + ".ktrc";
    uint64_t k = 0;
    uint64_t bad = 0;
    try {
      TraceFileReader reader(path);
      uint64_t tsBase = 0;
      std::vector<DecodedEvent> events;
      for (uint64_t r = 0; r < reader.bufferCount(); ++r) {
        BufferView view;
        if (!reader.readBufferView(r, view)) {
          if (why.empty()) why = path + ": unreadable record " + std::to_string(r);
          break;
        }
        if (view.seq != r || view.commitMismatch) {
          if (why.empty()) why = path + ": record " + std::to_string(r) + " out of sequence";
          ++bad;
        }
        if (r < 64) {
          const size_t bytes = view.words.size() * sizeof(uint64_t);
          std::vector<unsigned char> packed(util::lzCompressBound(bytes));
          check.rawBytes += bytes;
          check.lzBytes += util::lzCompress(view.words.data(), bytes,
                                            packed.data(), packed.size());
        }
        events.clear();
        decodeBuffer(view.words, view.seq, p, tsBase, events);
        for (const DecodedEvent& e : events) {
          const uint64_t pos = producer.offset +
                               (kProcessors * (k / kStint) + p) * kStint + k % kStint;
          if (k >= expected ||
              !mix.matches(pos, e.header.major, e.header.minor,
                           {e.data.data(), e.data.size()})) {
            if (bad == 0 && why.empty()) {
              why = path + ": event " + std::to_string(k) + " differs from the replay";
            }
            ++bad;
          }
          ++k;
        }
      }
    } catch (const std::exception& e) {
      if (why.empty()) why = e.what();
    }
    if (k < expected) {
      if (why.empty()) why = path + ": " + std::to_string(expected - k) + " events missing";
      bad += expected - k;
    }
    check.failed += bad;
  }
}

// --- the shipped daemon (untraced) ---------------------------------------------------

struct DaemonRig {
  std::unique_ptr<Mix> mix;
  Dirs dirs;
  std::vector<std::unique_ptr<ShmSession>> segments;
  std::unique_ptr<daemon::TraceDaemon> daemon;
  double admitMs = 0;

  DaemonRig() = default;
  DaemonRig(DaemonRig&& other) noexcept { *this = std::move(other); }
  DaemonRig& operator=(DaemonRig&& other) noexcept {
    if (this == &other) return *this;
    release();
    mix = std::move(other.mix);
    dirs = std::exchange(other.dirs, Dirs{});
    segments = std::move(other.segments);
    other.segments.clear();
    daemon = std::move(other.daemon);
    admitMs = other.admitMs;
    return *this;
  }
  ~DaemonRig() { release(); }

  void release() {
    if (daemon) daemon->stop();
    daemon.reset();
    segments.clear();
    if (!dirs.root.empty()) fs::remove_all(dirs.root);
    dirs = {};
  }
};

DaemonRig setUpDaemon(const Args& args, const std::string& tag) {
  DaemonRig rig;
  rig.mix = std::make_unique<Mix>(Mix::fromSdet(args.seed, mixScripts(args)));
  rig.dirs = makeDirs(args.runDir, tag);
  for (uint32_t t = 0; t < kTenants; ++t) {
    rig.segments.push_back(createSegment(segmentPath(rig.dirs, t)));
  }
  rig.daemon = std::make_unique<daemon::TraceDaemon>(
      shippedDaemonConfig(rig.dirs.sessions, rig.dirs.out, rig.dirs.socket));
  const uint64_t t0 = nowNs();
  rig.daemon->start();
  for (;;) {
    uint32_t active = 0;
    for (const daemon::TenantStatus& s : rig.daemon->tenantStatuses()) {
      if (s.state == daemon::TenantState::Active) ++active;
    }
    if (active == kTenants) break;
    if (nowNs() - t0 > 10'000'000'000ull) {
      throw std::runtime_error("ingest: tenants were not admitted within 10 s");
    }
    std::this_thread::sleep_for(200us);
  }
  rig.admitMs = static_cast<double>(nowNs() - t0) * 1e-6;
  return rig;
}

struct Phase {
  EndToEnd e;
  std::vector<Producer> producers;
  Dashboard dashboard;
  uint64_t events = 0;
  double wallS = 0;
};

/// Producers and the dashboard run for `seconds` while this thread
/// samples the records the FileSinks have accepted (`accepted()`) and the
/// process CPU time at every window boundary; the phase ends once every
/// produced buffer is accepted and nothing is queued (`drained(produced)`).
/// Throughput and CPU per event are medians over the windows of the
/// drained records (times the run's events per record), so a stretch where
/// the host descheduled the pipeline moves a few windows, not the result.
template <typename Accepted, typename Drained, typename Ask>
Phase timedPhase(const Args& args, const HostContext& host, const Mix& mix,
                 std::vector<std::unique_ptr<ShmSession>>& segments,
                 double seconds, Accepted&& accepted, Drained&& drained,
                 Ask&& ask, Outcome& outcome) {
  const size_t windows = std::max<size_t>(
      1, static_cast<size_t>(seconds * 1e9) / kWindowNs);
  Phase ph;
  ph.producers.resize(kTenants);
  PeakRss rss;
  rss.start();
  std::atomic<bool> stopDashboard{false};
  std::thread dashboard([&] {
    pinCurrentThread(host.loadCpus[2]);
    dashboardLoop(stopDashboard, ph.dashboard, ask);
  });
  std::atomic<int> ready{0};
  const uint64_t start = nowNs();
  const uint64_t deadline = start + windows * kWindowNs;
  std::vector<std::thread> producers;
  for (uint32_t t = 0; t < kTenants; ++t) {
    ph.producers[t].offset = replayOffset(args.seed, t, mix.size());
    ph.producers[t].windows = WindowPercentiles(start, windows);
    producers.emplace_back([&, t] {
      pinCurrentThread(host.loadCpus[t]);
      produce(*segments[t], mix, deadline, ready, ph.producers[t]);
    });
  }
  // Records accepted, process CPU and the time they were read, at each
  // window boundary (reading the daemon's counters can wait on a poll).
  std::vector<uint64_t> recordsAt, cpuAt, timeAt;
  for (size_t w = 0; w <= windows; ++w) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(start + w * kWindowNs)));
    recordsAt.push_back(accepted());
    cpuAt.push_back(processCpuNs());
    timeAt.push_back(nowNs());
  }
  for (std::thread& t : producers) t.join();
  const uint64_t produced = producedBuffers(ph.producers);
  const auto giveUp = std::chrono::steady_clock::now() + kCompletionTimeout;
  bool complete = false;
  while (!(complete = drained(produced)) &&
         std::chrono::steady_clock::now() < giveUp) {
    std::this_thread::sleep_for(1ms);
  }
  ph.wallS = static_cast<double>(nowNs() - start) * 1e-9;
  stopDashboard.store(true);
  dashboard.join();
  ph.e.peakRssMiB = rss.stop();
  if (!complete) {
    outcome.fail(1, "ingest: the sinks did not accept every produced buffer within 60 s");
  }

  std::vector<double> p50, p90;
  for (const Producer& p : ph.producers) {
    ph.events += p.events;
    p50.insert(p50.end(), p.windows.p50().begin(), p.windows.p50().end());
    p90.insert(p90.end(), p.windows.p90().begin(), p.windows.p90().end());
  }
  const double eventsPerRecord =
      produced == 0 ? 0 : static_cast<double>(ph.events) / static_cast<double>(produced);
  std::vector<double> rate, cpu;
  for (size_t w = 0; w < windows; ++w) {
    const double events =
        static_cast<double>(recordsAt[w + 1] - recordsAt[w]) * eventsPerRecord;
    if (events <= 0) continue;
    rate.push_back(events / (static_cast<double>(timeAt[w + 1] - timeAt[w]) * 1e-9));
    cpu.push_back(static_cast<double>(cpuAt[w + 1] - cpuAt[w]) / events);
  }
  ph.e.eventsPerS = median(rate);
  ph.e.cpuNsPerEvent = median(cpu);
  ph.e.logNsP50 = median(p50);
  ph.e.logNsP90 = median(p90);
  return ph;
}

/// Gate shared by both halves: no refused log calls, no failed dashboard
/// requests, no lost buffers, then every event exactly once in order.
void checkPhase(const Phase& ph, const Mix& mix,
                std::vector<std::unique_ptr<ShmSession>>& segments,
                const std::vector<std::string>& fileBases, Outcome& outcome,
                FileCheck& check, LayerValues& layers) {
  uint64_t lost = 0;
  uint64_t filler = 0;
  uint64_t words = 0;
  for (const auto& segment : segments) {
    for (uint32_t p = 0; p < kProcessors; ++p) {
      const ShmTraceControl c = segment->control(p);
      lost += c.buffersLost();
      filler += c.fillerWordsWritten();
      words += c.currentIndex();
    }
  }
  layers["core.shm_buffers_lost"] = static_cast<double>(lost);
  layers["core.filler_share"] =
      words == 0 ? 0 : static_cast<double>(filler) / static_cast<double>(words);
  // Shm controls count no slow-path entries; every buffer crossing is one.
  layers["core.slow_path_per_kevent"] =
      1000.0 * static_cast<double>(producedBuffers(ph.producers)) /
      static_cast<double>(ph.events);
  if (lost != 0) outcome.fail(lost, "ingest: buffers lost on the rings");
  for (const Producer& p : ph.producers) {
    if (p.refused != 0) outcome.fail(p.refused, "ingest: producer log calls refused");
    if (p.stalled) outcome.fail(1, "ingest: ring space never freed for 30 s");
  }
  if (ph.dashboard.failures != 0) {
    outcome.fail(ph.dashboard.failures, "ingest: dashboard requests failed");
  }
  outcome.attempted += ph.events + ph.dashboard.requests;
  for (uint32_t t = 0; t < kTenants; ++t) {
    std::string why;
    const uint64_t before = check.failed;
    checkTenantFiles(fileBases[t], mix, ph.producers[t], check, why);
    if (check.failed != before) outcome.fail(check.failed - before, "ingest: " + why);
  }
}

// --- the same chain, assembled from public classes (traced) ---------------------------

struct ChainTenant {
  // Declaration order is teardown order reversed: each sink outlives the
  // one feeding it.
  std::unique_ptr<ShmSession> session;
  std::unique_ptr<FileSink> files;
  std::unique_ptr<TimingSink> write;
  std::unique_ptr<streaming::LiveAnalyzer> analyzer;
  std::unique_ptr<TimingSink> tap;
  std::unique_ptr<BatchingSink> batching;
  std::unique_ptr<TimingSink> batch;
  std::unique_ptr<SessionWatchdog> watchdog;
  std::string name;
};

struct ChainRig {
  std::unique_ptr<Mix> mix;
  Dirs dirs;
  std::unique_ptr<TimingFileSystem> fs = std::make_unique<TimingFileSystem>();
  std::vector<std::unique_ptr<ShmSession>> segments;  // producer side
  std::vector<std::unique_ptr<ChainTenant>> tenants;

  ChainRig() = default;
  ChainRig(ChainRig&& other) noexcept
      : mix(std::move(other.mix)),
        dirs(std::exchange(other.dirs, Dirs{})),
        fs(std::move(other.fs)),
        segments(std::move(other.segments)),
        tenants(std::move(other.tenants)) {
    other.segments.clear();
    other.tenants.clear();
  }
  ChainRig& operator=(ChainRig&&) = delete;
  ~ChainRig() {
    tenants.clear();
    segments.clear();
    if (!dirs.root.empty()) fs::remove_all(dirs.root);
  }
};

ChainRig setUpChain(const Args& args, const std::string& tag) {
  ChainRig rig;
  {
    SpanScope span("setup.mix");
    rig.mix = std::make_unique<Mix>(Mix::fromSdet(args.seed, mixScripts(args)));
  }
  rig.dirs = makeDirs(args.runDir, tag);
  const daemon::DaemonConfig shipped =
      shippedDaemonConfig(rig.dirs.sessions, rig.dirs.out, "");
  for (uint32_t t = 0; t < kTenants; ++t) {
    rig.segments.push_back(createSegment(segmentPath(rig.dirs, t)));
    auto c = std::make_unique<ChainTenant>();
    c->name = "tenant" + std::to_string(t);
    {
      SpanScope span("core.attach");
      c->session = std::make_unique<ShmSession>(
          ShmSession::attach(segmentPath(rig.dirs, t), TscClock::ref()));
    }
    // As Tenant::tryAttach builds it.
    const TraceFileMeta meta = c->session->fileMeta(0);
    TraceWriterOptions writerOptions;
    writerOptions.compress = shipped.compressOutput;
    writerOptions.rotateBytes = shipped.rotateBytes;
    writerOptions.rotateRecords = shipped.rotateRecords;
    c->files = std::make_unique<FileSink>(rig.dirs.out, c->name + ".g1", meta,
                                          rig.fs.get(), writerOptions);
    c->write = std::make_unique<TimingSink>("core.write", *c->files);
    streaming::StreamEngineConfig engine;
    engine.ticksPerSecond = meta.ticksPerSecond;
    engine.windowTicks = streaming::windowTicksForMs(
        static_cast<double>(shipped.analysisWindow.count()), meta.ticksPerSecond);
    c->analyzer = std::make_unique<streaming::LiveAnalyzer>(
        *c->write, c->session->numProcessors(), engine, shipped.monitors);
    c->tap = std::make_unique<TimingSink>("streaming.tap", *c->analyzer);
    c->batching = std::make_unique<BatchingSink>(*c->tap, shipped.batching);
    c->batch = std::make_unique<TimingSink>("core.batch", *c->batching);
    c->watchdog = std::make_unique<SessionWatchdog>(*c->session, *c->batch,
                                                    shipped.watchdog);
    rig.tenants.push_back(std::move(c));
  }
  return rig;
}

/// Tenant::drainAndFlush's order: final poll, drain the batcher, finish
/// the tap, flush the files.
void drainChain(ChainRig& rig) {
  for (auto& c : rig.tenants) {
    c->watchdog->pollOnce();
    c->batching->stop();
    c->batching->flushNow();
    c->analyzer->finish();
    c->files->flush();
  }
}

}  // namespace

int runIngest(const Args& args, const HostContext& host) {
  Outcome outcome;
  const double half = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> admitMs;
  DaemonRig rig = repeatSetup(args, outcome, [&] {
    DaemonRig r = setUpDaemon(args, "daemon");
    admitMs.push_back(r.admitMs);
    return r;
  });
  recordInput(*rig.mix, outcome);
  outcome.layers["daemon.admit_ms"] = median(admitMs);

  // --- the shipped daemon, untraced ---
  util::UnixStream stream = util::UnixStream::connect(rig.dirs.socket);
  auto daemonAccepted = [&] {
    uint64_t accepted = 0;
    for (const daemon::TenantStatus& s : rig.daemon->tenantStatuses()) {
      accepted += s.sink.recordsAccepted;
    }
    return accepted;
  };
  auto daemonDrained = [&](uint64_t produced) {
    uint64_t accepted = 0;
    uint64_t queued = 0;
    for (const daemon::TenantStatus& s : rig.daemon->tenantStatuses()) {
      accepted += s.sink.recordsAccepted;
      queued += s.sink.queuedRecords;
    }
    return accepted >= produced && queued == 0;
  };
  Phase shipped = timedPhase(args, host, *rig.mix, rig.segments, half,
                             daemonAccepted, daemonDrained,
                             [&] { return requestTop(stream); }, outcome);
  stream.close();
  {
    uint64_t dropped = 0;
    uint64_t fenced = 0;
    for (const daemon::TenantStatus& s : rig.daemon->tenantStatuses()) {
      dropped += s.sink.recordsDropped + s.sink.quotaSheds;
      fenced += s.recovery.fencedProducers + s.recovery.deadProducers;
    }
    if (dropped != 0) outcome.fail(dropped, "ingest: sink drops or quota sheds");
    if (fenced != 0) outcome.fail(fenced, "ingest: producers fenced by the watchdog");
  }
  rig.daemon->stop();
  std::vector<std::string> bases;
  for (uint32_t t = 0; t < kTenants; ++t) {
    bases.push_back(rig.dirs.out + "/tenant" + std::to_string(t) + ".g" +
                    std::to_string(rig.daemon->generation()));
  }
  if (args.damage) {
    // One flipped byte in the first record's payload (after the 128-byte
    // file header and the 32-byte record header): its CRC no longer
    // matches, so the strict reader stops there.
    flipByte(bases[0] + ".cpu0.ktrc", 128 + 32 + 100);
  }
  FileCheck check;
  LayerValues untracedLayers;
  checkPhase(shipped, *rig.mix, rig.segments, bases, outcome, check, untracedLayers);
  double waitNs = 0;
  double runNs = 0;
  for (const Producer& p : shipped.producers) {
    waitNs += static_cast<double>(p.waitNs);
    runNs += static_cast<double>(p.runNs);
  }
  outcome.layers["core.shm_wait_share"] = runNs == 0 ? 0 : waitNs / runNs;
  outcome.layers["daemon.top_ms_p50"] = quantile(shipped.dashboard.latencyMs, 0.5);
  outcome.layers["daemon.top_ms_p90"] = quantile(shipped.dashboard.latencyMs, 0.9);
  const double setupS = outcome.endToEnd.setupS;
  outcome.endToEnd = shipped.e;
  outcome.endToEnd.setupS = setupS;
  outcome.untraced = outcome.endToEnd;
  rig.release();

  if (args.trace) {
    // --- the same chain from public classes, traced ---
    ChainRig chain = tracedSetup(outcome, [&] { return setUpChain(args, "chain"); });
    const double tracedSetupS = outcome.endToEnd.setupS;
    const auto interval = shippedDaemonConfig("", "", "").pollInterval;
    Spans::setEnabled(true);
    std::atomic<bool> polling{true};
    std::vector<std::thread> pollers;
    for (auto& c : chain.tenants) {
      pollers.emplace_back([&, wd = c->watchdog.get()] {
        auto next = std::chrono::steady_clock::now();
        while (polling.load()) {
          {
            SpanScope span("core.harvest");
            wd->pollOnce();
          }
          next += interval;
          std::this_thread::sleep_until(next);
        }
      });
    }
    auto chainAccepted = [&] {
      uint64_t accepted = 0;
      for (const auto& c : chain.tenants) accepted += c->files->counters().recordsAccepted;
      return accepted;
    };
    auto chainDrained = [&](uint64_t produced) {
      uint64_t queued = 0;
      for (const auto& c : chain.tenants) queued += c->batching->queuedNow();
      return chainAccepted() >= produced && queued == 0;
    };
    auto snapshot = [&] {
      bool ok = true;
      for (const auto& c : chain.tenants) {
        SpanScope span("streaming.snapshot");
        ok = ok && !c->analyzer->snapshotJson(c->name).empty();
      }
      return ok;
    };
    Phase traced = timedPhase(args, host, *chain.mix, chain.segments, half,
                              chainAccepted, chainDrained, snapshot, outcome);
    polling.store(false);
    for (std::thread& t : pollers) t.join();
    drainChain(chain);
    Spans::setEnabled(false);

    uint64_t dropped = 0;
    uint64_t buffers = 0;
    uint64_t flushes = 0;
    uint64_t bytes = 0;
    uint64_t tapEvents = 0;
    uint64_t tapRecords = 0;
    for (const auto& c : chain.tenants) {
      const SinkCounters sc = c->batching->counters();
      dropped += sc.recordsDropped + sc.quotaSheds;
      buffers += c->batch->records();
      flushes += c->batching->batchesFlushed();
      tapRecords += c->tap->records();
      bytes += c->files->bytesWritten();
      tapEvents += c->analyzer->eventsObserved();
      const RecoveryStats rs = c->watchdog->stats();
      if (rs.fencedProducers + rs.deadProducers != 0) {
        outcome.fail(rs.fencedProducers + rs.deadProducers,
                     "ingest: producers fenced by the watchdog (traced chain)");
      }
    }
    if (dropped != 0) outcome.fail(dropped, "ingest: sink drops (traced chain)");
    std::vector<std::string> chainBases;
    for (const auto& c : chain.tenants) chainBases.push_back(chain.dirs.out + "/" + c->name + ".g1");
    LayerValues tracedLayers;
    checkPhase(traced, *chain.mix, chain.segments, chainBases, outcome, check,
               tracedLayers);

    auto agg = Spans::aggregate();
    const Spans::Aggregate& harvest = agg["core.harvest"];
    const Spans::Aggregate& batch = agg["core.batch"];
    const Spans::Aggregate& tap = agg["streaming.tap"];
    const Spans::Aggregate& write = agg["core.write"];
    const Spans::Aggregate& snap = agg["streaming.snapshot"];
    auto per = [](double num, double den) { return den == 0 ? 0 : num / den; };
    LayerValues& l = outcome.layers;
    l["core.harvest_ns_per_buffer"] = per(harvest.selfNs, static_cast<double>(buffers));
    l["core.harvest_buffers_per_poll"] =
        per(static_cast<double>(buffers), static_cast<double>(harvest.count));
    l["core.batch_block_share"] = per(batch.totalNs, harvest.totalNs);
    l["core.batch_records_per_flush"] =
        per(static_cast<double>(tapRecords), static_cast<double>(flushes));
    l["streaming.tap_ns_per_event"] = per(tap.selfNs, static_cast<double>(tapEvents));
    // On ingest the folds run inside the tap: its self time is theirs.
    l["streaming.fold_ns_per_event"] = l["streaming.tap_ns_per_event"];
    l["streaming.tap_busy_share"] = per(tap.totalNs, traced.wallS * 1e9 * kTenants);
    l["streaming.snapshot_ms"] = median(snap.durationsNs) * 1e-6;
    l["core.write_ns_per_byte"] = per(write.selfNs, static_cast<double>(bytes));
    l["core.write_io_share"] = per(write.totalNs - write.selfNs, write.totalNs);
    l["core.write_bytes_per_event"] =
        per(static_cast<double>(bytes), static_cast<double>(traced.events));
    outcome.endToEnd = traced.e;
    outcome.endToEnd.setupS = tracedSetupS;
    Spans::write(args.spansPath, 200'000);
    runCoreProbes(args, host, *chain.mix, outcome.layers);
  }
  outcome.layers.insert(untracedLayers.begin(), untracedLayers.end());
  outcome.layers["util.lz_ratio"] =
      check.lzBytes == 0 ? 0
                         : static_cast<double>(check.rawBytes) /
                               static_cast<double>(check.lzBytes);
  outcome.context["util.lz_ratio"] = outcome.layers["util.lz_ratio"];
  return finish(args, host, outcome);
}

}  // namespace pipebench
