// BENCH — ktraced multi-tenant drain: tenants × scheduler-threads sweep,
// with the live tap as ktraced ships it and without.
//
// The daemon shares a fixed WatchdogScheduler pool across every admitted
// tenant (DESIGN.md §11), and by default runs the live analysis tap
// (DESIGN.md §13) on each tenant's writer thread: 100 ms windows and the
// default derived monitors. Each run pre-fills T single-processor
// segments with the same fixed event mix — a third of it lock contention
// (start / acquire / release), so the tap's ordered plane runs — then
// starts a TraceDaemon with S scheduler threads and times discovery ->
// admission -> full drain (every tenant reporting an empty ring and an
// empty writer queue).
// Throughput is the buffer bytes moved off the rings per second of daemon
// wall time. Every configuration runs with the tap on (the shipped
// default) and off, back to back, `reps` times; the table reports the
// median and the spread (min..max) of each mode, and the median of the
// reps' on/off ratios — a drift in host load between reps cancels in
// each ratio.
//
// The process is pinned to the first CPUs it may run on (every daemon
// thread inherits the mask): kSweepCpus for the sweep — its widest
// scheduler pool, so a larger host runs it as the 4-CPU reference host
// does, where that is every CPU — and kQuickCpus for the quick check,
// one per busy daemon thread (the harvesting scheduler thread and the
// tenant's writer thread), where its ratios spread less than at 4 CPUs
// on the reference host. An effective-parallelism probe
// — one pinned spinner per CPU against one alone — reports how many of
// those CPUs the host really gives. Sessions and output go to a tmpfs
// (/dev/shm) when the host has one with room for them, so both modes are
// bound by the daemon's CPU work rather than by the host's storage. Emits JSON
// (stdout, and --out=FILE) for the BENCH trajectory.
//
//   bench_daemon_tenants [--events=500000] [--buffer-words=256]
//                        [--buffers=0 (sized to the pre-fill)] [--reps=3]
//                        [--out=BENCH_daemon.json]
//   bench_daemon_tenants --quick
//
// --quick is the CI check: 1 tenant of 6 M events on 1 scheduler thread,
// tap on and off back to back, and exit status 1 when the median on/off
// drain-rate ratio falls below kMinRatio. kMinRatio is a floor below the
// lowest ratio seen over repeated quick runs on the reference host, so it
// trips on a real regression of the tap, not on noise.
#include <linux/magic.h>
#include <pthread.h>
#include <sched.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "analysis/streaming/monitors.hpp"
#include "core/shm_session.hpp"
#include "daemon/daemon.hpp"
#include "ossim/events.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace ktrace;
using namespace ktrace::daemon;

namespace {

// The quick check's floor on the tap-on / tap-off drain-rate ratio at 1
// tenant. Set on a shared 4-vCPU Xeon: 20 quick runs of this tap read
// 0.428–0.510, the tap that copied and merged every event 0.331–0.383
// (10 runs).
constexpr double kMinRatio = 0.39;

// The sweep's tenant counts.
constexpr uint32_t kSweepTenants[] = {1, 2, 4, 8};

// The CPUs the process is pinned to.
constexpr uint32_t kSweepCpus = 4;
constexpr uint32_t kQuickCpus = 2;

struct Config {
  uint64_t events = 500'000;  // per tenant
  uint32_t bufferWords = 256;
  uint32_t buffers = 0;  // 0: the power of two (>= 4096) that holds the pre-fill
  int reps = 3;
  bool quick = false;
  std::string out;
};

// One cycle of the pre-filled mix: nine events, three of them lock
// contention on a rotating (lock, pid) pair, 27 words in all.
constexpr uint32_t kMixEvents = 9;
constexpr uint32_t kMixWords = 27;
constexpr double kLockShare = 3.0 / kMixEvents;

bool logMixEvent(ShmTraceControl& p, uint64_t i) {
  const uint64_t lock = i / kMixEvents % 16;
  const uint64_t pid = i / kMixEvents % 7;
  using ossim::LockMinor;
  switch (i % kMixEvents) {
    case 0:
      return p.logEvent(Major::Lock, static_cast<uint16_t>(LockMinor::ContendStart),
                        lock, pid, uint64_t{1}, 0x4000 + lock);
    case 1: return p.logEvent(Major::Test, 1, i);
    case 2:
      return p.logEvent(Major::Lock, static_cast<uint16_t>(LockMinor::Acquired),
                        lock, pid, i % 5);
    case 3: return p.logEvent(Major::App, 2, i, pid);
    case 4:
      return p.logEvent(Major::Lock, static_cast<uint16_t>(LockMinor::Release),
                        lock, pid);
    case 5:
      return p.logEvent(Major::Prof, static_cast<uint16_t>(ossim::ProfMinor::PcSample),
                        pid, 0x1000 + i % 64);
    case 6: return p.logEvent(Major::Test, 2, i);
    case 7: return p.logEvent(Major::App, 3, i, lock);
    default: return p.logEvent(Major::Test, 3, i);
  }
}

/// Fills one single-processor segment with `events` events of the mix and
/// releases the lease, so the daemon sees a quiescent tenant with a full
/// backlog.
void fillSegment(const std::string& path, const Config& cfg) {
  ShmSession::Config scfg;
  scfg.numProcessors = 1;
  scfg.bufferWords = cfg.bufferWords;
  scfg.numBuffers = cfg.buffers;
  FakeClock clock(1'000, 3);
  ShmSession session = ShmSession::create(path, scfg, clock.ref());
  const int lease = session.acquireLease(::getpid(), 0, 1);
  if (lease < 0) throw std::runtime_error("bench: lease acquisition failed");
  ShmTraceControl producer =
      session.producerControl(0, static_cast<uint32_t>(lease));
  for (uint64_t i = 0; i < cfg.events; ++i) {
    if (!logMixEvent(producer, i)) {
      throw std::runtime_error("bench: ring overflowed during pre-fill");
    }
  }
  producer.flushCurrentBuffer();
  session.releaseLease(static_cast<uint32_t>(lease));
}

struct Run {
  double seconds = 0;
  uint64_t buffers = 0;  // ring buffers drained into tenant sinks
  double mbPerS = 0;
};

Run runOne(const Config& cfg, uint32_t tenants, uint32_t threads, bool tap,
           const std::filesystem::path& dir) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  fs::create_directories(dir / "sessions");
  fs::create_directories(dir / "out");
  for (uint32_t t = 0; t < tenants; ++t) {
    fillSegment((dir / "sessions" / ("tenant" + std::to_string(t) + ".kses"))
                    .string(),
                cfg);
  }

  DaemonConfig dcfg;
  dcfg.sessionDir = (dir / "sessions").string();
  dcfg.outputDir = (dir / "out").string();
  dcfg.scanInterval = std::chrono::milliseconds{2};
  dcfg.pollInterval = std::chrono::microseconds{200};
  dcfg.schedulerThreads = threads;
  if (tap) {  // as ktraced ships: --window-ms=100, no --monitors file
    dcfg.analysisWindow = std::chrono::milliseconds{100};
    dcfg.monitors = analysis::streaming::defaultMonitors();
  }

  Run run;
  const auto t0 = std::chrono::steady_clock::now();
  TraceDaemon daemon(dcfg);
  daemon.start();
  const auto deadline = t0 + std::chrono::seconds{60};
  for (;;) {
    const std::vector<TenantStatus> statuses = daemon.tenantStatuses();
    uint32_t drained = 0;
    for (const TenantStatus& s : statuses) {
      if (s.state == TenantState::Active && !s.pendingData &&
          s.sink.queuedRecords == 0) {
        ++drained;
      }
    }
    if (drained == tenants) {
      run.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
      for (const TenantStatus& s : statuses) run.buffers += s.sink.recordsAccepted;
      break;
    }
    if (std::chrono::steady_clock::now() > deadline) {
      throw std::runtime_error("bench: fleet did not drain within 60s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds{200});
  }
  daemon.stop();
  const double bytes =
      static_cast<double>(run.buffers) * cfg.bufferWords * sizeof(uint64_t);
  run.mbPerS = bytes / (1024.0 * 1024.0) / run.seconds;
  fs::remove_all(dir);
  return run;
}

struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

Spread spreadOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const double median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  return {median, v.front(), v.back()};
}

struct Row {
  uint32_t tenants = 0;
  uint32_t threads = 0;
  uint64_t buffers = 0;
  Spread tapOn;
  Spread tapOff;
  double ratio = 0;  // median over reps of the rep's tap-on / tap-off
};

Row measure(const Config& cfg, uint32_t tenants, uint32_t threads,
            const std::filesystem::path& dir) {
  Row row;
  row.tenants = tenants;
  row.threads = threads;
  std::vector<double> on;
  std::vector<double> off;
  std::vector<double> ratios;
  for (int rep = 0; rep < cfg.reps; ++rep) {
    // Alternate the order too, so neither mode always runs on a warmer
    // page cache.
    for (const bool tap : {rep % 2 == 0, rep % 2 != 0}) {
      const Run r = runOne(cfg, tenants, threads, tap, dir);
      (tap ? on : off).push_back(r.mbPerS);
      row.buffers = r.buffers;
    }
    ratios.push_back(on.back() / off.back());
  }
  row.tapOn = spreadOf(on);
  row.tapOff = spreadOf(off);
  row.ratio = spreadOf(ratios).median;
  return row;
}

/// Pins the process — every thread created from here on inherits it — to
/// the first `count` CPUs it may run on; returns them.
std::vector<int> pinProcess(uint32_t count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < count; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) return cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
  return cpus;
}

uint64_t spin(uint64_t iterations) {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint64_t i = 0; i < iterations; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  return x;
}

/// How many of `cpus` the host really runs at once: one spinner per CPU,
/// each pinned, against one spinner alone (1.0 per CPU on an idle host).
/// The lone spinner's time is its fastest of three, so a first run on a
/// cold, slowly clocked CPU does not inflate the figure.
double effectiveParallelism(const std::vector<int>& cpus) {
  constexpr uint64_t kWork = 40'000'000;
  std::atomic<uint64_t> sink{0};
  double one = 0;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    sink += spin(kWork);
    const double t =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (i == 0 || t < one) one = t;
  }
  std::vector<std::thread> pool;
  const auto t1 = std::chrono::steady_clock::now();
  for (const int cpu : cpus) {
    pool.emplace_back([&sink, cpu] {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
      sink += spin(kWork);
    });
  }
  for (std::thread& t : pool) t.join();
  const double all =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1).count();
  return all > 0 ? static_cast<double>(cpus.size()) * one / all : 0;
}

/// Where runs put their sessions and output: /dev/shm when it is a tmpfs
/// with `bytes` free (containers often mount a small one), the temp
/// directory otherwise.
std::filesystem::path scratchRoot(uint64_t bytes, bool& tmpfs) {
  struct statfs st {};
  tmpfs = ::statfs("/dev/shm", &st) == 0 && st.f_type == TMPFS_MAGIC &&
          static_cast<uint64_t>(st.f_bavail) * st.f_bsize >= bytes;
  return tmpfs ? std::filesystem::path("/dev/shm")
               : std::filesystem::temp_directory_path();
}

bench::JsonObject spreadJson(const Spread& s) {
  return bench::JsonObject().add("median", s.median, 1).add("min", s.min, 1).add("max", s.max, 1);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  Config cfg;
  cfg.quick = cli.getBool("quick", false);
  // The quick check's drains run a few hundred ms each (6 M events, 140
  // MiB of ring), so scheduling noise is small next to them.
  cfg.events = static_cast<uint64_t>(cli.getInt("events", cfg.quick ? 6'000'000 : 500'000));
  cfg.bufferWords = static_cast<uint32_t>(cli.getInt("buffer-words", 256));
  cfg.buffers = static_cast<uint32_t>(cli.getInt("buffers", 0));
  cfg.reps = static_cast<int>(cli.getInt("reps", cfg.quick ? 9 : 3));
  cfg.out = cli.getString("out", "");
  if (cfg.reps < 1 || cfg.bufferWords < 32) {
    std::fprintf(stderr, "bench: --reps >= 1 and --buffer-words >= 32\n");
    return 2;
  }

  // The pre-fill must fit in the ring without lapping (no consumer runs
  // until the daemon comes up): size the ring to it, with slack for
  // anchors and filler at each buffer's tail.
  const uint64_t usableWords = cfg.bufferWords - 16;
  const uint64_t needed =
      (cfg.events * kMixWords / kMixEvents + usableWords - 1) / usableWords + 4;
  if (cfg.buffers == 0) {
    cfg.buffers = 4096;  // ring sizes are powers of two
    while (cfg.buffers < needed) cfg.buffers *= 2;
  } else if (cfg.buffers < needed) {
    std::fprintf(stderr, "bench: --buffers=%u cannot hold %llu events (need %llu)\n",
                 cfg.buffers, static_cast<unsigned long long>(cfg.events),
                 static_cast<unsigned long long>(needed));
    return 2;
  }

  const std::vector<int> cpus = pinProcess(cfg.quick ? kQuickCpus : kSweepCpus);
  const double parallelism = effectiveParallelism(cpus);
  // A run's files at most: each tenant's ring, and its output, which is
  // no larger.
  const uint32_t maxTenants = cfg.quick ? 1 : kSweepTenants[std::size(kSweepTenants) - 1];
  const uint64_t ringBytes = uint64_t{cfg.buffers} * cfg.bufferWords * sizeof(uint64_t);
  bool tmpfs = false;
  const std::filesystem::path dir =
      scratchRoot(2 * maxTenants * ringBytes, tmpfs) /
      ("ktrace_bench_daemon_" + std::to_string(::getpid()));

  std::vector<Row> rows;
  if (cfg.quick) {
    rows.push_back(measure(cfg, 1, 1, dir));
  } else {
    for (const uint32_t tenants : kSweepTenants) {
      for (const uint32_t threads : {1u, 2u, 4u}) {
        rows.push_back(measure(cfg, tenants, threads, dir));
      }
    }
  }

  util::TextTable table;
  table.addColumn("tenants", util::Align::Right);
  table.addColumn("threads", util::Align::Right);
  table.addColumn("buffers", util::Align::Right);
  table.addColumn("tap on MB/s", util::Align::Right);
  table.addColumn("(min..max)", util::Align::Right);
  table.addColumn("tap off MB/s", util::Align::Right);
  table.addColumn("(min..max)", util::Align::Right);
  table.addColumn("on/off", util::Align::Right);
  for (const Row& r : rows) {
    table.addRow({util::strprintf("%u", r.tenants), util::strprintf("%u", r.threads),
                  util::strprintf("%llu", static_cast<unsigned long long>(r.buffers)),
                  util::strprintf("%.0f", r.tapOn.median),
                  util::strprintf("%.0f..%.0f", r.tapOn.min, r.tapOn.max),
                  util::strprintf("%.0f", r.tapOff.median),
                  util::strprintf("%.0f..%.0f", r.tapOff.min, r.tapOff.max),
                  util::strprintf("%.2f", r.ratio)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\n%zu CPUs pinned, effective parallelism %.2f; %llu events per "
              "tenant (%.0f%% lock), %d reps per mode; files on %s\n",
              cpus.size(), parallelism, static_cast<unsigned long long>(cfg.events),
              100 * kLockShare, cfg.reps, tmpfs ? "tmpfs" : dir.parent_path().c_str());

  std::vector<bench::JsonObject> results;
  for (const Row& r : rows) {
    results.push_back(bench::JsonObject()
                          .add("tenants", r.tenants)
                          .add("threads", r.threads)
                          .add("buffers", r.buffers)
                          .add("tap_on_mb_per_s", spreadJson(r.tapOn))
                          .add("tap_off_mb_per_s", spreadJson(r.tapOff))
                          .add("on_off_ratio", r.ratio, 3));
  }
  bench::writeBenchJson(bench::JsonObject()
                            .add("bench", "daemon_tenants")
                            .add("host_threads", util::ThreadPool::hardwareThreads())
                            .add("pinned_cpus", cpus.size())
                            .add("effective_parallelism", parallelism, 2)
                            .add("quick", cfg.quick)
                            .add("events_per_tenant", cfg.events)
                            .add("lock_share", kLockShare, 3)
                            .add("buffer_bytes", cfg.bufferWords * 8)
                            .add("ring_buffers", cfg.buffers)
                            .add("tap", "100 ms windows, default monitors")
                            .add("files_on_tmpfs", tmpfs)
                            .add("reps", cfg.reps)
                            .add("results", results),
                        cfg.out);

  if (cfg.quick) {
    const double ratio = rows.front().ratio;
    if (ratio < kMinRatio) {
      std::fprintf(stderr,
                   "bench_daemon_tenants: FAIL — tap-on drain at %.3f x tap-off "
                   "(1 tenant), below the %.3f floor\n",
                   ratio, kMinRatio);
      return 1;
    }
    std::fprintf(stderr, "bench_daemon_tenants: tap-on drain at %.3f x tap-off "
                         "(1 tenant), floor %.3f\n",
                 ratio, kMinRatio);
  }
  return 0;
}
