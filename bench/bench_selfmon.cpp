// BENCH_selfmon — cost of self-monitoring (DESIGN.md §8).
//
// The monitoring counters sit on the logging hot path, so their cost is
// the whole design's budget: a counter update is two relaxed load/store
// pairs (no locked RMW), and the acceptance bar is <= 5 ns/event. This
// bench logs the same event stream through two otherwise-identical
// facilities — self-monitoring on vs off — and reports the delta, plus
// the cost of a full MonitorSnapshot read and of one heartbeat event.
//
// It also measures the lease-heartbeat refresh (DESIGN.md §10): a shared
// session producer pays one extra relaxed store per buffer crossing, so
// the per-event delta between a heartbeat-bound accessor and a plain one
// over the same segment should be within noise. The plain shm accessor
// against the in-process facility (both monitoring on) is the cost of
// logging into a MAP_SHARED block with the same code.
//
// Emits JSON (stdout, and --out=FILE) alongside the human-readable table:
//   bench_selfmon [--out=BENCH_selfmon.json]
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_json.hpp"
#include "core/ktrace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace ktrace;

namespace {

double nowNs() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

std::unique_ptr<Facility> makeFacility(bool selfMonitoring) {
  FacilityConfig cfg;
  cfg.numProcessors = 1;
  cfg.bufferWords = 1u << 14;
  cfg.buffersPerProcessor = 8;  // flight recorder: wraps freely
  cfg.selfMonitoring = selfMonitoring;
  auto facility = std::make_unique<Facility>(cfg);
  facility->mask().enableAll();
  facility->bindCurrentThread(0);
  return facility;
}

double logLoopNsPerEvent(Facility& facility, uint64_t iters) {
  TraceControl& control = facility.control(0);
  const double start = nowNs();
  for (uint64_t i = 0; i < iters; ++i) {
    logEvent(control, Major::Test, 0, i, i ^ 0x5a5a);
  }
  return (nowNs() - start) / static_cast<double>(iters);
}

double shmLoopNsPerEvent(ShmTraceControl& control, uint64_t iters) {
  const double start = nowNs();
  for (uint64_t i = 0; i < iters; ++i) {
    control.logEvent(Major::Test, 0, i, i ^ 0x5a5a);
  }
  return (nowNs() - start) / static_cast<double>(iters);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const std::string out = cli.getString("out", "");
  constexpr uint64_t kIters = 4'000'000;
  constexpr int kReps = 7;

  auto on = makeFacility(true);
  auto off = makeFacility(false);

  // Warm up both paths, then take the minimum of interleaved repetitions
  // (the least-disturbed run) to damp scheduler and frequency noise.
  logLoopNsPerEvent(*off, kIters / 8);
  logLoopNsPerEvent(*on, kIters / 8);
  double offNs = 1e30, onNs = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    offNs = std::min(offNs, logLoopNsPerEvent(*off, kIters));
    onNs = std::min(onNs, logLoopNsPerEvent(*on, kIters));
  }
  const double overhead = onNs - offNs;

  // Snapshot cost: a full lock-free counter read (monitoring tools pay
  // this, the loggers never do).
  Monitor monitor(*on, nullptr, Monitor::Config{.emitHeartbeats = false});
  constexpr int kSnapshots = 100'000;
  const double snapStart = nowNs();
  uint64_t sink = 0;
  for (int i = 0; i < kSnapshots; ++i) sink += monitor.snapshot().totals().eventsLogged;
  const double snapshotNs = (nowNs() - snapStart) / kSnapshots;

  // Heartbeat cost: one counter read + one 19-word event.
  constexpr int kBeats = 100'000;
  const double beatStart = nowNs();
  for (int i = 0; i < kBeats; ++i) {
    logMonitorHeartbeat(on->control(0), static_cast<uint64_t>(i), nullptr);
  }
  const double heartbeatNs = (nowNs() - beatStart) / kBeats;

  // Lease-heartbeat refresh cost: two processors in one shared session,
  // identical geometry, one accessor heartbeat-bound (producerControl) and
  // one plain (control). The refresh is a single relaxed store amortized
  // over a whole buffer of events, so the delta should be noise.
  const std::string sessionPath =
      util::strprintf("/tmp/ktrace_bench_lease_%d.shm", getpid());
  ShmSession::Config shmCfg;
  shmCfg.numProcessors = 2;
  shmCfg.bufferWords = 1u << 14;
  shmCfg.numBuffers = 8;  // wraps freely, flight-recorder style
  ShmSession session =
      ShmSession::create(sessionPath, shmCfg, defaultClockRef(ClockKind::Tsc));
  const int leaseIdx = session.acquireLease(
      static_cast<uint64_t>(getpid()), /*firstProcessor=*/1, /*endProcessor=*/2);
  ShmTraceControl plainCtl = session.control(0);
  ShmTraceControl leasedCtl =
      session.producerControl(1, static_cast<uint32_t>(leaseIdx));
  shmLoopNsPerEvent(plainCtl, kIters / 8);
  shmLoopNsPerEvent(leasedCtl, kIters / 8);
  double plainNs = 1e30, leasedNs = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    plainNs = std::min(plainNs, shmLoopNsPerEvent(plainCtl, kIters));
    leasedNs = std::min(leasedNs, shmLoopNsPerEvent(leasedCtl, kIters));
  }
  const double leaseOverhead = leasedNs - plainNs;
  const double shmGap = plainNs - onNs;
  session.releaseLease(static_cast<uint32_t>(leaseIdx));
  std::remove(sessionPath.c_str());

  const bool pass = overhead <= 5.0;
  std::printf("=== self-monitoring cost (%llu events/rep, min of %d reps) ===\n\n",
              static_cast<unsigned long long>(kIters), kReps);
  util::TextTable table;
  table.addColumn("configuration");
  table.addColumn("ns/event", util::Align::Right);
  table.addRow({"monitoring off", util::strprintf("%.2f", offNs)});
  table.addRow({"monitoring on", util::strprintf("%.2f", onNs)});
  table.addRow({"counter overhead", util::strprintf("%.2f", overhead)});
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nsnapshot:  %.1f ns (full counter read, off the hot path)\n",
              snapshotNs);
  std::printf("heartbeat: %.1f ns (counter read + 19-word event)\n", heartbeatNs);
  std::printf(
      "lease heartbeat: %.2f ns/event (shm leased %.2f vs plain %.2f — one "
      "relaxed store per buffer crossing)\n",
      leaseOverhead, leasedNs, plainNs);
  std::printf("shm vs in-process: %+.2f ns/event (same accessor, MAP_SHARED "
              "block)\n",
              shmGap);
  std::printf("acceptance: overhead %.2f ns/event <= 5 ns/event: %s\n", overhead,
              pass ? "PASS" : "FAIL");
  (void)sink;

  bench::writeBenchJson(
      bench::JsonObject()
          .add("bench", "selfmon")
          .add("host_threads", util::ThreadPool::hardwareThreads())
          .add("events_per_rep", kIters)
          .add("reps", kReps)
          .add("ns_per_event_monitoring_off", offNs, 3)
          .add("ns_per_event_monitoring_on", onNs, 3)
          .add("counter_overhead_ns_per_event", overhead, 3)
          .add("snapshot_ns", snapshotNs, 1)
          .add("heartbeat_ns", heartbeatNs, 1)
          .add("ns_per_event_shm_plain", plainNs, 3)
          .add("ns_per_event_shm_leased", leasedNs, 3)
          .add("lease_heartbeat_overhead_ns_per_event", leaseOverhead, 3)
          .add("shm_minus_inprocess_ns_per_event", shmGap, 3)
          .add("acceptance_limit_ns", 5.0, 1)
          .add("pass", pass),
      out);
  return 0;
}
