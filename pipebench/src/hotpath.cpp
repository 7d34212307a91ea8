// hotpath: two pinned threads replay the mix, each on its own processor of
// one Facility with the shipped FacilityConfig defaults (flight-recorder
// mode, no consumer, commit counts and self-monitoring on). Only the
// logger works here.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "core/facility.hpp"
#include "core/flight_recorder.hpp"
#include "util/lz.hpp"
#include "workloads.hpp"

namespace pipebench {

namespace {

using namespace ktrace;

constexpr uint32_t kBatch = 256;        // trace statements per timing sample
constexpr uint32_t kBatchesPerSpan = 16;
constexpr size_t kTailEvents = 256;     // flight-recorder tail compared by the gate

struct HotState {
  std::unique_ptr<Mix> mix;
  std::unique_ptr<Facility> facility;
};

HotState setUp(const Args& args) {
  HotState s;
  {
    SpanScope span("setup.mix");
    s.mix = std::make_unique<Mix>(Mix::fromSdet(args.seed, mixScripts(args)));
  }
  SpanScope span("setup.facility");
  FacilityConfig config;
  config.numProcessors = 2;  // one per load thread; the rest as shipped
  s.facility = std::make_unique<Facility>(config);
  s.facility->mask().enableAll();
  return s;
}

// Cache-line aligned: the two threads' counters must not share a line.
struct alignas(64) Logger {
  uint64_t pos = 0;  // next replay position
  uint64_t events = 0;
  uint64_t refused = 0;
  WindowPercentiles windows;  // of the current phase
};

void logUntil(Facility& facility, const Mix& mix, uint32_t processor,
              uint64_t deadlineNs, std::atomic<int>& ready, Logger& out) {
  facility.bindCurrentThread(processor);
  ready.fetch_add(1);
  while (ready.load() < 2) {
  }
  uint64_t pos = out.pos;
  uint64_t refused = 0;
  for (;;) {
    SpanScope span("core.log");
    uint64_t t1 = 0;
    for (uint32_t b = 0; b < kBatchesPerSpan; ++b) {
      const uint64_t t0 = nowNs();
      for (uint32_t i = 0; i < kBatch; ++i) {
        const MixEvent& e = mix.at(pos++);
        if (!facility.logData(e.major, e.minor, mix.payload(e))) ++refused;
      }
      t1 = nowNs();
      out.windows.add(t1, static_cast<double>(t1 - t0) / kBatch);
    }
    if (t1 >= deadlineNs) break;
  }
  out.windows.finish();
  out.events += pos - out.pos;
  out.refused += refused;
  out.pos = pos;
  facility.unbindCurrentThread();
}

/// One timed phase: both threads log until `seconds` have passed while
/// this thread samples process CPU time at every window boundary. Every
/// figure but the peak is the median over the phase's windows.
EndToEnd timedPhase(HotState& s, const HostContext& host, double seconds,
                    Logger (&loggers)[2]) {
  const size_t windows = std::max<size_t>(
      1, static_cast<size_t>(seconds * 1e9) / kWindowNs);
  PeakRss rss;
  rss.start();
  std::atomic<int> ready{0};
  const uint64_t start = nowNs();
  const uint64_t deadline = start + windows * kWindowNs;
  for (Logger& l : loggers) l.windows = WindowPercentiles(start, windows);
  std::thread threads[2];
  for (uint32_t p = 0; p < 2; ++p) {
    threads[p] = std::thread([&, p] {
      pinCurrentThread(host.loadCpus[p]);
      logUntil(*s.facility, *s.mix, p, deadline, ready, loggers[p]);
    });
  }
  std::vector<uint64_t> cpuAt;  // process CPU at each window boundary
  for (size_t w = 0; w <= windows; ++w) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(start + w * kWindowNs)));
    cpuAt.push_back(processCpuNs());
  }
  for (std::thread& t : threads) t.join();

  std::vector<double> p50, p90, rate, cpu;
  for (const Logger& l : loggers) {
    p50.insert(p50.end(), l.windows.p50().begin(), l.windows.p50().end());
    p90.insert(p90.end(), l.windows.p90().begin(), l.windows.p90().end());
  }
  for (size_t w = 0; w < windows; ++w) {
    const uint64_t events =
        (loggers[0].windows.batches()[w] + loggers[1].windows.batches()[w]) * kBatch;
    if (events == 0) continue;
    rate.push_back(static_cast<double>(events) * 1e9 / kWindowNs);
    cpu.push_back(static_cast<double>(cpuAt[w + 1] - cpuAt[w]) /
                  static_cast<double>(events));
  }
  EndToEnd e;
  e.logNsP50 = median(p50);
  e.logNsP90 = median(p90);
  e.eventsPerS = median(rate);
  e.cpuNsPerEvent = median(cpu);
  e.peakRssMiB = rss.stop();
  return e;
}

/// Gate: nothing refused, and each processor's flight-recorder tail is the
/// tail of what its thread replayed. Counts the phase's logger calls.
void checkGate(const HotState& s, const Logger (&loggers)[2], Outcome& outcome) {
  for (uint32_t p = 0; p < 2; ++p) {
    const Logger& l = loggers[p];
    outcome.attempted += l.events;
    if (l.refused != 0) {
      outcome.fail(l.refused, "hotpath: logger refused events on processor " +
                                  std::to_string(p));
    }
    FlightRecorderOptions options;
    options.maxEvents = kTailEvents;
    const std::vector<DecodedEvent> tail =
        flightRecorderSnapshot(s.facility->control(p), options);
    uint64_t mismatched = tail.size() == kTailEvents ? 0 : kTailEvents;
    for (size_t i = 0; i < tail.size() && mismatched == 0; ++i) {
      const DecodedEvent& e = tail[i];
      const uint64_t pos = l.pos - tail.size() + i;
      if (!s.mix->matches(pos, e.header.major, e.header.minor,
                          {e.data.data(), e.data.size()})) {
        mismatched = tail.size() - i;
      }
    }
    if (mismatched != 0) {
      outcome.fail(mismatched, "hotpath: flight-recorder tail of processor " +
                                   std::to_string(p) +
                                   " differs from the replayed mix");
    }
  }
}

}  // namespace

int runHotpath(const Args& args, const HostContext& host) {
  Outcome outcome;
  HotState s = repeatSetup(args, outcome, [&] { return setUp(args); });
  recordInput(*s.mix, outcome);

  Logger loggers[2];
  auto resetLoggers = [&] {
    for (uint32_t p = 0; p < 2; ++p) {
      loggers[p] = Logger{};
      loggers[p].pos = replayOffset(args.seed, p, s.mix->size());
    }
  };
  resetLoggers();
  const double setupS = outcome.endToEnd.setupS;
  if (args.trace) {
    // Untraced half on the untraced set-up, traced half on a traced one.
    outcome.untraced = timedPhase(s, host, args.seconds / 2, loggers);
    outcome.untraced.setupS = setupS;
    checkGate(s, loggers, outcome);
    s = tracedSetup(outcome, [&] { return setUp(args); });
    const double tracedSetupS = outcome.endToEnd.setupS;
    resetLoggers();
    Spans::setEnabled(true);
    outcome.endToEnd = timedPhase(s, host, args.seconds / 2, loggers);
    Spans::setEnabled(false);
    outcome.endToEnd.setupS = tracedSetupS;
  } else {
    outcome.endToEnd = timedPhase(s, host, args.seconds, loggers);
    outcome.endToEnd.setupS = setupS;
  }
  if (args.damage) {
    // Flip bits in the newest word of processor 0's ring: the tail the
    // flight recorder returns no longer matches what was logged.
    TraceControl& c = s.facility->control(0);
    const uint64_t last = c.currentIndex() - 1;
    c.storeWord(last, c.loadWord(last) ^ 0x00ff00ff00ff00ffull);
  }
  checkGate(s, loggers, outcome);
  const uint64_t events = loggers[0].events + loggers[1].events;

  if (args.trace) {
    uint64_t slowPath = 0;
    uint64_t filler = 0;
    uint64_t words = 0;
    size_t raw = 0;
    size_t packed = 0;
    for (uint32_t p = 0; p < 2; ++p) {
      const TraceControl& c = s.facility->control(p);
      slowPath += c.slowPathEntries();
      filler += c.fillerWordsWritten();
      words += c.currentIndex();
      const size_t bytes = c.regionWords() * sizeof(uint64_t);
      std::vector<unsigned char> out(util::lzCompressBound(bytes));
      raw += bytes;
      packed += util::lzCompress(c.regionData(), bytes, out.data(), out.size());
    }
    outcome.layers["core.slow_path_per_kevent"] =
        1000.0 * static_cast<double>(slowPath) / static_cast<double>(events);
    outcome.layers["core.filler_share"] =
        static_cast<double>(filler) / static_cast<double>(words);
    outcome.layers["util.lz_ratio"] =
        packed == 0 ? 0 : static_cast<double>(raw) / static_cast<double>(packed);
    Spans::write(args.spansPath, 200'000);
    runCoreProbes(args, host, *s.mix, outcome.layers);
  }
  return finish(args, host, outcome);
}

}  // namespace pipebench
