// BENCH_streaming — streaming analysis throughput (DESIGN.md §13).
//
// The live tap sits on the daemon's drain path, so its cost per event is
// the budget that decides how much traffic a tenant can push before the
// analyzer, not the sink, becomes the bottleneck. This bench measures:
//
//   cursor      StreamCursor poll+merge+drain over closed v3 files —
//               decode included, the replay/tail ingest rate;
//   merge       a MergeCursor drain of the same files' TraceSet, decoded
//               once and untimed: the merge alone. SDET interleaves the
//               processors finely, so it is reported with its mean span
//               (events in a row from one processor in merged order) —
//               under 3 events, where a span merge pays the most per event.
//               A second row drains a 24-processor SDET trace, where a
//               merge that costs O(processors) per span would show;
//   tap         LiveAnalyzer::onBufferBatch over the same files' records,
//               8 per batch as ktraced's BatchingSink hands them over, in
//               two orders: interleaved across processors, and each
//               processor's whole backlog in turn (how SessionWatchdog
//               drains under backpressure);
//   engine 0/1/8  the full StreamEngine (both planes + the four shipped
//               folds) over an in-memory merged stream — a TraceSet's
//               events in MergeCursor order, kept as pointers and replayed
//               event by event — with 0, 1 and 8 derived monitors and a
//               snapshot every 64 Ki events: the rate as a function of
//               monitor count.
//
// Monitor evaluation is lazy (snapshot-time), so the 0->8 delta isolates
// exactly what a user's config costs. Prints a JSON object last; with
// --out=FILE it is written there too:
//   bench_streaming_fold [--quick] [--out=BENCH_streaming.json]
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "analysis/reader.hpp"
#include "analysis/streaming/engine.hpp"
#include "analysis/streaming/folds.hpp"
#include "analysis/streaming/live_analyzer.hpp"
#include "analysis/streaming/monitors.hpp"
#include "analysis/streaming/stream_cursor.hpp"
#include "analysis/symbols.hpp"
#include "bench_json.hpp"
#include "core/ktrace.hpp"
#include "ossim/machine.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workload/sdet.hpp"

using namespace ktrace;
namespace streaming = analysis::streaming;

namespace {

double nowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Eight monitors spanning every variable class (heartbeat per-processor
// sums, session-global words, window aggregates).
const char* kEightMonitors =
    "loss_ratio = lost / (logged + lost)\n"
    "bytes_per_event = bytes_written / events\n"
    "compression_ratio = raw_bytes / bytes_written\n"
    "drop_ratio = dropped / (logged + dropped)\n"
    "retry_rate = retries / window_seconds\n"
    "event_rate = window_events / window_seconds\n"
    "filler_share = filler_words / words_reserved\n"
    "backpressure_per_cpu = backpressure / processors\n";

struct EngineRun {
  size_t monitors = 0;
  double eventsPerSec = 0;
};

EngineRun runEngine(const std::vector<const DecodedEvent*>& events, uint64_t span,
                    uint32_t numProcessors, size_t replicas,
                    std::vector<streaming::DerivedMonitor> monitors) {
  EngineRun run;
  run.monitors = monitors.size();
  streaming::StreamEngineConfig cfg;
  cfg.ticksPerSecond = 1e9;
  cfg.windowTicks = streaming::windowTicksForMs(0.05, 1e9);
  streaming::StreamEngine engine(cfg, std::move(monitors));
  engine.addFold(std::make_unique<streaming::LockContentionFold>());
  engine.addFold(std::make_unique<streaming::EventRateFold>(numProcessors));
  engine.addFold(std::make_unique<streaming::ProfileFold>());
  engine.addFold(std::make_unique<streaming::CompletenessFold>());

  constexpr uint64_t kSnapshotEvery = 64 * 1024;
  uint64_t sinceSnapshot = 0;
  size_t snapshotBytes = 0;
  const double start = nowNs();
  for (size_t r = 0; r < replicas; ++r) {
    for (const DecodedEvent* p : events) {
      // Each pass shifts the replica forward by the stream's span, so the
      // engine sees one long monotonically advancing session: a view of
      // the event, its payload still the TraceSet's.
      const DecodedEvent e(p->header, p->data.data(), p->data.size(),
                           p->fullTimestamp + (r + 1) * span, p->bufferSeq,
                           p->offsetInBuffer, p->processor);
      engine.observe(e);
      engine.onOrdered(e);
      if (++sinceSnapshot == kSnapshotEvery) {
        sinceSnapshot = 0;
        snapshotBytes += engine.snapshotJson("bench").size();
      }
    }
  }
  engine.finish();
  snapshotBytes += engine.snapshotJson("bench").size();
  const double elapsed = nowNs() - start;
  const double total = static_cast<double>(events.size() * replicas);
  run.eventsPerSec = total * 1e9 / elapsed;
  std::printf(
      "engine, %zu monitor(s): %.2f M events/s (%llu windows, %zu KiB of "
      "snapshots)\n",
      run.monitors, run.eventsPerSec / 1e6,
      static_cast<unsigned long long>(engine.windowsCompleted()),
      snapshotBytes / 1024);
  return run;
}

/// Events/s of `passes` fresh LiveAnalyzers, each fed every record in
/// `order` in batches of 8 and finished.
double runTap(const std::vector<const BufferRecord*>& order,
              uint32_t numProcessors, size_t passes) {
  streaming::StreamEngineConfig cfg;
  cfg.ticksPerSecond = 1e9;
  cfg.windowTicks = streaming::windowTicksForMs(0.05, 1e9);
  constexpr size_t kBatch = 8;
  NullSink null;
  uint64_t events = 0;
  double elapsed = 0;
  for (size_t pass = 0; pass < passes; ++pass) {
    streaming::LiveAnalyzer tap(null, numProcessors, cfg,
                                streaming::defaultMonitors());
    // Copying the records is setup, not tap work: batches are built
    // outside the timed region.
    std::vector<std::vector<BufferRecord>> batches;
    for (size_t i = 0; i < order.size(); i += kBatch) {
      std::vector<BufferRecord>& batch = batches.emplace_back();
      for (size_t k = i; k < std::min(order.size(), i + kBatch); ++k) {
        batch.push_back(*order[k]);
      }
    }
    const double start = nowNs();
    for (std::vector<BufferRecord>& b : batches) {
      tap.onBufferBatch(std::move(b));
    }
    tap.finish();
    elapsed += nowNs() - start;
    events += tap.eventsObserved();
  }
  return elapsed > 0 ? static_cast<double>(events) * 1e9 / elapsed : 0;
}

constexpr uint32_t kBufferWords = 256;

/// Runs SDET on `processors` simulated processors and writes one trace
/// file per processor into `dir`; returns their paths. Buffers of 256
/// words: the shipped producer's segment geometry (tools/kses_smoke.cpp
/// `create`), so a tap run is as long as a live one.
std::vector<std::string> recordSdet(const std::string& dir, const std::string& name,
                                    uint32_t processors, uint32_t buffersPerProcessor,
                                    uint32_t scripts) {
  FacilityConfig fcfg;
  fcfg.numProcessors = processors;
  fcfg.bufferWords = kBufferWords;
  fcfg.buffersPerProcessor = buffersPerProcessor;
  fcfg.mode = Mode::Stream;
  Facility facility(fcfg);
  facility.mask().enableAll();
  TraceFileMeta meta;
  meta.numProcessors = processors;
  meta.bufferWords = kBufferWords;
  meta.clockKind = ClockKind::Virtual;
  meta.ticksPerSecond = 1e9;
  FileSink files(dir, name, meta);
  Consumer consumer(facility, files, {});
  ossim::MachineConfig mcfg;
  mcfg.numProcessors = processors;
  mcfg.monitorHeartbeatIntervalNs = 10'000;
  ossim::Machine machine(mcfg, &facility);
  analysis::SymbolTable symbols;
  workload::SdetConfig scfg;
  scfg.numScripts = scripts;
  scfg.commandsPerScript = 6;
  workload::SdetWorkload sdet(scfg, machine, symbols);
  sdet.spawnAll();
  machine.run();
  facility.flushAll();
  consumer.drainNow();
  files.flush();
  std::vector<std::string> paths;
  for (uint32_t p = 0; p < processors; ++p) paths.push_back(files.pathFor(p));
  return paths;
}

struct MergeRun {
  uint32_t processors = 0;
  double eventsPerSec = 0;
  double meanSpan = 0;  // events in a row from one processor, merged order
};

/// MergeCursor drains over `trace`, decoded once, repeated to about
/// `target` events.
MergeRun runMerge(const analysis::TraceSet& trace, uint64_t target) {
  MergeRun run;
  run.processors = trace.numProcessors();
  uint64_t events = 0;
  uint64_t spans = 0;
  double elapsed = 0;
  while (events < target && trace.totalEvents() != 0) {
    const double start = nowNs();
    analysis::MergeCursor cursor(trace);
    uint32_t last = UINT32_MAX;
    while (const DecodedEvent* e = cursor.next()) {
      spans += e->processor != last;
      last = e->processor;
      ++events;
    }
    elapsed += nowNs() - start;
  }
  run.eventsPerSec = elapsed > 0 ? static_cast<double>(events) * 1e9 / elapsed : 0;
  run.meanSpan = spans > 0 ? static_cast<double>(events) / static_cast<double>(spans) : 0;
  std::printf("merge, %u processors: %.2f M events/s (MergeCursor over a "
              "decoded TraceSet of %zu events; mean span %.2f events)\n",
              run.processors, run.eventsPerSec / 1e6, trace.totalEvents(),
              run.meanSpan);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool quick = cli.getBool("quick", false);
  const std::string out = cli.getString("out", "");

  // One SDET run gives the realistic event mix (locks, syscalls, pc
  // samples, heartbeats); replicas stretch it to benchmark length.
  const std::string dir =
      util::strprintf("/tmp/ktrace_bench_streaming_%d", getpid());
  std::filesystem::create_directories(dir);
  const std::vector<std::string> paths = recordSdet(dir, "bench", 2, 4096, 16);

  const uint64_t target = quick ? 200'000 : 2'000'000;

  // Baseline: full replay ingest (open + decode + ordered merge), on one
  // thread, repeated to about `target` events.
  uint64_t baseEvents = 0;
  uint64_t cursorEvents = 0;
  double cursorNs = 0;
  while (cursorEvents < target) {
    const double start = nowNs();
    streaming::StreamCursor cursor(paths);
    cursor.finish();
    uint64_t n = 0;
    while (cursor.next() != nullptr) ++n;
    cursorNs += nowNs() - start;
    baseEvents = n;
    cursorEvents += n;
    if (n == 0) break;
  }
  const double cursorEventsPerSec =
      cursorNs > 0 ? static_cast<double>(cursorEvents) * 1e9 / cursorNs : 0;
  constexpr double kCursorTarget = 20e6;  // ROADMAP item 5
  std::printf(
      "cursor: %.2f M events/s (%llu events decoded + merged per pass; "
      "target %.0f M on one thread: %s)\n",
      cursorEventsPerSec / 1e6, static_cast<unsigned long long>(baseEvents),
      kCursorTarget / 1e6, cursorEventsPerSec >= kCursorTarget ? "met" : "not met");

  // The merge alone: a MergeCursor drained over a TraceSet decoded once,
  // at 2 and at 24 processors (a trace decoded and dropped before the
  // timed drains of the next).
  std::vector<MergeRun> merges;
  merges.push_back(runMerge(analysis::TraceSet::fromFiles(paths), target));
  merges.push_back(runMerge(
      analysis::TraceSet::fromFiles(recordSdet(dir, "wide", 24, 512, 48)), target));

  // The live tap over the same records, in both arrival orders.
  std::vector<std::vector<BufferRecord>> records(paths.size());
  for (size_t p = 0; p < paths.size(); ++p) {
    TraceFileReader reader(paths[p]);
    for (uint64_t k = 0; k < reader.bufferCount(); ++k) {
      BufferRecord r;
      if (reader.readBuffer(k, r)) records[p].push_back(std::move(r));
    }
  }
  std::vector<const BufferRecord*> interleaved;
  for (size_t k = 0;; ++k) {
    const size_t before = interleaved.size();
    for (const auto& lane : records) {
      if (k < lane.size()) interleaved.push_back(&lane[k]);
    }
    if (interleaved.size() == before) break;
  }
  std::vector<const BufferRecord*> backlog;
  for (const auto& lane : records) {
    for (const BufferRecord& r : lane) backlog.push_back(&r);
  }
  const size_t tapPasses =
      baseEvents == 0 ? 0 : static_cast<size_t>((target + baseEvents - 1) / baseEvents);
  const double tapInterleaved = runTap(interleaved, 2, tapPasses);
  const double tapBacklog = runTap(backlog, 2, tapPasses);
  std::printf("tap: %.2f M events/s interleaved, %.2f M events/s "
              "backlog-first (%zu records x %zu passes)\n",
              tapInterleaved / 1e6, tapBacklog / 1e6, interleaved.size(),
              tapPasses);

  // Merge once; engine passes replay the merged order over the events
  // the TraceSet keeps.
  const analysis::TraceSet trace = analysis::TraceSet::fromFiles(paths);
  std::vector<const DecodedEvent*> events;
  events.reserve(trace.totalEvents());
  uint64_t span = 0;
  {
    analysis::MergeCursor cursor(trace);
    while (const DecodedEvent* e = cursor.next()) {
      span = std::max(span, e->fullTimestamp + 1);
      events.push_back(e);
    }
  }
  const size_t replicas =
      events.empty() ? 0
                     : static_cast<size_t>((target + events.size() - 1) /
                                           events.size());
  std::printf("stream: %zu events x %zu replicas (window %.2f us)\n\n",
              events.size(), replicas,
              static_cast<double>(streaming::windowTicksForMs(0.05, 1e9)) /
                  1e3);

  std::vector<EngineRun> runs;
  runs.push_back(runEngine(events, span, 2, replicas, {}));
  runs.push_back(runEngine(events, span, 2, replicas,
                           streaming::parseMonitorConfig("loss_ratio = lost / "
                                                         "(logged + lost)\n")));
  runs.push_back(runEngine(events, span, 2, replicas,
                           streaming::parseMonitorConfig(kEightMonitors)));

  util::TextTable table;
  table.addColumn("configuration");
  table.addColumn("M events/s", util::Align::Right);
  table.addRow({"cursor (decode+merge)",
                util::strprintf("%.2f", cursorEventsPerSec / 1e6)});
  for (const MergeRun& run : merges) {
    table.addRow({util::strprintf("merge, %u cpus (mean span %.2f events)",
                                  run.processors, run.meanSpan),
                  util::strprintf("%.2f", run.eventsPerSec / 1e6)});
  }
  table.addRow({"tap, interleaved", util::strprintf("%.2f", tapInterleaved / 1e6)});
  table.addRow({"tap, backlog-first", util::strprintf("%.2f", tapBacklog / 1e6)});
  for (const EngineRun& run : runs) {
    table.addRow({util::strprintf("engine + folds, %zu monitors", run.monitors),
                  util::strprintf("%.2f", run.eventsPerSec / 1e6)});
  }
  std::printf("\n%s", table.render().c_str());

  bench::writeBenchJson(
      bench::JsonObject()
          .add("bench", "streaming")
          .add("host_threads", util::ThreadPool::hardwareThreads())
          .add("buffer_words", kBufferWords)
          .add("base_events", baseEvents)
          .add("replicas", replicas)
          .add("window_ms", 0.05, 2)
          .add("snapshot_every_events", 65536)
          .add("cursor_events_per_sec", cursorEventsPerSec, 0)
          .add("cursor_target_events_per_sec", kCursorTarget, 0)
          .add("cursor_meets_target", cursorEventsPerSec >= kCursorTarget)
          .add("merge_events_per_sec", merges[0].eventsPerSec, 0)
          .add("merge_mean_span_events", merges[0].meanSpan, 2)
          .add("merge_events_per_sec_cpus_24", merges[1].eventsPerSec, 0)
          .add("merge_mean_span_events_cpus_24", merges[1].meanSpan, 2)
          .add("tap_events_per_sec_interleaved", tapInterleaved, 0)
          .add("tap_events_per_sec_backlog_first", tapBacklog, 0)
          .add("engine_events_per_sec_monitors_0", runs[0].eventsPerSec, 0)
          .add("engine_events_per_sec_monitors_1", runs[1].eventsPerSec, 0)
          .add("engine_events_per_sec_monitors_8", runs[2].eventsPerSec, 0),
      out);

  std::filesystem::remove_all(dir);
  return 0;
}
