// analyze: the post-hoc reports. Set-up writes a deterministic file set
// (FakeClock, one logging thread, 2 tenants x 2 processors from the same
// event stream) through SessionWatchdog -> BatchingSink -> FileSink as the
// daemon writes it; tenant A raw, tenant B compressed. In the timed phase
// two workers, one per CPU of the run, each run the shipped CLI report set
// over each tenant with a fresh decode per report, as each ktracetool run
// pays.
#include <unistd.h>

#include <array>
#include <barrier>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "analysis/event_stats.hpp"
#include "analysis/lock_analysis.hpp"
#include "analysis/profile.hpp"
#include "analysis/reader.hpp"
#include "analysis/streaming/engine.hpp"
#include "analysis/streaming/folds.hpp"
#include "analysis/streaming/monitors.hpp"
#include "analysis/symbols.hpp"
#include "analysis/time_attribution.hpp"
#include "core/batching_sink.hpp"
#include "core/monitor.hpp"
#include "core/registry.hpp"
#include "core/shm_session.hpp"
#include "core/trace_file.hpp"
#include "ossim/events.hpp"
#include "workloads.hpp"

namespace pipebench {

namespace {

using namespace ktrace;
namespace fs = std::filesystem;
namespace streaming = ktrace::analysis::streaming;

constexpr uint32_t kProcessors = 2;
constexpr uint32_t kStint = 64;
constexpr uint32_t kBufferWords = 256;
constexpr uint32_t kNumBuffers = 512;

enum class Report { Top, Locks, Profile, Attrib, Stats };
constexpr Report kReports[] = {Report::Top, Report::Locks, Report::Profile,
                               Report::Attrib, Report::Stats};
const char* reportSpan(Report r) {
  switch (r) {
    case Report::Top: return "analysis.top";
    case Report::Locks: return "analysis.locks";
    case Report::Profile: return "analysis.profile";
    case Report::Attrib: return "analysis.attrib";
    case Report::Stats: return "analysis.stats";
  }
  return "";
}

uint64_t eventsPerTenant(const Args& args) {
  return args.smoke ? 2 * kStint * 160 : 2 * kStint * 3200;  // 20480 / 409600
}

struct Tenant {
  std::string name;
  bool compressed = false;
  std::vector<std::string> files;
  uint64_t bytesWritten = 0;
  uint64_t rawBytes = 0;
};

struct FileSet {
  std::unique_ptr<Mix> mix;
  std::string dir;
  Tenant tenants[2];
  uint64_t events = 0;  // per tenant
  std::array<uint64_t, kMaxMajors> perMajor{};
  std::vector<double> logBatchNs;  // set-up's trace statements, ns/event
  // Harvest, batching and write accounting of the set-up (both tenants).
  uint64_t buffers = 0;
  uint64_t polls = 0;
  uint64_t batchesFlushed = 0;
  uint64_t writeRecords = 0;
  uint64_t crossings = 0;
  uint64_t fillerWords = 0;
  uint64_t ringWords = 0;

  FileSet() = default;
  FileSet(FileSet&& other) noexcept { *this = std::move(other); }
  FileSet& operator=(FileSet&& other) noexcept {
    if (this == &other) return *this;
    if (!dir.empty()) fs::remove_all(dir);
    mix = std::move(other.mix);
    dir = std::exchange(other.dir, std::string());
    for (int t = 0; t < 2; ++t) tenants[t] = std::move(other.tenants[t]);
    events = other.events;
    perMajor = other.perMajor;
    logBatchNs = std::move(other.logBatchNs);
    buffers = other.buffers;
    polls = other.polls;
    batchesFlushed = other.batchesFlushed;
    writeRecords = other.writeRecords;
    crossings = other.crossings;
    fillerWords = other.fillerWords;
    ringWords = other.ringWords;
    return *this;
  }
  ~FileSet() {
    if (!dir.empty()) fs::remove_all(dir);
  }
};

/// Logs `set.events` replay events of the mix single-threaded into a fresh
/// segment and writes them as the daemon does. In a traced set-up a timing
/// decorator sits at each boundary and the files go through a timing
/// FileSystem. The logging runs pinned to the first load CPU and the sink
/// threads are started pinned to the second, so the file writer never
/// takes turns with the logger on one CPU.
void writeTenant(FileSet& set, Tenant& tenant, uint64_t offset,
                 const HostContext& host) {
  const Mix& mix = *set.mix;
  const bool timed = Spans::enabled();
  FakeClock clock(1'000'000, 1'000);  // 1 us per clock read at 1 GHz
  ShmSession::Config config;
  config.numProcessors = kProcessors;
  config.bufferWords = kBufferWords;
  config.numBuffers = kNumBuffers;
  config.maxProducers = kProcessors;
  config.clockKind = ClockKind::Fake;
  ShmSession session = ShmSession::create(set.dir + "/" + tenant.name + ".kses",
                                          config, clock.ref());
  TraceWriterOptions writerOptions;
  writerOptions.compress = tenant.compressed;
  TimingFileSystem timingFs;
  FileSink files(set.dir, tenant.name, session.fileMeta(0),
                 timed ? &timingFs : nullptr, writerOptions);
  TimingSink write("core.write", files);
  BatchingConfig batchingConfig;  // as ktraced ships it: 8 per batch, 64 queued, blocking
  batchingConfig.batchRecords = 8;
  batchingConfig.maxQueuedRecords = 64;
  batchingConfig.blockWhenFull = true;
  pinCurrentThread(host.loadCpus[1]);  // the sink threads inherit it
  BatchingSink batching(write, batchingConfig);
  TimingSink batch("core.batch", batching);
  SessionWatchdog::Config watchdogConfig;
  watchdogConfig.expiryTimeout = std::chrono::milliseconds(1000);
  SessionWatchdog watchdog(session, batch, watchdogConfig);
  auto poll = [&] {
    SpanScope span("core.harvest");
    watchdog.pollOnce();
  };

  const int lease = session.acquireLease(static_cast<uint64_t>(::getpid()), 0,
                                         kProcessors);
  if (lease < 0) throw std::runtime_error("analyze: lease acquisition failed");
  std::vector<ShmTraceControl> controls;
  for (uint32_t p = 0; p < kProcessors; ++p) {
    controls.push_back(session.producerControl(p, static_cast<uint32_t>(lease)));
  }
  // Before entering buffer `seq`, drain when it could lap an undrained one.
  auto makeRoom = [&](const ShmTraceControl& c, uint64_t seq) {
    if (seq + 1 >= c.buffersConsumed() + c.buffersLost() + c.numBuffers()) poll();
  };
  pinCurrentThread(host.loadCpus[0]);
  uint64_t pos = offset;
  const uint64_t stints = set.events / kStint;
  for (uint64_t stint = 0; stint < stints; ++stint) {
    ShmTraceControl& c = controls[stint % kProcessors];
    const uint64_t t0 = nowNs();
    uint64_t drainNs = 0;
    for (uint32_t i = 0; i < kStint; ++i) {
      const MixEvent& e = mix.at(pos++);
      const uint64_t index = c.currentIndex();
      const uint64_t at = index & (kBufferWords - 1);
      if (at == 0 || at + 1 + e.words > kBufferWords) {
        const uint64_t d0 = nowNs();
        makeRoom(c, index / kBufferWords + (at != 0 ? 1 : 0));
        drainNs += nowNs() - d0;
      }
      if (!c.logEventData(e.major, e.minor, mix.payload(e))) {
        throw std::runtime_error("analyze: logger refused an event at set-up");
      }
    }
    set.logBatchNs.push_back(static_cast<double>(nowNs() - t0 - drainNs) / kStint);
  }
  for (ShmTraceControl& c : controls) {
    const uint64_t index = c.currentIndex();
    if ((index & (kBufferWords - 1)) != 0) makeRoom(c, index / kBufferWords + 1);
    c.flushCurrentBuffer();
    set.crossings += c.currentBufferSeq();
    set.fillerWords += c.fillerWordsWritten();
    set.ringWords += c.currentIndex();
  }
  pinCurrentThread(host.benchCpus);
  poll();
  session.releaseLease(static_cast<uint32_t>(lease));
  batching.stop();
  batching.flushNow();
  if (!files.flush()) {
    throw std::runtime_error("analyze: writing " + tenant.name + ": " +
                             files.errorMessage());
  }
  fs::remove(set.dir + "/" + tenant.name + ".kses");
  set.buffers += batch.records();
  set.polls += watchdog.polls();
  set.batchesFlushed += batching.batchesFlushed();
  set.writeRecords += write.records();
  tenant.bytesWritten = files.bytesWritten();
  tenant.rawBytes = files.rawBytes();
  for (uint32_t p = 0; p < kProcessors; ++p) tenant.files.push_back(files.pathFor(p));
}

FileSet setUp(const Args& args, const HostContext& host, const std::string& tag) {
  FileSet set;
  {
    SpanScope span("setup.mix");
    set.mix = std::make_unique<Mix>(Mix::fromSdet(args.seed, mixScripts(args)));
  }
  set.dir = args.runDir + "/" + tag;
  fs::remove_all(set.dir);
  fs::create_directories(set.dir);
  set.events = eventsPerTenant(args);
  const uint64_t offset = replayOffset(args.seed, 0, set.mix->size());
  for (uint64_t i = 0; i < set.events; ++i) {
    ++set.perMajor[static_cast<uint32_t>(set.mix->at(offset + i).major)];
  }
  set.tenants[0].name = "tenantA";
  set.tenants[1].name = "tenantB";
  set.tenants[1].compressed = true;
  for (Tenant& tenant : set.tenants) writeTenant(set, tenant, offset, host);
  return set;
}

Registry& toolRegistry() {
  static Registry& registry = [] () -> Registry& {
    Registry& r = Registry::global();
    ossim::registerOssimEvents(r);
    return r;
  }();
  return registry;
}

/// The report `r` over `trace`, as tools/ktracetool.cpp (run(), the
/// top/locks/profile/attrib/stats branches) computes and prints it with
/// its default flags. `split` times the top report's merge and folds as
/// two spans.
std::string runReport(Report r, const analysis::TraceSet& trace,
                      const std::string& firstFile, bool split) {
  static const analysis::SymbolTable symbols;  // no symbol map loaded
  const double tps = trace.ticksPerSecond();
  char line[256];
  switch (r) {
    case Report::Top: {
      std::vector<const DecodedEvent*> merged;
      if (split) {
        SpanScope span("analysis.merge");
        analysis::MergeCursor cursor(trace);
        merged.reserve(trace.totalEvents());
        while (const DecodedEvent* e = cursor.next()) merged.push_back(e);
      }
      SpanScope span("streaming.fold");
      streaming::StreamEngineConfig config;
      config.ticksPerSecond = tps;
      config.windowTicks = streaming::windowTicksForMs(100, tps);
      streaming::StreamEngine engine(config, streaming::defaultMonitors());
      engine.addFold(std::make_unique<streaming::LockContentionFold>());
      engine.addFold(std::make_unique<streaming::EventRateFold>(trace.numProcessors()));
      engine.addFold(std::make_unique<streaming::ProfileFold>());
      engine.addFold(std::make_unique<streaming::CompletenessFold>());
      if (split) {
        for (const DecodedEvent* e : merged) {
          engine.observe(*e);
          engine.onOrdered(*e);
        }
      } else {
        analysis::MergeCursor cursor(trace);
        while (const DecodedEvent* e = cursor.next()) {
          engine.observe(*e);
          engine.onOrdered(*e);
        }
      }
      engine.finish();
      return engine.snapshotJson("trace");
    }
    case Report::Locks: {
      analysis::LockAnalysis la(trace);
      return la.report(symbols, tps, 10, analysis::LockSortKey::Time);
    }
    case Report::Profile: {
      analysis::Profile profile(trace);
      uint64_t pid = static_cast<uint64_t>(-1);
      uint64_t most = 0;
      for (const uint64_t candidate : profile.pids()) {
        if (profile.totalSamples(candidate) > most) {
          most = profile.totalSamples(candidate);
          pid = candidate;
        }
      }
      return profile.report(pid, symbols, firstFile, 20);
    }
    case Report::Attrib: {
      analysis::TimeAttribution ta(trace);
      std::string out;
      for (const uint64_t pid : ta.pids()) out += ta.report(pid, symbols, tps) + "\n";
      return out;
    }
    case Report::Stats: {
      analysis::EventStats stats(trace);
      std::string out = stats.report(toolRegistry(), tps, 20);
      const DecodeStats& ds = trace.stats();
      std::snprintf(line, sizeof(line),
                    "\ntracer: %llu garbled buffer(s), %llu commit mismatch(es), "
                    "%llu metadata mismatch file(s)\n",
                    static_cast<unsigned long long>(ds.garbledBuffers),
                    static_cast<unsigned long long>(ds.commitMismatchBuffers),
                    static_cast<unsigned long long>(ds.metadataMismatchFiles));
      out += line;
      Heartbeat newest;
      uint64_t newestTick = 0;
      bool haveHeartbeat = false;
      uint64_t droppedAtSource = 0;
      for (uint32_t p = 0; p < trace.numProcessors(); ++p) {
        uint64_t cpuDropped = 0;
        for (const DecodedEvent& e : trace.processorEvents(p)) {
          Heartbeat hb;
          if (!parseHeartbeat(e, hb)) continue;
          cpuDropped = hb.eventsDropped;
          if (e.fullTimestamp >= newestTick) {
            newestTick = e.fullTimestamp;
            newest = hb;
            haveHeartbeat = true;
          }
        }
        droppedAtSource += cpuDropped;
      }
      if (haveHeartbeat) {
        std::snprintf(line, sizeof(line),
                      "tracer: %llu event(s) dropped at source; consumer "
                      "%llu buffer(s), %llu lost, %llu commit mismatch(es)\n",
                      static_cast<unsigned long long>(droppedAtSource),
                      static_cast<unsigned long long>(newest.consumerBuffers),
                      static_cast<unsigned long long>(newest.consumerLost),
                      static_cast<unsigned long long>(newest.consumerMismatches));
        out += line;
      }
      return out;
    }
  }
  return "";
}

/// Report text with the one tenant-specific string, profile's file name,
/// taken out.
std::string normalized(std::string text, const std::string& firstFile) {
  for (size_t at = text.find(firstFile); at != std::string::npos;
       at = text.find(firstFile, at)) {
    text.replace(at, firstFile.size(), "<file>");
  }
  return text;
}

/// Decoded event count and per-major totals equal what set-up logged.
bool countsMatch(const analysis::TraceSet& trace, const FileSet& set) {
  std::array<uint64_t, kMaxMajors> perMajor{};
  uint64_t total = 0;
  for (uint32_t p = 0; p < trace.numProcessors(); ++p) {
    for (const DecodedEvent& e : trace.processorEvents(p)) {
      if (e.header.major == Major::Control) continue;
      ++perMajor[static_cast<uint32_t>(e.header.major)];
      ++total;
    }
  }
  return total == set.events && perMajor == set.perMajor;
}

/// Decode as `ktracetool --threads=1` does: each worker owns one CPU, so
/// a decode pool would only take turns with the other worker.
DecodeOptions decodeOptions() {
  DecodeOptions options;
  options.threads = 1;
  return options;
}

/// One worker's share of a timed phase. Workers record failures here and
/// the phase adds them to the Outcome after they have stopped.
struct Worker {
  // Wall and thread CPU time of each (tenant, report) call, one entry per
  // sequence.
  std::vector<std::vector<double>> wallNs;
  std::vector<std::vector<double>> cpuNs;
  uint64_t attempted = 0;
  std::map<std::string, uint64_t> failures;  // why -> failed operations
  std::vector<std::string> firstTexts;       // the first sequence's reports
};

/// Runs one report sequence. Gate checks and text comparisons run outside
/// the timed calls. `reference` is read only.
void runSequence(const FileSet& set, bool traced,
                 const std::vector<std::string>& reference, Worker& w) {
  const size_t calls = std::size(set.tenants) * std::size(kReports);
  w.wallNs.resize(calls);
  w.cpuNs.resize(calls);
  std::vector<std::string> texts;
  for (const Tenant& tenant : set.tenants) {
    for (const Report r : kReports) {
      const size_t call = texts.size();
      const uint64_t cpu0 = threadCpuNs();
      const uint64_t t0 = nowNs();
      std::string text;
      bool countsOk = false;
      try {
        analysis::TraceSet trace = [&] {
          SpanScope span(tenant.compressed ? "analysis.decode_lz"
                                           : "analysis.decode_raw");
          return analysis::TraceSet::fromFiles(tenant.files, decodeOptions());
        }();
        {
          SpanScope span(reportSpan(r));
          text = runReport(r, trace, tenant.files[0], traced);
        }
        w.wallNs[call].push_back(static_cast<double>(nowNs() - t0));
        w.cpuNs[call].push_back(static_cast<double>(threadCpuNs() - cpu0));
        countsOk = countsMatch(trace, set);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "pipebench: %s: %s\n", tenant.name.c_str(), e.what());
      }
      ++w.attempted;
      if (!countsOk) {
        ++w.failures["analyze: " + tenant.name +
                     " decoded counts differ from what set-up logged"];
      }
      texts.push_back(normalized(std::move(text), tenant.files[0]));
    }
  }
  const size_t n = std::size(kReports);
  for (size_t i = 0; i < n; ++i) {
    if (texts[i] != texts[n + i]) {
      ++w.failures["analyze: raw and compressed tenants' reports differ"];
    }
  }
  if (w.firstTexts.empty()) w.firstTexts = texts;
  const std::vector<std::string>& expected =
      reference.empty() ? w.firstTexts : reference;
  if (texts != expected) {
    ++w.failures["analyze: report text changed between sequences"];
  }
}

struct Timed {
  // Every worker's samples of each (tenant, report) call.
  std::vector<std::vector<double>> wallNs;
  std::vector<std::vector<double>> cpuNs;
  double peakRssMiB = 0;  // median over sequences
};

/// Two workers, pinned to the run's two CPUs, run report sequences side by
/// side until `seconds` have passed, as two ktracetool users would: both
/// CPUs stay busy, as in hotpath, so a result rarely waits for an idle CPU
/// to be woken, and every figure averages both CPUs. They start each
/// sequence together, so their decoded sets are alive at the same points
/// of it and the phase's peak RSS does not depend on how far one has
/// drifted ahead; the high-water mark is reset between sequences. The
/// first sequence's report text becomes `reference` when it is empty.
Timed timedPhase(const FileSet& set, const HostContext& host, double seconds,
                 bool traced, Outcome& outcome, std::vector<std::string>& reference) {
  constexpr size_t kWorkers = 2;
  std::vector<Worker> workers(kWorkers);
  Timed timed;
  std::vector<double> peakRssMiB;  // per sequence
  PeakRss rss;
  const uint64_t deadline = nowNs() + static_cast<uint64_t>(seconds * 1e9);
  bool more = true;
  uint64_t sequences = 0;
  std::barrier sync(kWorkers, [&]() noexcept {
    if (sequences > 0) peakRssMiB.push_back(rss.stop());
    more = sequences++ == 0 || nowNs() < deadline;
    if (more) rss.start();
  });
  std::vector<std::thread> threads;
  for (size_t k = 0; k < kWorkers; ++k) {
    threads.emplace_back([&, k] {
      pinCurrentThread(host.loadCpus[k]);
      for (;;) {
        sync.arrive_and_wait();
        if (!more) break;
        runSequence(set, traced, reference, workers[k]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  timed.peakRssMiB = median(peakRssMiB);
  timed.wallNs.resize(workers[0].wallNs.size());
  timed.cpuNs.resize(workers[0].cpuNs.size());
  for (const Worker& w : workers) {
    for (size_t call = 0; call < w.wallNs.size(); ++call) {
      timed.wallNs[call].insert(timed.wallNs[call].end(), w.wallNs[call].begin(),
                                w.wallNs[call].end());
      timed.cpuNs[call].insert(timed.cpuNs[call].end(), w.cpuNs[call].begin(),
                               w.cpuNs[call].end());
    }
    outcome.attempted += w.attempted;
    for (const auto& [why, count] : w.failures) outcome.fail(count, why);
    if (reference.empty()) reference = w.firstTexts;
    if (w.firstTexts != reference) {
      outcome.fail(1, "analyze: report text changed between sequences");
    }
  }
  return timed;
}

/// Each (tenant, report) call contributes its median over every worker's
/// sequences, so one slow call (a page-fault burst, a descheduled worker)
/// does not move the result. A sequence runs on one worker, so its wall
/// time is the sum of the calls' medians.
EndToEnd endToEnd(const FileSet& set, const Timed& timed, double setupS,
                  double logNsP50, double logNsP90) {
  double wallNs = 0;
  double cpuNs = 0;
  for (size_t call = 0; call < timed.wallNs.size(); ++call) {
    wallNs += median(timed.wallNs[call]);
    cpuNs += median(timed.cpuNs[call]);
  }
  const double work =
      static_cast<double>(timed.wallNs.size()) * static_cast<double>(set.events);
  EndToEnd e;
  e.setupS = setupS;
  e.logNsP50 = logNsP50;
  e.logNsP90 = logNsP90;
  e.eventsPerS = wallNs == 0 ? 0 : work / (wallNs * 1e-9);
  e.cpuNsPerEvent = cpuNs / work;
  e.peakRssMiB = timed.peakRssMiB;
  return e;
}

/// RSS growth across the process's first decode, per event: the memory a
/// decoded event costs. Also warms the page cache and the allocator
/// before timing.
double firstDecodeBytesPerEvent(const FileSet& set) {
  const double rss0 = currentRssMiB();
  try {
    const analysis::TraceSet trace =
        analysis::TraceSet::fromFiles(set.tenants[0].files, decodeOptions());
    return (currentRssMiB() - rss0) * 1024.0 * 1024.0 /
           static_cast<double>(set.events);
  } catch (const std::exception&) {
    return 0;  // the timed phase's gate reports the damage
  }
}

}  // namespace

int runAnalyze(const Args& args, const HostContext& host) {
  Outcome outcome;
  toolRegistry();
  // The logger figures are set-up's: the median over the set-ups of each
  // set-up's percentile.
  std::vector<double> setupP50, setupP90;
  FileSet set = repeatSetup(args, outcome, [&] {
    FileSet s = setUp(args, host, "files");
    setupP50.push_back(quantile(s.logBatchNs, 0.5));
    setupP90.push_back(quantile(s.logBatchNs, 0.9));
    return s;
  });
  recordInput(*set.mix, outcome);
  if (args.damage) {
    // One flipped byte in the middle of a compressed file: its block's CRC
    // no longer matches.
    const std::string& path = set.tenants[1].files[1];
    flipByte(path, static_cast<long>(fs::file_size(path) / 2));
  }

  outcome.layers["analysis.bytes_per_event"] = firstDecodeBytesPerEvent(set);
  std::vector<std::string> reference;
  const double half = args.trace ? args.seconds / 2 : args.seconds;
  const Timed plain = timedPhase(set, host, half, false, outcome, reference);
  outcome.untraced = endToEnd(set, plain, outcome.untraced.setupS,
                              median(setupP50), median(setupP90));
  outcome.endToEnd = outcome.untraced;
  const Tenant& lz = set.tenants[1];
  outcome.layers["util.lz_ratio"] =
      lz.bytesWritten == 0 ? 0
                           : static_cast<double>(lz.rawBytes) /
                                 static_cast<double>(lz.bytesWritten);
  outcome.context["util.lz_ratio"] = outcome.layers["util.lz_ratio"];

  if (args.trace) {
    Spans::clear();
    set = tracedSetup(outcome, [&] { return setUp(args, host, "files-traced"); });
    const double tracedSetupS = outcome.endToEnd.setupS;
    // `reference` is kept: the re-created file set must print the same
    // report text, which checks that set-up is deterministic for a seed.
    Spans::setEnabled(true);
    const Timed traced = timedPhase(set, host, half, true, outcome, reference);
    Spans::setEnabled(false);
    outcome.endToEnd = endToEnd(set, traced, tracedSetupS,
                                quantile(set.logBatchNs, 0.5),
                                quantile(set.logBatchNs, 0.9));

    auto agg = Spans::aggregate();
    auto perEvent = [&](const char* name) {
      const Spans::Aggregate& a = agg[name];
      return a.count == 0 ? 0
                          : a.totalNs / (static_cast<double>(a.count) *
                                         static_cast<double>(set.events));
    };
    auto per = [](double num, double den) { return den == 0 ? 0 : num / den; };
    LayerValues& l = outcome.layers;
    l["analysis.decode_raw_ns_per_event"] = perEvent("analysis.decode_raw");
    l["analysis.decode_lz_ns_per_event"] = perEvent("analysis.decode_lz");
    l["analysis.merge_ns_per_event"] = perEvent("analysis.merge");
    l["streaming.fold_ns_per_event"] = perEvent("streaming.fold");
    l["analysis.locks_ns_per_event"] = perEvent("analysis.locks");
    l["analysis.profile_ns_per_event"] = perEvent("analysis.profile");
    l["analysis.attrib_ns_per_event"] = perEvent("analysis.attrib");
    l["analysis.stats_ns_per_event"] = perEvent("analysis.stats");
    // The traced set-up's write path: harvest, batching, file write.
    const Spans::Aggregate& harvest = agg["core.harvest"];
    const Spans::Aggregate& batch = agg["core.batch"];
    const Spans::Aggregate& write = agg["core.write"];
    const double bytes = static_cast<double>(set.tenants[0].bytesWritten +
                                             set.tenants[1].bytesWritten);
    l["core.harvest_ns_per_buffer"] = per(harvest.selfNs, static_cast<double>(set.buffers));
    l["core.harvest_buffers_per_poll"] =
        per(static_cast<double>(set.buffers), static_cast<double>(set.polls));
    l["core.batch_block_share"] = per(batch.totalNs, harvest.totalNs);
    l["core.batch_records_per_flush"] = per(static_cast<double>(set.writeRecords),
                                            static_cast<double>(set.batchesFlushed));
    l["core.write_ns_per_byte"] = per(write.selfNs, bytes);
    l["core.write_io_share"] = per(write.totalNs - write.selfNs, write.totalNs);
    l["core.write_bytes_per_event"] = per(bytes, 2.0 * static_cast<double>(set.events));
    l["core.slow_path_per_kevent"] =
        per(1000.0 * static_cast<double>(set.crossings), 2.0 * static_cast<double>(set.events));
    l["core.filler_share"] = per(static_cast<double>(set.fillerWords),
                                 static_cast<double>(set.ringWords));
    Spans::write(args.spansPath, 200'000);
    runCoreProbes(args, host, *set.mix, outcome.layers);
  }
  return finish(args, host, outcome);
}

}  // namespace pipebench
