// BENCH — parallel zero-copy trace decode throughput.
//
// The paper's analysis tools must chew through "gigabytes per processor"
// of trace files; the one-file-per-processor layout makes decode
// embarrassingly parallel. This bench writes a synthetic multi-processor
// trace twice — once raw, once v3 block-compressed — decodes both under
// every (thread count, mmap on/off) combination, verifies all outputs are
// bit-identical, and reports MB/s and events/s. Emits JSON (stdout, and
// --out=FILE) for the BENCH trajectory.
//
//   bench_decode_scalability [--procs=8] [--buffers=48] [--buffer-words=16384]
//                            [--reps=3] [--quick] [--out=BENCH_decode.json]
//
// --quick shrinks the workload and the config matrix for a CI smoke run
// (a few seconds end to end instead of a full sweep). It keeps the full
// run's 48 buffers per processor: each file then holds three compressed
// blocks, so the compressed-to-raw rate that CI floors is not dominated by
// the first block's buffer allocation, and a run is long enough for that
// ratio to hold on a noisy host.
//
// Speedup notes: thread-count speedup requires hardware cores; decode
// threads are capped at hardware concurrency, so on a small host several
// thread columns run the same effective configuration and differ only by
// scheduler noise. The speedup curve therefore uses the cumulative best
// time at <= N threads (a run with N threads available may always use
// fewer); raw per-config seconds are reported alongside.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/reader.hpp"
#include "bench_json.hpp"
#include "core/batching_sink.hpp"
#include "core/ktrace.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

using namespace ktrace;

namespace {

struct Config {
  uint32_t procs = 8;
  uint32_t buffers = 48;
  uint32_t bufferWords = 1u << 14;
  int reps = 3;
  bool quick = false;
  std::string out;
};

std::vector<std::string> writeTrace(const Config& cfg,
                                    const std::filesystem::path& dir,
                                    bool compress) {
  FacilityConfig fcfg;
  fcfg.numProcessors = cfg.procs;
  fcfg.bufferWords = cfg.bufferWords;
  fcfg.buffersPerProcessor = 8;
  fcfg.mode = Mode::Stream;
  FakeClock clock(1, 1);
  fcfg.clockKind = ClockKind::Fake;
  fcfg.clockOverride = clock.ref();
  Facility facility(fcfg);
  facility.mask().enableAll();

  TraceFileMeta meta;
  meta.numProcessors = cfg.procs;
  meta.bufferWords = cfg.bufferWords;
  meta.clockKind = ClockKind::Fake;
  TraceWriterOptions writerOptions;
  writerOptions.compress = compress;
  FileSink sink(dir.string(), compress ? "benchz" : "bench", meta, nullptr,
                writerOptions);
  // Compression works per coalesced batch (one LZ block each), so the
  // compressed set drains through a lossless BatchingSink.
  BatchingConfig batching;
  batching.batchRecords = 16;
  batching.maxQueuedRecords = 256;
  batching.blockWhenFull = true;
  BatchingSink batcher(sink, batching);
  Sink& drainTarget = compress ? static_cast<Sink&>(batcher) : sink;
  Consumer consumer(facility, drainTarget, {});

  // ~3 words per event fills `buffers` records per processor. Drain after
  // every buffer's worth of events: in Stream mode a tight logging loop
  // would otherwise overrun the ring and drop most of the trace.
  const uint64_t eventsPerProcessor =
      static_cast<uint64_t>(cfg.buffers) * cfg.bufferWords / 3;
  const uint64_t eventsPerBuffer = cfg.bufferWords / 3;
  for (uint32_t p = 0; p < cfg.procs; ++p) {
    facility.bindCurrentThread(p);
    for (uint64_t i = 0; i < eventsPerProcessor; ++i) {
      facility.log(Major::Test, static_cast<uint16_t>(i & 0xff), i, uint64_t{p});
      if ((i + 1) % eventsPerBuffer == 0) consumer.drainNow();
    }
  }
  facility.flushAll();
  consumer.drainNow();
  batcher.stop();
  if (!sink.flush()) {
    std::fprintf(stderr, "trace write failed: %s\n", sink.errorMessage().c_str());
    std::exit(1);
  }
  std::vector<std::string> paths;
  for (uint32_t p = 0; p < cfg.procs; ++p) paths.push_back(sink.pathFor(p));
  return paths;
}

/// Order-sensitive digest of every decoded event, for the bit-identical check.
uint64_t digest(const analysis::TraceSet& trace) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (uint32_t p = 0; p < trace.numProcessors(); ++p) {
    for (const DecodedEvent& e : trace.processorEvents(p)) {
      mix(e.header.encode());
      mix(e.fullTimestamp);
      mix(e.bufferSeq);
      mix(e.offsetInBuffer);
      for (const uint64_t w : e.data) mix(w);
    }
  }
  mix(trace.totalEvents());
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  Config cfg;
  cfg.quick = cli.getBool("quick", false);
  if (cfg.quick) {
    cfg.procs = 4;
    cfg.reps = 2;
  }
  cfg.procs = static_cast<uint32_t>(cli.getInt("procs", cfg.procs));
  cfg.buffers = static_cast<uint32_t>(cli.getInt("buffers", cfg.buffers));
  cfg.bufferWords =
      static_cast<uint32_t>(cli.getInt("buffer-words", cfg.bufferWords));
  cfg.reps = static_cast<int>(cli.getInt("reps", cfg.reps));
  cfg.out = cli.getString("out", "");

  const auto dir = std::filesystem::temp_directory_path() /
                   ("ktrace_decode_bench_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  // Two copies of the same logical trace: raw v3 and block-compressed v3.
  // Every configuration below must decode to the same digest.
  const auto rawPaths = writeTrace(cfg, dir, /*compress=*/false);
  const auto zPaths = writeTrace(cfg, dir, /*compress=*/true);
  uint64_t rawBytes = 0, zBytes = 0;
  for (const auto& p : rawPaths) rawBytes += std::filesystem::file_size(p);
  for (const auto& p : zPaths) zBytes += std::filesystem::file_size(p);

  const std::vector<uint32_t> threadCounts =
      cfg.quick ? std::vector<uint32_t>{1u, 4u}
                : std::vector<uint32_t>{1u, 2u, 4u, 8u};

  struct Row {
    bool compressed;
    uint32_t threads;
    bool mmapOn;
    double seconds;
    double cumBest;  // best seconds over this group's configs with <= threads
    uint64_t digest;
  };
  std::vector<Row> rows;
  for (const bool compressed : {false, true}) {
    for (const bool mmapOn : {true, false}) {
      for (const uint32_t threads : threadCounts) {
        rows.push_back({compressed, threads, mmapOn, 1e300, 1e300, 0});
      }
    }
  }
  // Repetitions go round the whole matrix, not config by config, so a
  // slow spell of a shared host lands on every configuration alike and
  // ratios between rows (the compressed-to-raw floor) stay meaningful.
  uint64_t events = 0;
  for (int rep = 0; rep < cfg.reps; ++rep) {
    for (Row& r : rows) {
      DecodeOptions options;
      options.threads = r.threads;
      options.useMmap = r.mmapOn;
      const auto t0 = std::chrono::steady_clock::now();
      const auto trace =
          analysis::TraceSet::fromFiles(r.compressed ? zPaths : rawPaths, options);
      const auto t1 = std::chrono::steady_clock::now();
      r.seconds = std::min(r.seconds, std::chrono::duration<double>(t1 - t0).count());
      r.digest = digest(trace);
      events = trace.totalEvents();
    }
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].cumBest = rows[i].seconds;
    if (i > 0 && rows[i - 1].compressed == rows[i].compressed &&
        rows[i - 1].mmapOn == rows[i].mmapOn) {
      rows[i].cumBest = std::min(rows[i].cumBest, rows[i - 1].cumBest);
    }
  }
  std::filesystem::remove_all(dir);

  bool identical = true;
  for (const Row& r : rows) identical = identical && r.digest == rows[0].digest;
  auto findRow = [&rows](bool compressed, uint32_t threads,
                         bool mmapOn) -> const Row& {
    for (const Row& r : rows) {
      if (r.compressed == compressed && r.threads == threads &&
          r.mmapOn == mmapOn) {
        return r;
      }
    }
    return rows.front();
  };
  const double base1t = findRow(false, 1, true).seconds;
  const double speedup4t =
      base1t / findRow(false, cfg.quick ? 4 : 4, true).cumBest;
  const double mmapGain =
      findRow(false, 1, false).seconds / base1t;  // stdio / mmap, 1 thread
  double bestRawSeconds = 1e300;
  for (const Row& r : rows) {
    if (!r.compressed) bestRawSeconds = std::min(bestRawSeconds, r.seconds);
  }
  const double mbPerSBest = static_cast<double>(rawBytes) / bestRawSeconds / 1e6;
  const double eventsPerSBest = static_cast<double>(events) / bestRawSeconds;

  std::vector<bench::JsonObject> results;
  for (const Row& r : rows) {
    const uint64_t setBytes = r.compressed ? zBytes : rawBytes;
    results.push_back(
        bench::JsonObject()
            .add("compressed", r.compressed)
            .add("threads", r.threads)
            .add("mmap", r.mmapOn)
            .add("seconds", r.seconds, 6)
            .add("mb_per_s", static_cast<double>(setBytes) / r.seconds / 1e6, 1)
            .add("events_per_s", static_cast<double>(events) / r.seconds, 0)
            .add("speedup_vs_1t", findRow(r.compressed, 1, r.mmapOn).seconds / r.cumBest, 3));
  }
  bench::writeBenchJson(
      bench::JsonObject()
          .add("bench", "decode_scalability")
          .add("quick", cfg.quick)
          .add("host_threads", util::ThreadPool::hardwareThreads())
          .add("files", rawPaths.size())
          .add("bytes", rawBytes)
          .add("compressed_bytes", zBytes)
          .add("compression_ratio",
               zBytes != 0 ? static_cast<double>(rawBytes) / zBytes : 0.0, 3)
          .add("events", events)
          .add("identical_across_configs", identical)
          .add("results", results)
          .add("mb_per_s_best", mbPerSBest, 1)
          .add("events_per_s_best", eventsPerSBest, 0)
          .add("speedup_4t_vs_1t_mmap", speedup4t, 3)
          .add("mmap_speedup_vs_stdio_1t", mmapGain, 3),
      cfg.out);
  if (!identical) {
    std::fprintf(stderr, "FAIL: decode results differ across configurations\n");
    return 1;
  }
  return 0;
}
