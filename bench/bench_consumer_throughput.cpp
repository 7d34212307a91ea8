// BENCH — collection-side write-out pipeline: shards × batch-size sweep.
//
// The paper separates collection from analysis (§2 goal 5) and notes that
// traces reach gigabytes per processor (§3.2). This bench measures how
// fast the consumer pipeline moves completed buffers off the rings into
// per-processor trace files under every (consumer shards, sink batch
// size) combination — real producer threads, real files, overrun counted.
// batch=1 is the serial baseline (Consumer -> FileSink directly); batch>1
// routes through a lossless BatchingSink (blockWhenFull), so one vectored
// write replaces up to `batch` per-record writes. Emits JSON (stdout, and
// --out=FILE) for the BENCH trajectory.
//
//   bench_consumer_throughput [--procs=4] [--buffer-words=4096]
//                             [--buffers=64] [--events=200000] [--reps=2]
//                             [--out=BENCH_consumer.json]
//
// Note: on a 1-core host the shard curve is flat (workers time-slice one
// core); the interesting axis is batch size, which cuts write syscalls by
// K. lost > 0 means the producers lapped the consumer — logging never
// blocks (the paper's design choice), so sustained overload sheds the
// oldest buffers instead of stalling the system.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/batching_sink.hpp"
#include "core/ktrace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace ktrace;

namespace {

struct Config {
  uint32_t procs = 4;
  uint32_t bufferWords = 1u << 12;
  uint32_t buffers = 64;
  uint64_t events = 200'000;  // per producer thread, 4-word events
  int reps = 2;
  std::string out;
};

struct Row {
  uint32_t shards = 0;
  size_t batch = 0;
  double seconds = 0;
  uint64_t consumed = 0;
  uint64_t lost = 0;
  uint64_t sinkDropped = 0;
  double mbPerS = 0;
};

Row runOne(const Config& cfg, uint32_t shards, size_t batch,
           const std::filesystem::path& dir) {
  FacilityConfig fcfg;
  fcfg.numProcessors = cfg.procs;
  fcfg.bufferWords = cfg.bufferWords;
  fcfg.buffersPerProcessor = cfg.buffers;
  fcfg.mode = Mode::Stream;
  Facility facility(fcfg);
  facility.mask().enableAll();

  std::filesystem::create_directories(dir);
  TraceFileMeta meta;
  meta.numProcessors = cfg.procs;
  meta.bufferWords = cfg.bufferWords;
  meta.clockKind = facility.config().clockKind;
  meta.ticksPerSecond = clockTicksPerSecond(meta.clockKind);
  FileSink files(dir.string(), "bench", meta);

  std::unique_ptr<BatchingSink> batcher;
  Sink* sink = &files;
  if (batch > 1) {
    BatchingConfig bc;
    bc.batchRecords = batch;
    bc.maxQueuedRecords = 4 * batch;
    bc.blockWhenFull = true;  // lossless: stalls the shard, never the logger
    batcher = std::make_unique<BatchingSink>(files, bc);
    sink = batcher.get();
  }
  ConsumerConfig cc;
  cc.shards = shards;
  cc.pollInterval = std::chrono::microseconds(200);
  Consumer consumer(facility, *sink, cc);
  consumer.start();

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  for (uint32_t p = 0; p < cfg.procs; ++p) {
    producers.emplace_back([&, p] {
      TraceControl& control = facility.control(p);
      for (uint64_t i = 0; i < cfg.events; ++i) {
        logEvent(control, Major::Test, 0, i, i, i);
      }
    });
  }
  for (auto& t : producers) t.join();
  facility.flushAll();
  consumer.notify();
  consumer.drainNow();
  consumer.stop();
  if (batcher != nullptr) batcher->stop();
  files.flush();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  Row r;
  r.shards = consumer.shardCount();
  r.batch = batch;
  r.seconds = seconds;
  r.consumed = consumer.stats().buffersConsumed;
  r.lost = consumer.stats().buffersLost;
  r.sinkDropped = sink->counters().recordsDropped;
  r.mbPerS = static_cast<double>(r.consumed) * cfg.bufferWords * 8 / 1e6 / seconds;
  std::filesystem::remove_all(dir);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  Config cfg;
  cfg.procs = static_cast<uint32_t>(cli.getInt("procs", cfg.procs));
  cfg.bufferWords = static_cast<uint32_t>(cli.getInt("buffer-words", cfg.bufferWords));
  cfg.buffers = static_cast<uint32_t>(cli.getInt("buffers", cfg.buffers));
  cfg.events = static_cast<uint64_t>(cli.getInt("events", static_cast<int64_t>(cfg.events)));
  cfg.reps = static_cast<int>(cli.getInt("reps", cfg.reps));
  cfg.out = cli.getString("out", "");

  const auto dir = std::filesystem::temp_directory_path() /
                   ("ktrace_consumer_bench_" + std::to_string(::getpid()));

  std::printf("consumer pipeline sweep: %u producers x %llu 4-word events, "
              "%u KiB buffers, trace files on disk, best of %d\n\n",
              cfg.procs, static_cast<unsigned long long>(cfg.events),
              cfg.bufferWords * 8 / 1024, cfg.reps);

  const uint32_t shardSweep[] = {1, 2, 4};
  const size_t batchSweep[] = {1, 8, 32};
  std::vector<Row> rows;
  for (const uint32_t shards : shardSweep) {
    if (shards > cfg.procs) continue;
    for (const size_t batch : batchSweep) {
      Row best;
      for (int rep = 0; rep < cfg.reps; ++rep) {
        const Row r = runOne(cfg, shards, batch, dir);
        if (best.seconds == 0 || r.seconds < best.seconds) best = r;
      }
      rows.push_back(best);
    }
  }

  util::TextTable table;
  table.addColumn("shards", util::Align::Right);
  table.addColumn("batch", util::Align::Right);
  table.addColumn("buffers", util::Align::Right);
  table.addColumn("lost", util::Align::Right);
  table.addColumn("MB/s to disk", util::Align::Right);
  for (const Row& r : rows) {
    table.addRow({util::strprintf("%u", r.shards),
                  util::strprintf("%zu", r.batch),
                  util::strprintf("%llu", static_cast<unsigned long long>(r.consumed)),
                  util::strprintf("%llu", static_cast<unsigned long long>(r.lost)),
                  util::strprintf("%.0f", r.mbPerS)});
  }
  std::fputs(table.render().c_str(), stdout);

  const Row& serial = rows.front();  // shards=1, batch=1
  const Row* best = &serial;
  for (const Row& r : rows) {
    if (r.mbPerS > best->mbPerS) best = &r;
  }
  std::printf("\nserial (1 shard, no batching): %.0f MB/s, %llu lost\n"
              "best (%u shards, batch %zu):    %.0f MB/s, %llu lost\n",
              serial.mbPerS, static_cast<unsigned long long>(serial.lost),
              best->shards, best->batch, best->mbPerS,
              static_cast<unsigned long long>(best->lost));

  std::vector<bench::JsonObject> results;
  for (const Row& r : rows) {
    results.push_back(bench::JsonObject()
                          .add("shards", r.shards)
                          .add("batch", r.batch)
                          .add("seconds", r.seconds, 6)
                          .add("buffers", r.consumed)
                          .add("lost", r.lost)
                          .add("sink_dropped", r.sinkDropped)
                          .add("mb_per_s", r.mbPerS, 1));
  }
  bench::writeBenchJson(bench::JsonObject()
                            .add("bench", "consumer_throughput")
                            .add("host_threads", util::ThreadPool::hardwareThreads())
                            .add("procs", cfg.procs)
                            .add("buffer_bytes", cfg.bufferWords * 8)
                            .add("events_per_producer", cfg.events)
                            .add("results", results)
                            .add("serial_mb_per_s", serial.mbPerS, 1)
                            .add("best_mb_per_s", best->mbPerS, 1)
                            .add("best_shards", best->shards)
                            .add("best_batch", best->batch)
                            .add("best_speedup_vs_serial", best->mbPerS / serial.mbPerS, 3),
                        cfg.out);
  return 0;
}
