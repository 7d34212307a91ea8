// Shared pieces of the pipeline benchmark: arguments, host context, timing
// helpers, the in-memory span log of the traced run, timing decorators for
// the Sink and FileSystem seams, and the result line.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/sink.hpp"
#include "util/faultfs.hpp"

namespace pipebench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs: the benchmark's own test (run.py --smoke).
  bool smoke = false;
  /// Damage the workload's input after it is produced, so the correctness
  /// gate must fire (run.py --smoke checks that it does).
  bool damage = false;
  /// Working directory of this run inside the checkout, removed at exit.
  std::string runDir;
  /// Where a traced run writes its spans.
  std::string spansPath;
};

// --- clocks and resources ---------------------------------------------------

uint64_t nowNs() noexcept;
double nowSec() noexcept;
/// Process user+sys CPU time (all threads), in ns.
uint64_t processCpuNs() noexcept;
/// The calling thread's user+sys CPU time, in ns.
uint64_t threadCpuNs() noexcept;
/// Current resident set size in MiB.
double currentRssMiB();

/// Peak resident set of a timed phase: start() returns free heap memory to
/// the kernel and resets its high-water mark (VmHWM), stop() reads it, so
/// the peak is the phase's, not the process lifetime's, and does not
/// depend on what earlier phases left cached in the allocator. Where the
/// kernel refuses the reset the lifetime peak is returned.
class PeakRss {
 public:
  void start();
  /// Returns the peak in MiB.
  double stop() const;
};

/// Flips bits of the byte at `offset` of a file: the damaged input the
/// smoke test's gate must catch.
void flipByte(const std::string& path, long offset);

/// Pins the calling thread to one CPU, or to a set. False when the kernel
/// refuses.
bool pinCurrentThread(int cpu) noexcept;
bool pinCurrentThread(const std::vector<int>& cpus) noexcept;

// --- statistics -------------------------------------------------------------

/// Linear-interpolation quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Timed phases report the median over windows of this length of each
/// window's figure: a stretch where the host descheduled a thread moves a
/// few windows, not the result.
constexpr uint64_t kWindowNs = 100'000'000;

/// One thread's batch costs summarised per window: when a batch ends in a
/// later window, the finished window's p50 and p90 are kept and its
/// samples dropped, so memory stays one window deep.
class WindowPercentiles {
 public:
  WindowPercentiles() = default;
  WindowPercentiles(uint64_t startNs, size_t windows);
  /// A batch that ended at `endNs` and cost `nsPerEvent`.
  void add(uint64_t endNs, double nsPerEvent);
  /// Closes the current window; call after the last add().
  void finish();
  /// Batches that ended in each window.
  const std::vector<uint64_t>& batches() const noexcept { return batches_; }
  const std::vector<double>& p50() const noexcept { return p50_; }
  const std::vector<double>& p90() const noexcept { return p90_; }

 private:
  uint64_t startNs_ = 0;
  size_t window_ = 0;
  std::vector<double> current_;
  std::vector<uint64_t> batches_;
  std::vector<double> p50_;
  std::vector<double> p90_;
};

// --- host context -------------------------------------------------------------

/// CPUs a run uses. A run that keeps every vCPU of a shared 4-vCPU host
/// busy has 10-25% of its CPU time stolen by the hypervisor, and its
/// throughput moved 2x from run to run with that share; confined to two
/// CPUs the steal stays near 1-3%.
constexpr size_t kBenchCpus = 2;

struct HostContext {
  unsigned nproc = 0;
  std::vector<int> allowedCpus;
  /// The last kBenchCpus allowed CPUs: main() confines the process to them.
  std::vector<int> benchCpus;
  /// CPUs the load threads are pinned to, in order of use.
  std::vector<int> loadCpus;
  std::string outputDir;
  bool outputOnTmpfs = false;
  /// Spin work on 1 thread vs one copy per allowed CPU: N * t1 / tN.
  double effectiveParallelism = 0;
  uint32_t parallelismThreads = 0;
  /// /proc/stat "cpu" steal and total ticks when the host was probed; the
  /// result's context reports the share the hypervisor stole since.
  uint64_t stealTicks = 0;
  uint64_t totalTicks = 0;
};

HostContext probeHost(const std::string& outputDir);
std::string hostJson(const HostContext& host);

// --- spans of the traced run --------------------------------------------------

/// Spans are kept per thread in memory (name, start, end, parent = the
/// enclosing span on the same thread) and aggregated or written out only
/// after the traced threads have stopped. Disabled, a SpanScope costs one
/// relaxed load.
class Spans {
 public:
  struct Aggregate {
    uint64_t count = 0;
    double totalNs = 0;
    /// Total minus the time covered by child spans.
    double selfNs = 0;
    std::vector<double> durationsNs;
  };

  static void setEnabled(bool on) noexcept;
  static bool enabled() noexcept;
  /// Per-name totals over every recorded span. Call with traced threads
  /// quiesced.
  static std::map<std::string, Aggregate> aggregate();
  /// Writes the per-name aggregate and up to `maxRaw` raw spans as JSON
  /// lines. Call with traced threads quiesced.
  static bool write(const std::string& path, size_t maxRaw);
  static void clear();
};

class SpanScope {
 public:
  explicit SpanScope(const char* name) noexcept;
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int64_t index_ = -1;
};

/// A Sink decorator that records a span around every delivery into the
/// wrapped sink and counts the records it forwards.
class TimingSink final : public ktrace::Sink {
 public:
  TimingSink(const char* spanName, ktrace::Sink& next)
      : name_(spanName), next_(next) {}

  void onBuffer(ktrace::BufferRecord&& record) override;
  void onBufferBatch(std::vector<ktrace::BufferRecord>&& records) override;
  ktrace::SinkCounters counters() const override { return next_.counters(); }
  bool exhausted() const override { return next_.exhausted(); }

  uint64_t records() const noexcept {
    return records_.load(std::memory_order_relaxed);
  }

 private:
  const char* name_;
  ktrace::Sink& next_;
  std::atomic<uint64_t> records_{0};
};

/// A FileSystem whose files record a "util.io" span around every
/// operation, over the stdio filesystem.
class TimingFileSystem final : public ktrace::util::FileSystem {
 public:
  std::unique_ptr<ktrace::util::File> open(const std::string& path,
                                           const char* mode) override;
};

// --- results --------------------------------------------------------------------

/// The end-to-end metrics every workload prints with --trace 0.
struct EndToEnd {
  double setupS = 0;
  double logNsP50 = 0;
  double logNsP90 = 0;
  double eventsPerS = 0;
  double cpuNsPerEvent = 0;
  double peakRssMiB = 0;
};

/// Per-layer values by metric name; names not set print as 0 (the
/// workload does no work in that layer).
using LayerValues = std::map<std::string, double>;

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  EndToEnd endToEnd;
  /// Untraced end-to-end figures of a traced run, for the overhead.
  EndToEnd untraced;
  LayerValues layers;
  /// Input properties and other context printed with the result.
  LayerValues context;

  /// Counts `count` failed operations; prints `why` once.
  void fail(uint64_t count, const std::string& why);

 private:
  std::set<std::string> reported;
};

/// Prints the context line and then the result line (the last line of
/// stdout). Returns the process exit code: 0 when every gate passed.
int finish(const Args& args, const HostContext& host, Outcome& outcome);

/// Every per-layer metric name with its unit, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& perLayerMetrics();

}  // namespace pipebench
