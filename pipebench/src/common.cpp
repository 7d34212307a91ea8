#include "common.hpp"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

namespace pipebench {

namespace {

constexpr long kTmpfsMagic = 0x01021994;

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

// --- clocks and resources -----------------------------------------------------

uint64_t nowNs() noexcept {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double nowSec() noexcept { return static_cast<double>(nowNs()) * 1e-9; }

uint64_t processCpuNs() noexcept {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<uint64_t>(tv.tv_usec) * 1'000ull;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

uint64_t threadCpuNs() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double currentRssMiB() {
  std::ifstream in("/proc/self/statm");
  uint64_t sizePages = 0;
  uint64_t residentPages = 0;
  in >> sizePages >> residentPages;
  return static_cast<double>(residentPages) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void PeakRss::start() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRss::stop() const {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return currentRssMiB();
}

void flipByte(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) return;
  std::fseek(f, offset, SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, offset, SEEK_SET);
  std::fputc((c ^ 0x5a) & 0xff, f);
  std::fclose(f);
}

bool pinCurrentThread(int cpu) noexcept {
  return pinCurrentThread(std::vector<int>{cpu});
}

bool pinCurrentThread(const std::vector<int>& cpus) noexcept {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set) == 0;
}

// --- statistics -----------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

/// quantile() without the copy: reorders `v`.
double quantileInPlace(std::vector<double>& v, double q) {
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(lo), v.end());
  const double low = v[lo];
  if (lo + 1 >= v.size()) return low;
  const double high = *std::min_element(v.begin() + static_cast<ptrdiff_t>(lo) + 1, v.end());
  return low + (high - low) * (pos - static_cast<double>(lo));
}

}  // namespace

WindowPercentiles::WindowPercentiles(uint64_t startNs, size_t windows)
    : startNs_(startNs), batches_(windows, 0) {
  current_.reserve(1u << 15);
  p50_.reserve(windows);
  p90_.reserve(windows);
}

void WindowPercentiles::add(uint64_t endNs, double nsPerEvent) {
  const size_t window = static_cast<size_t>((endNs - startNs_) / kWindowNs);
  if (window >= batches_.size()) return;  // past the phase's last window
  if (window != window_) {
    finish();
    window_ = window;
  }
  current_.push_back(nsPerEvent);
  ++batches_[window];
}

void WindowPercentiles::finish() {
  if (current_.empty()) return;
  p50_.push_back(quantileInPlace(current_, 0.5));
  p90_.push_back(quantileInPlace(current_, 0.9));
  current_.clear();
}

// --- host context -----------------------------------------------------------------

namespace {

/// Steal and total ticks of the "cpu" line of /proc/stat.
std::pair<uint64_t, uint64_t> cpuTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  uint64_t total = 0;
  uint64_t steal = 0;
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

uint64_t spin(uint64_t iterations) {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint64_t i = 0; i < iterations; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  return x;
}

}  // namespace

HostContext probeHost(const std::string& outputDir) {
  HostContext host;
  host.nproc = static_cast<unsigned>(::sysconf(_SC_NPROCESSORS_ONLN));
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) host.allowedCpus.push_back(cpu);
    }
  }
  if (host.allowedCpus.empty()) host.allowedCpus.push_back(0);
  const size_t n = host.allowedCpus.size();
  host.benchCpus.assign(host.allowedCpus.end() - std::min<size_t>(n, kBenchCpus),
                        host.allowedCpus.end());
  // Producers (or loggers) on distinct CPUs; the third load thread shares
  // the first CPU when only two are in use.
  for (size_t i = 0; i < 3; ++i) {
    host.loadCpus.push_back(host.benchCpus[i % host.benchCpus.size()]);
  }
  host.outputDir = outputDir;
  struct statfs fs{};
  host.outputOnTmpfs = ::statfs(outputDir.c_str(), &fs) == 0 &&
                       static_cast<long>(fs.f_type) == kTmpfsMagic;

  constexpr uint64_t kWork = 40'000'000;
  std::atomic<uint64_t> sink{0};
  const uint64_t t0 = nowNs();
  sink += spin(kWork);
  const double one = static_cast<double>(nowNs() - t0);
  const uint32_t threads = static_cast<uint32_t>(n);
  std::vector<std::thread> pool;
  const uint64_t t1 = nowNs();
  for (uint32_t i = 0; i < threads; ++i) {
    pool.emplace_back([&, i] {
      pinCurrentThread(host.allowedCpus[i]);
      sink += spin(kWork);
    });
  }
  for (std::thread& t : pool) t.join();
  const double all = static_cast<double>(nowNs() - t1);
  host.parallelismThreads = threads;
  host.effectiveParallelism = all > 0 ? threads * one / all : 0;
  std::tie(host.stealTicks, host.totalTicks) = cpuTicks();
  return host;
}

std::string hostJson(const HostContext& host) {
  auto list = [](const std::vector<int>& v) {
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      if (i != 0) s += ",";
      s += std::to_string(v[i]);
    }
    return s + "]";
  };
  std::ostringstream os;
  os << "{\"nproc\":" << host.nproc
     << ",\"allowed_cpus\":" << list(host.allowedCpus)
     << ",\"bench_cpus\":" << list(host.benchCpus)
     << ",\"load_cpus\":" << list(host.loadCpus) << ",\"output_dir\":\""
     << host.outputDir << "\",\"output_tmpfs\":"
     << (host.outputOnTmpfs ? "true" : "false")
     << ",\"parallelism_threads\":" << host.parallelismThreads
     << ",\"effective_parallelism\":" << jsonNumber(host.effectiveParallelism);
  const auto [steal, total] = cpuTicks();
  if (total > host.totalTicks) {
    os << ",\"steal_share\":"
       << jsonNumber(static_cast<double>(steal - host.stealTicks) /
                     static_cast<double>(total - host.totalTicks));
  }
  os << "}";
  return os.str();
}

// --- spans ------------------------------------------------------------------------

namespace {

struct SpanRecord {
  const char* name;
  uint64_t start;
  uint64_t end;
  int64_t parent;
};

struct ThreadLog {
  uint32_t tid = 0;
  std::vector<SpanRecord> spans;
  std::vector<int64_t> open;
};

std::atomic<bool> gSpansEnabled{false};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadLog>> logs;
};

Registry& registry() {
  static Registry r;
  return r;
}

ThreadLog& threadLog() {
  thread_local ThreadLog* mine = nullptr;
  if (mine == nullptr) {
    Registry& r = registry();
    std::lock_guard lock(r.mutex);
    r.logs.push_back(std::make_unique<ThreadLog>());
    mine = r.logs.back().get();
    mine->tid = static_cast<uint32_t>(r.logs.size() - 1);
    mine->spans.reserve(1 << 16);
  }
  return *mine;
}

}  // namespace

void Spans::setEnabled(bool on) noexcept {
  gSpansEnabled.store(on, std::memory_order_release);
}

bool Spans::enabled() noexcept {
  return gSpansEnabled.load(std::memory_order_relaxed);
}

std::map<std::string, Spans::Aggregate> Spans::aggregate() {
  std::map<std::string, Aggregate> out;
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  for (const auto& log : r.logs) {
    std::vector<double> childNs(log->spans.size(), 0.0);
    for (const SpanRecord& s : log->spans) {
      if (s.parent >= 0 && s.end >= s.start) {
        childNs[static_cast<size_t>(s.parent)] +=
            static_cast<double>(s.end - s.start);
      }
    }
    for (size_t i = 0; i < log->spans.size(); ++i) {
      const SpanRecord& s = log->spans[i];
      if (s.end < s.start) continue;  // still open
      const double d = static_cast<double>(s.end - s.start);
      Aggregate& a = out[s.name];
      ++a.count;
      a.totalNs += d;
      a.selfNs += d - childNs[i];
      a.durationsNs.push_back(d);
    }
  }
  return out;
}

bool Spans::write(const std::string& path, size_t maxRaw) {
  const std::map<std::string, Aggregate> agg = aggregate();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const auto& [name, a] : agg) {
    out << "{\"span\":\"" << name << "\",\"count\":" << a.count
        << ",\"total_ns\":" << jsonNumber(a.totalNs)
        << ",\"self_ns\":" << jsonNumber(a.selfNs) << "}\n";
  }
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  size_t written = 0;
  size_t total = 0;
  for (const auto& log : r.logs) {
    for (const SpanRecord& s : log->spans) {
      ++total;
      if (written >= maxRaw) continue;
      ++written;
      out << "{\"thread\":" << log->tid << ",\"name\":\"" << s.name
          << "\",\"start\":" << s.start << ",\"end\":" << s.end
          << ",\"parent\":" << s.parent << "}\n";
    }
  }
  out << "{\"raw_spans_written\":" << written << ",\"raw_spans_total\":" << total
      << "}\n";
  return static_cast<bool>(out);
}

void Spans::clear() {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  for (auto& log : r.logs) {
    log->spans.clear();
    log->open.clear();
  }
}

SpanScope::SpanScope(const char* name) noexcept {
  if (!Spans::enabled()) return;
  ThreadLog& log = threadLog();
  index_ = static_cast<int64_t>(log.spans.size());
  const int64_t parent = log.open.empty() ? -1 : log.open.back();
  log.spans.push_back({name, nowNs(), 0, parent});
  log.open.push_back(index_);
}

SpanScope::~SpanScope() {
  if (index_ < 0) return;
  ThreadLog& log = threadLog();
  if (static_cast<size_t>(index_) < log.spans.size()) {
    log.spans[static_cast<size_t>(index_)].end = nowNs();
  }
  if (!log.open.empty()) log.open.pop_back();
}

// --- timing decorators ----------------------------------------------------------------

void TimingSink::onBuffer(ktrace::BufferRecord&& record) {
  records_.fetch_add(1, std::memory_order_relaxed);
  SpanScope span(name_);
  next_.onBuffer(std::move(record));
}

void TimingSink::onBufferBatch(std::vector<ktrace::BufferRecord>&& records) {
  records_.fetch_add(records.size(), std::memory_order_relaxed);
  SpanScope span(name_);
  next_.onBufferBatch(std::move(records));
}

namespace {

class TimingFile final : public ktrace::util::File {
 public:
  explicit TimingFile(std::unique_ptr<ktrace::util::File> base)
      : base_(std::move(base)) {}
  size_t read(void* buf, size_t bytes) override {
    SpanScope span("util.io");
    return base_->read(buf, bytes);
  }
  size_t write(const void* buf, size_t bytes) override {
    SpanScope span("util.io");
    return base_->write(buf, bytes);
  }
  bool seek(int64_t offset, int whence) override {
    SpanScope span("util.io");
    return base_->seek(offset, whence);
  }
  int64_t tell() override {
    SpanScope span("util.io");
    return base_->tell();
  }
  int64_t size() override {
    SpanScope span("util.io");
    return base_->size();
  }
  bool flush() override {
    SpanScope span("util.io");
    return base_->flush();
  }
  bool truncate(int64_t size) override {
    SpanScope span("util.io");
    return base_->truncate(size);
  }
  int error() const noexcept override { return base_->error(); }

 private:
  std::unique_ptr<ktrace::util::File> base_;
};

}  // namespace

std::unique_ptr<ktrace::util::File> TimingFileSystem::open(const std::string& path,
                                                           const char* mode) {
  SpanScope span("util.io");
  std::unique_ptr<ktrace::util::File> base =
      ktrace::util::FileSystem::stdio().open(path, mode);
  if (base == nullptr) return nullptr;
  return std::make_unique<TimingFile>(std::move(base));
}

// --- results ----------------------------------------------------------------------------

void Outcome::fail(uint64_t count, const std::string& why) {
  correct = false;
  failed += count;
  if (reported.insert(why).second) {
    std::fprintf(stderr, "pipebench: gate failed: %s\n", why.c_str());
  }
}

namespace {

const std::vector<std::pair<std::string, std::string>>& endToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},
      {"log_ns_p50", "ns/event"},
      {"log_ns_p90", "ns/event"},
      {"events_per_s", "events/s"},
      {"cpu_ns_per_event", "ns/event"},
      {"peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

std::vector<double> endToEndValues(const EndToEnd& e) {
  return {e.setupS, e.logNsP50, e.logNsP90, e.eventsPerS, e.cpuNsPerEvent,
          e.peakRssMiB};
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"core.clock_ns", "ns"},
      {"core.reserve_commit_ns", "ns"},
      {"core.log_1w_ns", "ns"},
      {"core.log_word_ns", "ns/word"},
      {"core.selfmon_ns", "ns/event"},
      {"core.slow_path_per_kevent", "1/kevent"},
      {"core.filler_share", "ratio"},
      {"baseline.lock_1w_ns", "ns"},
      {"core.shm_wait_share", "ratio"},
      {"core.shm_buffers_lost", "count"},
      {"core.harvest_ns_per_buffer", "ns/buffer"},
      {"core.harvest_buffers_per_poll", "buffers/poll"},
      {"core.batch_block_share", "ratio"},
      {"core.batch_records_per_flush", "records/flush"},
      {"streaming.tap_ns_per_event", "ns/event"},
      {"streaming.tap_busy_share", "ratio"},
      {"streaming.snapshot_ms", "ms"},
      {"core.write_ns_per_byte", "ns/B"},
      {"core.write_io_share", "ratio"},
      {"core.write_bytes_per_event", "B/event"},
      {"daemon.admit_ms", "ms"},
      {"daemon.top_ms_p50", "ms"},
      {"daemon.top_ms_p90", "ms"},
      {"analysis.decode_raw_ns_per_event", "ns/event"},
      {"analysis.decode_lz_ns_per_event", "ns/event"},
      {"analysis.merge_ns_per_event", "ns/event"},
      {"streaming.fold_ns_per_event", "ns/event"},
      {"analysis.locks_ns_per_event", "ns/event"},
      {"analysis.profile_ns_per_event", "ns/event"},
      {"analysis.attrib_ns_per_event", "ns/event"},
      {"analysis.stats_ns_per_event", "ns/event"},
      {"analysis.bytes_per_event", "B/event"},
      {"input.words_per_event", "words/event"},
      {"input.heap_payload_share", "ratio"},
      {"input.lock_share", "ratio"},
      {"util.lz_ratio", "ratio"},
      {"fail_ratio", "ratio"},
      {"overhead.setup_s", "s"},
      {"overhead.log_ns_p50", "ns/event"},
      {"overhead.log_ns_p90", "ns/event"},
      {"overhead.events_per_s", "events/s"},
      {"overhead.cpu_ns_per_event", "ns/event"},
      {"overhead.peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

int finish(const Args& args, const HostContext& host, Outcome& outcome) {
  const auto& e2e = endToEndMetrics();
  const std::vector<double> traced = endToEndValues(outcome.endToEnd);
  const std::vector<double> untraced = endToEndValues(outcome.untraced);
  outcome.layers["fail_ratio"] =
      outcome.attempted == 0
          ? 1.0
          : static_cast<double>(outcome.failed) /
                static_cast<double>(outcome.attempted);
  if (args.trace) {
    for (size_t i = 0; i < e2e.size(); ++i) {
      outcome.layers["overhead." + e2e[i].first] = traced[i] - untraced[i];
    }
  }

  std::ostringstream ctx;
  ctx << "{\"context\":{\"workload\":\"" << args.workload
      << "\",\"seed\":" << args.seed << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"host\":" << hostJson(host) << ",\"values\":{";
  bool first = true;
  for (const auto& [name, value] : outcome.context) {
    ctx << (first ? "" : ",") << "\"" << name << "\":" << jsonNumber(value);
    first = false;
  }
  if (args.trace) {
    ctx << (first ? "" : ",") << "\"traced_end_to_end\":{";
    for (size_t i = 0; i < e2e.size(); ++i) {
      ctx << (i == 0 ? "" : ",") << "\"" << e2e[i].first
          << "\":" << jsonNumber(traced[i]);
    }
    ctx << "}";
  }
  ctx << "}}}";
  std::printf("%s\n", ctx.str().c_str());

  std::ostringstream res;
  res << "{\"correct\":" << (outcome.correct ? "true" : "false")
      << ",\"attempted\":" << outcome.attempted
      << ",\"failed\":" << outcome.failed << ",\"metrics\":{";
  auto emit = [&](const std::string& name, double value, const std::string& unit,
                  bool comma) {
    res << (comma ? "," : "") << "\"" << name << "\":{\"value\":"
        << jsonNumber(value) << ",\"unit\":\"" << unit << "\"}";
  };
  if (args.trace) {
    const auto& layers = perLayerMetrics();
    for (size_t i = 0; i < layers.size(); ++i) {
      const auto it = outcome.layers.find(layers[i].first);
      emit(layers[i].first, it == outcome.layers.end() ? 0.0 : it->second,
           layers[i].second, i != 0);
    }
  } else {
    for (size_t i = 0; i < e2e.size(); ++i) {
      emit(e2e[i].first, traced[i], e2e[i].second, i != 0);
    }
  }
  res << "}}";
  std::printf("%s\n", res.str().c_str());
  std::fflush(stdout);
  return outcome.correct && outcome.failed == 0 ? 0 : 1;
}

}  // namespace pipebench
