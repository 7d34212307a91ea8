// T-cost (paper §3.2 "Efficiency of the Implementation"):
//   - checking the trace mask costs ~4 instructions,
//   - a 1-word event costs 91 cycles (~100 ns at 1 GHz),
//   - each additional 64-bit word costs ~11 cycles,
//   - the per-buffer commit count adds ~6 instructions.
// We report ns/op for a disabled-mask check, events of 0..16 payload
// words (expect a small constant plus a linear per-word term), the
// commit-count ablation, string payloads, and the cost of taking the
// timestamp inside the CAS loop (the monotonicity requirement) vs the
// raw clock reading itself.
#include <benchmark/benchmark.h>

#include "baseline/fixedlen_tracer.hpp"
#include "baseline/locking_tracer.hpp"
#include "core/ktrace.hpp"

namespace {

using namespace ktrace;

FacilityConfig benchConfig(bool commitCounts = true) {
  FacilityConfig cfg;
  cfg.numProcessors = 1;
  cfg.bufferWords = 1u << 14;
  cfg.buffersPerProcessor = 8;  // flight-recorder: wraps, never blocks
  cfg.commitCounts = commitCounts;
  return cfg;
}

// The paper's "4 machine instructions" mask check: the cost of a trace
// statement when its major class is disabled.
void BM_MaskCheckDisabled(benchmark::State& state) {
  Facility facility(benchConfig());
  facility.bindCurrentThread(0);
  facility.mask().disableAll();
  for (auto _ : state) {
    benchmark::DoNotOptimize(facility.log(Major::Test, 1, uint64_t{1}, uint64_t{2}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MaskCheckDisabled);

// Enabled logging, payload size swept 0..16 words. The slope of ns vs
// words is the paper's "+11 cycles per additional word".
void BM_LogEvent(benchmark::State& state) {
  Facility facility(benchConfig());
  facility.bindCurrentThread(0);
  facility.mask().enableAll();
  TraceControl& control = facility.control(0);
  const uint32_t words = static_cast<uint32_t>(state.range(0));
  std::vector<uint64_t> payload(words, 0xABCDEF);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        logEventData(control, Major::Test, 1, payload));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["payload_words"] = words;
}
BENCHMARK(BM_LogEvent)->DenseRange(0, 4, 1)->Arg(8)->Arg(16);

// Fixed-arity fast path (the per-major-ID macro equivalent): compile-time
// length, no span.
void BM_LogEventTyped1(benchmark::State& state) {
  Facility facility(benchConfig());
  facility.bindCurrentThread(0);
  facility.mask().enableAll();
  TraceControl& control = facility.control(0);
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(logEvent(control, Major::Test, 1, ++v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogEventTyped1);

void BM_LogEventTyped4(benchmark::State& state) {
  Facility facility(benchConfig());
  facility.bindCurrentThread(0);
  facility.mask().enableAll();
  TraceControl& control = facility.control(0);
  uint64_t v = 0;
  for (auto _ : state) {
    ++v;
    benchmark::DoNotOptimize(logEvent(control, Major::Test, 1, v, v, v, v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogEventTyped4);

// Ablation: per-buffer commit counts off (the paper's "optional"
// traceCommit, ~6 instructions on the hand-optimized path).
void BM_LogEventNoCommitCounts(benchmark::State& state) {
  Facility facility(benchConfig(/*commitCounts=*/false));
  facility.bindCurrentThread(0);
  facility.mask().enableAll();
  TraceControl& control = facility.control(0);
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(logEvent(control, Major::Test, 1, ++v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogEventNoCommitCounts);

// Variable-length string payload (the generic non-constant-length path).
void BM_LogEventString(benchmark::State& state) {
  Facility facility(benchConfig());
  facility.bindCurrentThread(0);
  facility.mask().enableAll();
  TraceControl& control = facility.control(0);
  const std::string name = "/bin/shellServer";
  for (auto _ : state) {
    benchmark::DoNotOptimize(logEventString(control, Major::User, 0, name));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogEventString);

// The raw cost of the timestamp read that sits inside the CAS loop.
void BM_TimestampInLoop(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(TscClock::now());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimestampInLoop);

// Baseline comparator: the same 1-word event through a global-mutex
// tracer (what §4.1 replaced in LTT).
void BM_LockingTracer1Word(benchmark::State& state) {
  baseline::LockTracerConfig cfg;
  cfg.regionWords = 1u << 17;
  cfg.clock = TscClock::ref();
  baseline::GlobalLockTracer tracer(cfg);
  uint64_t v = 0;
  for (auto _ : state) {
    const uint64_t payload[] = {++v};
    tracer.log(Major::Test, 1, payload);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockingTracer1Word);

// Prior fixed-slot lockless scheme (valid bits), 1-word payload in an
// 8-word slot: comparable logging cost, but see bench_filler_waste for
// the space it wastes on padding.
void BM_FixedSlotTracer1Word(benchmark::State& state) {
  baseline::FixedSlotTracerConfig cfg;
  cfg.slotWords = 8;
  cfg.numSlots = 1u << 14;
  cfg.clock = TscClock::ref();
  baseline::FixedSlotTracer tracer(cfg);
  uint64_t v = 0;
  for (auto _ : state) {
    const uint64_t payload[] = {++v};
    tracer.log(Major::Test, 1, payload);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FixedSlotTracer1Word);

}  // namespace

BENCHMARK_MAIN();
