// §5 future work, implemented: "We are investigating how to integrate our
// hot-swapping infrastructure with the tracing infrastructure in order to
// provide feedback for the system to tune itself."
//
// The simulated kernel watches the lock-wait feedback the tracing
// infrastructure provides; when the global allocator lock's cumulative
// wait crosses a threshold, it hot-swaps the lock to per-processor
// instances mid-run — no restart, no retuning by hand. The trace records
// the swap itself (TRACE_LOCK_HOT_SWAP), and the before/after contention
// is visible in the same unified stream.
//
// Run:  ./build/examples/adaptive_tuning
#include <cstdio>

#include "analysis/lock_analysis.hpp"
#include "analysis/reader.hpp"
#include "core/ktrace.hpp"
#include "util/table.hpp"
#include "ossim/machine.hpp"
#include "workload/sdet.hpp"

using namespace ktrace;

namespace {

double runOnce(bool adaptive, analysis::SymbolTable& symbols, std::string* swapLine) {
  FacilityConfig fcfg;
  fcfg.numProcessors = 8;
  fcfg.bufferWords = 1u << 14;
  fcfg.buffersPerProcessor = 64;
  fcfg.mode = Mode::Stream;
  FakeClock boot(0, 0);
  fcfg.clockKind = ClockKind::Virtual;
  fcfg.clockOverride = boot.ref();
  Facility facility(fcfg);
  facility.mask().enableAll();

  MemorySink sink;
  Consumer consumer(facility, sink, {});

  ossim::MachineConfig mcfg;
  mcfg.numProcessors = 8;
  if (adaptive) mcfg.adaptiveLockSplitThresholdNs = 2'000'000;  // 2 ms of waiting
  ossim::Machine machine(mcfg, &facility);
  workload::SdetConfig scfg;
  scfg.numScripts = 16;
  scfg.commandsPerScript = 6;
  scfg.tunedAllocator = false;  // ship the untuned kernel; let it fix itself
  workload::SdetWorkload sdet(scfg, machine, symbols);
  sdet.spawnAll();
  machine.run();

  facility.flushAll();
  consumer.drainNow();
  const auto trace = analysis::TraceSet::fromRecords(sink.records());

  if (swapLine != nullptr) {
    swapLine->clear();
    Registry registry;
    ossim::registerOssimEvents(registry);
    analysis::MergeCursor cursor(trace);
    while (const DecodedEvent* e = cursor.next()) {
      if (e->header.major == Major::Lock &&
          e->header.minor == static_cast<uint16_t>(ossim::LockMinor::HotSwap)) {
        *swapLine = util::strprintf(
            "t=%.3f ms on cpu%u: %s", e->fullTimestamp / 1e6, e->processor,
            registry.formatEvent(*e).c_str());
        break;
      }
    }
  }

  analysis::LockAnalysis la(trace);
  std::printf("  total lock wait: %.3f ms, throughput %.0f scripts/hour, "
              "hot swaps: %llu\n",
              la.totalWaitTicks() / 1e6, sdet.throughputScriptsPerHour(),
              static_cast<unsigned long long>(machine.stats().locksHotSwapped));
  return sdet.throughputScriptsPerHour();
}

}  // namespace

int main() {
  analysis::SymbolTable symbols;
  std::printf("=== static untuned kernel (no feedback loop) ===\n");
  const double before = runOnce(false, symbols, nullptr);

  std::printf("\n=== self-tuning kernel (tracing feedback -> hot swap) ===\n");
  std::string swapLine;
  const double after = runOnce(true, symbols, &swapLine);
  if (!swapLine.empty()) {
    std::printf("  swap recorded in the trace: %s\n", swapLine.c_str());
  }

  std::printf("\nself-tuning speedup: %.2fx — the same data that fed the\n"
              "Figure 7 tool now feeds the kernel itself.\n",
              after / before);
  return 0;
}
