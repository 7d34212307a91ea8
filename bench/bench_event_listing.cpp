// F5 (paper Figure 5): the textual trace listing — time in seconds, event
// name, registry-driven description — plus the §3.2 random-access
// property: jump straight to a middle buffer of the on-disk trace and
// start interpreting events from that alignment point.
#include <cstdio>
#include <filesystem>

#include "analysis/lister.hpp"
#include "analysis/reader.hpp"
#include "core/ktrace.hpp"
#include "ossim/machine.hpp"
#include "workload/sdet.hpp"

using namespace ktrace;

int main() {
  FacilityConfig fcfg;
  fcfg.numProcessors = 2;
  fcfg.bufferWords = 1u << 10;  // small buffers so the file has many
  fcfg.buffersPerProcessor = 64;
  fcfg.mode = Mode::Stream;
  Facility facility(fcfg);
  facility.mask().enableAll();

  Registry registry;
  ossim::registerOssimEvents(registry);

  const auto dir = std::filesystem::temp_directory_path() / "ktrace_listing_bench";
  std::filesystem::create_directories(dir);
  TraceFileMeta meta;
  meta.numProcessors = 2;
  meta.bufferWords = fcfg.bufferWords;
  meta.clockKind = ClockKind::Virtual;
  meta.ticksPerSecond = 1e9;
  FileSink files(dir.string(), "sdet", meta);
  Consumer consumer(facility, files, {});

  ossim::MachineConfig mcfg;
  mcfg.numProcessors = 2;
  ossim::Machine machine(mcfg, &facility);
  analysis::SymbolTable symbols;
  workload::SdetConfig scfg;
  scfg.numScripts = 4;
  scfg.commandsPerScript = 5;
  workload::SdetWorkload sdet(scfg, machine, symbols);
  sdet.spawnAll();
  machine.run();

  facility.flushAll();
  consumer.drainNow();
  files.flush();

  // Full decode for the Figure 5 listing.
  const auto trace =
      analysis::TraceSet::fromFiles({files.pathFor(0), files.pathFor(1)});
  std::printf("trace files: %zu events (fillers skipped), %llu garbled buffers\n\n",
              trace.totalEvents(),
              static_cast<unsigned long long>(trace.stats().garbledBuffers));

  std::printf("--- Figure 5 style listing: first 18 events ---\n");
  analysis::ListerOptions opts;
  opts.maxEvents = 18;
  std::fputs(analysis::listEvents(trace, registry, 1e9, opts).c_str(), stdout);

  // Random access: jump to the middle buffer of cpu0's file and decode
  // from that boundary without touching earlier buffers.
  TraceFileReader reader(files.pathFor(0));
  const uint64_t middle = reader.bufferCount() / 2;
  BufferRecord record;
  if (reader.readBuffer(middle, record)) {
    std::vector<DecodedEvent> events;
    uint64_t tsBase = 0;
    const DecodeStats stats =
        decodeBuffer(record.words, record.seq, 0, tsBase, events);
    std::printf("\n--- random access: buffer %llu/%llu of cpu0 "
                "(%llu events decoded from the alignment point) ---\n",
                static_cast<unsigned long long>(middle),
                static_cast<unsigned long long>(reader.bufferCount()),
                static_cast<unsigned long long>(stats.events));
    size_t shown = 0;
    for (const DecodedEvent& e : events) {
      std::printf("%12.7f %-32s %s\n", e.fullTimestamp / 1e9,
                  registry.eventName(e.header.major, e.header.minor).c_str(),
                  registry.formatEvent(e).c_str());
      if (++shown == 8) break;
    }
  }
  std::filesystem::remove_all(dir);
  return 0;
}
