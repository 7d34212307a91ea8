#include "mix.hpp"

#include <cstring>
#include <stdexcept>

#include "analysis/reader.hpp"
#include "analysis/symbols.hpp"
#include "core/consumer.hpp"
#include "core/facility.hpp"
#include "ossim/machine.hpp"
#include "util/rng.hpp"
#include "workload/sdet.hpp"

namespace pipebench {

Mix Mix::fromSdet(uint64_t seed, uint32_t scripts) {
  using namespace ktrace;
  FacilityConfig fcfg;
  fcfg.numProcessors = 2;
  fcfg.buffersPerProcessor = 64;  // the whole run fits: no wrap, no loss
  fcfg.mode = Mode::Stream;
  Facility facility(fcfg);
  facility.mask().enableAll();
  MemorySink sink;
  Consumer consumer(facility, sink, {});

  ossim::MachineConfig mcfg;
  mcfg.numProcessors = 2;
  mcfg.pcSampleIntervalNs = 50'000;
  mcfg.seed = seed;
  ossim::Machine machine(mcfg, &facility);
  analysis::SymbolTable symbols;
  workload::SdetConfig scfg;
  scfg.numScripts = scripts;
  scfg.seed = seed;
  workload::SdetWorkload sdet(scfg, machine, symbols);
  sdet.spawnAll();
  machine.run();
  facility.flushAll();
  consumer.drainNow();

  const analysis::TraceSet trace = analysis::TraceSet::fromRecords(sink.records());
  Mix mix;
  uint64_t totalWords = 0;
  uint64_t heap = 0;
  uint64_t locks = 0;
  analysis::MergeCursor cursor(trace);
  while (const DecodedEvent* e = cursor.next()) {
    if (e->header.major == Major::Control) continue;
    MixEvent m;
    m.major = e->header.major;
    m.minor = e->header.minor;
    m.first = static_cast<uint32_t>(mix.words_.size());
    m.words = e->data.size();
    mix.words_.insert(mix.words_.end(), e->data.begin(), e->data.end());
    mix.events_.push_back(m);
    totalWords += 1 + m.words;
    if (m.words > EventPayload::kInlineWords) ++heap;
    if (m.major == Major::Lock) ++locks;
    if (1 + m.words > mix.maxEventWords_) mix.maxEventWords_ = 1 + m.words;
  }
  if (mix.events_.empty()) throw std::runtime_error("SDET run logged no events");
  const double n = static_cast<double>(mix.events_.size());
  mix.wordsPerEvent_ = static_cast<double>(totalWords) / n;
  mix.heapShare_ = static_cast<double>(heap) / n;
  mix.lockShare_ = static_cast<double>(locks) / n;
  return mix;
}

bool Mix::matches(uint64_t pos, ktrace::Major major, uint16_t minor,
                  std::span<const uint64_t> payload) const noexcept {
  const MixEvent& e = at(pos);
  return e.major == major && e.minor == minor && e.words == payload.size() &&
         std::memcmp(words_.data() + e.first, payload.data(),
                     payload.size() * sizeof(uint64_t)) == 0;
}

uint64_t replayOffset(uint64_t seed, uint32_t stream, size_t mixSize) {
  ktrace::util::Rng rng(seed * 1000003ull + stream);
  return rng.next() % mixSize;
}

}  // namespace pipebench
