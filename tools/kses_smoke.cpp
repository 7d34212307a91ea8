// kses_smoke: external producer/verifier for the daemon smoke test
// (ci/run_daemon_smoke.sh).
//
// Three subcommands, each a separate process so the CI script can build a
// real multi-process fleet around a live ktraced:
//
//   kses_smoke create SEGMENT --procs=P [--buffer-words=N] [--buffers=N]
//     Creates a session segment sized so a full run can never wrap.
//
//   kses_smoke produce SEGMENT --proc=P --events=N --count-file=F [--park]
//     Attaches, leases processor P, logs N App events with ids
//     ((P+1)<<32)|i, and maintains F (tmp+rename) with the count durably
//     committed so far — a lower bound a verifier can trust even if this
//     process is SIGKILLed mid-event. --park keeps the process alive
//     after logging (a kill target); otherwise it flushes the partial
//     buffer and releases its lease (a clean exit).
//
//   kses_smoke verify --procs=P --count-prefix=PREFIX FILES...
//     Decodes every .ktrc file (all daemon generations together), and
//     checks per processor: no duplicate ids (exactly-once) and the
//     committed prefix recorded in PREFIX.pN is fully present.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "core/decode.hpp"
#include "core/monitor.hpp"
#include "core/shm_session.hpp"
#include "core/trace_file.hpp"
#include "util/cli.hpp"
#include "util/exit_codes.hpp"

namespace {

using namespace ktrace;

uint64_t eventId(uint32_t p, uint64_t i) {
  return (static_cast<uint64_t>(p + 1) << 32) | i;
}

void writeCount(const std::string& path, uint64_t count) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << count << "\n";
  }
  std::rename(tmp.c_str(), path.c_str());
}

uint64_t readCount(const std::string& path) {
  std::ifstream in(path);
  uint64_t count = 0;
  in >> count;
  return count;
}

int runCreate(const util::Cli& cli) {
  const std::string path = cli.positional()[1];
  ShmSession::Config cfg;
  cfg.numProcessors = static_cast<uint32_t>(cli.getInt("procs", 4));
  cfg.bufferWords = static_cast<uint32_t>(cli.getInt("buffer-words", 256));
  cfg.numBuffers = static_cast<uint32_t>(cli.getInt("buffers", 512));
  cfg.maxProducers = static_cast<uint32_t>(
      cli.getInt("max-producers", cfg.numProcessors));
  ShmSession session = ShmSession::create(path, cfg, TscClock::ref());
  std::printf("created %s: %u processors, %u x %u words\n", path.c_str(),
              session.numProcessors(), session.numBuffers(),
              session.bufferWords());
  return util::kExitOk;
}

int runProduce(const util::Cli& cli) {
  const std::string path = cli.positional()[1];
  const uint32_t proc = static_cast<uint32_t>(cli.getInt("proc", 0));
  const uint64_t events = static_cast<uint64_t>(cli.getInt("events", 10'000));
  // Id offset so repeated bursts into one segment stay disjoint — the
  // verifier reads duplicates as a double-drain.
  const uint64_t start = static_cast<uint64_t>(cli.getInt("start", 0));
  const uint64_t throttleEvery =
      static_cast<uint64_t>(cli.getInt("throttle-every", 64));
  const uint64_t heartbeatEvery =
      static_cast<uint64_t>(cli.getInt("heartbeat-every", 0));
  const std::string countFile = cli.getString("count-file", "");
  const bool park = cli.getBool("park", false);

  ShmSession session = ShmSession::attach(path, TscClock::ref());
  const int lease =
      session.acquireLease(static_cast<uint64_t>(::getpid()), proc, proc + 1);
  if (lease < 0) {
    std::fprintf(stderr, "kses_smoke: lease table full in %s\n", path.c_str());
    return util::kExitFailure;
  }
  ShmTraceControl producer =
      session.producerControl(proc, static_cast<uint32_t>(lease));
  uint64_t committed = start;
  uint64_t heartbeatSeq = 0;
  for (uint64_t i = 0; i < events; ++i) {
    if (!producer.logEvent(Major::App, 0, eventId(proc, start + i))) {
      // Fenced (the daemon reclaimed us as stalled) — stop logging; the
      // count file already holds the last durably counted prefix.
      break;
    }
    committed = start + i + 1;
    if (heartbeatEvery != 0 && committed % heartbeatEvery == 0) {
      // The block's harvest counters stand in for a consumer's.
      const Consumer::Stats drained{producer.buffersConsumed(),
                                    producer.commitMismatches(),
                                    producer.buffersLost()};
      logMonitorHeartbeat(producer, heartbeatSeq++, &drained);
    }
    if (!countFile.empty() && (committed % 256 == 0 || i + 1 == events)) {
      writeCount(countFile, committed);
    }
    if (throttleEvery != 0 && i % throttleEvery == 0) ::usleep(20);
  }
  if (!countFile.empty()) writeCount(countFile, committed);
  if (park) {
    for (;;) ::pause();  // a kill target for the harness
  }
  // Clean exit: pad the partial buffer so the daemon can drain everything,
  // then free the lease slot.
  producer.flushCurrentBuffer();
  session.releaseLease(static_cast<uint32_t>(lease));
  return util::kExitOk;
}

int runVerify(const util::Cli& cli) {
  const uint32_t procs = static_cast<uint32_t>(cli.getInt("procs", 4));
  const std::string prefix = cli.getString("count-prefix", "");
  // The committed prefix in the count file is absolute (start + logged).
  // When the files under test only hold a later burst (an earlier burst
  // drained into a previous, since-reclaimed generation), --start bounds
  // the completeness check to ids [start, committed).
  const uint64_t start = static_cast<uint64_t>(cli.getInt("start", 0));
  std::vector<BufferRecord> all;
  for (size_t i = 1; i < cli.positional().size(); ++i) {
    const std::string& file = cli.positional()[i];
    TraceFileReader reader(file);
    for (uint64_t k = 0; k < reader.bufferCount(); ++k) {
      BufferRecord record;
      if (!reader.readBuffer(k, record)) {
        std::fprintf(stderr, "verify: short/corrupt record %llu in %s\n",
                     static_cast<unsigned long long>(k), file.c_str());
        return util::kExitFailure;
      }
      all.push_back(std::move(record));
    }
  }
  bool ok = true;
  for (uint32_t p = 0; p < procs; ++p) {
    std::vector<const BufferRecord*> records;
    for (const BufferRecord& r : all) {
      if (r.processor == p) records.push_back(&r);
    }
    std::sort(records.begin(), records.end(),
              [](const BufferRecord* a, const BufferRecord* b) {
                return a->seq < b->seq;
              });
    std::vector<DecodedEvent> events;
    uint64_t tsBase = 0;
    for (const BufferRecord* r : records) {
      decodeBuffer(r->words, r->seq, p, tsBase, events);
    }
    std::set<uint64_t> ids;
    uint64_t duplicates = 0;
    for (const DecodedEvent& e : events) {
      if (e.header.major != Major::App) continue;
      if (!ids.insert(e.data[0]).second) ++duplicates;
    }
    if (duplicates != 0) {
      std::fprintf(stderr,
                   "verify: processor %u: %llu duplicate ids "
                   "(double-drain)\n",
                   p, static_cast<unsigned long long>(duplicates));
      ok = false;
    }
    uint64_t expected = 0;
    if (!prefix.empty()) {
      expected = readCount(prefix + ".p" + std::to_string(p));
    }
    uint64_t missing = 0;
    for (uint64_t i = start; i < expected; ++i) {
      if (ids.count(eventId(p, i)) == 0) ++missing;
    }
    if (missing != 0) {
      std::fprintf(stderr,
                   "verify: processor %u: lost %llu of %llu committed "
                   "events\n",
                   p, static_cast<unsigned long long>(missing),
                   static_cast<unsigned long long>(expected));
      ok = false;
    }
    std::printf("processor %u: %zu unique ids, committed prefix %llu ok\n", p,
                ids.size(), static_cast<unsigned long long>(expected));
  }
  return ok ? util::kExitOk : util::kExitDamage;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: kses_smoke create SEGMENT --procs=P [--buffer-words=N] "
      "[--buffers=N]\n"
      "       kses_smoke produce SEGMENT --proc=P --events=N "
      "[--start=N] [--count-file=F] [--heartbeat-every=N] [--park]\n"
      "       kses_smoke verify --procs=P [--count-prefix=PREFIX] "
      "[--start=N] FILES...\n");
  return util::kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  if (cli.positional().empty()) return usage();
  const std::string& command = cli.positional()[0];
  try {
    if (command == "create" && cli.positional().size() == 2) {
      return runCreate(cli);
    }
    if (command == "produce" && cli.positional().size() == 2) {
      return runProduce(cli);
    }
    if (command == "verify" && cli.positional().size() >= 2) {
      return runVerify(cli);
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kses_smoke: %s\n", e.what());
    return util::kExitFailure;
  }
}
