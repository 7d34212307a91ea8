// ktracetool — command-line front end for the analysis suite.
//
// Operates on the per-processor .ktrc files a FileSink writes (or a crash
// image from writeCrashDump, which is a session segment). One subcommand
// per tool:
//
//   ktracetool list     a.cpu0.ktrc a.cpu1.ktrc [--max=N] [--start=s] [--end=s]
//   ktracetool locks    ... [--top=N] [--sort=time|count|spin|max]
//   ktracetool profile  ... [--pid=P] [--top=N]
//   ktracetool attrib   ... [--pid=P]
//   ktracetool stats    ... [--top=N]
//   ktracetool timeline ... [--width=N]          (ASCII lanes)
//   ktracetool svg      ... [--out=timeline.svg]
//   ktracetool ltt      ... [--max=N]            (LTT-style text dump)
//   ktracetool csv      ... [--max=N]
//   ktracetool deadlock ...
//   ktracetool intervals ...                      (latency distributions)
//   ktracetool hotspots ... [--counter=0] [--top=N]
//   ktracetool crashdump <dump.kses> [--cpu=N] [--max=N]
//   ktracetool fsck     a.cpu0.ktrc ...              (validate / salvage report)
//   ktracetool monitor  ... [--json]                 (self-monitoring counters)
//   ktracetool recover  <segment.kses> [--out=out.ktrace]  (salvage a dead
//                       shared-memory session into v2 trace files)
//
// With --socket=PATH, monitor / tenants / evict talk to a running ktraced
// instead of reading files:
//   ktracetool monitor --socket=PATH [--follow [--max-updates=N]]
//   ktracetool tenants --socket=PATH
//   ktracetool evict NAME --socket=PATH
//
// Every trace-reading subcommand accepts --salvage: tolerate torn and
// corrupt records (counting them) instead of stopping at the damage.
// Decode is parallel (one task per file) and zero-copy (mmap) by
// default: --threads=N caps the fan-out (0 = hardware concurrency) and
// --no-mmap forces the buffered stdio read path.
//
// Exit codes come from util/exit_codes.hpp, the single source of truth
// shared with ktraced (usage() prints the table from it).
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "core/trace_file.hpp"

#include "analysis/completeness.hpp"
#include "analysis/deadlock.hpp"
#include "analysis/event_stats.hpp"
#include "analysis/hwcounters.hpp"
#include "analysis/intervals.hpp"
#include "analysis/lister.hpp"
#include "analysis/lock_analysis.hpp"
#include "analysis/ltt_export.hpp"
#include "analysis/profile.hpp"
#include "analysis/reader.hpp"
#include "analysis/streaming/engine.hpp"
#include "analysis/streaming/folds.hpp"
#include "analysis/streaming/monitors.hpp"
#include "analysis/time_attribution.hpp"
#include "analysis/timeline.hpp"
#include "core/ktrace.hpp"
#include "core/shm_session.hpp"
#include "ossim/events.hpp"
#include "replay/replay_engine.hpp"
#include "util/cli.hpp"
#include "util/exit_codes.hpp"
#include "util/net.hpp"

using namespace ktrace;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: ktracetool <command> <trace files...> [flags]\n"
      "\n"
      "commands:\n"
      "  list       one line per event           [--max=N] [--start=s] [--end=s] [--gaps]\n"
      "  locks      contended-lock report        [--top=N] [--sort=time|count|spin|max]\n"
      "  profile    PC-sample profile            [--pid=P] [--top=N]\n"
      "  attrib     per-process time attribution [--pid=P]\n"
      "  stats      event counts + tracer stats  [--top=N]\n"
      "  timeline   ASCII per-cpu lanes          [--width=N]\n"
      "  svg        SVG timeline                 [--out=timeline.svg]\n"
      "  ltt        LTT-style text dump          [--max=N]\n"
      "  csv        CSV export                   [--max=N]\n"
      "  deadlock   lock-cycle detection         (exit 3 when a cycle is found)\n"
      "  intervals  latency distributions\n"
      "  hotspots   hw-counter hotspots          [--counter=0] [--top=N]\n"
      "  crashdump  flight-recorder dump         <dump.kses> [--cpu=N] [--max=N]\n"
      "  fsck       validate / salvage report    (exit 4 when damage is found)\n"
      "  monitor    self-monitoring counters     [--json]\n"
      "  top        streaming-window replay      [--window-ms=N] [--monitors=FILE]\n"
      "             [--tenant=NAME] [--json] [--rows=N]\n"
      "  recover    salvage a dead shm session   <segment> [--out=out.ktrace]\n"
      "             (exit 4 when the segment is damaged or held torn buffers)\n"
      "  record     record a replayable SDET run <out-prefix> [--cpus=N] [--scripts=N]\n"
      "             [--commands=N] [--seed=N] [--quantum-ns=N] [--work-stealing]\n"
      "             [--tuned-allocator] [--staggered-start] [--heartbeat-ns=N]\n"
      "             [--lock-split-ns=N] [--buffer-words=N] [--buffers-per-cpu=N]\n"
      "             [--until-ns=N] [--compress]\n"
      "  replay     re-drive a recorded run      [--what-if k=v[,k=v...]] [--json]\n"
      "             (exit 5 when a pure replay diverges from its recording;\n"
      "             what-if keys: quantum-ns work-stealing tuned-allocator\n"
      "             staggered-start lock-split-ns buffer-words\n"
      "             buffers-per-processor batch-records shards compress)\n"
      "\n"
      "daemon control (against a running ktraced):\n"
      "  monitor --socket=PATH [--follow [--max-updates=N]]\n"
      "  tenants --socket=PATH [--json]\n"
      "  top     --socket=PATH [--once] [--json] [--interval-ms=N] [--rows=N]\n"
      "  storage --socket=PATH\n"
      "  evict NAME --socket=PATH\n"
      "\n"
      "global flags (trace-reading commands):\n"
      "  --salvage    tolerate torn/corrupt records instead of stopping\n"
      "  --threads=N  decode fan-out (0 = hardware concurrency)\n"
      "  --no-mmap    force the buffered stdio read path\n"
      "\n"
      "exit codes:\n");
  for (const util::ExitCodeRow* row = util::exitCodeTable();
       row->meaning != nullptr; ++row) {
    std::fprintf(stderr, "  %d  %s\n", row->code, row->meaning);
  }
  return util::kExitUsage;
}

/// Extracts one top-level field from a flat NDJSON line. Strings come
/// back unquoted; numbers/null/arrays come back as the raw token (nested
/// brackets balanced). Missing key -> "".
std::string jsonRawField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  size_t i = at + needle.size();
  if (i < line.size() && line[i] == '"') {
    const size_t close = line.find('"', i + 1);
    return close == std::string::npos ? "" : line.substr(i + 1, close - i - 1);
  }
  size_t end = i;
  int depth = 0;
  while (end < line.size()) {
    const char c = line[end];
    if (c == '[' || c == '{') {
      ++depth;
    } else if (c == ']' || c == '}') {
      if (depth == 0) break;
      --depth;
    } else if (c == ',' && depth == 0) {
      break;
    }
    ++end;
  }
  return line.substr(i, end - i);
}

std::vector<std::string> splitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Renders one `top` snapshot (the NDJSON lines between two "end" lines)
/// as a per-tenant dashboard: header, the newest `windowRows` completed
/// windows, and the derived-monitor summaries.
void renderTopFrame(const std::vector<std::string>& lines, size_t windowRows) {
  std::string tenant;
  double tps = 0.0;
  std::vector<const std::string*> windows;
  std::vector<const std::string*> monitors;
  bool sawTenant = false;

  auto flushTenant = [&]() {
    if (tenant.empty()) return;
    const size_t first =
        windows.size() > windowRows ? windows.size() - windowRows : 0;
    if (windows.empty()) {
      std::printf("  (no completed windows yet)\n");
    } else {
      std::printf("  %6s %10s %8s %10s  %s\n", "window", "start_s", "events",
                  "cum", "per-cpu");
      for (size_t i = first; i < windows.size(); ++i) {
        const std::string& w = *windows[i];
        const double startTick =
            std::strtod(jsonRawField(w, "start_tick").c_str(), nullptr);
        // Per-cpu counts: the "events" values inside the per_cpu array.
        std::string perCpu;
        const std::string cpuArray = jsonRawField(w, "per_cpu");
        size_t pos = 0;
        const std::string evKey = "\"events\":";
        while ((pos = cpuArray.find(evKey, pos)) != std::string::npos) {
          pos += evKey.size();
          size_t end = pos;
          while (end < cpuArray.size() && cpuArray[end] != ',' &&
                 cpuArray[end] != '}') {
            ++end;
          }
          if (!perCpu.empty()) perCpu += '/';
          perCpu += cpuArray.substr(pos, end - pos);
          pos = end;
        }
        std::printf("  %6s %10.4f %8s %10s  %s\n",
                    jsonRawField(w, "index").c_str(),
                    tps > 0.0 ? startTick / tps : 0.0,
                    jsonRawField(w, "events").c_str(),
                    jsonRawField(w, "cum_events").c_str(), perCpu.c_str());
      }
      if (first > 0) std::printf("  (%zu older window(s) not shown)\n", first);
    }
    for (const std::string* m : monitors) {
      std::printf("  monitor %-20s last=%-12s min=%-12s max=%-12s over %s "
                  "window(s)\n",
                  jsonRawField(*m, "name").c_str(),
                  jsonRawField(*m, "last").c_str(),
                  jsonRawField(*m, "min").c_str(),
                  jsonRawField(*m, "max").c_str(),
                  jsonRawField(*m, "windows").c_str());
    }
    windows.clear();
    monitors.clear();
    tenant.clear();
  };

  for (const std::string& line : lines) {
    const std::string type = jsonRawField(line, "type");
    if (type == "top") {
      flushTenant();
      sawTenant = true;
      tenant = jsonRawField(line, "tenant");
      tps = std::strtod(jsonRawField(line, "ticks_per_second").c_str(), nullptr);
      std::printf("tenant %s: %s cpu(s), %s event(s), %s window(s) completed, "
                  "%s late, watermark tick %s\n",
                  tenant.c_str(), jsonRawField(line, "processors").c_str(),
                  jsonRawField(line, "events").c_str(),
                  jsonRawField(line, "windows_completed").c_str(),
                  jsonRawField(line, "late_events").c_str(),
                  jsonRawField(line, "watermark_tick").c_str());
    } else if (type == "window") {
      windows.push_back(&line);
    } else if (type == "monitor") {
      monitors.push_back(&line);
    }
  }
  flushTenant();
  if (!sawTenant) {
    std::printf("no live-analysis snapshots (daemon running with "
                "--no-streaming, or no attached tenants)\n");
  }
}

/// Renders the daemon's tenant NDJSON as a table (the default for
/// `ktracetool tenants`; --json passes the raw lines through).
void renderTenantsTable(const std::vector<std::string>& lines) {
  std::printf("%-16s %-11s %4s %5s %8s %8s %8s %12s %s\n", "name", "state",
              "gen", "cpus", "pending", "dropped", "queued", "bytes",
              "last_error");
  for (const std::string& line : lines) {
    if (jsonRawField(line, "type") != "tenant") continue;
    std::printf("%-16s %-11s %4s %5s %8s %8s %8s %12s %s\n",
                jsonRawField(line, "name").c_str(),
                jsonRawField(line, "state").c_str(),
                jsonRawField(line, "generation").c_str(),
                jsonRawField(line, "processors").c_str(),
                jsonRawField(line, "pending").c_str(),
                jsonRawField(line, "records_dropped").c_str(),
                jsonRawField(line, "queued").c_str(),
                jsonRawField(line, "bytes_written").c_str(),
                jsonRawField(line, "last_error").c_str());
  }
}

/// Daemon control client: sends one-line commands over the Unix socket
/// and relays ktraced's newline-delimited JSON. A reply ends at its
/// {"type":"end",...} line; `follow` streams until the daemon goes away
/// (or --max-updates lines, for scripts).
int runDaemonClient(const std::string& command, const std::string& socketPath,
                    const util::Cli& cli,
                    const std::vector<std::string>& args) {
  std::string error;
  util::UnixStream stream = util::UnixStream::connect(socketPath, &error);
  if (!stream.valid()) {
    std::fprintf(stderr, "ktracetool: %s\n", error.c_str());
    return util::kExitFailure;
  }
  auto sendLine = [&](const std::string& line) {
    return stream.writeAll(line + "\n");
  };
  auto printUntilEnd = [&]() -> int {
    std::string line;
    while (stream.readLine(line)) {
      std::printf("%s\n", line.c_str());
      if (line.find("\"type\":\"end\"") != std::string::npos) {
        return line.find("\"ok\":true") != std::string::npos
                   ? util::kExitOk
                   : util::kExitFailure;
      }
      line.clear();
    }
    std::fprintf(stderr, "ktracetool: daemon closed the connection\n");
    return util::kExitFailure;
  };
  // Like printUntilEnd but collects the reply body for local rendering.
  auto collectUntilEnd = [&](std::vector<std::string>& lines) -> int {
    std::string line;
    while (stream.readLine(line)) {
      if (line.find("\"type\":\"end\"") != std::string::npos) {
        return line.find("\"ok\":true") != std::string::npos
                   ? util::kExitOk
                   : util::kExitFailure;
      }
      lines.push_back(line);
      line.clear();
    }
    std::fprintf(stderr, "ktracetool: daemon closed the connection\n");
    return util::kExitFailure;
  };
  if (command == "monitor") {
    if (!sendLine("status")) return util::kExitFailure;
    const int rc = printUntilEnd();
    if (rc != util::kExitOk || !cli.getBool("follow", false)) return rc;
    if (!sendLine("follow")) return util::kExitFailure;
    const int64_t maxUpdates = cli.getInt("max-updates", 0);
    int64_t lines = 0;
    std::string line;
    while (stream.readLine(line, 60'000)) {
      std::printf("%s\n", line.c_str());
      std::fflush(stdout);
      line.clear();
      if (maxUpdates > 0 && ++lines >= maxUpdates) return util::kExitOk;
    }
    return util::kExitOk;  // daemon exited; the stream just ends
  }
  if (command == "tenants") {
    if (!sendLine("tenants")) return util::kExitFailure;
    if (cli.getBool("json", false)) return printUntilEnd();
    std::vector<std::string> lines;
    const int rc = collectUntilEnd(lines);
    if (rc != util::kExitOk) return rc;
    renderTenantsTable(lines);
    return util::kExitOk;
  }
  if (command == "top") {
    // Self-refreshing dashboard over the daemon's per-tenant streaming
    // snapshots; --once --json is the script/CI interface. One connection
    // serves every refresh.
    const bool once = cli.getBool("once", false);
    const bool json = cli.getBool("json", false);
    const auto interval =
        std::chrono::milliseconds(cli.getInt("interval-ms", 1000));
    const size_t rows = static_cast<size_t>(cli.getInt("rows", 8));
    for (;;) {
      if (!sendLine("top")) return util::kExitFailure;
      std::vector<std::string> lines;
      const int rc = collectUntilEnd(lines);
      if (rc != util::kExitOk) return rc;
      if (json) {
        for (const std::string& line : lines) std::printf("%s\n", line.c_str());
      } else {
        if (!once) std::printf("\033[2J\033[H");  // clear + home
        renderTopFrame(lines, rows);
      }
      std::fflush(stdout);
      if (once) return util::kExitOk;
      std::this_thread::sleep_for(interval);
    }
  }
  if (command == "evict") {
    if (args.empty()) {
      std::fprintf(stderr, "usage: ktracetool evict NAME --socket=PATH\n");
      return util::kExitUsage;
    }
    if (!sendLine("evict " + args[0])) return util::kExitFailure;
    return printUntilEnd();
  }
  if (command == "storage") {
    // Storage mode + retention counters (DESIGN.md §15), one JSON line.
    if (!sendLine("storage")) return util::kExitFailure;
    return printUntilEnd();
  }
  std::fprintf(stderr,
               "ktracetool: --socket only applies to monitor/tenants/top/"
               "storage/evict\n");
  return util::kExitUsage;
}

/// Replays TRACE_MONITOR heartbeats into a per-processor health table (or
/// machine-readable JSON with --json), plus the completeness verdict.
int runMonitor(const analysis::TraceSet& trace, bool json) {
  const double tps = trace.ticksPerSecond();

  struct CpuMonitor {
    uint64_t heartbeats = 0;
    uint64_t firstTick = 0;
    uint64_t lastTick = 0;
    Heartbeat first;
    Heartbeat last;
  };
  std::vector<CpuMonitor> cpus(trace.numProcessors());
  Heartbeat consumer;  // newest heartbeat's consumer totals, any cpu
  uint64_t consumerTick = 0;
  for (uint32_t p = 0; p < trace.numProcessors(); ++p) {
    CpuMonitor& cm = cpus[p];
    for (const DecodedEvent& e : trace.processorEvents(p)) {
      Heartbeat hb;
      if (!parseHeartbeat(e, hb)) continue;
      if (cm.heartbeats == 0) {
        cm.first = hb;
        cm.firstTick = e.fullTimestamp;
      }
      cm.last = hb;
      cm.lastTick = e.fullTimestamp;
      ++cm.heartbeats;
      if (e.fullTimestamp >= consumerTick) {
        consumerTick = e.fullTimestamp;
        consumer = hb;
      }
    }
  }

  const analysis::CompletenessReport report =
      analysis::CompletenessReport::analyze(trace);

  auto rate = [&](const CpuMonitor& cm) -> double {
    if (cm.heartbeats < 2 || cm.lastTick <= cm.firstTick) return 0.0;
    const double seconds =
        static_cast<double>(cm.lastTick - cm.firstTick) / tps;
    return static_cast<double>(cm.last.eventsLogged - cm.first.eventsLogged) /
           seconds;
  };

  if (json) {
    std::string completeness = report.toJson();
    while (!completeness.empty() &&
           (completeness.back() == '\n' || completeness.back() == ' ')) {
      completeness.pop_back();
    }
    std::printf("{\n");
    std::printf("  \"ticks_per_second\": %.1f,\n", tps);
    std::printf("  \"processors\": [");
    bool firstCpu = true;
    for (uint32_t p = 0; p < cpus.size(); ++p) {
      const CpuMonitor& cm = cpus[p];
      if (cm.heartbeats == 0) continue;
      std::printf("%s\n    {\"cpu\": %u, \"heartbeats\": %llu, "
                  "\"events_logged\": %llu, \"bytes_reserved\": %llu, "
                  "\"reserve_retries\": %llu, \"slow_path_entries\": %llu, "
                  "\"events_dropped\": %llu, \"filler_words\": %llu, "
                  "\"stale_commits\": %llu, \"buffer_seq\": %llu, "
                  "\"events_per_second\": %.1f}",
                  firstCpu ? "" : ",", p,
                  static_cast<unsigned long long>(cm.heartbeats),
                  static_cast<unsigned long long>(cm.last.eventsLogged),
                  static_cast<unsigned long long>(cm.last.wordsReserved * 8),
                  static_cast<unsigned long long>(cm.last.reserveRetries),
                  static_cast<unsigned long long>(cm.last.slowPathEntries),
                  static_cast<unsigned long long>(cm.last.eventsDropped),
                  static_cast<unsigned long long>(cm.last.fillerWords),
                  static_cast<unsigned long long>(cm.last.staleCommits),
                  static_cast<unsigned long long>(cm.last.bufferSeq),
                  rate(cm));
      firstCpu = false;
    }
    std::printf("%s,\n", firstCpu ? "]" : "\n  ]");
    std::printf("  \"consumer\": {\"buffers_consumed\": %llu, "
                "\"buffers_lost\": %llu, \"commit_mismatches\": %llu},\n",
                static_cast<unsigned long long>(consumer.consumerBuffers),
                static_cast<unsigned long long>(consumer.consumerLost),
                static_cast<unsigned long long>(consumer.consumerMismatches));
    std::printf("  \"sink\": {\"records_dropped\": %llu, "
                "\"backpressure_waits\": %llu, \"bytes_written\": %llu, "
                "\"raw_bytes\": %llu},\n",
                static_cast<unsigned long long>(consumer.sinkDropped),
                static_cast<unsigned long long>(consumer.sinkBackpressure),
                static_cast<unsigned long long>(consumer.sinkBytesWritten),
                static_cast<unsigned long long>(consumer.sinkRawBytes));
    std::printf("  \"recovery\": {\"reclaimed_words\": %llu, "
                "\"torn_buffers\": %llu},\n",
                static_cast<unsigned long long>(consumer.reclaimedWords),
                static_cast<unsigned long long>(consumer.tornBuffers));
    std::printf("  \"completeness\": %s\n", completeness.c_str());
    std::printf("}\n");
    return 0;
  }

  bool any = false;
  std::printf("%-4s %10s %12s %14s %9s %9s %9s %12s %8s %12s\n", "cpu",
              "beats", "events", "bytes", "retries", "slowpath", "dropped",
              "filler", "bufseq", "events/s");
  for (uint32_t p = 0; p < cpus.size(); ++p) {
    const CpuMonitor& cm = cpus[p];
    if (cm.heartbeats == 0) continue;
    any = true;
    std::printf("%-4u %10llu %12llu %14llu %9llu %9llu %9llu %12llu %8llu %12.1f\n",
                p, static_cast<unsigned long long>(cm.heartbeats),
                static_cast<unsigned long long>(cm.last.eventsLogged),
                static_cast<unsigned long long>(cm.last.wordsReserved * 8),
                static_cast<unsigned long long>(cm.last.reserveRetries),
                static_cast<unsigned long long>(cm.last.slowPathEntries),
                static_cast<unsigned long long>(cm.last.eventsDropped),
                static_cast<unsigned long long>(cm.last.fillerWords),
                static_cast<unsigned long long>(cm.last.bufferSeq), rate(cm));
  }
  if (!any) {
    std::printf("no TRACE_MONITOR heartbeats in this trace "
                "(self-monitoring off or Monitor class not running)\n");
  } else {
    std::printf("consumer: %llu buffer(s) consumed, %llu lost, "
                "%llu commit mismatch(es)\n",
                static_cast<unsigned long long>(consumer.consumerBuffers),
                static_cast<unsigned long long>(consumer.consumerLost),
                static_cast<unsigned long long>(consumer.consumerMismatches));
    if (consumer.sinkDropped != 0 || consumer.sinkBackpressure != 0 ||
        consumer.staleCommits != 0) {
      std::printf("sink: %llu record(s) dropped, %llu backpressure wait(s); "
                  "%llu stale commit(s) discarded\n",
                  static_cast<unsigned long long>(consumer.sinkDropped),
                  static_cast<unsigned long long>(consumer.sinkBackpressure),
                  static_cast<unsigned long long>(consumer.staleCommits));
    }
    if (consumer.sinkRawBytes > consumer.sinkBytesWritten) {
      // rawBytes > bytesWritten only when the sink compresses. A sink
      // that has accepted records but not yet flushed a block reports
      // bytesWritten == 0 — show "--" rather than dividing by zero.
      if (consumer.sinkBytesWritten != 0) {
        std::printf("sink: %llu byte(s) written for %llu raw "
                    "(compression ratio %.2fx)\n",
                    static_cast<unsigned long long>(consumer.sinkBytesWritten),
                    static_cast<unsigned long long>(consumer.sinkRawBytes),
                    static_cast<double>(consumer.sinkRawBytes) /
                        static_cast<double>(consumer.sinkBytesWritten));
      } else {
        std::printf("sink: 0 byte(s) written for %llu raw "
                    "(compression ratio --, nothing flushed yet)\n",
                    static_cast<unsigned long long>(consumer.sinkRawBytes));
      }
    }
    if (consumer.tornBuffers != 0 || consumer.reclaimedWords != 0) {
      std::printf("recovery: %llu torn buffer(s) reclaimed, %llu filler "
                  "word(s) stamped\n",
                  static_cast<unsigned long long>(consumer.tornBuffers),
                  static_cast<unsigned long long>(consumer.reclaimedWords));
    }
  }
  std::fputs(report.report(tps).c_str(), stdout);
  return 0;
}

/// Validates (and reports salvageable damage in) each trace file. Exit 0
/// when every file is clean, 4 when any is damaged or unreadable.
int runFsck(const std::vector<std::string>& files) {
  int rc = util::kExitOk;
  for (const std::string& file : files) {
    try {
      TraceReaderOptions options;
      options.salvage = true;
      TraceFileReader reader(file, options);
      const SalvageReport& r = reader.salvageReport();
      std::printf("%s: format v%u, cpu %u, %llu good record(s), %llu torn, "
                  "%llu corrupt, %llu byte(s) skipped%s%s%s\n",
                  file.c_str(), r.formatVersion, reader.meta().processorId,
                  static_cast<unsigned long long>(r.goodRecords),
                  static_cast<unsigned long long>(r.tornRecords),
                  static_cast<unsigned long long>(r.corruptRecords),
                  static_cast<unsigned long long>(r.skippedBytes),
                  r.footerDamaged ? "  [FOOTER DAMAGED: fell back to scan]"
                                  : "",
                  r.corruptBlocks != 0 ? "  [COMPRESSED BLOCK(S) DROPPED]"
                                       : "",
                  r.clean() ? "" : "  [CORRUPT]");
      if (r.corruptBlocks != 0) {
        std::printf("%s: %llu compressed block(s) failed their CRC and were "
                    "dropped whole\n",
                    file.c_str(),
                    static_cast<unsigned long long>(r.corruptBlocks));
      }
      if (!r.clean()) rc = util::kExitDamage;
    } catch (const std::exception& e) {
      std::printf("%s: unreadable: %s\n", file.c_str(), e.what());
      rc = util::kExitDamage;
    }
  }
  if (rc != 0) {
    std::fprintf(stderr,
                 "fsck: damage detected; intact records are recoverable with "
                 "--salvage\n");
  }
  // Beyond per-record integrity: replay TRACE_MONITOR heartbeats to check
  // the *stream* is complete (no lapped or skipped buffers). Warnings
  // only — exit 4 stays reserved for file-level damage.
  try {
    DecodeOptions decodeOptions;
    decodeOptions.salvage = true;
    const auto trace = analysis::TraceSet::fromFiles(files, decodeOptions);
    const analysis::CompletenessReport report =
        analysis::CompletenessReport::analyze(trace);
    if (!report.complete()) {
      std::fprintf(stderr, "fsck: %s", report.report(trace.ticksPerSecond()).c_str());
    } else if (report.hasHeartbeats()) {
      std::printf("completeness: COMPLETE (heartbeat-verified, no gaps)\n");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fsck: completeness check skipped: %s\n", e.what());
  }
  return rc;
}

/// Salvages a dead shared-memory session segment into valid trace
/// files. The segment is mapped copy-on-write (the on-disk evidence is
/// never mutated); torn reservations are stamped with filler so every
/// event committed before the crash decodes cleanly.
///
/// Exit-code boundary, consistent with fsck: 0 when the segment was clean
/// (nothing dead, nothing torn), 4 when it was unreadable/corrupt or
/// recovery found damage, 1 when writing the output failed.
int runRecover(const std::string& segment, const std::string& outPath) {
  std::unique_ptr<ShmSession> session;
  try {
    session = std::make_unique<ShmSession>(
        ShmSession::attachForRecovery(segment, TscClock::ref()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "recover: %s: %s\n", segment.c_str(), e.what());
    return util::kExitDamage;
  }
  const uint32_t numProcessors = session->numProcessors();

  // One output file per processor: exactly --out for a single-processor
  // session, FileSink-style ".cpuN" insertion otherwise.
  auto pathFor = [&](uint32_t p) {
    if (numProcessors == 1) return outPath;
    const size_t dot = outPath.rfind('.');
    const std::string stem =
        dot == std::string::npos ? outPath : outPath.substr(0, dot);
    const std::string ext =
        dot == std::string::npos ? std::string(".ktrc") : outPath.substr(dot);
    return stem + ".cpu" + std::to_string(p) + ext;
  };

  struct WriterSink final : Sink {
    std::vector<std::unique_ptr<TraceFileWriter>> writers;
    bool failed = false;
    std::string error;
    void onBuffer(BufferRecord&& record) override {
      if (record.processor >= writers.size()) return;
      TraceFileWriter& w = *writers[record.processor];
      if (!w.writeBuffer(record) && !failed) {
        failed = true;
        error = w.errorMessage();
      }
    }
  } sink;
  sink.writers.reserve(numProcessors);
  for (uint32_t p = 0; p < numProcessors; ++p) {
    sink.writers.push_back(
        std::make_unique<TraceFileWriter>(pathFor(p), session->fileMeta(p)));
  }

  SessionWatchdog::Config config;
  // Offline: the segment's producers belong to a finished (possibly
  // crashed) run, and their pids may since have been recycled — a live
  // process with a recycled pid must not make the dead segment look alive.
  config.checkPids = false;
  SessionWatchdog watchdog(*session, sink, config);
  watchdog.recoverNow();

  for (uint32_t p = 0; p < numProcessors; ++p) {
    if (!sink.writers[p]->flush() && !sink.failed) {
      sink.failed = true;
      sink.error = sink.writers[p]->errorMessage();
    }
  }

  const RecoveryStats stats = watchdog.stats();
  for (uint32_t p = 0; p < numProcessors; ++p) {
    std::printf("%s: cpu %u, %llu buffer(s) recovered\n", pathFor(p).c_str(), p,
                static_cast<unsigned long long>(sink.writers[p]->buffersWritten()));
  }
  std::printf("recover: %llu dead, %llu fenced producer(s); %llu torn "
              "buffer(s), %llu word(s) reclaimed, %llu buffer(s) abandoned\n",
              static_cast<unsigned long long>(stats.deadProducers),
              static_cast<unsigned long long>(stats.fencedProducers),
              static_cast<unsigned long long>(stats.tornBuffers),
              static_cast<unsigned long long>(stats.reclaimedWords),
              static_cast<unsigned long long>(stats.abandonedBuffers));
  if (sink.failed) {
    std::fprintf(stderr, "recover: write failed: %s\n", sink.error.c_str());
    return util::kExitFailure;
  }
  // Draining leftover complete buffers (buffersRecovered) is not damage;
  // dead/fenced producers, torn laps, or lapped buffers are.
  const bool damage = stats.deadProducers != 0 || stats.fencedProducers != 0 ||
                      stats.tornBuffers != 0 || stats.reclaimedWords != 0 ||
                      stats.abandonedBuffers != 0;
  return damage ? util::kExitDamage : util::kExitOk;
}

Registry& toolRegistry() {
  Registry& registry = Registry::global();
  ossim::registerOssimEvents(registry);
  return registry;
}

/// `ktracetool record OUT_PREFIX`: run a deterministic SDET workload and
/// write it as per-processor v3 trace files (OUT_PREFIX.cpuN.ktrc) with
/// an embedded replay manifest.
int runRecord(const std::string& outPrefix, const util::Cli& cli) {
  replay::RecordingSpec spec;
  spec.machine.numProcessors = static_cast<uint32_t>(cli.getInt("cpus", 4));
  spec.machine.quantumNs =
      static_cast<ossim::Tick>(cli.getInt("quantum-ns", 10'000'000));
  spec.machine.workStealing = cli.getBool("work-stealing", false);
  spec.machine.monitorHeartbeatIntervalNs =
      static_cast<ossim::Tick>(cli.getInt("heartbeat-ns", 0));
  spec.machine.adaptiveLockSplitThresholdNs =
      static_cast<ossim::Tick>(cli.getInt("lock-split-ns", 0));
  spec.machine.seed = static_cast<uint64_t>(cli.getInt("seed", 1));
  spec.sdet.numScripts = static_cast<uint32_t>(cli.getInt("scripts", 8));
  spec.sdet.commandsPerScript =
      static_cast<uint32_t>(cli.getInt("commands", 12));
  spec.sdet.seed = static_cast<uint64_t>(cli.getInt("seed", 7));
  spec.sdet.tunedAllocator = cli.getBool("tuned-allocator", false);
  spec.sdet.staggeredStart = cli.getBool("staggered-start", false);
  spec.bufferWords = static_cast<uint32_t>(cli.getInt("buffer-words", 1 << 12));
  spec.buffersPerProcessor =
      static_cast<uint32_t>(cli.getInt("buffers-per-cpu", 256));
  spec.runUntilNs = static_cast<ossim::Tick>(cli.getInt("until-ns", 0));

  const replay::RunArtifacts artifacts = replay::runRecording(spec, nullptr);

  const size_t slash = outPrefix.find_last_of('/');
  const std::string directory =
      slash == std::string::npos ? "." : outPrefix.substr(0, slash);
  const std::string baseName =
      slash == std::string::npos ? outPrefix : outPrefix.substr(slash + 1);
  TraceFileMeta meta;
  meta.numProcessors = spec.machine.numProcessors;
  meta.bufferWords = spec.bufferWords;
  meta.clockKind = ClockKind::Virtual;
  meta.ticksPerSecond = 1e9;
  meta.startWallNs = 0;  // virtual-time recording: fully deterministic files
  meta.startTicks = 0;
  TraceWriterOptions writerOptions;
  writerOptions.compress = cli.getBool("compress", false);
  FileSink sink(directory, baseName, meta, nullptr, writerOptions);
  // Eight records at a time, as ktraced's BatchingSink hands them over: a
  // FileSink compresses batches, so --compress writes the daemon's blocks.
  constexpr size_t kBatchRecords = 8;
  const std::vector<BufferRecord>& records = artifacts.records;
  for (size_t i = 0; i < records.size(); i += kBatchRecords) {
    const auto first = records.begin() + static_cast<ptrdiff_t>(i);
    sink.onBufferBatch(std::vector<BufferRecord>(
        first, first + static_cast<ptrdiff_t>(
                           std::min(kBatchRecords, records.size() - i))));
  }
  if (!sink.flush()) {
    std::fprintf(stderr, "record: write failed: %s\n",
                 sink.errorMessage().c_str());
    return util::kExitFailure;
  }
  std::fprintf(stderr,
               "recorded %u-cpu SDET run: %zu buffer(s), makespan %llu ns, "
               "%.1f scripts/hour, %llu event(s) dropped at source\n",
               spec.machine.numProcessors, artifacts.records.size(),
               static_cast<unsigned long long>(artifacts.makespanNs),
               artifacts.throughputScriptsPerHour,
               static_cast<unsigned long long>(artifacts.eventsDroppedAtSource));
  for (uint32_t p = 0; p < spec.machine.numProcessors; ++p) {
    std::fprintf(stdout, "%s\n", sink.pathFor(p).c_str());
  }
  return util::kExitOk;
}

/// `ktracetool replay FILES`: verify bit-identical re-emission, or run a
/// what-if variant and report the drift.
int runReplay(const std::vector<std::string>& files, const util::Cli& cli,
              const DecodeOptions& decodeOptions) {
  replay::ReplayEngine engine =
      replay::ReplayEngine::fromFiles(files, decodeOptions);
  replay::ReplayOptions options;
  options.whatIf = replay::parseWhatIf(cli.getString("what-if", ""));
  options.dictateSchedule = !cli.getBool("no-dictate", false);
  const replay::DivergenceReport report = engine.replay(options);
  if (cli.getBool("json", false)) {
    std::fputs(report.toJson().c_str(), stdout);
  } else {
    std::fputs(report.toText().c_str(), stdout);
  }
  if (!report.whatIf && !report.identical) return util::kExitDivergence;
  return util::kExitOk;
}

int run(const util::Cli& cli) {
  const auto& positional = cli.positional();
  if (positional.empty()) return usage();
  const std::string command = positional[0];
  std::vector<std::string> files(positional.begin() + 1, positional.end());
  // Socket-mode commands talk to a live ktraced and take no trace files.
  const std::string socketPath = cli.getString("socket", "");
  if (!socketPath.empty()) return runDaemonClient(command, socketPath, cli, files);
  if (files.empty()) return usage();

  Registry& registry = toolRegistry();
  analysis::SymbolTable symbols;  // ids print as funcN unless a map is loaded

  if (command == "fsck") return runFsck(files);

  if (command == "record") return runRecord(files[0], cli);

  if (command == "replay") {
    DecodeOptions replayDecode;
    replayDecode.salvage = cli.getBool("salvage", false);
    replayDecode.threads = static_cast<uint32_t>(cli.getInt("threads", 0));
    replayDecode.useMmap = !cli.getBool("no-mmap", false);
    return runReplay(files, cli, replayDecode);
  }

  if (command == "recover") {
    return runRecover(files[0],
                      cli.getString("out", files[0] + ".recovered.ktrc"));
  }

  if (command == "crashdump") {
    // Mapped copy-on-write like `recover`: reading never touches the image.
    const ShmSession dump = ShmSession::attachForRecovery(files[0], TscClock::ref());
    FlightRecorderOptions opts;
    opts.maxEvents = static_cast<size_t>(cli.getInt("max", 64));
    const uint32_t cpu = static_cast<uint32_t>(cli.getInt("cpu", 0));
    if (cpu >= dump.numProcessors()) {
      std::fprintf(stderr, "dump has %u processors\n", dump.numProcessors());
      return 1;
    }
    std::fputs(flightRecorderReport(dump.control(cpu), registry,
                                    dump.header().ticksPerSecond, opts)
                   .c_str(),
               stdout);
    return 0;
  }

  const int64_t windowMs = cli.getInt("window-ms", 100);
  if (command == "top" && windowMs < 0) {
    std::fprintf(stderr, "ktracetool: --window-ms must not be negative\n");
    return util::kExitUsage;
  }

  DecodeOptions decodeOptions;
  decodeOptions.salvage = cli.getBool("salvage", false);
  decodeOptions.threads = static_cast<uint32_t>(cli.getInt("threads", 0));
  decodeOptions.useMmap = !cli.getBool("no-mmap", false);
  const auto trace = analysis::TraceSet::fromFiles(files, decodeOptions);
  const double tps = trace.ticksPerSecond();
  std::fprintf(stderr, "loaded %zu events from %zu file(s), %llu garbled buffer(s)\n",
               trace.totalEvents(), files.size(),
               static_cast<unsigned long long>(trace.stats().garbledBuffers));
  if (trace.stats().metadataMismatchFiles != 0) {
    std::fprintf(stderr,
                 "warning: %llu file(s) disagree with the first file's clock "
                 "metadata; timestamps use the first file's ticks/second\n",
                 static_cast<unsigned long long>(trace.stats().metadataMismatchFiles));
  }
  if (decodeOptions.salvage) {
    const DecodeStats& s = trace.stats();
    std::fprintf(stderr,
                 "salvage: %llu torn, %llu corrupt record(s), %llu byte(s) skipped, "
                 "%llu unreadable file(s), %llu damaged footer(s), "
                 "%llu corrupt block(s)\n",
                 static_cast<unsigned long long>(s.tornRecords),
                 static_cast<unsigned long long>(s.corruptRecords),
                 static_cast<unsigned long long>(s.skippedBytes),
                 static_cast<unsigned long long>(s.unreadableFiles),
                 static_cast<unsigned long long>(s.damagedFooters),
                 static_cast<unsigned long long>(s.corruptBlocks));
  }
  if (command != "monitor") {
    // Heartbeat-verified completeness warning for every analysis command:
    // numbers computed from an incomplete stream deserve a caveat.
    const analysis::CompletenessReport completeness =
        analysis::CompletenessReport::analyze(trace);
    if (completeness.hasHeartbeats() && !completeness.complete()) {
      std::fprintf(stderr,
                   "warning: trace is incomplete (%llu buffer(s), %llu event(s) "
                   "lost); run 'ktracetool monitor' for details\n",
                   static_cast<unsigned long long>(completeness.totalLostBuffers()),
                   static_cast<unsigned long long>(completeness.totalLostEvents()));
    }
  }

  if (command == "monitor") {
    return runMonitor(trace, cli.getBool("json", false));
  }

  if (command == "top") {
    // Offline replay of the live streaming engine: same folds, same
    // window geometry, same snapshot schema as ktraced's live tap — so a
    // live snapshot's completed-window lines are a verbatim subset of
    // this command's output over the same files.
    std::vector<analysis::streaming::DerivedMonitor> monitors;
    const std::string monitorsPath = cli.getString("monitors", "");
    if (monitorsPath.empty()) {
      monitors = analysis::streaming::defaultMonitors();
    } else {
      std::ifstream in(monitorsPath);
      if (!in) {
        std::fprintf(stderr, "ktracetool: cannot read --monitors file %s\n",
                     monitorsPath.c_str());
        return util::kExitUsage;
      }
      std::ostringstream text;
      text << in.rdbuf();
      monitors = analysis::streaming::parseMonitorConfig(text.str());
    }
    analysis::streaming::StreamEngineConfig engineConfig;
    engineConfig.ticksPerSecond = tps;
    engineConfig.windowTicks =
        analysis::streaming::windowTicksForMs(static_cast<double>(windowMs), tps);
    analysis::streaming::StreamEngine engine(engineConfig, std::move(monitors));
    engine.addFold(std::make_unique<analysis::streaming::LockContentionFold>());
    engine.addFold(
        std::make_unique<analysis::streaming::EventRateFold>(trace.numProcessors()));
    engine.addFold(std::make_unique<analysis::streaming::ProfileFold>());
    engine.addFold(std::make_unique<analysis::streaming::CompletenessFold>());
    // The unordered plane is order-insensitive, so both planes can feed
    // from the merged stream.
    analysis::MergeCursor cursor(trace);
    while (const DecodedEvent* e = cursor.next()) {
      engine.observe(*e);
      engine.onOrdered(*e);
    }
    engine.finish();
    const std::string snapshot =
        engine.snapshotJson(cli.getString("tenant", "trace"));
    if (cli.getBool("json", false)) {
      std::fputs(snapshot.c_str(), stdout);
    } else {
      renderTopFrame(splitLines(snapshot),
                     static_cast<size_t>(cli.getInt("rows", 8)));
    }
    return util::kExitOk;
  }

  if (command == "list") {
    analysis::ListerOptions opts;
    opts.maxEvents = static_cast<size_t>(cli.getInt("max", 0));
    opts.showProcessor = true;
    opts.annotateGaps = cli.getBool("gaps", false);
    if (cli.has("start")) opts.startTick = static_cast<uint64_t>(cli.getDouble("start", 0) * tps);
    if (cli.has("end")) opts.endTick = static_cast<uint64_t>(cli.getDouble("end", 0) * tps);
    std::fputs(analysis::listEvents(trace, registry, tps, opts).c_str(), stdout);
  } else if (command == "locks") {
    analysis::LockAnalysis la(trace);
    const std::string sort = cli.getString("sort", "time");
    const analysis::LockSortKey key =
        sort == "count" ? analysis::LockSortKey::Count
        : sort == "spin" ? analysis::LockSortKey::Spin
        : sort == "max"  ? analysis::LockSortKey::MaxTime
                         : analysis::LockSortKey::Time;
    std::fputs(la.report(symbols, tps, static_cast<size_t>(cli.getInt("top", 10)), key)
                   .c_str(),
               stdout);
  } else if (command == "profile") {
    analysis::Profile profile(trace);
    uint64_t pid = static_cast<uint64_t>(cli.getInt("pid", -1));
    if (pid == static_cast<uint64_t>(-1)) {
      uint64_t most = 0;
      for (const uint64_t candidate : profile.pids()) {
        if (profile.totalSamples(candidate) > most) {
          most = profile.totalSamples(candidate);
          pid = candidate;
        }
      }
    }
    std::fputs(profile.report(pid, symbols, files[0],
                              static_cast<size_t>(cli.getInt("top", 20)))
                   .c_str(),
               stdout);
  } else if (command == "attrib") {
    analysis::TimeAttribution ta(trace);
    if (cli.has("pid")) {
      std::fputs(ta.report(static_cast<uint64_t>(cli.getInt("pid", 0)), symbols, tps)
                     .c_str(),
                 stdout);
    } else {
      for (const uint64_t pid : ta.pids()) {
        std::fputs(ta.report(pid, symbols, tps).c_str(), stdout);
        std::printf("\n");
      }
    }
  } else if (command == "stats") {
    analysis::EventStats stats(trace);
    std::fputs(
        stats.report(registry, tps, static_cast<size_t>(cli.getInt("top", 20))).c_str(),
        stdout);
    // Tracer health: decode anomalies plus the self-monitoring counters
    // carried by the newest heartbeat (drops at source, consumer losses).
    const DecodeStats& ds = trace.stats();
    std::printf("\ntracer: %llu garbled buffer(s), %llu commit mismatch(es), "
                "%llu metadata mismatch file(s)\n",
                static_cast<unsigned long long>(ds.garbledBuffers),
                static_cast<unsigned long long>(ds.commitMismatchBuffers),
                static_cast<unsigned long long>(ds.metadataMismatchFiles));
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
      std::printf("tracer: %llu event(s) dropped at source; consumer "
                  "%llu buffer(s), %llu lost, %llu commit mismatch(es)\n",
                  static_cast<unsigned long long>(droppedAtSource),
                  static_cast<unsigned long long>(newest.consumerBuffers),
                  static_cast<unsigned long long>(newest.consumerLost),
                  static_cast<unsigned long long>(newest.consumerMismatches));
    }
  } else if (command == "timeline") {
    analysis::Timeline timeline(trace);
    std::fputs(
        timeline.renderAscii(static_cast<uint32_t>(cli.getInt("width", 100))).c_str(),
        stdout);
  } else if (command == "svg") {
    analysis::Timeline timeline(trace);
    const std::string out = cli.getString("out", "timeline.svg");
    std::ofstream(out) << timeline.renderSvg(registry, tps, {});
    std::printf("wrote %s\n", out.c_str());
  } else if (command == "ltt") {
    std::fputs(analysis::exportLttText(trace, registry, tps,
                                       static_cast<size_t>(cli.getInt("max", 0)))
                   .c_str(),
               stdout);
  } else if (command == "csv") {
    std::fputs(
        analysis::exportCsv(trace, registry, static_cast<size_t>(cli.getInt("max", 0)))
            .c_str(),
        stdout);
  } else if (command == "deadlock") {
    analysis::DeadlockDetector detector(trace);
    std::fputs(detector.report(symbols, tps).c_str(), stdout);
    return detector.hasDeadlock() ? util::kExitDeadlock : 0;
  } else if (command == "intervals") {
    analysis::IntervalAnalysis ia(trace, analysis::defaultOssimIntervals());
    std::fputs(ia.report(tps).c_str(), stdout);
  } else if (command == "hotspots") {
    analysis::HwCounterAnalysis hw(trace);
    std::fputs(hw.report(static_cast<uint64_t>(cli.getInt("counter", 0)), symbols, tps,
                         static_cast<size_t>(cli.getInt("top", 10)))
                   .c_str(),
               stdout);
  } else {
    return usage();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  try {
    return run(cli);
  } catch (const std::exception& e) {
    // Reader errors name the failing path in what(); keep the boundary to
    // one clean line instead of an uncaught-exception abort.
    std::fprintf(stderr, "ktracetool: %s\n", e.what());
    std::fprintf(stderr,
                 "hint: run 'ktracetool fsck <files>' to diagnose, or retry "
                 "with --salvage to recover intact records\n");
    return util::kExitFailure;
  }
}
