// ktraced: the multi-tenant trace aggregation daemon (DESIGN.md §11).
//
//   ktraced --dir=<session-dir> [--out=<dir>] [--socket=<path>] ...
//   ktraced --dir=<session-dir> --check
//
// The daemon scans --dir for *.kses segments, supervises each as a
// tenant (attach -> drain -> recover -> flush), and serves the control
// plane on --socket (`ktracetool monitor|tenants|evict --socket=...`).
// SIGTERM/SIGINT trigger a graceful drain: every tenant is flushed
// without fencing live producers and a recovery manifest is written so
// the next incarnation resumes exactly once.
//
// --check is the offline admission audit: validate every segment the way
// attach would (read-only), report, and exit with the shared damage code
// when anything fails — without touching the segments. It also preflights
// the output directory: writability and free space, so a doomed start
// fails here instead of as ENOSPC under load.
#include <signal.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "analysis/streaming/monitors.hpp"
#include "core/shm_session.hpp"
#include "daemon/daemon.hpp"
#include "util/cli.hpp"
#include "util/exit_codes.hpp"
#include "util/faultfs.hpp"
#include "util/net.hpp"

namespace {

using namespace ktrace;

int usage() {
  std::fprintf(stderr,
               "usage: ktraced --dir=SESSION_DIR [options]\n"
               "       ktraced --dir=SESSION_DIR --check\n"
               "\n"
               "options:\n"
               "  --out=DIR        output directory (default: ktraced-out)\n"
               "  --socket=PATH    control socket for ktracetool monitor/tenants/evict\n"
               "  --manifest=PATH  recovery manifest (default: OUT/ktraced.manifest)\n"
               "  --scan-ms=N      session-directory scan interval (default 100)\n"
               "  --poll-us=N      per-tenant drain cadence (default 2000)\n"
               "  --threads=N      watchdog scheduler threads (default 2)\n"
               "  --expiry-ms=N    lease expiry grace window (default 1000)\n"
               "  --quota-bps=N    per-tenant sink quota, bytes/sec (0 = unlimited)\n"
               "  --quota-burst=N  quota burst bytes (0 = one second's worth)\n"
               "  --batch=N        records per downstream flush (default 8)\n"
               "  --queue=N        per-tenant queue capacity (default 64)\n"
               "  --compress       write v3 block-compressed trace files\n"
               "  --window-ms=N    live-analysis window size (default 100)\n"
               "  --no-streaming   disable the live streaming analysis tap\n"
               "  --monitors=FILE  derived-monitor config (NAME = EXPR per line;\n"
               "                   default: loss_ratio, bytes_per_event,\n"
               "                   compression_ratio)\n"
               "  --rotate-bytes=N   rotate a tenant's output file after N bytes\n"
               "  --rotate-records=N rotate after N records (0 = never)\n"
               "  --max-bytes=N    global retention budget over OUT (0 = unlimited)\n"
               "  --tenant-bytes=N per-tenant retention quota (0 = unlimited)\n"
               "  --retain-ms=N    delete expired-generation files older than N ms\n"
               "  --free-low=N     enter storage emergency below N free bytes\n"
               "  --free-high=N    leave emergency once N free bytes reclaimed\n"
               "  --disk-budget=N  cap trace-file writes at N bytes total (chaos\n"
               "                   harness: simulated disk; 0 = real disk)\n"
               "  --check          validate segments + output dir read-only and exit\n"
               "\n"
               "exit codes:\n");
  for (const util::ExitCodeRow* row = util::exitCodeTable();
       row->meaning != nullptr; ++row) {
    std::fprintf(stderr, "  %d  %s\n", row->code, row->meaning);
  }
  return util::kExitUsage;
}

/// Output-directory preflight: can we create it, write into it, and how
/// much room is there? A start that would only discover ENOSPC under
/// load fails here instead.
int preflightOutput(const std::string& outDir, uint64_t lowWater) {
  std::error_code ec;
  std::filesystem::create_directories(outDir, ec);
  util::FileSystem& fs = util::FileSystem::stdio();
  const std::string probePath = outDir + "/.ktraced.preflight.tmp";
  bool writable = false;
  if (std::unique_ptr<util::File> probe = fs.open(probePath, "wb")) {
    const char byte = 0;
    writable = probe->write(&byte, 1) == 1 && probe->flush();
  }
  fs.remove(probePath);
  if (!writable) {
    std::printf("%s: NOT WRITABLE\n", outDir.c_str());
    return util::kExitFailure;
  }
  const int64_t free = fs.freeBytes(outDir);
  if (free < 0) {
    std::printf("%s: writable, free space unknown\n", outDir.c_str());
    return util::kExitOk;
  }
  std::printf("%s: writable, %lld bytes free\n", outDir.c_str(),
              static_cast<long long>(free));
  if (lowWater > 0 && static_cast<uint64_t>(free) < lowWater) {
    std::printf("%s: BELOW LOW WATERMARK (%llu bytes): the daemon would "
                "start in storage emergency\n",
                outDir.c_str(), static_cast<unsigned long long>(lowWater));
    return util::kExitFailure;
  }
  return util::kExitOk;
}

/// Read-only admission audit over every segment in the directory.
int runCheck(const std::string& dir) {
  bool sawDamage = false;
  bool sawAny = false;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string path = entry.path().string();
    if (path.size() < 5 || path.compare(path.size() - 5, 5, ".kses") != 0) {
      continue;
    }
    sawAny = true;
    std::error_code markerEc;
    const bool quarantined =
        std::filesystem::exists(path + ".quarantined", markerEc);
    try {
      // MAP_PRIVATE + read-only fd: the audit never mutates evidence.
      ShmSession session = ShmSession::attachForRecovery(path, TscClock::ref());
      uint32_t activeLeases = 0;
      for (uint32_t i = 0; i < session.maxProducers(); ++i) {
        if (session.lease(i).state.load(std::memory_order_acquire) ==
            ShmLease::kActive) {
          ++activeLeases;
        }
      }
      std::printf("%s: ok (%u processors, %u active leases)%s\n", path.c_str(),
                  session.numProcessors(), activeLeases,
                  quarantined ? " [quarantined]" : "");
      if (quarantined) sawDamage = true;
    } catch (const std::exception& e) {
      std::printf("%s: INVALID: %s\n", path.c_str(), e.what());
      sawDamage = true;
    }
  }
  if (ec) {
    std::fprintf(stderr, "ktraced: cannot read %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return util::kExitFailure;
  }
  if (!sawAny) std::printf("no session segments in %s\n", dir.c_str());
  return sawDamage ? util::kExitDamage : util::kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::string dir = cli.getString("dir", "");
  if (dir.empty() || !cli.positional().empty() || !cli.unknownFlags().empty()) {
    return usage();
  }
  if (cli.getBool("check", false)) {
    const int segmentResult = runCheck(dir);
    const int outputResult =
        preflightOutput(cli.getString("out", "ktraced-out"),
                        static_cast<uint64_t>(cli.getInt("free-low", 0)));
    return segmentResult != util::kExitOk ? segmentResult : outputResult;
  }

  daemon::DaemonConfig config;
  config.sessionDir = dir;
  config.outputDir = cli.getString("out", "ktraced-out");
  config.socketPath = cli.getString("socket", "");
  config.manifestPath = cli.getString("manifest", "");
  config.scanInterval = std::chrono::milliseconds(cli.getInt("scan-ms", 100));
  config.pollInterval = std::chrono::microseconds(cli.getInt("poll-us", 2000));
  config.schedulerThreads = static_cast<uint32_t>(cli.getInt("threads", 2));
  // 1 s default grace: a fenced producer can never log again, so the
  // daemon should only expire leases a real process could not be
  // holding across an ordinary scheduling stall. Tight deadlines are a
  // per-deployment opt-in.
  config.watchdog.expiryTimeout =
      std::chrono::milliseconds(cli.getInt("expiry-ms", 1000));
  config.batching.quotaBytesPerSecond =
      static_cast<uint64_t>(cli.getInt("quota-bps", 0));
  config.batching.quotaBurstBytes =
      static_cast<uint64_t>(cli.getInt("quota-burst", 0));
  config.batching.batchRecords =
      static_cast<size_t>(cli.getInt("batch", 8));
  config.batching.maxQueuedRecords =
      static_cast<size_t>(cli.getInt("queue", 64));
  config.compressOutput = cli.getBool("compress", false);
  config.rotateBytes = static_cast<uint64_t>(cli.getInt("rotate-bytes", 0));
  config.rotateRecords = static_cast<uint64_t>(cli.getInt("rotate-records", 0));
  config.storageMaxTotalBytes =
      static_cast<uint64_t>(cli.getInt("max-bytes", 0));
  config.storageMaxTenantBytes =
      static_cast<uint64_t>(cli.getInt("tenant-bytes", 0));
  config.storageRetainAge =
      std::chrono::milliseconds(cli.getInt("retain-ms", 0));
  config.storageLowWaterBytes =
      static_cast<uint64_t>(cli.getInt("free-low", 0));
  config.storageHighWaterBytes =
      static_cast<uint64_t>(cli.getInt("free-high", 0));
  // The simulated disk for the chaos harness: an exact in-process byte
  // budget over every trace file, so ENOSPC fill/recover cycles are
  // deterministic and leave the real disk alone. Static so it outlives
  // the daemon's writers.
  static std::unique_ptr<util::DiskBudgetFileSystem> budgetFs;
  const uint64_t diskBudget =
      static_cast<uint64_t>(cli.getInt("disk-budget", 0));
  if (diskBudget > 0) {
    budgetFs = std::make_unique<util::DiskBudgetFileSystem>(diskBudget);
    config.traceFs = budgetFs.get();
  }
  if (cli.getBool("no-streaming", false)) {
    config.analysisWindow = std::chrono::milliseconds(0);
  } else {
    config.analysisWindow =
        std::chrono::milliseconds(cli.getInt("window-ms", 100));
    if (config.analysisWindow.count() < 0) {
      std::fprintf(stderr, "ktraced: --window-ms must not be negative\n");
      return util::kExitUsage;
    }
    const std::string monitorsPath = cli.getString("monitors", "");
    if (monitorsPath.empty()) {
      config.monitors = analysis::streaming::defaultMonitors();
    } else {
      std::ifstream in(monitorsPath);
      if (!in) {
        std::fprintf(stderr, "ktraced: cannot read --monitors file %s\n",
                     monitorsPath.c_str());
        return util::kExitUsage;
      }
      std::ostringstream text;
      text << in.rdbuf();
      try {
        // Fail at startup, not at the first window: a bad expression is a
        // config error, never a runtime surprise.
        config.monitors = analysis::streaming::parseMonitorConfig(text.str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "ktraced: %s\n", e.what());
        return util::kExitUsage;
      }
    }
  }

  try {
    // The pipe must exist before any tenant work so a SIGTERM during
    // startup still drains gracefully.
    util::SignalPipe signals{SIGTERM, SIGINT};
    daemon::TraceDaemon daemon(std::move(config));
    daemon.start();
    std::fprintf(stderr, "ktraced: generation %llu watching %s -> %s%s%s\n",
                 static_cast<unsigned long long>(daemon.generation()),
                 dir.c_str(), daemon.config().outputDir.c_str(),
                 daemon.config().socketPath.empty() ? "" : ", control on ",
                 daemon.config().socketPath.c_str());
    while (!signals.wait(500)) {
    }
    std::fprintf(stderr, "ktraced: signal received, draining tenants\n");
    daemon.stop();
    const daemon::DaemonStats stats = daemon.stats();
    std::fprintf(stderr,
                 "ktraced: drained; admitted=%llu resumed=%llu "
                 "quarantined=%llu evicted=%llu emergencies=%llu "
                 "recoveries=%llu\n",
                 static_cast<unsigned long long>(stats.tenantsAdmitted),
                 static_cast<unsigned long long>(stats.tenantsResumed),
                 static_cast<unsigned long long>(stats.tenantsQuarantined),
                 static_cast<unsigned long long>(stats.tenantsEvicted),
                 static_cast<unsigned long long>(stats.storageEmergencies),
                 static_cast<unsigned long long>(stats.storageRecoveries));
    return util::kExitOk;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ktraced: %s\n", e.what());
    return util::kExitFailure;
  }
}
