// pipebench: the pipeline benchmark's measuring program (see README.md).
//
//   pipebench --workload hotpath|ingest|analyze --seed N --seconds S
//             --trace 0|1 [--smoke] [--damage]
//
// Run from the root of a checkout: working files go to .bench_run/ there.
// The last line of stdout is the result object; the line before it holds
// the host context and the input properties.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pipebench --workload hotpath|ingest|analyze --seed N "
               "--seconds S --trace 0|1 [--smoke] [--damage]\n");
  return 2;
}

bool parseArgs(int argc, char** argv, pipebench::Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (flag == "--damage") {
      args.damage = true;
      continue;
    }
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  pipebench::Args args;
  if (!parseArgs(argc, argv, args)) return usage();
  const std::string base = ".bench_run";
  args.runDir = base + "/" + args.workload + "-" + std::to_string(::getpid());
  args.spansPath = base + "/" + args.workload + ".spans.jsonl";
  int rc = 1;
  try {
    std::filesystem::create_directories(args.runDir);
    const pipebench::HostContext host = pipebench::probeHost(args.runDir);
    // Every thread started from here on inherits the confinement.
    pipebench::pinCurrentThread(host.benchCpus);
    if (args.workload == "hotpath") {
      rc = pipebench::runHotpath(args, host);
    } else if (args.workload == "ingest") {
      rc = pipebench::runIngest(args, host);
    } else if (args.workload == "analyze") {
      rc = pipebench::runAnalyze(args, host);
    } else {
      rc = usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    rc = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(args.runDir, ec);
  return rc;
}
