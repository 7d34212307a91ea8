// Workload entry points and the helpers they share.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common.hpp"
#include "mix.hpp"

namespace pipebench {

int runHotpath(const Args& args, const HostContext& host);
int runIngest(const Args& args, const HostContext& host);
int runAnalyze(const Args& args, const HostContext& host);

/// Yardstick probes of the logger and the locking baseline on the load
/// CPUs (core.clock_ns ... baseline.lock_1w_ns). Run by every traced run.
void runCoreProbes(const Args& args, const HostContext& host, const Mix& mix,
                   LayerValues& out);

/// SDET scripts of the input mix: 48, or 8 in smoke mode.
inline uint32_t mixScripts(const Args& args) { return args.smoke ? 8 : 48; }

/// Records the mix's input properties.
void recordInput(const Mix& mix, Outcome& outcome);

/// Runs the untraced set-up several times and keeps the last state:
/// setup_s is the median. An untraced run sets up at least 7 times and
/// until a second of set-up has passed (64 times at most), so a set-up of
/// a few milliseconds is sampled over as long a stretch of the host's
/// speed as a slow one. A traced run sets up three times here and once
/// more through tracedSetup for its traced phase. Tearing down a discarded
/// state is not timed, as the kept state's is not.
template <typename Fn>
auto repeatSetup(const Args& args, Outcome& outcome, Fn&& setUp) {
  const size_t minRuns = args.trace ? 3 : 7;
  const size_t maxRuns = args.trace ? 3 : 64;
  constexpr double kMinSetupS = 1.0;
  std::vector<double> times;
  double total = 0;
  auto timedSetUp = [&] {
    const double t0 = nowSec();
    auto state = setUp();
    times.push_back(nowSec() - t0);
    total += times.back();
    return state;
  };
  while (times.size() + 1 < maxRuns &&
         (times.size() + 1 < minRuns || total < kMinSetupS)) {
    auto discard = timedSetUp();
  }
  auto state = timedSetUp();
  outcome.endToEnd.setupS = median(times);
  outcome.untraced.setupS = outcome.endToEnd.setupS;
  return state;
}

/// One set-up with spans on; its time is the traced setup_s.
template <typename Fn>
auto tracedSetup(Outcome& outcome, Fn&& setUp) {
  Spans::setEnabled(true);
  const double t0 = nowSec();
  auto state = [&] {
    SpanScope span("setup");
    return setUp();
  }();
  outcome.endToEnd.setupS = nowSec() - t0;
  Spans::setEnabled(false);
  return state;
}

}  // namespace pipebench
