// Yardstick probes of the core logger (paper §3.2: 91 cycles for a 1-word
// event, +11 per extra word) and of the locking baseline (§4.1), timed on
// the load CPUs from the benchmark's own code.
#include <atomic>
#include <thread>

#include "baseline/locking_tracer.hpp"
#include "core/control.hpp"
#include "core/logger.hpp"
#include "core/timestamp.hpp"
#include "workloads.hpp"

namespace pipebench {

namespace {

using namespace ktrace;

TraceControlConfig controlConfig(uint32_t processor, bool selfMonitoring) {
  TraceControlConfig config;  // shipped defaults: 128 KiB x 8 buffers
  config.processorId = processor;
  config.clock = TscClock::ref();
  config.selfMonitoring = selfMonitoring;
  return config;
}

/// ns per call of `body(i)` over `calls` calls.
template <typename Body>
double nsPerCall(uint64_t calls, Body&& body) {
  const uint64_t t0 = nowNs();
  for (uint64_t i = 0; i < calls; ++i) body(i);
  return static_cast<double>(nowNs() - t0) / static_cast<double>(calls);
}

/// Least-squares slope of y over x.
double slope(const std::vector<double>& x, const std::vector<double>& y) {
  double mx = 0, my = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(x.size());
  my /= static_cast<double>(x.size());
  double num = 0, den = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    num += (x[i] - mx) * (y[i] - my);
    den += (x[i] - mx) * (x[i] - mx);
  }
  return den == 0 ? 0 : num / den;
}

/// Runs `body(thread)` on two threads pinned to the first two load CPUs,
/// released together; returns each thread's ns per call.
template <typename Body>
std::vector<double> onTwoThreads(const HostContext& host, uint64_t calls,
                                 Body&& body) {
  std::atomic<int> ready{0};
  std::vector<double> ns(2, 0.0);
  std::thread threads[2];
  for (uint32_t t = 0; t < 2; ++t) {
    threads[t] = std::thread([&, t] {
      pinCurrentThread(host.loadCpus[t]);
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      ns[t] = nsPerCall(calls, [&](uint64_t i) { body(t, i); });
    });
  }
  for (std::thread& t : threads) t.join();
  return ns;
}

}  // namespace

void recordInput(const Mix& mix, Outcome& outcome) {
  const std::pair<const char*, double> values[] = {
      {"input.words_per_event", mix.wordsPerEvent()},
      {"input.heap_payload_share", mix.heapPayloadShare()},
      {"input.lock_share", mix.lockShare()},
      {"input.events", static_cast<double>(mix.size())},
  };
  for (const auto& [name, value] : values) {
    outcome.layers[name] = value;
    outcome.context[name] = value;
  }
}

void runCoreProbes(const Args& args, const HostContext& host, const Mix& mix,
                   LayerValues& out) {
  const uint64_t calls = args.smoke ? 100'000 : 1'000'000;
  constexpr int kReps = 3;
  std::atomic<uint64_t> sink{0};

  std::thread single([&] {
    pinCurrentThread(host.loadCpus[0]);
    std::vector<double> clock, reserve, selfmonOn, selfmonOff;
    std::vector<double> words, perWordNs;
    for (int rep = 0; rep < kReps; ++rep) {
      uint64_t acc = 0;
      clock.push_back(nsPerCall(calls, [&](uint64_t) { acc += TscClock::now(); }));
      sink += acc;

      TraceControl control(controlConfig(0, true));
      reserve.push_back(nsPerCall(calls, [&](uint64_t) {
        Reservation r;
        if (control.reserve(1, r)) control.commit(r.index, 1);
      }));

      for (const bool on : {true, false}) {
        TraceControl c(controlConfig(0, on));
        const double ns = nsPerCall(calls, [&](uint64_t i) {
          const MixEvent& e = mix.at(i);
          logEventData(c, e.major, e.minor, mix.payload(e));
        });
        (on ? selfmonOn : selfmonOff).push_back(ns);
      }

      const uint64_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
      for (const uint32_t n : {0u, 1u, 2u, 4u, 8u}) {
        TraceControl c(controlConfig(0, true));
        words.push_back(n);
        perWordNs.push_back(nsPerCall(calls, [&](uint64_t) {
          logEventData(c, Major::Test, 1, {payload, n});
        }));
      }
    }
    out["core.clock_ns"] = median(clock);
    out["core.reserve_commit_ns"] = median(reserve);
    out["core.selfmon_ns"] = median(selfmonOn) - median(selfmonOff);
    out["core.log_word_ns"] = slope(words, perWordNs);
  });
  single.join();

  // The 1-word event and the locking baseline on the same two threads:
  // the lockless logger on one processor each, the mutex tracer shared.
  std::vector<double> lockless, locking;
  for (int rep = 0; rep < kReps; ++rep) {
    TraceControl controls[2] = {TraceControl(controlConfig(0, true)),
                                TraceControl(controlConfig(1, true))};
    for (const double ns : onTwoThreads(host, calls, [&](uint32_t t, uint64_t) {
           logEvent(controls[t], Major::Test, 1);
         })) {
      lockless.push_back(ns);
    }
    baseline::LockTracerConfig config;
    config.clock = TscClock::ref();
    baseline::GlobalLockTracer tracer(config);
    for (const double ns : onTwoThreads(host, calls, [&](uint32_t, uint64_t) {
           tracer.log(Major::Test, 1, {});
         })) {
      locking.push_back(ns);
    }
  }
  out["core.log_1w_ns"] = median(lockless);
  out["baseline.lock_1w_ns"] = median(locking);
}

}  // namespace pipebench
