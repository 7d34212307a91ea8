// User-mapped buffers across real processes (§2 goals 2-3): "allow
// efficient logging of events from applications, libraries, servers, and
// the kernel into a unified buffer with monotonically increasing
// timestamps" — without a system call per event.
//
// The parent ("kernel") creates a trace block in a MAP_SHARED mapping and
// forks three "applications"; each attaches to the mapping and logs its
// own events with the same lockless CAS the kernel uses. Afterwards the
// parent decodes the single unified stream.
//
// Run:  ./build/examples/user_mapped_logging
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

#include "core/ktrace.hpp"

using namespace ktrace;

int main() {
  constexpr uint32_t kBufferWords = 1u << 10;
  constexpr uint32_t kNumBuffers = 32;
  const size_t bytes = ShmTraceControl::bytesFor(kBufferWords, kNumBuffers);
  void* memory = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (memory == MAP_FAILED) {
    std::perror("mmap");
    return 1;
  }

  ShmTraceControl kernel =
      ShmTraceControl::create(memory, {.processorId = 0,
                                       .bufferWords = kBufferWords,
                                       .numBuffers = kNumBuffers,
                                       .clock = TscClock::ref()});

  Registry registry;
  registry.add({Major::App, 1, KT_TR(TRACE_APP_REQUEST), "64 64",
                "app %0[%llu] handled request %1[%llu]"});
  registry.add({Major::Sched, 0, KT_TR(TRACE_KERNEL_TICK), "64",
                "kernel tick %0[%llu]"});

  constexpr int kApps = 3;
  constexpr uint64_t kRequests = 2000;
  for (int app = 1; app <= kApps; ++app) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      // An "application": attach and log straight into the shared buffers.
      ShmTraceControl self = ShmTraceControl::attach(memory, TscClock::ref());
      for (uint64_t r = 0; r < kRequests; ++r) {
        self.logEvent(Major::App, 1, static_cast<uint64_t>(app), r);
      }
      ::_exit(0);
    }
  }
  // The "kernel" logs its own events concurrently.
  for (uint64_t tick = 0; tick < kRequests; ++tick) {
    kernel.logEvent(Major::Sched, 0, tick);
  }
  for (int app = 0; app < kApps; ++app) ::wait(nullptr);

  // One unified, time-ordered stream from four address spaces.
  const auto events = flightRecorderSnapshot(kernel, {.maxEvents = 0});
  uint64_t perApp[kApps + 1] = {};
  uint64_t kernelTicks = 0;
  for (const auto& e : events) {
    if (e.header.major == Major::App && e.data[0] <= kApps) {
      ++perApp[e.data[0]];
    } else if (e.header.major == Major::Sched) {
      ++kernelTicks;
    }
  }
  std::printf("unified stream holds %zu events (ring retains the newest):\n",
              events.size());
  for (int app = 1; app <= kApps; ++app) {
    std::printf("  app %d: %llu requests visible\n", app,
                static_cast<unsigned long long>(perApp[app]));
  }
  std::printf("  kernel: %llu ticks visible\n",
              static_cast<unsigned long long>(kernelTicks));

  std::printf("\nlast 6 events across all four processes:\n");
  const auto tail = flightRecorderSnapshot(kernel, {.maxEvents = 6});
  for (const auto& e : tail) {
    std::printf("  %14llu  %s\n",
                static_cast<unsigned long long>(e.fullTimestamp),
                registry.formatEvent(e).c_str());
  }

  std::printf("\nper-event logging here is one CAS + stores in shared memory —\n"
              "no syscall, no lock; the paper's user-mapped buffer design.\n");
  ::munmap(memory, bytes);
  return 0;
}
