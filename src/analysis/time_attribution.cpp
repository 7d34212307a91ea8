#include "analysis/time_attribution.hpp"

#include <algorithm>
#include <sstream>

#include "ossim/events.hpp"
#include "util/table.hpp"

namespace ktrace::analysis {

namespace {

// Per-processor walker state.
struct CpuState {
  bool idle = true;
  uint64_t pid = ~0ull;         // dispatched process
  bool inSyscall = false;
  uint16_t syscall = 0;
  bool inIpc = false;           // inside PPC call..return
  bool inPageFault = false;
  bool inEmulation = false;
  uint64_t lastTs = 0;
  bool haveTs = false;
  // In-flight IPC service entry (for the server-side list).
  uint64_t ipcFuncId = 0;
  uint64_t ipcServerPid = ~0ull;
  uint64_t ipcStartTs = 0;
  // The dispatched process's record (set whenever !idle; map nodes are
  // stable) and its row for `syscall`, null until first touched.
  ProcessAttribution* proc = nullptr;
  SyscallStats* row = nullptr;

  SyscallStats& syscallRow() {
    if (row == nullptr) row = &proc->syscalls[syscall];
    return *row;
  }
};

}  // namespace

uint64_t ProcessAttribution::totalOnCpuTicks() const noexcept {
  uint64_t total = userTicks + emulationTicks + pageFaultTicks;
  for (const auto& [_, sc] : syscalls) total += sc.computeTicks;
  return total;
}

TimeAttribution::TimeAttribution(const TraceSet& trace) {
  idlePerProcessor_.assign(trace.numProcessors(), 0);
  std::map<std::pair<uint64_t, uint64_t>, ServiceEntryStats> services;

  for (uint32_t p = 0; p < trace.numProcessors(); ++p) {
    CpuState cpu;
    for (const DecodedEvent& e : trace.processorEvents(p)) {
      // 1. Attribute the time since the previous event on this processor
      //    to the bucket implied by the pre-event state.
      if (cpu.haveTs && e.fullTimestamp > cpu.lastTs) {
        const uint64_t delta = e.fullTimestamp - cpu.lastTs;
        if (cpu.idle || cpu.pid == ~0ull) {
          idlePerProcessor_[p] += delta;
        } else {
          ProcessAttribution& proc = *cpu.proc;
          if (cpu.inIpc) {
            // Kernel/server time on this process's behalf.
            proc.exProcessTicks += delta;
            if (cpu.inSyscall) cpu.syscallRow().ipcTicks += delta;
          } else if (cpu.inPageFault) {
            proc.pageFaultTicks += delta;
          } else if (cpu.inSyscall) {
            cpu.syscallRow().computeTicks += delta;
          } else if (cpu.inEmulation) {
            proc.emulationTicks += delta;
          } else {
            proc.userTicks += delta;
          }
        }
      }
      cpu.lastTs = e.fullTimestamp;
      cpu.haveTs = true;

      // Any event inside a syscall counts toward that syscall's events.
      if (!cpu.idle && cpu.pid != ~0ull && cpu.inSyscall) {
        cpu.syscallRow().events += 1;
      }

      // 2. Update the state machine.
      switch (e.header.major) {
        case Major::Sched:
          switch (static_cast<ossim::SchedMinor>(e.header.minor)) {
            case ossim::SchedMinor::Dispatch:
              if (!e.data.empty()) {
                cpu.idle = false;
                cpu.pid = e.data[0];
                cpu.proc = &processes_[cpu.pid];
                cpu.proc->pid = cpu.pid;
                cpu.proc->dispatches += 1;
                cpu.row = nullptr;
              }
              break;
            case ossim::SchedMinor::Preempt:
            case ossim::SchedMinor::Block:
            case ossim::SchedMinor::ThreadExit:
              cpu.idle = true;
              cpu.pid = ~0ull;
              // Syscall/IPC state survives preemption in the real system;
              // in our per-cpu walker the process resumes with a fresh
              // Dispatch and its own Enter events, so reset conservatively.
              cpu.inSyscall = cpu.inIpc = cpu.inPageFault = cpu.inEmulation = false;
              break;
            case ossim::SchedMinor::Idle:
              cpu.idle = true;
              cpu.pid = ~0ull;
              break;
            default:
              break;
          }
          break;

        case Major::Linux:
          switch (static_cast<ossim::LinuxMinor>(e.header.minor)) {
            case ossim::LinuxMinor::SyscallEnter:
              if (e.data.size() >= 2 && !cpu.idle) {
                cpu.inSyscall = true;
                cpu.syscall = static_cast<uint16_t>(e.data[1]);
                cpu.row = &cpu.proc->syscalls[cpu.syscall];
                cpu.row->calls += 1;
              }
              break;
            case ossim::LinuxMinor::SyscallExit:
              cpu.inSyscall = false;
              break;
            case ossim::LinuxMinor::EmuEnter:
              cpu.inEmulation = true;
              break;
            case ossim::LinuxMinor::EmuExit:
              cpu.inEmulation = false;
              break;
          }
          break;

        case Major::Exception:
          switch (static_cast<ossim::ExcMinor>(e.header.minor)) {
            case ossim::ExcMinor::PgfltStart:
              if (!cpu.idle && cpu.pid != ~0ull) {
                cpu.inPageFault = true;
                cpu.proc->pageFaults += 1;
              }
              break;
            case ossim::ExcMinor::PgfltDone:
              cpu.inPageFault = false;
              break;
            case ossim::ExcMinor::PpcCall:
              if (!cpu.idle && cpu.pid != ~0ull) {
                cpu.inIpc = true;
                cpu.ipcStartTs = e.fullTimestamp;
                cpu.proc->exProcessCalls += 1;
                if (cpu.inSyscall) cpu.syscallRow().ipcCalls += 1;
              }
              break;
            case ossim::ExcMinor::PpcReturn:
              if (cpu.inIpc && cpu.ipcServerPid != ~0ull) {
                auto& entry = services[{cpu.ipcServerPid, cpu.ipcFuncId}];
                entry.serverPid = cpu.ipcServerPid;
                entry.funcId = cpu.ipcFuncId;
                entry.calls += 1;
                entry.ticks += e.fullTimestamp - cpu.ipcStartTs;
              }
              cpu.inIpc = false;
              cpu.ipcServerPid = ~0ull;
              break;
          }
          break;

        case Major::Ipc:
          if (e.header.minor == static_cast<uint16_t>(ossim::IpcMinor::Call) &&
              e.data.size() >= 3) {
            cpu.ipcServerPid = e.data[1];
            cpu.ipcFuncId = e.data[2];
          }
          break;

        default:
          break;
      }
    }
  }

  serviceEntries_.reserve(services.size());
  for (auto& [_, entry] : services) serviceEntries_.push_back(entry);
  std::stable_sort(serviceEntries_.begin(), serviceEntries_.end(),
                   [](const ServiceEntryStats& a, const ServiceEntryStats& b) {
                     return a.ticks > b.ticks;
                   });
}

const ProcessAttribution* TimeAttribution::process(uint64_t pid) const {
  const auto it = processes_.find(pid);
  return it == processes_.end() ? nullptr : &it->second;
}

std::vector<uint64_t> TimeAttribution::pids() const {
  std::vector<uint64_t> out;
  out.reserve(processes_.size());
  for (const auto& [pid, _] : processes_) out.push_back(pid);
  return out;
}

uint64_t TimeAttribution::idleTicks(uint32_t processor) const {
  return processor < idlePerProcessor_.size() ? idlePerProcessor_[processor] : 0;
}

uint64_t TimeAttribution::totalIdleTicks() const noexcept {
  uint64_t total = 0;
  for (const uint64_t t : idlePerProcessor_) total += t;
  return total;
}

std::string TimeAttribution::report(uint64_t pid, const SymbolTable& symbols,
                                    double ticksPerSecond) const {
  const ProcessAttribution* proc = process(pid);
  std::ostringstream out;
  out << util::strprintf("time attribution for pid %llu (all times usecs)\n",
                         static_cast<unsigned long long>(pid));
  if (proc == nullptr) {
    out << "  (no events)\n";
    return out.str();
  }
  const double toUs = 1e6 / ticksPerSecond;

  util::TextTable table;
  table.addColumn("category");
  table.addColumn("time", util::Align::Right);
  table.addColumn("calls", util::Align::Right);
  table.addColumn("events", util::Align::Right);
  table.addColumn("ipc-time", util::Align::Right);
  table.addColumn("ipc-calls", util::Align::Right);
  for (const auto& [scId, sc] : proc->syscalls) {
    table.addRow({ossim::syscallName(static_cast<ossim::Syscall>(scId)),
                  util::strprintf("%.2f", static_cast<double>(sc.computeTicks) * toUs),
                  util::strprintf("%llu", static_cast<unsigned long long>(sc.calls)),
                  util::strprintf("%llu", static_cast<unsigned long long>(sc.events)),
                  util::strprintf("%.2f", static_cast<double>(sc.ipcTicks) * toUs),
                  util::strprintf("%llu", static_cast<unsigned long long>(sc.ipcCalls))});
  }
  table.addRow({"user",
                util::strprintf("%.2f", static_cast<double>(proc->userTicks) * toUs),
                "", "", "", ""});
  table.addRow({"emulation",
                util::strprintf("%.2f", static_cast<double>(proc->emulationTicks) * toUs),
                "", "", "", ""});
  table.addRow({"page-fault",
                util::strprintf("%.2f", static_cast<double>(proc->pageFaultTicks) * toUs),
                util::strprintf("%llu", static_cast<unsigned long long>(proc->pageFaults)),
                "", "", ""});
  table.addRow({"Ex-process",
                util::strprintf("%.2f", static_cast<double>(proc->exProcessTicks) * toUs),
                util::strprintf("%llu", static_cast<unsigned long long>(proc->exProcessCalls)),
                "", "", ""});
  out << table.render();

  if (!serviceEntries_.empty()) {
    out << "\nthread entry points:\n";
    for (const ServiceEntryStats& entry : serviceEntries_) {
      out << util::strprintf("  %-40s calls %6llu  time %.2f\n",
                             symbols.name(entry.funcId).c_str(),
                             static_cast<unsigned long long>(entry.calls),
                             static_cast<double>(entry.ticks) * toUs);
    }
  }
  return out.str();
}

}  // namespace ktrace::analysis
