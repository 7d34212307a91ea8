#include "analysis/deadlock.hpp"

#include <algorithm>
#include <sstream>

#include "ossim/events.hpp"
#include "util/table.hpp"

namespace ktrace::analysis {

DeadlockDetector::DeadlockDetector(const TraceSet& trace) {
  // Replay the lock events in global time order, tracking holds and waits.
  struct Wait {
    uint64_t sinceTick = 0;
    std::vector<uint64_t> chain;
  };
  std::map<std::pair<uint64_t, uint64_t>, Wait> waiting;  // (lock,pid) -> wait

  MergeCursor cursor(trace);
  while (const DecodedEvent* e = cursor.next()) {
    if (e->header.major != Major::Lock || e->data.size() < 2) continue;
    const uint64_t lockId = e->data[0];
    const uint64_t pid = e->data[1];
    switch (static_cast<ossim::LockMinor>(e->header.minor)) {
      case ossim::LockMinor::ContendStart: {
        Wait wait;
        wait.sinceTick = e->fullTimestamp;
        if (e->data.size() >= 3) {
          const uint64_t chainLen = std::min<uint64_t>(e->data[2], e->data.size() - 3);
          wait.chain.assign(e->data.begin() + 3,
                            e->data.begin() + 3 + static_cast<ptrdiff_t>(chainLen));
        }
        waiting[{lockId, pid}] = std::move(wait);
        break;
      }
      case ossim::LockMinor::Acquired:
        waiting.erase({lockId, pid});
        held_[pid].insert(lockId);
        lockHolder_[lockId] = pid;
        break;
      case ossim::LockMinor::Release: {
        const auto holderIt = lockHolder_.find(lockId);
        if (holderIt != lockHolder_.end() && holderIt->second == pid) {
          lockHolder_.erase(holderIt);
        }
        const auto heldIt = held_.find(pid);
        if (heldIt != held_.end()) {
          heldIt->second.erase(lockId);
          if (heldIt->second.empty()) held_.erase(heldIt);
        }
        break;
      }
      case ossim::LockMinor::HotSwap:
        break;
    }
  }

  // End-of-trace blocked processes whose lock has a known holder.
  for (const auto& [key, wait] : waiting) {
    const auto& [lockId, pid] = key;
    DeadlockEdge edge;
    edge.waiterPid = pid;
    edge.lockId = lockId;
    edge.waitingSinceTick = wait.sinceTick;
    edge.chain = wait.chain;
    const auto holderIt = lockHolder_.find(lockId);
    edge.holderPid = holderIt != lockHolder_.end() ? holderIt->second : ~0ull;
    waits_.push_back(std::move(edge));
  }
  findCycles();
}

void DeadlockDetector::findCycles() {
  // waiter -> edge (a blocked process waits on exactly one lock).
  std::map<uint64_t, const DeadlockEdge*> waitEdge;
  for (const DeadlockEdge& edge : waits_) {
    if (edge.holderPid != ~0ull) waitEdge[edge.waiterPid] = &edge;
  }

  std::set<uint64_t> resolved;  // pids already assigned to a cycle or cleared
  for (const auto& [startPid, _] : waitEdge) {
    if (resolved.count(startPid) != 0) continue;
    // Follow waiter -> holder links, recording the path.
    std::vector<uint64_t> path;
    std::map<uint64_t, size_t> indexOf;
    uint64_t pid = startPid;
    while (waitEdge.count(pid) != 0 && indexOf.count(pid) == 0 &&
           resolved.count(pid) == 0) {
      indexOf[pid] = path.size();
      path.push_back(pid);
      pid = waitEdge[pid]->holderPid;
    }
    if (const auto it = indexOf.find(pid); it != indexOf.end()) {
      // path[it->second ..] closes a cycle.
      DeadlockCycle cycle;
      for (size_t i = it->second; i < path.size(); ++i) {
        cycle.edges.push_back(*waitEdge[path[i]]);
      }
      cycles_.push_back(std::move(cycle));
    }
    for (const uint64_t p : path) resolved.insert(p);
  }
}

std::string DeadlockDetector::report(const SymbolTable& symbols,
                                     double ticksPerSecond) const {
  std::ostringstream out;
  if (cycles_.empty()) {
    out << "no deadlock cycle in the end-of-trace wait-for graph\n";
  }
  size_t n = 0;
  for (const DeadlockCycle& cycle : cycles_) {
    out << util::strprintf("deadlock cycle %zu (%zu processes):\n", ++n,
                           cycle.edges.size());
    for (const DeadlockEdge& edge : cycle.edges) {
      out << util::strprintf(
          "  pid %llu waits for lock 0x%llx held by pid %llu (since %.6fs)\n",
          static_cast<unsigned long long>(edge.waiterPid),
          static_cast<unsigned long long>(edge.lockId),
          static_cast<unsigned long long>(edge.holderPid),
          static_cast<double>(edge.waitingSinceTick) / ticksPerSecond);
      if (!edge.chain.empty()) out << symbols.renderChain(edge.chain, 6);
    }
  }
  if (!waits_.empty()) {
    out << util::strprintf("blocked processes at end of trace: %zu\n", waits_.size());
  }
  return out.str();
}

}  // namespace ktrace::analysis
