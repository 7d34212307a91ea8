#include "analysis/profile.hpp"

#include <algorithm>
#include <sstream>

#include "analysis/streaming/folds.hpp"
#include "util/table.hpp"

namespace ktrace::analysis {

Profile::Profile(const TraceSet& trace) {
  // The post-hoc tool is the streaming fold run to EOF (DESIGN.md §13):
  // one implementation, identical results live and offline.
  streaming::ProfileFold fold;
  for (uint32_t p = 0; p < trace.numProcessors(); ++p) {
    fold.onEvents(trace.processorEvents(p));
  }
  fold.finish();
  *this = Profile(std::move(fold));
}

Profile::Profile(streaming::ProfileFold&& fold) : samples_(fold.takeSamples()) {}

std::vector<ProfileRow> Profile::histogram(uint64_t pid) const {
  std::vector<ProfileRow> rows;
  const auto it = samples_.find(pid);
  if (it == samples_.end()) return rows;
  rows.reserve(it->second.size());
  for (const auto& [funcId, count] : it->second) rows.push_back({funcId, count});
  std::stable_sort(rows.begin(), rows.end(), [](const ProfileRow& a, const ProfileRow& b) {
    return a.count > b.count;
  });
  return rows;
}

std::vector<uint64_t> Profile::pids() const {
  std::vector<uint64_t> out;
  out.reserve(samples_.size());
  for (const auto& [pid, _] : samples_) out.push_back(pid);
  return out;
}

uint64_t Profile::totalSamples(uint64_t pid) const {
  const auto it = samples_.find(pid);
  if (it == samples_.end()) return 0;
  uint64_t total = 0;
  for (const auto& [_, count] : it->second) total += count;
  return total;
}

std::string Profile::report(uint64_t pid, const SymbolTable& symbols,
                            const std::string& mappedFilename, size_t topN) const {
  std::ostringstream out;
  out << util::strprintf("histogram for pid 0x%llx mapped filename %s\n",
                         static_cast<unsigned long long>(pid), mappedFilename.c_str());
  out << "count method\n";
  size_t emitted = 0;
  for (const ProfileRow& row : histogram(pid)) {
    if (emitted++ == topN) break;
    out << util::strprintf("%6llu %s\n", static_cast<unsigned long long>(row.count),
                           symbols.name(row.funcId).c_str());
  }
  return out.str();
}

}  // namespace ktrace::analysis
