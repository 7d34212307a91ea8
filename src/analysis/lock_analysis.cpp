#include "analysis/lock_analysis.hpp"

#include <algorithm>
#include <sstream>

#include "analysis/streaming/folds.hpp"
#include "util/table.hpp"

namespace ktrace::analysis {

LockAnalysis::LockAnalysis(const TraceSet& trace) {
  // The post-hoc tool is the streaming fold run to EOF (DESIGN.md §13):
  // one implementation, identical results live and offline.
  streaming::LockContentionFold fold;
  MergeCursor cursor(trace);
  for (auto span = cursor.nextSpan(); !span.empty(); span = cursor.nextSpan()) {
    fold.onEvents(span);
  }
  fold.finish();
  *this = LockAnalysis(std::move(fold));
}

LockAnalysis::LockAnalysis(streaming::LockContentionFold&& fold)
    : rows_(fold.takeRows()), unmatchedContends_(fold.unmatchedContends()) {}

std::vector<LockStats> LockAnalysis::sorted(LockSortKey key) const {
  std::vector<LockStats> out = rows_;
  auto metric = [key](const LockStats& row) -> uint64_t {
    switch (key) {
      case LockSortKey::Time: return row.totalWaitTicks;
      case LockSortKey::Count: return row.contendedCount;
      case LockSortKey::Spin: return row.totalSpins;
      case LockSortKey::MaxTime: return row.maxWaitTicks;
    }
    return 0;
  };
  std::stable_sort(out.begin(), out.end(), [&](const LockStats& a, const LockStats& b) {
    return metric(a) > metric(b);
  });
  return out;
}

uint64_t LockAnalysis::totalWaitTicks() const noexcept {
  uint64_t total = 0;
  for (const auto& row : rows_) total += row.totalWaitTicks;
  return total;
}

std::string LockAnalysis::report(const SymbolTable& symbols, double ticksPerSecond,
                                 size_t topN, LockSortKey key) const {
  const char* keyName = key == LockSortKey::Time    ? "time"
                        : key == LockSortKey::Count ? "count"
                        : key == LockSortKey::Spin  ? "spin"
                                                    : "max time";
  std::ostringstream out;
  out << util::strprintf("top %zu contended locks by %s\n", topN, keyName);
  out << "time  count  spin  max time  pid\ncall chain\n\n";
  size_t emitted = 0;
  for (const LockStats& row : sorted(key)) {
    if (emitted++ == topN) break;
    out << util::strprintf(
        "%.9f  %llu %llu %.9f  0x%llx\n",
        static_cast<double>(row.totalWaitTicks) / ticksPerSecond,
        static_cast<unsigned long long>(row.contendedCount),
        static_cast<unsigned long long>(row.totalSpins),
        static_cast<double>(row.maxWaitTicks) / ticksPerSecond,
        static_cast<unsigned long long>(row.pid));
    out << symbols.renderChain(row.chain, 0);
    out << '\n';
  }
  return out.str();
}

}  // namespace ktrace::analysis
