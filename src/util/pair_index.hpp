// Open-addressing index over pairs of 64-bit keys.
//
// Maps each distinct (a, b) to a dense slot number — 0, 1, 2, ... in
// first-insertion order — that the caller uses to index flat arrays of its
// own. Linear probing over a power-of-two table kept at most half full;
// there is no erase. Stands in for an unordered_map keyed by a pair on hot
// paths: no node allocation per key and no pointer chase per lookup.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ktrace::util {

class PairIndex {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  /// The slot of (a, b), or kAbsent.
  uint32_t find(uint64_t a, uint64_t b) const noexcept {
    if (table_.empty()) return kAbsent;
    for (size_t i = hash(a, b) & mask();; i = (i + 1) & mask()) {
      const Entry& e = table_[i];
      if (e.slot == 0) return kAbsent;
      if (e.a == a && e.b == b) return e.slot - 1;
    }
  }

  /// The slot of (a, b), which becomes slot size() when it is new.
  uint32_t insert(uint64_t a, uint64_t b) {
    if (2 * (size_ + 1) > table_.size()) grow();
    for (size_t i = hash(a, b) & mask();; i = (i + 1) & mask()) {
      Entry& e = table_[i];
      if (e.slot == 0) {
        e = Entry{a, b, static_cast<uint32_t>(++size_)};
        return e.slot - 1;
      }
      if (e.a == a && e.b == b) return e.slot - 1;
    }
  }

  size_t size() const noexcept { return size_; }

  void clear() noexcept {
    table_.clear();
    size_ = 0;
  }

 private:
  struct Entry {
    uint64_t a = 0;
    uint64_t b = 0;
    uint32_t slot = 0;  // slot + 1; 0 marks an empty entry
  };

  static size_t hash(uint64_t a, uint64_t b) noexcept {
    uint64_t h = a * 0x9e3779b97f4a7c15ull + b;
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ull;
    return static_cast<size_t>(h ^ (h >> 32));
  }
  size_t mask() const noexcept { return table_.size() - 1; }

  void grow() {
    std::vector<Entry> old(table_.empty() ? 16 : 2 * table_.size());
    old.swap(table_);
    for (const Entry& e : old) {
      if (e.slot == 0) continue;
      size_t i = hash(e.a, e.b) & mask();
      while (table_[i].slot != 0) i = (i + 1) & mask();
      table_[i] = e;
    }
  }

  std::vector<Entry> table_;
  size_t size_ = 0;
};

}  // namespace ktrace::util
