#include "util/word_arena.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>

namespace ktrace::util {

namespace {

// Only blocks big enough for the threshold to matter follow the rule.
constexpr size_t kMinLargeBytes = 1u << 20;
// glibc's mmap threshold rises no higher than this (64-bit), and a mapped
// block carries less than the slack over its request.
constexpr size_t kMaxThresholdBytes = 32u << 20;
constexpr size_t kMapSlackBytes = 64u << 10;

std::atomic<size_t> largestFreed{0};  // up to kMaxThresholdBytes

// The chunk pool keeps at most this much, as the decoder's event pool
// does (analysis/reader.cpp).
constexpr size_t kMaxPooledBytes = 256u << 20;

}  // namespace

/// Large chunks let go of, kept for the next arena: a decode that follows
/// another writes into pages already faulted in rather than paying
/// first-touch faults on a fresh block, which cost more than the words
/// cost to write.
struct WordArena::Pool {
  std::mutex mutex;
  std::vector<Chunk> chunks;
  size_t bytes = 0;

  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  /// The smallest pooled chunk of at least `words`, if any.
  bool take(size_t words, Chunk& out) {
    std::lock_guard lock(mutex);
    auto best = chunks.end();
    for (auto it = chunks.begin(); it != chunks.end(); ++it) {
      if (it->size >= words && (best == chunks.end() || it->size < best->size)) best = it;
    }
    if (best == chunks.end()) return false;
    out = std::move(*best);
    chunks.erase(best);
    bytes -= out.size * sizeof(uint64_t);
    return true;
  }

  /// Pools `c` if it is large and there is room; frees it otherwise
  /// (also when pooling it would need memory there is none of: an arena
  /// releases from its destructor).
  void give(Chunk&& c) noexcept {
    const size_t b = c.size * sizeof(uint64_t);
    try {
      std::lock_guard lock(mutex);
      if (b >= kMinLargeBytes && bytes + b <= kMaxPooledBytes) {
        chunks.push_back(std::move(c));
        bytes += b;
        return;
      }
    } catch (...) {
    }
    noteBlockFreed(b);
  }
};

size_t largeBlockBytes(size_t bytes) noexcept {
  const size_t freed = largestFreed.load(std::memory_order_relaxed);
  if (bytes < kMinLargeBytes || freed == 0) return bytes;
  return std::max(bytes, freed + kMapSlackBytes);
}

void noteBlockFreed(size_t bytes) noexcept {
  if (bytes > kMaxThresholdBytes) return;
  size_t seen = largestFreed.load(std::memory_order_relaxed);
  while (bytes > seen &&
         !largestFreed.compare_exchange_weak(seen, bytes, std::memory_order_relaxed)) {
  }
}

WordArena& WordArena::operator=(WordArena&& o) noexcept {
  if (this != &o) {
    release();
    chunks_ = std::move(o.chunks_);
    o.chunks_.clear();
    next_ = std::exchange(o.next_, nullptr);
    end_ = std::exchange(o.end_, nullptr);
    used_ = std::exchange(o.used_, 0);
    nextChunkWords_ = o.nextChunkWords_;
  }
  return *this;
}

void WordArena::release() noexcept {
  for (Chunk& c : chunks_) Pool::instance().give(std::move(c));
  chunks_.clear();
  next_ = end_ = nullptr;
  used_ = 0;
}

uint64_t* WordArena::allocate(size_t words) {
  if (static_cast<size_t>(end_ - next_) < words) {
    const size_t want = std::max(words, nextChunkWords_);
    Chunk c;
    if (want * sizeof(uint64_t) < kMinLargeBytes || !Pool::instance().take(want, c)) {
      c.size = largeBlockBytes(want * sizeof(uint64_t)) / sizeof(uint64_t);
      c.words = std::make_unique_for_overwrite<uint64_t[]>(c.size);
    }
    chunks_.push_back(std::move(c));
    next_ = chunks_.back().words.get();
    end_ = next_ + chunks_.back().size;
    // Geometric growth for callers that did not reserve what they keep.
    nextChunkWords_ = std::max(nextChunkWords_, chunks_.back().size);
  }
  uint64_t* const out = next_;
  next_ += words;
  used_ += words;
  return out;
}

}  // namespace ktrace::util
