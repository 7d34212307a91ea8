// Stable storage for trace words, and the sizing rule every large decode
// block follows.
//
// A decoded event's payload is a view of trace words (DESIGN.md §12), so
// whoever holds the event keeps the words: a mapping of the file, or
// words a reader decompressed or read into storage that stays put. A
// WordArena is that storage: allocate() hands out runs of words that keep
// their address until the arena is destroyed.
//
// An arena's large chunks are pooled when it is destroyed, as the
// decoder's event vectors are, so the next decode writes into pages
// already faulted in. Large blocks — an arena's chunks and the decoder's
// event vectors — are sized by one rule. glibc serves a block above its mmap threshold with a
// mapping of its own and returns it whole on free, but it raises the
// threshold to each such block it unmaps (up to 32 MiB). A later block no
// larger than that comes from the calling thread's heap instead, and once
// freed sits at that heap's top, which malloc_trim does not return: a
// block's worth of resident memory per thread for the life of the
// process. largeBlockBytes() therefore sizes a new large block above
// every block let go of so far; the extra is address space only, pages
// past what is written are never touched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace ktrace::util {

/// Bytes to allocate for a block of at least `bytes`: `bytes` itself
/// below 1 MiB, else more than the largest block freed so far (up to
/// glibc's threshold ceiling), so the allocator maps the block on its
/// own.
size_t largeBlockBytes(size_t bytes) noexcept;

/// Records that a block of `bytes` is being freed (see largeBlockBytes).
void noteBlockFreed(size_t bytes) noexcept;

class WordArena {
 public:
  WordArena() = default;
  /// Moving keeps every chunk where it is and leaves the source empty.
  WordArena(WordArena&& o) noexcept { *this = std::move(o); }
  WordArena& operator=(WordArena&& o) noexcept;
  ~WordArena() { release(); }

  /// The next chunk the arena allocates holds at least `words`: a caller
  /// that knows how much it will keep gets it in one block.
  void reserve(size_t words) noexcept {
    if (words > nextChunkWords_) nextChunkWords_ = words;
  }

  /// `words` uninitialized words that stay where they are, and valid,
  /// until the arena is destroyed.
  uint64_t* allocate(size_t words);

  /// Words handed out so far.
  size_t used() const noexcept { return used_; }

 private:
  struct Pool;
  void release() noexcept;

  struct Chunk {
    std::unique_ptr<uint64_t[]> words;
    size_t size = 0;
  };

  std::vector<Chunk> chunks_;
  uint64_t* next_ = nullptr;  // free space in the last chunk
  uint64_t* end_ = nullptr;
  size_t used_ = 0;
  size_t nextChunkWords_ = 4096;
};

}  // namespace ktrace::util
