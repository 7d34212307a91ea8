#include "analysis/reader.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "core/trace_file.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace ktrace::analysis {

namespace {

/// Recycles the large per-processor event vectors between decodes. A
/// gigabyte-scale decode's dominant cost on a warm machine is not the
/// decode loop but first-touch page faults on the fresh output vectors
/// (tens of ns per event); handing back a vector whose pages are already
/// faulted in removes that cost for every decode after the first.
/// Bounded, so one-shot callers only strand a fixed amount of memory.
class EventVectorArena {
 public:
  static EventVectorArena& instance() {
    static EventVectorArena arena;
    return arena;
  }

  std::vector<DecodedEvent> acquire() {
    std::lock_guard lock(mutex_);
    if (pool_.empty()) return {};
    std::vector<DecodedEvent> v = std::move(pool_.back());
    pool_.pop_back();
    pooledBytes_ -= v.capacity() * sizeof(DecodedEvent);
    return v;
  }

  void release(std::vector<DecodedEvent>&& v) {
    const size_t bytes = v.capacity() * sizeof(DecodedEvent);
    v.clear();  // run element destructors now, not under the lock's owner
    std::lock_guard lock(mutex_);
    if (bytes < kMinVectorBytes || pooledBytes_ + bytes > kMaxPooledBytes) {
      util::noteBlockFreed(bytes);  // dropped: the caller's vector frees it
      return;
    }
    pooledBytes_ += bytes;
    pool_.push_back(std::move(v));
  }

  /// Gives `v` room for `capacity` events. Every reallocation of a
  /// decode's vector comes through here — the decode loops make room for
  /// a record's words before decoding it, so decodeBuffer never grows a
  /// vector itself — and a new block is sized by util::largeBlockBytes,
  /// the rule the TraceSet's word arenas follow too: above every large
  /// block let go of, so glibc maps it on its own and takes it back whole
  /// (the next stream's vector is often within a percent of the last
  /// one).
  void reserve(std::vector<DecodedEvent>& v, size_t capacity) {
    if (v.capacity() >= capacity) return;
    util::noteBlockFreed(v.capacity() * sizeof(DecodedEvent));
    const size_t bytes = util::largeBlockBytes(capacity * sizeof(DecodedEvent));
    v.reserve((bytes + sizeof(DecodedEvent) - 1) / sizeof(DecodedEvent));
  }

  /// Room for `more` events past `v`'s end, growing geometrically.
  void reserveMore(std::vector<DecodedEvent>& v, size_t more) {
    if (v.capacity() - v.size() < more) {
      reserve(v, std::max(v.size() + more, 2 * v.capacity()));
    }
  }

 private:
  // Only vectors big enough for faults to matter are worth keeping, and
  // the arena never holds more than a typical decode's working set.
  static constexpr size_t kMinVectorBytes = 1u << 20;
  static constexpr size_t kMaxPooledBytes = 256u << 20;

  std::mutex mutex_;
  std::vector<std::vector<DecodedEvent>> pool_;
  size_t pooledBytes_ = 0;
};

/// Keeps `arena` in `storage` unless nothing was allocated from it.
void keep(std::vector<std::shared_ptr<const void>>& storage, util::WordArena&& arena) {
  if (arena.used() != 0) storage.push_back(std::make_shared<util::WordArena>(std::move(arena)));
}

}  // namespace

TraceSet::~TraceSet() {
  for (std::vector<DecodedEvent>& events : perProcessor_) {
    EventVectorArena::instance().release(std::move(events));
  }
}

TraceSet TraceSet::fromRecords(const std::vector<BufferRecord>& records,
                               const DecodeOptions& options) {
  TraceSet set;
  // Group per processor, preserving per-processor seq order.
  std::map<uint32_t, std::vector<const BufferRecord*>> byProcessor;
  uint32_t maxProcessor = 0;
  for (const BufferRecord& r : records) {
    byProcessor[r.processor].push_back(&r);
    maxProcessor = std::max(maxProcessor, r.processor);
  }
  set.perProcessor_.resize(records.empty() ? 0 : maxProcessor + 1);
  // The events view the set's own copy of the records' words.
  util::WordArena words;
  size_t totalWords = 0;
  for (const BufferRecord& r : records) totalWords += r.words.size();
  words.reserve(totalWords);
  for (auto& [processor, recs] : byProcessor) {
    std::stable_sort(recs.begin(), recs.end(),
                     [](const BufferRecord* a, const BufferRecord* b) {
                       return a->seq < b->seq;
                     });
    uint64_t tsBase = 0;
    std::vector<DecodedEvent>& out = set.perProcessor_[processor];
    EventVectorArena& arena = EventVectorArena::instance();
    out = arena.acquire();
    for (size_t k = 0; k < recs.size(); ++k) {
      if (recs[k]->commitMismatch) ++set.stats_.commitMismatchBuffers;
      const std::vector<uint64_t>& src = recs[k]->words;
      uint64_t* const copy = words.allocate(src.size());
      std::copy(src.begin(), src.end(), copy);
      arena.reserveMore(out, src.size());  // an event is >= 1 word
      set.stats_.merge(decodeBuffer({copy, src.size()}, recs[k]->seq, processor,
                                    tsBase, out, options));
      if (k == 0 && recs.size() > 1) {
        // The first buffer's event density sizes the whole stream: one
        // reservation instead of log2(N) geometric reallocations.
        arena.reserve(out, out.size() * recs.size() + 16);
      }
    }
  }
  keep(set.storage_, std::move(words));
  return set;
}

TraceSet TraceSet::fromFiles(const std::vector<std::string>& paths,
                             const DecodeOptions& options) {
  TraceSet set;
  const size_t numFiles = paths.size();
  if (numFiles == 0) return set;

  TraceReaderOptions readerOptions;
  readerOptions.salvage = options.salvage;
  readerOptions.useMmap = options.useMmap;
  readerOptions.fs = options.fs;

  // Decode work is split into units: a contiguous record range of one
  // file. A v1/v2 (or salvage-mode) file is always one unit; a strict v3
  // file can split at footer-block boundaries whose first record opens
  // with a buffer anchor, so a single huge per-processor file no longer
  // serializes the decode. Units decode into their own slots with nothing
  // shared, and the merge below concatenates them in (file, unit) order —
  // bit-identical to a serial decode regardless of thread count.
  struct FileState {
    bool readable = false;
    uint32_t processor = 0;
    double ticksPerSecond = 1e9;
    ClockKind clockKind = ClockKind::Tsc;
    uint64_t count = 0;
    std::unique_ptr<TraceFileReader> reader;  // planning reader; reused by
                                              // the decode task when the
                                              // file is a single unit
    std::vector<uint64_t> splits;             // unit start ordinals ({0}...)
    DecodeStats stats;                        // salvage tallies from the scan
    std::exception_ptr error;                 // strict mode: open failure
  };
  struct Unit {
    size_t file = 0;
    uint64_t begin = 0;
    uint64_t end = 0;
  };
  struct UnitResult {
    std::vector<DecodedEvent> events;
    // What the events view: the words the reader decompressed or read,
    // and the file's mapping when a view points into it.
    util::WordArena words;
    std::shared_ptr<const util::MappedFile> mapping;
    DecodeStats stats;
    std::exception_ptr error;  // strict mode: validation failure
  };

  // hardware_concurrency is the useful ceiling: decode is CPU-bound, and
  // oversubscribing only adds scheduling noise (a requested count above it
  // used to regress below the serial path).
  const unsigned hw = util::ThreadPool::hardwareThreads();
  const unsigned requested =
      options.threads == 0 ? hw : std::min(options.threads, hw);

  // Planning pass: open every file once (header + footer parse; the
  // salvage scan also happens here, exactly once per file).
  std::vector<FileState> files(numFiles);
  const uint32_t unitsPerFile = static_cast<uint32_t>(std::min<size_t>(
      requested, (requested + numFiles - 1) / numFiles));
  for (size_t i = 0; i < numFiles; ++i) {
    FileState& fs = files[i];
    try {
      fs.reader = std::make_unique<TraceFileReader>(paths[i], readerOptions);
    } catch (...) {
      if (options.salvage) {
        // Post-mortem mode: a file whose header is gone is tallied, not
        // fatal — the other processors' files are still worth decoding.
        ++fs.stats.unreadableFiles;
      } else {
        fs.error = std::current_exception();
      }
      continue;
    }
    fs.readable = true;
    fs.processor = fs.reader->meta().processorId;
    fs.ticksPerSecond = fs.reader->meta().ticksPerSecond;
    fs.clockKind = fs.reader->meta().clockKind;
    fs.count = fs.reader->bufferCount();
    const SalvageReport& report = fs.reader->salvageReport();
    fs.stats.tornRecords += report.tornRecords;
    fs.stats.corruptRecords += report.corruptRecords;
    fs.stats.skippedBytes += report.skippedBytes;
    fs.stats.damagedFooters += report.footerDamaged ? 1 : 0;
    fs.stats.corruptBlocks += report.corruptBlocks;
    fs.splits = {0};
    if (!options.salvage && options.fs == nullptr && unitsPerFile > 1) {
      // parallelSplitPoints returns {0} for formats that cannot split.
      fs.splits = fs.reader->parallelSplitPoints(unitsPerFile);
    }
  }

  std::vector<Unit> units;
  std::vector<size_t> firstUnitOf(numFiles, 0);  // index into units
  for (size_t i = 0; i < numFiles; ++i) {
    FileState& fs = files[i];
    firstUnitOf[i] = units.size();
    if (!fs.readable || fs.count == 0) continue;
    for (size_t j = 0; j < fs.splits.size(); ++j) {
      const uint64_t end =
          j + 1 < fs.splits.size() ? fs.splits[j + 1] : fs.count;
      units.push_back({i, fs.splits[j], end});
    }
  }
  std::vector<UnitResult> results(units.size());

  auto decodeUnit = [&](size_t u) {
    const Unit& unit = units[u];
    FileState& fs = files[unit.file];
    UnitResult& r = results[u];
    EventVectorArena& arena = EventVectorArena::instance();
    r.events = arena.acquire();
    // A single-unit file reuses the planning reader (only this task
    // touches it); a split file gives each unit its own reader, since a
    // reader's scratch/caches are not shareable across threads.
    std::unique_ptr<TraceFileReader> local;
    TraceFileReader* reader = fs.reader.get();
    if (fs.splits.size() > 1) {
      try {
        local = std::make_unique<TraceFileReader>(paths[unit.file], readerOptions);
        reader = local.get();
      } catch (...) {
        r.error = std::current_exception();  // file vanished after planning
        return;
      }
    }
    uint64_t tsBase = 0;  // unit 0 matches serial; later units start at a
                          // buffer anchor, which re-bases exactly
    // Words not viewed in the mapping (compressed blocks, stdio reads) go
    // to the unit's arena, sized for the whole range: reserved address
    // space, touched only as far as it is filled.
    reader->keepWordsIn(&r.words);
    r.words.reserve((unit.end - unit.begin) * reader->recordWords());
    bool viewsMapping = false;
    BufferView view;
    for (uint64_t k = unit.begin; k < unit.end; ++k) {
      if (!reader->readBufferView(k, view)) {
        // Salvage offsets were validated during the scan; a failure here
        // means the file changed underneath us — tolerate it.
        if (options.salvage) break;
        // Strict mode must not silently drop the rest of the file: a record
        // inside bufferCount() only fails validation when it is damaged.
        r.error = std::make_exception_ptr(
            std::runtime_error(damagedRecordMessage(paths[unit.file], k)));
        return;
      }
      if (view.commitMismatch) ++r.stats.commitMismatchBuffers;
      viewsMapping = viewsMapping || reader->inMapping(view.words);
      arena.reserveMore(r.events, view.words.size());  // an event is >= 1 word
      r.stats.merge(decodeBuffer(view.words, view.seq, fs.processor, tsBase,
                                 r.events, options));
      if (k == unit.begin && unit.end - unit.begin > 1) {
        // As in fromRecords: size the vector off the first buffer's
        // event density to kill reallocation churn.
        arena.reserve(r.events, r.events.size() * (unit.end - unit.begin) + 16);
      }
    }
    reader->keepWordsIn(nullptr);
    if (viewsMapping) r.mapping = reader->mapping();
  };

  const unsigned threads =
      static_cast<unsigned>(std::min<size_t>(requested, units.size()));
  if (threads <= 1) {
    // One work unit (or one thread): the pool would only add dispatch
    // latency and a cold thread spawn — decode inline.
    for (size_t u = 0; u < units.size(); ++u) decodeUnit(u);
  } else {
    util::ThreadPool pool(threads);
    for (size_t u = 0; u < units.size(); ++u) {
      pool.submit([&decodeUnit, u] { decodeUnit(u); });
    }
    pool.wait();
  }

  // Merge in path order (units in file order within each file). Clock
  // metadata comes from the first readable file; later files that
  // disagree are counted, not silently adopted (previously the last file
  // won, hiding clock-kind mismatches).
  bool haveMeta = false;
  ClockKind refClock = ClockKind::Tsc;
  for (size_t i = 0; i < numFiles; ++i) {
    FileState& fs = files[i];
    if (fs.error != nullptr) std::rethrow_exception(fs.error);
    const size_t unitBegin = firstUnitOf[i];
    const size_t unitEnd =
        i + 1 < numFiles ? firstUnitOf[i + 1] : units.size();
    for (size_t u = unitBegin; u < unitEnd; ++u) {
      if (results[u].error != nullptr) std::rethrow_exception(results[u].error);
    }
    if (fs.readable) {
      if (!haveMeta) {
        set.ticksPerSecond_ = fs.ticksPerSecond;
        refClock = fs.clockKind;
        haveMeta = true;
      } else if (fs.ticksPerSecond != set.ticksPerSecond_ ||
                 fs.clockKind != refClock) {
        ++fs.stats.metadataMismatchFiles;
      }
      if (set.perProcessor_.size() <= fs.processor) {
        set.perProcessor_.resize(fs.processor + 1);
      }
      std::vector<DecodedEvent>& slot = set.perProcessor_[fs.processor];
      for (size_t u = unitBegin; u < unitEnd; ++u) {
        std::vector<DecodedEvent>& events = results[u].events;
        if (slot.empty()) {
          slot = std::move(events);
        } else {
          // Later units of this file — or a second file claiming the same
          // processor — append in order, as the serial decode did.
          EventVectorArena::instance().reserveMore(slot, events.size());
          slot.insert(slot.end(), std::make_move_iterator(events.begin()),
                      std::make_move_iterator(events.end()));
        }
        set.stats_.merge(results[u].stats);
        keep(set.storage_, std::move(results[u].words));
        if (results[u].mapping != nullptr) set.storage_.push_back(std::move(results[u].mapping));
      }
    }
    set.stats_.merge(fs.stats);
  }
  // Units whose vectors were appended (not moved) into a slot still hold
  // their capacity — recycle it. Moved-from vectors are empty and are
  // dropped by the arena's size floor.
  for (UnitResult& r : results) {
    EventVectorArena::instance().release(std::move(r.events));
  }
  return set;
}

MergeCursor::MergeCursor(const TraceSet& trace)
    : merger_(trace.numProcessors()) {
  merger_.finish();
  for (uint32_t p = 0; p < trace.numProcessors(); ++p) {
    merger_.borrow(p, trace.processorEvents(p));
  }
}

size_t TraceSet::totalEvents() const noexcept {
  size_t n = 0;
  for (const auto& v : perProcessor_) n += v.size();
  return n;
}

uint64_t TraceSet::firstTimestamp() const noexcept {
  uint64_t first = ~0ull;
  for (const auto& v : perProcessor_) {
    if (!v.empty()) first = std::min(first, v.front().fullTimestamp);
  }
  return first == ~0ull ? 0 : first;
}

uint64_t TraceSet::lastTimestamp() const noexcept {
  uint64_t last = 0;
  for (const auto& v : perProcessor_) {
    if (!v.empty()) last = std::max(last, v.back().fullTimestamp);
  }
  return last;
}

}  // namespace ktrace::analysis
