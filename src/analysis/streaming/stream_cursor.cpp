#include "analysis/streaming/stream_cursor.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "core/trace_file.hpp"

namespace ktrace::analysis::streaming {

namespace {

/// Fingerprint of what a file *is* (vs. how far it has grown): the
/// immutable header metadata plus the first record's seq and leading
/// words. Append-only growth keeps it stable; rotation or rewrite in
/// place changes it.
uint64_t fileIdentity(TraceFileReader& reader) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  const TraceFileMeta& meta = reader.meta();
  mix(meta.processorId);
  mix(meta.numProcessors);
  mix(meta.bufferWords);
  mix(static_cast<uint64_t>(meta.clockKind));
  uint64_t tpsBits = 0;
  static_assert(sizeof(meta.ticksPerSecond) == sizeof(tpsBits));
  std::memcpy(&tpsBits, &meta.ticksPerSecond, sizeof(tpsBits));
  mix(tpsBits);
  mix(meta.startWallNs);
  mix(meta.startTicks);
  BufferView first;
  if (reader.bufferCount() > 0 && reader.readBufferView(0, first)) {
    mix(first.seq);
    const size_t n = std::min<size_t>(first.words.size(), 8);
    for (size_t i = 0; i < n; ++i) mix(first.words[i]);
  }
  // Reserve 0 as "unknown" so legacy cursors stay accepted.
  return h != 0 ? h : 1;
}

}  // namespace

// --- OrderedMerger -----------------------------------------------------

std::vector<DecodedEvent> exactRun(std::vector<DecodedEvent>& decoded) {
  std::vector<DecodedEvent> run(std::make_move_iterator(decoded.begin()),
                                std::make_move_iterator(decoded.end()));
  decoded.clear();
  return run;
}

OrderedMerger::OrderedMerger(uint32_t lanes) : lanes_(lanes) { rebuild(); }

OrderedMerger::Lane& OrderedMerger::lane(uint32_t index) {
  settle();
  if (index >= lanes_.size()) {
    lanes_.resize(index + 1);
    if (index >= width_) rebuild();
  }
  return lanes_[index];
}

OrderedMerger::Key OrderedMerger::laneKey(uint32_t index) const noexcept {
  const Lane& l = lanes_[index];
  if (!l.runs.empty()) return keyOf(*l.runs.front().next, index + 1);
  if (l.seen && !finished_) return keyOf(l.lastTick, l.processor, 0);
  return kNone;
}

void OrderedMerger::replay(uint32_t node, Key key) noexcept {
  tree_[node] = key;
  for (; node != 1; node >>= 1) {
    key = std::min(key, tree_[node ^ 1]);
    tree_[node >> 1] = key;
  }
}

void OrderedMerger::rebuild() {
  width_ = std::bit_ceil(std::max<size_t>(lanes_.size(), 1));
  tree_.assign(2 * size_t{width_}, kNone);
  for (uint32_t i = 0; i < lanes_.size(); ++i) tree_[width_ + i] = laneKey(i);
  for (uint32_t n = width_ - 1; n != 0; --n) {
    tree_[n] = std::min(tree_[2 * n], tree_[2 * n + 1]);
  }
}

void OrderedMerger::settle() {
  if (spentLane_ == UINT32_MAX) return;
  std::deque<Run>& runs = lanes_[spentLane_].runs;
  // nextSpan() replayed the lane's leaf unless it took the whole run;
  // next()'s unreturned events, the tail of that span, move it back.
  bool moved = runs.front().next == runs.front().end;
  if (cursor_ != cursorEnd_) {
    runs.front().next = cursor_;
    buffered_ += static_cast<size_t>(cursorEnd_ - cursor_);
    moved = true;
  }
  cursor_ = cursorEnd_ = nullptr;
  if (runs.front().next == runs.front().end) runs.pop_front();
  if (moved) replay(width_ + spentLane_, laneKey(spentLane_));
  spentLane_ = UINT32_MAX;
}

void OrderedMerger::push(uint32_t index, std::vector<DecodedEvent>&& run,
                         std::unique_ptr<const uint64_t[]> words) {
  if (run.empty()) return;
  Lane& l = lane(index);
  l.seen = true;
  l.processor = run.back().processor;
  for (const DecodedEvent& e : run) {
    if (e.fullTimestamp > l.lastTick) l.lastTick = e.fullTimestamp;
  }
  buffered_ += run.size();
  // Moving the vectors keeps their storage, so the pointers and the
  // events' views stay valid.
  const DecodedEvent* const first = run.data();
  const DecodedEvent* const end = first + run.size();
  l.runs.push_back(Run{std::move(run), std::move(words), first, end});
  replay(width_ + index, laneKey(index));
}

void OrderedMerger::borrow(uint32_t index, std::span<const DecodedEvent> run) {
  if (run.empty()) return;
  Lane& l = lane(index);
  l.seen = true;
  l.processor = run.back().processor;
  buffered_ += run.size();
  l.runs.push_back(Run{{}, nullptr, run.data(), run.data() + run.size()});
  replay(width_ + index, laneKey(index));
}

void OrderedMerger::punctuate(uint32_t index, uint32_t processor, uint64_t tick) {
  Lane& l = lane(index);
  l.seen = true;
  l.processor = processor;
  if (tick > l.lastTick) l.lastTick = tick;
  replay(width_ + index, laneKey(index));
}

void OrderedMerger::finish() {
  settle();
  finished_ = true;
  rebuild();  // empty lanes bound nothing from here on
}

std::span<const DecodedEvent> OrderedMerger::nextSpan() {
  settle();
  // The smallest key is the candidate's front event, unless it is an
  // empty lane's last tick (nothing is safe yet) or none at all.
  const auto rank = static_cast<uint32_t>(tree_[1]);
  if (rank == 0 || rank == UINT32_MAX) return {};
  const uint32_t best = rank - 1;
  const uint32_t leaf = width_ + best;
  // The bound is the smallest key of the other lanes: the smallest of the
  // siblings on the candidate's path to the root.
  Key bound = kNone;
  for (uint32_t n = leaf; n != 1; n >>= 1) bound = std::min(bound, tree_[n ^ 1]);

  Run& run = lanes_[best].runs.front();
  const DecodedEvent* const begin = run.next;
  const DecodedEvent* end = begin + 1;  // the front sorts first: it is the top
  Key front = kNone;
  for (; end != run.end; ++end) {
    front = keyOf(*end, rank);
    if (!(front < bound)) break;
  }
  run.next = end;
  buffered_ -= static_cast<size_t>(end - begin);
  spentLane_ = best;
  // The lane's new front is the event that stopped the span; a run taken
  // whole is popped, and its leaf replayed, by the next call's settle().
  if (end != run.end) replay(leaf, front);
  return {begin, end};
}

const DecodedEvent* OrderedMerger::refill() {
  const std::span<const DecodedEvent> span = nextSpan();
  if (span.empty()) return nullptr;
  cursor_ = span.data();
  cursorEnd_ = cursor_ + span.size();
  return cursor_++;
}

// --- StreamCursor ------------------------------------------------------

StreamCursor::StreamCursor(std::vector<std::string> paths,
                           StreamCursorOptions options)
    : paths_(std::move(paths)), cursors_(paths_.size()), options_(options),
      merger_(static_cast<uint32_t>(paths_.size())) {
  if (options_.decode.salvage) {
    throw std::invalid_argument(
        "StreamCursor: salvage decoding is not supported while tailing; "
        "run post-hoc salvage on the closed files");
  }
}

void StreamCursor::resume(const std::vector<FileCursor>& cursors) {
  if (cursors.size() != cursors_.size()) {
    throw std::invalid_argument(
        "StreamCursor::resume: cursor count does not match file count");
  }
  cursors_ = cursors;
}

bool StreamCursor::segmentExists(const std::string& path) const {
  if (options_.decode.fs != nullptr) {
    return options_.decode.fs->open(path, "rb") != nullptr;
  }
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

size_t StreamCursor::poll() {
  size_t ingested = 0;
  TraceReaderOptions readerOptions;
  readerOptions.fs = options_.decode.fs;
  readerOptions.useMmap = options_.decode.useMmap;
  for (size_t i = 0; i < paths_.size(); ++i) {
    FileCursor& cursor = cursors_[i];
    // Walk the path's rotation chain: drain the current segment, and when
    // its successor exists (the writer closed this segment — rotation
    // creates the next file only after the previous one's final flush),
    // hand off in place. Same lane, tsBase carried over; only the
    // per-segment record count and fingerprint reset.
    for (;;) {
      const std::string segmentPath =
          rotationSegmentPath(paths_[i], cursor.segment);
      // A growing file is strictly readable only at flush boundaries: the
      // footer + trailer must sit exactly at EOF. Mid-append the open
      // throws and the file waits for the next poll.
      std::unique_ptr<TraceFileReader> reader;
      try {
        reader = std::make_unique<TraceFileReader>(segmentPath, readerOptions);
      } catch (const std::exception&) {
        break;
      }
      if (!metadataKnown_) {
        ticksPerSecond_ = reader->meta().ticksPerSecond;
        metadataKnown_ = true;
      }
      const uint32_t processor = reader->meta().processorId;
      const uint64_t count = reader->bufferCount();
      // Validate the cursor against the file actually at this path before
      // trusting its offset (a resumed cursor may predate a rewrite). The
      // fingerprint includes the first record, so it is only final once the
      // file has one; an empty file stays at identity 0 (unknown).
      const uint64_t identity = count > 0 ? fileIdentity(*reader) : 0;
      if (cursor.identity != 0 && identity != 0 && cursor.identity != identity) {
        throw std::runtime_error(
            "StreamCursor: resumed cursor does not match the file at '" +
            segmentPath +
            "' (rewritten since the cursor was saved); restart from a fresh "
            "cursor");
      }
      if (cursor.recordsDecoded > count) {
        throw std::runtime_error(
            "StreamCursor: resumed cursor is past the end of '" + segmentPath +
            "' (" + std::to_string(cursor.recordsDecoded) +
            " record(s) decoded, file now holds " + std::to_string(count) +
            "); the file was truncated or replaced");
      }
      if (identity != 0) cursor.identity = identity;
      for (uint64_t k = cursor.recordsDecoded; k < count; ++k) {
        BufferView view;
        if (!reader->readBufferView(k, view)) {
          // Inside the footer's record count only damage fails validation;
          // stopping here would end the stream early and silently.
          throw std::runtime_error(damagedRecordMessage(segmentPath, k));
        }
        // The run keeps its own copy of the record, which its events
        // view: the reader and its mapping are gone by the next poll.
        auto words = std::make_unique_for_overwrite<uint64_t[]>(view.words.size());
        std::copy(view.words.begin(), view.words.end(), words.get());
        scratch_.clear();
        stats_.merge(decodeBuffer({words.get(), view.words.size()}, view.seq, processor,
                                  cursor.tsBase, scratch_, options_.decode));
        ingested += scratch_.size();
        merger_.push(static_cast<uint32_t>(i), exactRun(scratch_), std::move(words));
        cursor.recordsDecoded = k + 1;
      }
      if (!options_.followRotations || cursor.recordsDecoded < count ||
          !segmentExists(rotationSegmentPath(paths_[i], cursor.segment + 1))) {
        break;
      }
      ++cursor.segment;
      cursor.recordsDecoded = 0;
      cursor.identity = 0;
    }
  }
  return ingested;
}

const DecodedEvent* StreamCursor::next() { return merger_.next(); }

void StreamCursor::finish() {
  if (finished_) return;
  poll();
  finished_ = true;
  merger_.finish();
}

}  // namespace ktrace::analysis::streaming
