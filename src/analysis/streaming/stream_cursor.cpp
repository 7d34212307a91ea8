#include "analysis/streaming/stream_cursor.hpp"

#include <algorithm>
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

namespace {

/// Merge position: (fullTimestamp, processor) — MergeCursor's order —
/// then a rank that settles exact ties as an event-by-event merge would:
/// a lane's front event ranks lane + 1 (the lower lane goes first), and an
/// empty lane's last tick ranks 0 (a candidate tied with it must wait).
struct MergeKey {
  uint64_t tick = 0;
  uint32_t processor = 0;
  uint32_t rank = 0;

  bool operator<(const MergeKey& o) const noexcept {
    if (tick != o.tick) return tick < o.tick;
    if (processor != o.processor) return processor < o.processor;
    return rank < o.rank;
  }
};

MergeKey keyOf(const DecodedEvent& e, uint32_t rank) noexcept {
  return {e.fullTimestamp, e.processor, rank};
}

}  // namespace

std::vector<DecodedEvent> exactRun(std::vector<DecodedEvent>& decoded) {
  std::vector<DecodedEvent> run(std::make_move_iterator(decoded.begin()),
                                std::make_move_iterator(decoded.end()));
  decoded.clear();
  return run;
}

void OrderedMerger::settle() {
  if (cursor_ != cursorEnd_) {
    // next()'s unreturned events are the tail of the released prefix.
    const auto unreturned = static_cast<size_t>(cursorEnd_ - cursor_);
    lanes_[spentLane_].runs.front().released -= unreturned;
    buffered_ += unreturned;
  }
  cursor_ = cursorEnd_ = nullptr;
  if (spentLane_ != UINT32_MAX) {
    std::deque<Run>& runs = lanes_[spentLane_].runs;
    if (runs.front().released == runs.front().events.size()) runs.pop_front();
    spentLane_ = UINT32_MAX;
  }
}

void OrderedMerger::push(uint32_t lane, std::vector<DecodedEvent>&& run) {
  if (run.empty()) return;
  settle();
  if (lane >= lanes_.size()) lanes_.resize(lane + 1);
  Lane& l = lanes_[lane];
  l.seen = true;
  l.processor = run.back().processor;
  for (const DecodedEvent& e : run) {
    if (e.fullTimestamp > l.lastTick) l.lastTick = e.fullTimestamp;
  }
  buffered_ += run.size();
  l.runs.push_back(Run{std::move(run), 0});
}

void OrderedMerger::push(uint32_t lane, DecodedEvent event) {
  std::vector<DecodedEvent> run;
  run.push_back(std::move(event));
  push(lane, std::move(run));
}

void OrderedMerger::punctuate(uint32_t lane, uint32_t processor, uint64_t tick) {
  settle();
  if (lane >= lanes_.size()) lanes_.resize(lane + 1);
  Lane& l = lanes_[lane];
  l.seen = true;
  l.processor = processor;
  if (tick > l.lastTick) l.lastTick = tick;
}

std::span<const DecodedEvent> OrderedMerger::nextSpan() {
  settle();
  // One pass: the candidate is the lane whose front sorts first; the
  // bound is the first position any other lane may still fill — its front
  // event, or an empty lane's last tick.
  const auto laneCount = static_cast<uint32_t>(lanes_.size());
  uint32_t best = UINT32_MAX;
  MergeKey bestKey;
  bool bounded = false;
  MergeKey bound;
  for (uint32_t i = 0; i < laneCount; ++i) {
    const Lane& l = lanes_[i];
    MergeKey k;
    if (!l.runs.empty()) {
      const Run& r = l.runs.front();
      k = keyOf(r.events[r.released], i + 1);
      if (best == UINT32_MAX) {
        best = i;
        bestKey = k;
        continue;
      }
      if (k < bestKey) {  // the old candidate's front becomes a bound
        std::swap(k, bestKey);
        best = i;
      }
    } else if (l.seen && !finished_) {
      k = {l.lastTick, l.processor, 0};
    } else {
      continue;
    }
    if (!bounded || k < bound) {
      bound = k;
      bounded = true;
    }
  }
  if (best == UINT32_MAX) return {};

  Run& run = lanes_[best].runs.front();
  const size_t begin = run.released;
  size_t end = run.events.size();
  if (bounded) {
    end = begin;
    while (end < run.events.size() &&
           keyOf(run.events[end], best + 1) < bound) {
      ++end;
    }
    if (end == begin) return {};
  }
  run.released = end;
  buffered_ -= end - begin;
  spentLane_ = best;
  return {run.events.data() + begin, end - begin};
}

const DecodedEvent* OrderedMerger::next() {
  if (cursor_ == cursorEnd_) {
    const std::span<const DecodedEvent> span = nextSpan();
    if (span.empty()) return nullptr;
    cursor_ = span.data();
    cursorEnd_ = cursor_ + span.size();
  }
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
        scratch_.clear();
        stats_.merge(decodeBuffer(view.words, view.seq, processor,
                                  cursor.tsBase, scratch_, options_.decode));
        ingested += scratch_.size();
        merger_.push(static_cast<uint32_t>(i), exactRun(scratch_));
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
