#include "core/trace_file.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "core/decode.hpp"
#include "util/crc32.hpp"
#include "util/lz.hpp"
#include "util/table.hpp"

namespace ktrace {

namespace {

constexpr char kMagic[8] = {'K', '4', '2', 'T', 'R', 'C', 'F', '1'};
constexpr uint32_t kVersionLegacy = 1;  // no per-record magic/CRC
constexpr uint32_t kVersionCrc = 2;     // checksummed records
constexpr uint32_t kVersionFooter = 3;  // v2 records + footer index + trailer
constexpr uint64_t kHeaderBytes = 128;
constexpr uint64_t kRecordHeaderBytes = 32;
// "KREC" little-endian; the resynchronization point a salvage scan hunts for.
constexpr uint32_t kRecordMagic = 0x4345524Bu;
// "KCMZ" little-endian; starts a compressed block of whole records.
constexpr uint32_t kBlockMagic = 0x5A4D434Bu;
constexpr char kTrailerMagic[8] = {'K', 'T', 'R', 'C', 'E', 'N', 'D', '3'};
constexpr uint64_t kFooterEntryBytes = 32;
constexpr uint64_t kTrailerBytes = 64;
// A corrupt file header must not make the reader allocate absurd buffers.
constexpr uint32_t kMaxBufferWords = 1u << 28;

struct DiskFileHeader {
  char magic[8];
  uint32_t version;
  uint32_t processorId;
  uint32_t numProcessors;
  uint32_t bufferWords;
  uint32_t clockKind;
  uint32_t reserved0;
  uint64_t ticksPerSecondBits;  // double, bit-cast
  uint64_t startWallNs;
  uint64_t startTicks;
  uint8_t padding[kHeaderBytes - 8 - 4 * 6 - 8 * 3];
};
static_assert(sizeof(DiskFileHeader) == kHeaderBytes);

struct DiskRecordHeaderV1 {
  uint64_t seq;
  uint64_t committedDelta;
  uint32_t processor;
  uint32_t flags;  // bit 0: commit mismatch
  uint64_t reserved;
};
static_assert(sizeof(DiskRecordHeaderV1) == kRecordHeaderBytes);

struct DiskRecordHeaderV2 {
  uint32_t magic;  // kRecordMagic
  uint32_t crc;    // CRC-32 over this header (crc = 0) then the payload
  uint64_t seq;
  uint64_t committedDelta;
  uint32_t processor;
  uint32_t flags;  // bit 0: commit mismatch
};
static_assert(sizeof(DiskRecordHeaderV2) == kRecordHeaderBytes);

/// Frames a compressed run of whole records in the v3 body. The stored
/// stream follows, padded with zero bytes to the next 8-byte boundary so
/// every frame in the file stays word-aligned.
struct DiskBlockHeader {
  uint32_t magic;  // kBlockMagic
  uint32_t crc;    // CRC-32 over the compressed stream (compressedBytes)
  uint32_t recordCount;
  uint32_t flags;
  uint32_t rawBytes;         // recordCount * recordBytes
  uint32_t compressedBytes;  // exact stream length, before padding
  uint64_t firstSeq;         // seq of the first record (debugging aid)
};
static_assert(sizeof(DiskBlockHeader) == kRecordHeaderBytes);

/// One v3 footer index entry: a contiguous span of records (uncompressed
/// group or one compressed block) covered by a single CRC.
struct DiskFooterEntry {
  uint64_t fileOffset;
  uint32_t recordCount;
  uint32_t flags;        // bit 0: compressed block
  uint32_t storedBytes;  // on-disk span (block header included)
  uint32_t rawBytes;     // storedBytes when uncompressed
  uint32_t crc;          // CRC-32 over the on-disk span
  uint32_t reserved;
};
static_assert(sizeof(DiskFooterEntry) == kFooterEntryBytes);

/// Fixed-size trailer at EOF: how a reader finds the footer without
/// scanning. Self-checksummed so a torn footer is detected, not trusted.
struct DiskFooterTrailer {
  char magic[8];  // kTrailerMagic
  uint64_t footerOffset;
  uint64_t entryCount;
  uint64_t totalRecords;
  uint32_t footerCrc;   // CRC-32 over the entry array
  uint32_t trailerCrc;  // CRC-32 over this struct with trailerCrc zeroed
  uint8_t reserved[24];
};
static_assert(sizeof(DiskFooterTrailer) == kTrailerBytes);

constexpr uint32_t kEntryFlagCompressed = 1u;

constexpr uint64_t pad8(uint64_t n) noexcept { return (n + 7) & ~uint64_t{7}; }

util::FileSystem& resolveFs(util::FileSystem* fs) {
  return fs != nullptr ? *fs : util::FileSystem::stdio();
}

bool isTransientErrno(int e) noexcept {
  return e == EINTR || e == EAGAIN || e == EWOULDBLOCK;
}

/// Serializes one record (v2 wire format) into `out`, CRC filled in.
void serializeRecord(const BufferRecord& record, size_t payloadBytes,
                     unsigned char* out) {
  DiskRecordHeaderV2 rh{};
  rh.magic = kRecordMagic;
  rh.seq = record.seq;
  rh.committedDelta = record.committedDelta;
  rh.processor = record.processor;
  rh.flags = record.commitMismatch ? 1u : 0u;
  uint32_t crc = util::crc32(&rh, sizeof(rh));  // rh.crc is still 0 here
  crc = util::crc32(record.words.data(), payloadBytes, crc);
  rh.crc = crc;
  std::memcpy(out, &rh, sizeof(rh));
  std::memcpy(out + sizeof(rh), record.words.data(), payloadBytes);
}

}  // namespace

TraceFileWriter::TraceFileWriter(const std::string& path, const TraceFileMeta& meta,
                                 util::FileSystem* fs,
                                 const TraceWriterOptions& options)
    : path_(path), meta_(meta), options_(options) {
  if (meta_.bufferWords == 0) {
    throw std::invalid_argument("TraceFileWriter: bufferWords must be set");
  }
  if (options_.formatVersion != kVersionCrc && options_.formatVersion != kVersionFooter) {
    throw std::invalid_argument("TraceFileWriter: unsupported format version");
  }
  // Footer entries hold byte counts in 32 bits; clamp the grouping so a
  // sealed group can never overflow one.
  const uint64_t recordBytes =
      kRecordHeaderBytes + static_cast<uint64_t>(meta_.bufferWords) * 8;
  uint64_t g = options_.indexRecordsPerEntry == 0 ? 1 : options_.indexRecordsPerEntry;
  g = std::min<uint64_t>(g, 0xFFFFFFFFu / recordBytes);
  groupLimit_ = static_cast<uint32_t>(std::max<uint64_t>(1, g));
  file_ = resolveFs(fs).open(path, "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("TraceFileWriter: cannot open " + path);
  }
}

TraceFileWriter::~TraceFileWriter() {
  // Best effort: an empty trace is still a valid file, and a v3 file owes
  // its footer. Errors are already recorded; nothing can throw here.
  if (file_ != nullptr && ensureHeader() &&
      options_.formatVersion >= kVersionFooter) {
    writeFooter();
  }
}

void TraceFileWriter::recordError(const char* what) {
  errno_ = file_->error() != 0 ? file_->error() : EIO;
  errorMessage_ = util::strprintf("TraceFileWriter: %s (%s): %s", what, path_.c_str(),
                                  std::strerror(errno_));
}

bool TraceFileWriter::ensureHeader() {
  if (headerWritten_) return true;
  DiskFileHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = options_.formatVersion;
  h.processorId = meta_.processorId;
  h.numProcessors = meta_.numProcessors;
  h.bufferWords = meta_.bufferWords;
  h.clockKind = static_cast<uint32_t>(meta_.clockKind);
  std::memcpy(&h.ticksPerSecondBits, &meta_.ticksPerSecond, sizeof(double));
  h.startWallNs = meta_.startWallNs;
  h.startTicks = meta_.startTicks;
  if (file_->write(&h, sizeof(h)) != sizeof(h)) {
    recordError("header write failed");
    file_->seek(0, SEEK_SET);  // retry rewrites from the start
    return false;
  }
  headerWritten_ = true;
  bytesWritten_ += sizeof(h);
  rawBytes_ += sizeof(h);
  bodyEnd_ = static_cast<int64_t>(kHeaderBytes);
  needSeekToBody_ = false;
  return true;
}

bool TraceFileWriter::seekToBody() {
  if (!needSeekToBody_) return true;
  if (!file_->seek(bodyEnd_, SEEK_SET)) {
    recordError("seek failed");
    return false;
  }
  needSeekToBody_ = false;
  return true;
}

void TraceFileWriter::sealGroup() {
  if (groupCount_ == 0) return;
  entries_.push_back({groupStart_, groupCount_, 0, groupBytes_, groupBytes_, groupCrc_});
  groupCount_ = 0;
  groupBytes_ = 0;
  groupCrc_ = 0;
}

void TraceFileWriter::noteRecordWritten(const void* diskBytes, size_t diskLen) {
  ++buffersWritten_;
  bytesWritten_ += diskLen;
  rawBytes_ += diskLen;
  if (options_.formatVersion >= kVersionFooter) {
    if (groupCount_ == 0) groupStart_ = bodyEnd_;
    // Seed-chaining keeps the group CRC equal to one CRC over the whole
    // span, however the records arrived (serial writes, batches, replays)
    // — the byte-identity invariant across sink configurations depends
    // on the footer being a pure function of the record sequence.
    groupCrc_ = util::crc32(diskBytes, diskLen, groupCrc_);
    groupBytes_ += static_cast<uint32_t>(diskLen);
    if (++groupCount_ == groupLimit_) sealGroup();
  }
  bodyEnd_ += static_cast<int64_t>(diskLen);
}

bool TraceFileWriter::writeBuffer(const BufferRecord& record) {
  if (record.words.size() != meta_.bufferWords) {
    throw std::invalid_argument("TraceFileWriter: buffer size mismatch");
  }
  if (!ensureHeader()) return false;
  if (!seekToBody()) return false;
  const size_t payloadBytes = record.words.size() * sizeof(uint64_t);
  const size_t recordBytes = sizeof(DiskRecordHeaderV2) + payloadBytes;
  staging_.resize(recordBytes);
  serializeRecord(record, payloadBytes, staging_.data());
  if (file_->write(staging_.data(), recordBytes) != recordBytes) {
    recordError("record write failed");
    // The next write re-seeks to the record boundary, so a successful
    // retry overwrites the torn bytes instead of leaving them mid-stream.
    needSeekToBody_ = true;
    tornTail_ = true;
    return false;
  }
  noteRecordWritten(staging_.data(), recordBytes);
  return true;
}

size_t TraceFileWriter::writeBufferBatch(const BufferRecord* const* records,
                                         size_t count) {
  for (size_t i = 0; i < count; ++i) {
    if (records[i]->words.size() != meta_.bufferWords) {
      throw std::invalid_argument("TraceFileWriter: buffer size mismatch");
    }
  }
  if (count == 0) return 0;
  if (count == 1) return writeBuffer(*records[0]) ? 1 : 0;
  if (!ensureHeader()) return 0;
  if (!seekToBody()) return 0;
  const size_t payloadBytes = static_cast<size_t>(meta_.bufferWords) * sizeof(uint64_t);
  const size_t recordBytes = sizeof(DiskRecordHeaderV2) + payloadBytes;
  staging_.resize(recordBytes * count);
  unsigned char* out = staging_.data();
  for (size_t i = 0; i < count; ++i) {
    serializeRecord(*records[i], payloadBytes, out);
    out += recordBytes;
  }
  const size_t rawTotal = staging_.size();

  if (options_.compress && options_.formatVersion >= kVersionFooter &&
      rawTotal <= 0xFFFFFFFFu - kTrailerBytes) {
    // Worth compressing only if the framed block undercuts the raw bytes;
    // giving the compressor exactly that much room makes "not worth it"
    // fall out as a failed fit (lzCompress returns 0).
    const size_t cap = rawTotal > sizeof(DiskBlockHeader) + 16
                           ? rawTotal - sizeof(DiskBlockHeader) - 16
                           : 0;
    size_t csize = 0;
    if (cap > 0) {
      compress_.resize(sizeof(DiskBlockHeader) + cap + 8);
      csize = util::lzCompress(staging_.data(), rawTotal,
                               compress_.data() + sizeof(DiskBlockHeader), cap);
    }
    if (csize != 0) {
      const size_t span = sizeof(DiskBlockHeader) + pad8(csize);
      std::memset(compress_.data() + sizeof(DiskBlockHeader) + csize, 0,
                  pad8(csize) - csize);
      DiskBlockHeader bh{};
      bh.magic = kBlockMagic;
      bh.crc = util::crc32(compress_.data() + sizeof(DiskBlockHeader), csize);
      bh.recordCount = static_cast<uint32_t>(count);
      bh.rawBytes = static_cast<uint32_t>(rawTotal);
      bh.compressedBytes = static_cast<uint32_t>(csize);
      bh.firstSeq = records[0]->seq;
      std::memcpy(compress_.data(), &bh, sizeof(bh));
      if (file_->write(compress_.data(), span) == span) {
        sealGroup();  // a block entry cannot extend an open record group
        entries_.push_back({bodyEnd_, static_cast<uint32_t>(count),
                            kEntryFlagCompressed, static_cast<uint32_t>(span),
                            static_cast<uint32_t>(rawTotal),
                            util::crc32(compress_.data(), span)});
        buffersWritten_ += count;
        bytesWritten_ += span;
        rawBytes_ += rawTotal;
        bodyEnd_ += static_cast<int64_t>(span);
        return count;
      }
      recordError("batch write failed");
      // Replay uncompressed: simpler to reason about under disk-full, and
      // the per-record path accounts durable records exactly.
      needSeekToBody_ = true;
      tornTail_ = true;
      size_t done = 0;
      while (done < count && writeBuffer(*records[done])) ++done;
      return done;
    }
  }

  if (file_->write(staging_.data(), rawTotal) == rawTotal) {
    const unsigned char* rec = staging_.data();
    for (size_t i = 0; i < count; ++i) {
      noteRecordWritten(rec, recordBytes);
      rec += recordBytes;
    }
    return count;
  }
  recordError("batch write failed");
  // The bulk write failed or landed short mid-batch. Rewind to the batch
  // start and replay record-by-record: every record that lands again does
  // so at its exact boundary, so buffersWritten_/bytesWritten_ count only
  // durable records — never the attempted batch.
  needSeekToBody_ = true;
  tornTail_ = true;
  size_t done = 0;
  while (done < count && writeBuffer(*records[done])) ++done;
  return done;
}

bool TraceFileWriter::writeFooter() {
  if (!file_->seek(bodyEnd_, SEEK_SET)) {
    recordError("seek failed");
    needSeekToBody_ = true;
    return false;
  }
  // Whatever happens next, the file position is past the body.
  needSeekToBody_ = true;
  const size_t nEntries = entries_.size() + (groupCount_ > 0 ? 1 : 0);
  staging_.resize(nEntries * kFooterEntryBytes + kTrailerBytes);
  unsigned char* out = staging_.data();
  auto put = [&out](const FooterEntry& e) {
    DiskFooterEntry d{};
    d.fileOffset = static_cast<uint64_t>(e.offset);
    d.recordCount = e.records;
    d.flags = e.flags;
    d.storedBytes = e.storedBytes;
    d.rawBytes = e.rawBytes;
    d.crc = e.crc;
    std::memcpy(out, &d, sizeof(d));
    out += sizeof(d);
  };
  for (const FooterEntry& e : entries_) put(e);
  if (groupCount_ > 0) {
    // The open group is written but not sealed: later records extend it,
    // and the next flush re-emits the grown entry in its place.
    put({groupStart_, groupCount_, 0, groupBytes_, groupBytes_, groupCrc_});
  }
  DiskFooterTrailer t{};
  std::memcpy(t.magic, kTrailerMagic, sizeof(t.magic));
  t.footerOffset = static_cast<uint64_t>(bodyEnd_);
  t.entryCount = nEntries;
  t.totalRecords = buffersWritten_;
  t.footerCrc = util::crc32(staging_.data(), nEntries * kFooterEntryBytes);
  t.trailerCrc = 0;
  t.trailerCrc = util::crc32(&t, sizeof(t));
  std::memcpy(out, &t, sizeof(t));
  if (file_->write(staging_.data(), staging_.size()) != staging_.size()) {
    recordError("footer write failed");
    tornTail_ = true;  // a partial footer is garbage past the body
    return false;
  }
  return true;
}

bool TraceFileWriter::flush() {
  bool ok = ensureHeader();
  if (ok && tornTail_) {
    // A failed write may have left torn bytes past the last record
    // boundary. Chop them before sealing: the reader requires the footer
    // trailer at exact EOF, and a surviving segment must read strictly.
    if (file_->truncate(bodyEnd_)) {
      tornTail_ = false;
      needSeekToBody_ = true;  // position is undefined after a truncate
    } else {
      recordError("truncate failed");
      ok = false;
    }
  }
  if (ok && options_.formatVersion >= kVersionFooter) {
    ok = writeFooter() && ok;
  }
  if (!file_->flush()) {
    recordError("flush failed");
    ok = false;
  }
  return ok;
}

TraceFileReader::TraceFileReader(const std::string& path,
                                 const TraceReaderOptions& options)
    : salvage_(options.salvage) {
  // A custom filesystem (fault injection) must intercept every read, so
  // mmap is only attempted on the plain stdio path.
  if (options.useMmap && options.fs == nullptr) {
    map_ = util::MappedFile::open(path);
  }
  if (map_ == nullptr) {
    file_ = resolveFs(options.fs).open(path, "rb");
    if (file_ == nullptr) {
      throw std::runtime_error("TraceFileReader: cannot open " + path);
    }
  }
  DiskFileHeader h{};
  if (!readBytesAt(0, &h, sizeof(h)) ||
      std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0 ||
      (h.version != kVersionLegacy && h.version != kVersionCrc &&
       h.version != kVersionFooter) ||
      h.bufferWords == 0 || h.bufferWords > kMaxBufferWords) {
    throw std::runtime_error("TraceFileReader: bad header in " + path);
  }
  meta_.processorId = h.processorId;
  meta_.numProcessors = h.numProcessors;
  meta_.bufferWords = h.bufferWords;
  meta_.clockKind = static_cast<ClockKind>(h.clockKind);
  std::memcpy(&meta_.ticksPerSecond, &h.ticksPerSecondBits, sizeof(double));
  meta_.startWallNs = h.startWallNs;
  meta_.startTicks = h.startTicks;

  version_ = h.version;
  report_.formatVersion = version_;
  headerBytes_ = kHeaderBytes;
  recordBytes_ = kRecordHeaderBytes + static_cast<uint64_t>(meta_.bufferWords) * 8;
  const int64_t size = map_ != nullptr ? map_->size() : file_->size();
  if (size <= static_cast<int64_t>(headerBytes_)) {
    bufferCount_ = 0;  // header only (or shorter): nothing to index
  } else if (salvage_) {
    scanSalvage(size);
  } else if (version_ >= kVersionFooter) {
    if (!parseFooter(size)) {
      // Records but no intact footer directory: the file was cut off
      // before a flush, or the footer region itself is damaged. Strict
      // mode refuses rather than guessing where records end.
      throw std::runtime_error(util::strprintf(
          "TraceFileReader: %s has no valid v3 footer (truncated or damaged; "
          "use salvage mode)", path.c_str()));
    }
  } else {
    const uint64_t body = static_cast<uint64_t>(size) - headerBytes_;
    if (body % recordBytes_ != 0) {
      // A partial trailing record means a crash or truncation; strict mode
      // refuses rather than silently reading the intact prefix.
      throw std::runtime_error(util::strprintf(
          "TraceFileReader: %s truncated mid-record (%llu trailing byte(s))",
          path.c_str(), static_cast<unsigned long long>(body % recordBytes_)));
    }
    bufferCount_ = body / recordBytes_;
  }
}

TraceFileReader::~TraceFileReader() = default;

bool TraceFileReader::readBytesAt(int64_t offset, void* dst, size_t bytes) {
  if (map_ != nullptr) {
    if (offset < 0 || offset + static_cast<int64_t>(bytes) > map_->size()) return false;
    std::memcpy(dst, map_->data() + offset, bytes);
    return true;
  }
  return file_->seek(offset, SEEK_SET) && file_->read(dst, bytes) == bytes;
}

bool TraceFileReader::crcRange(int64_t offset, size_t bytes, uint32_t& out) {
  if (map_ != nullptr) {
    if (offset < 0 || offset + static_cast<int64_t>(bytes) > map_->size()) return false;
    out = util::crc32(map_->data() + offset, bytes);
    return true;
  }
  constexpr size_t kChunk = 256 * 1024;
  blockScratch_.resize(std::min(bytes, kChunk));
  if (!file_->seek(offset, SEEK_SET)) return false;
  uint32_t crc = 0;
  size_t left = bytes;
  while (left > 0) {
    const size_t want = std::min(left, kChunk);
    if (file_->read(blockScratch_.data(), want) != want) return false;
    crc = util::crc32(blockScratch_.data(), want, crc);
    left -= want;
  }
  out = crc;
  return true;
}

bool TraceFileReader::fillPayload(int64_t offset, BufferView& out) {
  const size_t payloadBytes = static_cast<size_t>(meta_.bufferWords) * sizeof(uint64_t);
  if (map_ != nullptr) {
    if (offset < 0 || offset + static_cast<int64_t>(payloadBytes) > map_->size()) {
      return false;
    }
    const unsigned char* p = map_->data() + offset;
    // Records written by TraceFileWriter sit at 8-aligned offsets, so
    // this is the common case; only a salvage resync at an odd byte
    // offset forces the copy below.
    if (reinterpret_cast<uintptr_t>(p) % alignof(uint64_t) == 0) {
      out.words = {reinterpret_cast<const uint64_t*>(p), meta_.bufferWords};
      return true;
    }
  }
  uint64_t* words = nullptr;
  if (keep_ != nullptr) {
    words = keep_->allocate(meta_.bufferWords);
  } else {
    scratch_.resize(meta_.bufferWords);
    words = scratch_.data();
  }
  if (!readBytesAt(offset, words, payloadBytes)) return false;
  out.words = {words, meta_.bufferWords};
  return true;
}

bool TraceFileReader::inMapping(std::span<const uint64_t> words) const noexcept {
  if (map_ == nullptr || words.empty()) return false;
  const auto* p = reinterpret_cast<const unsigned char*>(words.data());
  return p >= map_->data() && p < map_->data() + map_->size();
}

bool TraceFileReader::readRecordViewAt(int64_t offset, BufferView& out, bool verify) {
  const size_t payloadBytes = static_cast<size_t>(meta_.bufferWords) * sizeof(uint64_t);
  if (version_ == kVersionLegacy) {
    DiskRecordHeaderV1 rh{};
    if (!readBytesAt(offset, &rh, sizeof(rh))) return false;
    out.seq = rh.seq;
    out.committedDelta = rh.committedDelta;
    out.processor = rh.processor;
    out.commitMismatch = (rh.flags & 1u) != 0;
    return fillPayload(offset + static_cast<int64_t>(kRecordHeaderBytes), out);
  }
  DiskRecordHeaderV2 rh{};
  if (!readBytesAt(offset, &rh, sizeof(rh))) return false;
  if (rh.magic != kRecordMagic) return false;
  out.seq = rh.seq;
  out.committedDelta = rh.committedDelta;
  out.processor = rh.processor;
  out.commitMismatch = (rh.flags & 1u) != 0;
  if (!fillPayload(offset + static_cast<int64_t>(kRecordHeaderBytes), out)) return false;
  if (verify) {
    DiskRecordHeaderV2 clean = rh;
    clean.crc = 0;
    uint32_t crc = util::crc32(&clean, sizeof(clean));
    // On the mapped path out.words aliases the mapping, so the CRC pass
    // is the only traversal of the payload bytes — no copy was made.
    crc = util::crc32(out.words.data(), payloadBytes, crc);
    if (crc != rh.crc) return false;
  }
  return true;
}

bool TraceFileReader::parseFooter(int64_t fileSize) {
  blocks_.clear();
  if (fileSize < static_cast<int64_t>(headerBytes_ + kTrailerBytes)) return false;
  DiskFooterTrailer t{};
  if (!readBytesAt(fileSize - static_cast<int64_t>(kTrailerBytes), &t, sizeof(t))) {
    return false;
  }
  if (std::memcmp(t.magic, kTrailerMagic, sizeof(t.magic)) != 0) return false;
  DiskFooterTrailer clean = t;
  clean.trailerCrc = 0;
  if (util::crc32(&clean, sizeof(clean)) != t.trailerCrc) return false;
  if (t.footerOffset < headerBytes_ ||
      t.entryCount > static_cast<uint64_t>(fileSize) / kFooterEntryBytes) {
    return false;
  }
  if (static_cast<int64_t>(t.footerOffset + t.entryCount * kFooterEntryBytes +
                           kTrailerBytes) != fileSize) {
    return false;
  }
  if (t.entryCount == 0) {
    if (t.footerCrc != 0 || t.totalRecords != 0) return false;
    bufferCount_ = 0;
    return true;
  }
  std::vector<unsigned char> raw(t.entryCount * kFooterEntryBytes);
  if (!readBytesAt(static_cast<int64_t>(t.footerOffset), raw.data(), raw.size())) {
    return false;
  }
  if (util::crc32(raw.data(), raw.size()) != t.footerCrc) return false;
  blocks_.reserve(t.entryCount);
  uint64_t firstRecord = 0;
  int64_t expect = static_cast<int64_t>(headerBytes_);
  for (uint64_t i = 0; i < t.entryCount; ++i) {
    DiskFooterEntry e{};
    std::memcpy(&e, raw.data() + i * kFooterEntryBytes, sizeof(e));
    if (static_cast<int64_t>(e.fileOffset) != expect || e.recordCount == 0) {
      blocks_.clear();
      return false;
    }
    const uint64_t rawSpan = static_cast<uint64_t>(e.recordCount) * recordBytes_;
    const bool compressed = (e.flags & kEntryFlagCompressed) != 0;
    const bool geometryOk =
        compressed ? (e.rawBytes == rawSpan && e.storedBytes % 8 == 0 &&
                      e.storedBytes > kRecordHeaderBytes &&
                      e.storedBytes < e.rawBytes)
                   : (e.storedBytes == rawSpan && e.rawBytes == rawSpan);
    if (!geometryOk ||
        expect + static_cast<int64_t>(e.storedBytes) >
            static_cast<int64_t>(t.footerOffset)) {
      blocks_.clear();
      return false;
    }
    blocks_.push_back({expect, firstRecord, e.recordCount, e.storedBytes,
                       e.rawBytes, e.crc, compressed, false});
    firstRecord += e.recordCount;
    expect += static_cast<int64_t>(e.storedBytes);
  }
  if (expect != static_cast<int64_t>(t.footerOffset) ||
      firstRecord != t.totalRecords) {
    blocks_.clear();
    return false;
  }
  bufferCount_ = firstRecord;
  return true;
}

bool TraceFileReader::verifyBlock(size_t b) {
  const BlockInfo& blk = blocks_[b];
  uint32_t crc = 0;
  return crcRange(blk.offset, blk.storedBytes, crc) && crc == blk.crc;
}

bool TraceFileReader::loadCompressedBlock(size_t b) {
  if (cachedBlock_ == static_cast<int64_t>(b)) return true;
  const BlockInfo& blk = blocks_[b];
  DiskBlockHeader bh{};
  if (!readBytesAt(blk.offset, &bh, sizeof(bh))) return false;
  if (bh.magic != kBlockMagic || bh.rawBytes != blk.rawBytes ||
      bh.compressedBytes == 0 ||
      kRecordHeaderBytes + pad8(bh.compressedBytes) != blk.storedBytes) {
    return false;
  }
  const size_t rawWords = blk.rawBytes / sizeof(uint64_t);
  uint64_t* words = nullptr;
  if (keep_ != nullptr) {
    words = keep_->allocate(rawWords);
  } else {
    blockWords_.resize(rawWords);
    words = blockWords_.data();
  }
  const unsigned char* src = nullptr;
  if (map_ != nullptr) {
    const int64_t streamAt = blk.offset + static_cast<int64_t>(kRecordHeaderBytes);
    if (streamAt + static_cast<int64_t>(bh.compressedBytes) > map_->size()) return false;
    src = map_->data() + streamAt;
  } else {
    blockScratch_.resize(bh.compressedBytes);
    if (!readBytesAt(blk.offset + static_cast<int64_t>(kRecordHeaderBytes),
                     blockScratch_.data(), bh.compressedBytes)) {
      return false;
    }
    src = blockScratch_.data();
  }
  const ptrdiff_t n = util::lzDecompress(src, bh.compressedBytes, words,
                                         rawWords * sizeof(uint64_t));
  if (n != static_cast<ptrdiff_t>(blk.rawBytes)) return false;
  blockData_ = words;
  cachedBlock_ = static_cast<int64_t>(b);
  return true;
}

bool TraceFileReader::readBlockRecordView(size_t b, uint64_t slot, BufferView& out) {
  if (!loadCompressedBlock(b)) return false;
  const size_t wordsPerRecord = recordBytes_ / sizeof(uint64_t);
  const uint64_t* rec = blockData_ + slot * wordsPerRecord;
  DiskRecordHeaderV2 rh{};
  std::memcpy(&rh, rec, sizeof(rh));
  if (rh.magic != kRecordMagic) return false;
  out.seq = rh.seq;
  out.committedDelta = rh.committedDelta;
  out.processor = rh.processor;
  out.commitMismatch = (rh.flags & 1u) != 0;
  out.words = {rec + kRecordHeaderBytes / sizeof(uint64_t), meta_.bufferWords};
  return true;
}

size_t TraceFileReader::blockForRecord(uint64_t k) {
  auto holds = [this, k](size_t i) {
    return k >= blocks_[i].firstRecord &&
           k - blocks_[i].firstRecord < blocks_[i].records;
  };
  size_t b = blockHint_ < blocks_.size() ? blockHint_ : 0;
  if (!holds(b)) {
    if (b + 1 < blocks_.size() && holds(b + 1)) {
      b = b + 1;  // the sequential-read case: fell off the end of a block
    } else {
      size_t lo = 0, hi = blocks_.size() - 1;
      while (lo < hi) {
        const size_t mid = lo + (hi - lo + 1) / 2;
        if (blocks_[mid].firstRecord <= k) {
          lo = mid;
        } else {
          hi = mid - 1;
        }
      }
      b = lo;
    }
  }
  blockHint_ = b;
  return b;
}

bool TraceFileReader::validateCompressedBlockAt(int64_t offset, int64_t fileSize,
                                                uint32_t& recordCount,
                                                uint32_t& storedBytes) {
  DiskBlockHeader bh{};
  if (offset + static_cast<int64_t>(sizeof(bh)) > fileSize) return false;
  if (!readBytesAt(offset, &bh, sizeof(bh))) return false;
  if (bh.magic != kBlockMagic || bh.recordCount == 0 || bh.compressedBytes == 0 ||
      bh.compressedBytes >= bh.rawBytes) {
    return false;
  }
  if (static_cast<uint64_t>(bh.recordCount) * recordBytes_ != bh.rawBytes) return false;
  const uint64_t span = kRecordHeaderBytes + pad8(bh.compressedBytes);
  if (offset + static_cast<int64_t>(span) > fileSize) return false;
  uint32_t crc = 0;
  if (!crcRange(offset + static_cast<int64_t>(kRecordHeaderBytes),
                bh.compressedBytes, crc) ||
      crc != bh.crc) {
    return false;
  }
  recordCount = bh.recordCount;
  storedBytes = static_cast<uint32_t>(span);
  return true;
}

int64_t TraceFileReader::findResync(int64_t damagedAt, int64_t end, bool allowBlocks) {
  BufferView scratchView;
  // A candidate only counts if its whole record (or block) checks out, so
  // a stray magic inside payload bytes cannot fool the scan.
  auto validAt = [&](int64_t candidate) {
    if (allowBlocks) {
      uint32_t nrec = 0, span = 0;
      if (validateCompressedBlockAt(candidate, end, nrec, span)) return true;
    }
    if (candidate + static_cast<int64_t>(recordBytes_) > end) return false;
    return readRecordViewAt(candidate, scratchView, /*verify=*/true);
  };
  if (map_ != nullptr) {
    const unsigned char* base = map_->data();
    int64_t pos = damagedAt + 1;
    while (pos + 4 <= end) {
      const void* hit =
          std::memchr(base + pos, 'K', static_cast<size_t>(end - pos - 3));
      if (hit == nullptr) return -1;
      const int64_t candidate = static_cast<const unsigned char*>(hit) - base;
      pos = candidate + 1;
      uint32_t magic = 0;
      std::memcpy(&magic, base + candidate, 4);
      if (magic != kRecordMagic && !(allowBlocks && magic == kBlockMagic)) continue;
      if (validAt(candidate)) return candidate;
    }
    return -1;
  }
  constexpr size_t kChunk = 64 * 1024;
  std::vector<unsigned char> chunk;
  int64_t searchPos = damagedAt + 1;
  while (searchPos + 4 <= end) {
    const size_t want = std::min<size_t>(kChunk, static_cast<size_t>(end - searchPos));
    chunk.resize(want);
    if (!file_->seek(searchPos, SEEK_SET)) return -1;
    const size_t got = file_->read(chunk.data(), want);
    if (got < 4) return -1;
    for (size_t i = 0; i + 4 <= got; ++i) {
      uint32_t magic = 0;
      std::memcpy(&magic, chunk.data() + i, 4);
      if (magic != kRecordMagic && !(allowBlocks && magic == kBlockMagic)) continue;
      if (validAt(searchPos + static_cast<int64_t>(i))) {
        return searchPos + static_cast<int64_t>(i);
      }
    }
    if (got < want) return -1;
    searchPos += static_cast<int64_t>(got) - 3;  // overlap a split magic
  }
  return -1;
}

void TraceFileReader::scanSalvageRange(int64_t begin, int64_t end, bool tornTail,
                                       bool allowBlocks) {
  const int64_t rb = static_cast<int64_t>(recordBytes_);
  BufferView scratchView;
  int64_t offset = begin;
  while (offset < end) {
    if (allowBlocks) {
      uint32_t nrec = 0, span = 0;
      if (validateCompressedBlockAt(offset, end, nrec, span)) {
        // A self-consistent compressed block found mid-scan (no footer to
        // vouch for it): its payload CRC already checked out, so index its
        // records through a synthetic block entry.
        const size_t b = blocks_.size();
        blocks_.push_back({offset, 0, nrec, span,
                           static_cast<uint32_t>(nrec * recordBytes_), 0, true,
                           true});
        if (loadCompressedBlock(b)) {
          const size_t wordsPerRecord = recordBytes_ / sizeof(uint64_t);
          for (uint32_t j = 0; j < nrec; ++j) {
            uint32_t magic = 0;
            std::memcpy(&magic, blockData_ + j * wordsPerRecord, 4);
            if (magic == kRecordMagic) {
              index_.push_back({0, static_cast<int32_t>(b), j});
              ++report_.goodRecords;
            } else {
              ++report_.corruptRecords;
            }
          }
        } else {
          ++report_.corruptBlocks;
          report_.corruptRecords += nrec;
          report_.skippedBytes += span;
        }
        offset += span;
        continue;
      }
    }
    if (offset + rb > end) {
      if (tornTail) {
        ++report_.tornRecords;  // crash mid-write: partial tail record
      } else {
        report_.skippedBytes += static_cast<uint64_t>(end - offset);
      }
      break;
    }
    if (readRecordViewAt(offset, scratchView, /*verify=*/true)) {
      index_.push_back({offset, -1, 0});
      ++report_.goodRecords;
      offset += rb;
      continue;
    }
    ++report_.corruptRecords;
    const int64_t next = findResync(offset, end, allowBlocks);
    if (next < 0) {
      report_.skippedBytes += static_cast<uint64_t>(end - offset);
      break;
    }
    report_.skippedBytes += static_cast<uint64_t>(next - offset);
    offset = next;
  }
}

void TraceFileReader::scanSalvage(int64_t fileSize) {
  const int64_t rb = static_cast<int64_t>(recordBytes_);
  int64_t offset = static_cast<int64_t>(headerBytes_);

  if (version_ == kVersionLegacy) {
    // No per-record magic/CRC: records sit at fixed offsets, and the only
    // detectable damage is a tail cut mid-record.
    while (offset + rb <= fileSize) {
      index_.push_back({offset, -1, 0});
      ++report_.goodRecords;
      offset += rb;
    }
    if (offset < fileSize) ++report_.tornRecords;
    bufferCount_ = index_.size();
    return;
  }

  if (version_ >= kVersionFooter && parseFooter(fileSize)) {
    // The footer directory survived: verify one CRC per block and only
    // fall back to the per-record scan inside the spans that fail it.
    const size_t footerBlocks = blocks_.size();
    for (size_t b = 0; b < footerBlocks; ++b) {
      // blocks_ may grow synthetic entries during a rescan; re-index, the
      // vector can reallocate.
      const BlockInfo blk = blocks_[b];
      uint32_t crc = 0;
      const bool intact = crcRange(blk.offset, blk.storedBytes, crc) && crc == blk.crc;
      if (intact && !blk.compressed) {
        blocks_[b].verified = true;
        for (uint32_t j = 0; j < blk.records; ++j) {
          index_.push_back({blk.offset + static_cast<int64_t>(j) * rb, -1, 0});
        }
        report_.goodRecords += blk.records;
      } else if (intact) {
        blocks_[b].verified = true;
        if (loadCompressedBlock(b)) {
          const size_t wordsPerRecord = recordBytes_ / sizeof(uint64_t);
          for (uint32_t j = 0; j < blk.records; ++j) {
            uint32_t magic = 0;
            std::memcpy(&magic, blockData_ + j * wordsPerRecord, 4);
            if (magic == kRecordMagic) {
              index_.push_back({0, static_cast<int32_t>(b), j});
              ++report_.goodRecords;
            } else {
              ++report_.corruptRecords;
            }
          }
        } else {
          ++report_.corruptBlocks;
          report_.corruptRecords += blk.records;
          report_.skippedBytes += blk.storedBytes;
        }
      } else if (blk.compressed) {
        // A damaged compressed block is lost whole — there is no record
        // structure inside the stream to resynchronize on.
        ++report_.corruptBlocks;
        report_.corruptRecords += blk.records;
        report_.skippedBytes += blk.storedBytes;
      } else {
        scanSalvageRange(blk.offset, blk.offset + blk.storedBytes,
                         /*tornTail=*/false, /*allowBlocks=*/false);
      }
    }
    bufferCount_ = index_.size();
    return;
  }
  if (version_ >= kVersionFooter) {
    // No usable footer: fall back to the full-body scan, recognizing both
    // record and compressed-block framing.
    report_.footerDamaged = true;
    scanSalvageRange(offset, fileSize, /*tornTail=*/true, /*allowBlocks=*/true);
    bufferCount_ = index_.size();
    return;
  }

  // v2: scan forward, resynchronizing at the next valid record magic after
  // damage.
  scanSalvageRange(offset, fileSize, /*tornTail=*/true, /*allowBlocks=*/false);
  bufferCount_ = index_.size();
}

bool TraceFileReader::blockStartsWithAnchor(size_t b) {
  const BlockInfo& blk = blocks_[b];
  uint64_t headerWord = 0;
  if (blk.compressed) {
    DiskBlockHeader bh{};
    if (!readBytesAt(blk.offset, &bh, sizeof(bh))) return false;
    if (bh.magic != kBlockMagic || bh.rawBytes != blk.rawBytes ||
        bh.compressedBytes == 0 ||
        kRecordHeaderBytes + pad8(bh.compressedBytes) != blk.storedBytes) {
      return false;
    }
    const unsigned char* src = nullptr;
    if (map_ != nullptr) {
      src = map_->data() + blk.offset + static_cast<int64_t>(kRecordHeaderBytes);
    } else {
      blockScratch_.resize(bh.compressedBytes);
      if (!readBytesAt(blk.offset + static_cast<int64_t>(kRecordHeaderBytes),
                       blockScratch_.data(), bh.compressedBytes)) {
        return false;
      }
      src = blockScratch_.data();
    }
    // Decompress just past the first record's header + first payload word;
    // the decompressor may write anywhere up to its capacity (a sequence
    // overshoots the stop point, a wild copy runs past the sequence), so
    // give it the full raw size.
    std::vector<uint64_t> head(blk.rawBytes / sizeof(uint64_t));
    const ptrdiff_t n =
        util::lzDecompress(src, bh.compressedBytes, head.data(),
                           head.size() * sizeof(uint64_t),
                           /*stopAfter=*/kRecordHeaderBytes + sizeof(uint64_t));
    if (n < static_cast<ptrdiff_t>(kRecordHeaderBytes + sizeof(uint64_t))) return false;
    headerWord = head[kRecordHeaderBytes / sizeof(uint64_t)];
  } else {
    uint64_t head[5];
    if (!readBytesAt(blk.offset, head, sizeof(head))) return false;
    headerWord = head[4];
  }
  if (!headerLooksValid(headerWord, 0, meta_.bufferWords)) return false;
  const EventHeader h = EventHeader::decode(headerWord);
  return h.major == Major::Control &&
         h.minor == static_cast<uint16_t>(ControlMinor::BufferAnchor);
}

std::vector<uint64_t> TraceFileReader::parallelSplitPoints(uint32_t targetUnits) {
  std::vector<uint64_t> points{0};
  if (salvage_ || version_ < kVersionFooter || targetUnits < 2 ||
      blocks_.size() < 2 || bufferCount_ == 0) {
    return points;
  }
  uint64_t totalStored = 0;
  for (const BlockInfo& b : blocks_) totalStored += b.storedBytes;
  const uint64_t chunk = std::max<uint64_t>(1, totalStored / targetUnits);
  uint64_t acc = blocks_[0].storedBytes;
  for (size_t b = 1; b < blocks_.size() && points.size() < targetUnits; ++b) {
    // Only split where the first record of the block opens with a buffer
    // anchor: the decoder restarts its timestamp base exactly there, so
    // the unit's output is independent of everything before it.
    if (acc >= chunk && blockStartsWithAnchor(b)) {
      points.push_back(blocks_[b].firstRecord);
      acc = 0;
    }
    acc += blocks_[b].storedBytes;
  }
  return points;
}

bool TraceFileReader::readBufferView(uint64_t k, BufferView& out) {
  if (k >= bufferCount_) return false;
  if (salvage_) {
    // Records were validated during the scan; skip the redundant CRC pass.
    const RecordLoc& loc = index_[k];
    if (loc.block >= 0) {
      return readBlockRecordView(static_cast<size_t>(loc.block), loc.slot, out);
    }
    return readRecordViewAt(loc.offset, out, /*verify=*/false);
  }
  if (version_ >= kVersionFooter) {
    const size_t b = blockForRecord(k);
    BlockInfo& blk = blocks_[b];
    if (!blk.verified) {
      // One CRC pass covers the whole block; per-record verification is
      // redundant with it, which is what buys the batched decode rate.
      if (!verifyBlock(b)) return false;
      blk.verified = true;
    }
    if (blk.compressed) return readBlockRecordView(b, k - blk.firstRecord, out);
    const int64_t offset =
        blk.offset + static_cast<int64_t>(k - blk.firstRecord) *
                         static_cast<int64_t>(recordBytes_);
    return readRecordViewAt(offset, out, /*verify=*/false);
  }
  const int64_t offset = static_cast<int64_t>(headerBytes_ + k * recordBytes_);
  return readRecordViewAt(offset, out, /*verify=*/version_ == kVersionCrc);
}

bool TraceFileReader::readBuffer(uint64_t k, BufferRecord& out) {
  BufferView view;
  if (!readBufferView(k, view)) return false;
  out.seq = view.seq;
  out.committedDelta = view.committedDelta;
  out.processor = view.processor;
  out.commitMismatch = view.commitMismatch;
  out.words.assign(view.words.begin(), view.words.end());
  return true;
}

std::string damagedRecordMessage(const std::string& path, uint64_t k) {
  return util::strprintf("%s: record %llu failed validation (damaged or CRC mismatch)",
                         path.c_str(), static_cast<unsigned long long>(k));
}

std::string rotationSegmentPath(const std::string& basePath, uint32_t segment) {
  if (segment == 0) return basePath;
  const size_t dot = basePath.find_last_of('.');
  const size_t slash = basePath.find_last_of('/');
  const bool hasExt =
      dot != std::string::npos && (slash == std::string::npos || dot > slash);
  const std::string suffix = util::strprintf(".r%06u", segment);
  if (!hasExt) return basePath + suffix;
  return basePath.substr(0, dot) + suffix + basePath.substr(dot);
}

uint64_t retryBackoffUs(const TraceWriterOptions& options, int attempt) {
  uint64_t base = options.retryBackoffStartUs;
  for (int i = 0; i < attempt && base < options.retryBackoffMaxUs; ++i) base <<= 1;
  if (base > options.retryBackoffMaxUs) base = options.retryBackoffMaxUs;
  if (base == 0) return 0;
  // splitmix64 of (seed, attempt): deterministic jitter in [base/2, base].
  uint64_t z = options.retryJitterSeed + 0x9e3779b97f4a7c15ull *
                                             (static_cast<uint64_t>(attempt) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  const uint64_t half = base / 2;
  return half + z % (base - half + 1);
}

FileSink::FileSink(std::string directory, std::string baseName,
                   const TraceFileMeta& commonMeta, util::FileSystem* fs,
                   const TraceWriterOptions& writerOptions)
    : directory_(std::move(directory)), baseName_(std::move(baseName)),
      commonMeta_(commonMeta), fs_(fs), writerOptions_(writerOptions),
      writers_(commonMeta.numProcessors), segments_(commonMeta.numProcessors, 0) {}

std::string FileSink::pathFor(uint32_t processor) const {
  return util::strprintf("%s/%s.cpu%u.ktrc", directory_.c_str(), baseName_.c_str(),
                         processor);
}

std::string FileSink::pathFor(uint32_t processor, uint32_t segment) const {
  return rotationSegmentPath(pathFor(processor), segment);
}

uint32_t FileSink::segmentIndex(uint32_t processor) const {
  std::lock_guard lock(writersMutex_);
  return processor < segments_.size() ? segments_[processor] : 0;
}

void FileSink::degrade(const std::string& message, int err) {
  degraded_.store(true, std::memory_order_relaxed);
  degradedErrno_.store(err, std::memory_order_relaxed);
  std::lock_guard lock(errorMutex_);
  if (errorMessage_.empty()) errorMessage_ = message;
}

void FileSink::rotateLocked(uint32_t p) {
  auto& slot = writers_[p];
  if (slot == nullptr) return;
  // Closing the segment writes its final footer; records are already
  // durable either way (bytesWritten counts record boundaries only), so a
  // failed footer flush costs salvage work on that one segment, never
  // data — do not degrade the sink for it.
  slot->flush();
  slot.reset();
  ++segments_[p];
  rotations_.fetch_add(1, std::memory_order_relaxed);
}

bool FileSink::tryRecover() {
  if (!degraded()) return true;
  if (degradedErrno() != ENOSPC) return false;
  // Probe: does a small write fit now? Same filesystem as the writers, so
  // an injected budget answers honestly.
  util::FileSystem& fs = fs_ != nullptr ? *fs_ : util::FileSystem::stdio();
  const std::string probePath =
      util::strprintf("%s/%s.probe.tmp", directory_.c_str(), baseName_.c_str());
  {
    std::unique_ptr<util::File> probe = fs.open(probePath, "wb");
    if (probe == nullptr) return false;
    unsigned char block[1024] = {0};
    bool ok = true;
    for (int i = 0; i < 4 && ok; ++i) {
      ok = probe->write(block, sizeof(block)) == sizeof(block);
    }
    ok = probe->flush() && ok;
    probe.reset();
    fs.remove(probePath);
    if (!ok) return false;
  }
  {
    std::lock_guard lock(writersMutex_);
    // Leave the incident's segments behind exactly as they are and start
    // fresh ones: every post-recovery record lands in a segment whose
    // footer chain never saw the full disk.
    for (uint32_t p = 0; p < writers_.size(); ++p) {
      if (writers_[p] != nullptr) rotateLocked(p);
    }
  }
  // Replay the records the full disk refused, in arrival order, before
  // clearing the degraded flag: upstream holders are still paused on
  // exhausted(), so nothing can interleave ahead of the parked backlog
  // and per-processor seq order is preserved. A replay failure re-parks
  // the remainder and leaves the sink exhausted.
  std::vector<BufferRecord> parked;
  {
    std::lock_guard parkLock(parkedMutex_);
    parked.swap(parked_);
  }
  size_t i = 0;
  while (i < parked.size()) {
    size_t j = i + 1;
    while (j < parked.size() && parked[j].processor == parked[i].processor) ++j;
    std::vector<const BufferRecord*> run;
    run.reserve(j - i);
    for (size_t k = i; k < j; ++k) run.push_back(&parked[k]);
    writeRun(run.data(), run.size());
    i = j;
  }
  {
    std::lock_guard parkLock(parkedMutex_);
    if (!parked_.empty()) return false;  // re-parked: still out of space
  }
  {
    std::lock_guard errLock(errorMutex_);
    errorMessage_.clear();
  }
  degradedErrno_.store(0, std::memory_order_relaxed);
  degraded_.store(false, std::memory_order_relaxed);
  return true;
}

uint64_t FileSink::parkedRecords() const {
  std::lock_guard lock(parkedMutex_);
  return parked_.size();
}

void FileSink::shedParked() {
  std::lock_guard lock(parkedMutex_);
  if (parked_.empty()) return;
  droppedRecords_.fetch_add(parked_.size(), std::memory_order_relaxed);
  parked_.clear();
  parked_.shrink_to_fit();
}

void FileSink::parkRun(const BufferRecord* const* records, size_t n) {
  std::lock_guard lock(parkedMutex_);
  const size_t cap = writerOptions_.parkMaxRecords;
  size_t fit = 0;
  if (parked_.size() < cap) fit = std::min(n, cap - parked_.size());
  for (size_t i = 0; i < fit; ++i) parked_.push_back(*records[i]);
  if (fit < n) {
    droppedRecords_.fetch_add(n - fit, std::memory_order_relaxed);
  }
}

void FileSink::writeRun(const BufferRecord* const* records, size_t n) {
  if (n == 0) return;
  const uint32_t p = records[0]->processor;
  TraceFileWriter* writer = nullptr;
  {
    std::lock_guard lock(writersMutex_);
    auto& slot = writers_[p];
    // Size/record rotation happens before the run, at a record boundary:
    // the closed segment keeps its complete footer and the run lands at
    // the head of the successor. A run can overshoot rotateBytes by at
    // most itself — segments are threshold-triggered, not exact-capped.
    if (slot != nullptr &&
        ((writerOptions_.rotateBytes != 0 &&
          slot->bytesWritten() >= writerOptions_.rotateBytes) ||
         (writerOptions_.rotateRecords != 0 &&
          slot->buffersWritten() >= writerOptions_.rotateRecords))) {
      rotateLocked(p);
    }
    if (slot == nullptr) {
      TraceFileMeta meta = commonMeta_;
      meta.processorId = p;
      try {
        slot = std::make_unique<TraceFileWriter>(pathFor(p, segments_[p]), meta,
                                                 fs_, writerOptions_);
      } catch (const std::exception& e) {
        const int err = errno;
        degrade(e.what(), err);
        if (err == ENOSPC) {
          parkRun(records, n);  // recoverable: hold for tryRecover
        } else {
          droppedRecords_.fetch_add(n, std::memory_order_relaxed);
        }
        return;
      }
    }
    writer = slot.get();
  }
  // This runs on a consumer shard, fed by the lockless logging hot path —
  // it must not throw (records were size-validated by the caller). Retry
  // transient errors with bounded, jittered exponential backoff, then
  // degrade to counting drops. writeBufferBatch reports durable records
  // exactly, so a retried partial write never double-counts bytes or
  // under-counts drops.
  const uint64_t bytesBefore = writer->bytesWritten();
  const uint64_t rawBefore = writer->rawBytes();
  const int maxAttempts = writerOptions_.retryMaxAttempts > 0
                              ? writerOptions_.retryMaxAttempts
                              : 1;
  size_t done = 0;
  for (int attempt = 0; attempt < maxAttempts; ++attempt) {
    done += writer->writeBufferBatch(records + done, n - done);
    if (done == n) break;
    if (!isTransientErrno(writer->error())) break;
    if (attempt + 1 < maxAttempts) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(retryBackoffUs(writerOptions_, attempt)));
    }
  }
  recordsWritten_.fetch_add(done, std::memory_order_relaxed);
  bytesWritten_.fetch_add(writer->bytesWritten() - bytesBefore,
                          std::memory_order_relaxed);
  rawBytes_.fetch_add(writer->rawBytes() - rawBefore, std::memory_order_relaxed);
  if (done < n) {
    degrade(writer->errorMessage(), writer->error());
    if (writer->error() == ENOSPC) {
      // The disk filled mid-run. These records were already consumed from
      // their source, so dropping them here would lose them forever —
      // park the remainder for tryRecover to land on a fresh segment.
      parkRun(records + done, n - done);
    } else {
      droppedRecords_.fetch_add(n - done, std::memory_order_relaxed);
    }
  }
}

void FileSink::onBuffer(BufferRecord&& record) {
  if (record.processor >= writers_.size()) {
    droppedInvalidProcessor_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (record.words.size() != commonMeta_.bufferWords) {
    droppedMalformed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (degraded()) {
    const BufferRecord* r = &record;
    if (exhausted()) {
      parkRun(&r, 1);
    } else {
      droppedRecords_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  const BufferRecord* r = &record;
  writeRun(&r, 1);
}

void FileSink::onBufferBatch(std::vector<BufferRecord>&& records) {
  std::vector<const BufferRecord*> valid;
  valid.reserve(records.size());
  for (const BufferRecord& record : records) {
    if (record.processor >= writers_.size()) {
      droppedInvalidProcessor_.fetch_add(1, std::memory_order_relaxed);
    } else if (record.words.size() != commonMeta_.bufferWords) {
      droppedMalformed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      valid.push_back(&record);
    }
  }
  // Group by processor; stable, so per-processor seq order is preserved.
  std::stable_sort(valid.begin(), valid.end(),
                   [](const BufferRecord* a, const BufferRecord* b) {
                     return a->processor < b->processor;
                   });
  size_t i = 0;
  while (i < valid.size()) {
    size_t j = i + 1;
    while (j < valid.size() && valid[j]->processor == valid[i]->processor) ++j;
    if (degraded()) {
      // The rest of this batch is equally in-flight: park it alongside
      // the run that hit the wall (or count it, for permanent degrades).
      if (exhausted()) {
        parkRun(valid.data() + i, valid.size() - i);
      } else {
        droppedRecords_.fetch_add(valid.size() - i, std::memory_order_relaxed);
      }
      return;
    }
    writeRun(valid.data() + i, j - i);
    i = j;
  }
}

uint64_t FileSink::recordsWritten() const {
  return recordsWritten_.load(std::memory_order_relaxed);
}

uint64_t FileSink::bytesWritten() const {
  return bytesWritten_.load(std::memory_order_relaxed);
}

uint64_t FileSink::rawBytes() const {
  return rawBytes_.load(std::memory_order_relaxed);
}

std::string FileSink::errorMessage() const {
  std::lock_guard lock(errorMutex_);
  return errorMessage_;
}

SinkCounters FileSink::counters() const {
  SinkCounters c;
  c.recordsAccepted = recordsWritten();
  c.recordsDropped = droppedRecords() + droppedInvalidProcessor() + droppedMalformed();
  c.bytesWritten = bytesWritten();
  c.rawBytes = rawBytes();
  c.queuedRecords = parkedRecords();  // in flight until tryRecover lands them
  return c;
}

bool FileSink::flush() {
  bool ok = !degraded();
  std::lock_guard lock(writersMutex_);
  for (auto& writer : writers_) {
    if (writer != nullptr && !writer->flush()) {
      ok = false;
      std::lock_guard errLock(errorMutex_);
      if (errorMessage_.empty()) errorMessage_ = writer->errorMessage();
    }
  }
  return ok;
}

}  // namespace ktrace
