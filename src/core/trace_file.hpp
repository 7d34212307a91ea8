// On-disk trace file format.
//
// One file per processor (the paper notes "gigabytes per processor is
// common"). The file is a fixed-size header followed by fixed-size buffer
// records, so tools can seek directly to the k-th buffer — the random
// access property of §3.2: every record starts at a known offset and its
// contents begin at an event boundary (buffers start with an anchor).
//
// Layout (all little-endian):
//   TraceFileHeader               (128 bytes)
//   repeat: BufferRecordHeader    (32 bytes)
//           bufferWords * 8 bytes of trace words
//
// Format v2 hardens the record stream for post-mortem use — the paper's
// headline scenario is recovering trace buffers from a crashed system, so
// a torn tail record or a corrupted run of bytes must cost at most the
// records it touches, never the file:
//   - every record header starts with a 4-byte magic ("KREC"), and
//   - carries a CRC-32 over the header (crc field zeroed) and payload.
// v1 files (no magic, no CRC) are still read; corruption in them is only
// detectable structurally during decode.
//
// Format v3 (DESIGN.md §12) keeps the v2 record stream byte-for-byte but
// appends a footer index after the last record:
//   [body]   v2-format records, optionally interleaved with compressed
//            blocks ("KCMZ" header + LZ stream of whole records)
//   [footer] one 32-byte entry per block of records: file offset, record
//            count, stored/raw byte counts, and ONE CRC-32 over the
//            block's on-disk bytes
//   [trailer] 64 bytes at EOF: footer offset, block/record totals, CRCs
// Readers verify one CRC per block instead of one per record, seek
// without scanning, and can split decode work *within* a file at block
// boundaries. The footer is rewritten in place on every flush (records
// written later simply overwrite it), so a crash costs at most the
// footer — salvage then falls back to the v2 per-record scan.
#pragma once

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/sink.hpp"
#include "core/timestamp.hpp"
#include "util/faultfs.hpp"
#include "util/mapped_file.hpp"
#include "util/word_arena.hpp"

namespace ktrace {

struct TraceFileMeta {
  uint32_t processorId = 0;
  uint32_t numProcessors = 1;
  uint32_t bufferWords = 0;
  ClockKind clockKind = ClockKind::Tsc;
  double ticksPerSecond = 1e9;
  uint64_t startWallNs = 0;  // wall-clock time of facility start
  uint64_t startTicks = 0;   // facility clock at the same instant
};

/// Writer-side format knobs. The default writes v3; v2 exists for
/// compatibility tests and for producing files older tools can read.
struct TraceWriterOptions {
  uint32_t formatVersion = 3;  // 2 or 3
  /// v3 only: compress each coalesced batch (writeBufferBatch) into one
  /// LZ block. Single-record writes and batches that do not shrink stay
  /// uncompressed — the two framings mix freely within a file.
  bool compress = false;
  /// v3 only: records per footer entry for uncompressed spans. The
  /// grouping is by record ordinal — independent of how writes were
  /// batched — so serial and batched writers emit identical files.
  uint32_t indexRecordsPerEntry = 16;
  /// FileSink rotation (DESIGN.md §15): close the current segment and open
  /// the next (rotationSegmentPath) once its durable size reaches this
  /// many bytes (0 = never). Rotation happens at a record boundary, so
  /// every closed segment is a complete v3 file (footer + trailer) and
  /// every segment's first record re-bases the timestamp chain via its
  /// buffer anchor — a rotated chain decodes exactly like one big file.
  uint64_t rotateBytes = 0;
  /// Rotate after this many records per segment (0 = never). Combines
  /// with rotateBytes: whichever threshold is reached first rotates.
  uint64_t rotateRecords = 0;
  /// FileSink transient-error retry policy: attempts per run, then the
  /// bounded exponential backoff between them. The jitter is a pure
  /// function of (seed, attempt) — see retryBackoffUs — so tests can pin
  /// the exact schedule and two sinks never sleep in lockstep unless
  /// seeded identically.
  int retryMaxAttempts = 4;
  uint32_t retryBackoffStartUs = 50;
  uint32_t retryBackoffMaxUs = 2000;
  uint64_t retryJitterSeed = 0x6b74726163656261ull;  // "ktraceba"
  /// ENOSPC parking bound (records). When the disk fills mid-batch the
  /// unwritten remainder is parked in memory — not dropped — and replayed
  /// by tryRecover(), so records already consumed from their source
  /// survive the emergency. Beyond this many parked records, further
  /// arrivals fall back to counted drops (0 disables parking).
  uint32_t parkMaxRecords = 256;
};

/// Path of the k-th segment in a rotation chain rooted at `basePath`:
/// segment 0 is basePath itself (never renamed, never rewritten); segment
/// k > 0 inserts ".r<k, zero-padded>" before the extension, e.g.
/// "fleet.g1.cpu0.ktrc" -> "fleet.g1.cpu0.r000001.ktrc". Zero-padding
/// keeps lexicographic path order equal to chain order ("r" also sorts
/// after "ktrc"), so a sorted glob feeds TraceSet::fromFiles segments in
/// exactly write order.
std::string rotationSegmentPath(const std::string& basePath, uint32_t segment);

/// What a strict reader reports when record `k` of `path`, inside the
/// file's record count, fails validation: the record is damaged.
std::string damagedRecordMessage(const std::string& path, uint64_t k);

/// Deterministic retry delay before attempt `attempt` (0-based: the delay
/// slept after the attempt fails): exponential base start<<attempt clamped
/// to max, with seeded jitter in [base/2, base]. Pure function of
/// (options, attempt).
uint64_t retryBackoffUs(const TraceWriterOptions& options, int attempt);

/// What a salvage scan found in one trace file. A clean file has only
/// good records; everything else measures damage the reader worked around.
struct SalvageReport {
  uint32_t formatVersion = 0;
  uint64_t goodRecords = 0;
  uint64_t tornRecords = 0;     // tail record cut short (crash / disk full)
  uint64_t corruptRecords = 0;  // failed magic/CRC check, skipped over
  uint64_t skippedBytes = 0;    // bytes passed over while resynchronizing
  bool footerDamaged = false;   // v3: footer/trailer missing or corrupt —
                                // the scan fell back to the per-record path
  uint64_t corruptBlocks = 0;   // v3: compressed blocks dropped whole (CRC)

  bool clean() const noexcept {
    return tornRecords == 0 && corruptRecords == 0 && skippedBytes == 0 &&
           !footerDamaged && corruptBlocks == 0;
  }
};

struct TraceReaderOptions {
  /// Tolerate damage instead of stopping at it: a truncated tail record is
  /// dropped, and after a record failing its magic/CRC the reader
  /// resynchronizes at the next valid record magic. Damage is tallied in
  /// salvageReport().
  bool salvage = false;
  /// File I/O goes through this (fault injection in tests); defaults to
  /// util::FileSystem::stdio().
  util::FileSystem* fs = nullptr;
  /// Serve records from a read-only mmap of the file: no per-record
  /// seek/read syscalls, and the payload words are handed to the decoder
  /// in place (readBufferView). Silently falls back to the buffered
  /// util::File path when the mapping fails or `fs` is set — a custom
  /// filesystem must see every read, or fault injection would be bypassed.
  bool useMmap = true;
};

/// One buffer record served zero-copy: `words` aliases the reader's mmap
/// view (or its internal scratch buffer on the stdio fallback, for
/// salvage records at unaligned resync offsets, and for decompressed
/// blocks). The span stays valid until the next readBuffer/readBufferView
/// call on the same reader, or the reader's destruction — copy it to keep
/// it longer, or have the reader keep its words (keepWordsIn).
struct BufferView {
  uint64_t seq = 0;
  uint64_t committedDelta = 0;
  uint32_t processor = 0;
  bool commitMismatch = false;
  std::span<const uint64_t> words;
};

class TraceFileWriter {
 public:
  TraceFileWriter(const std::string& path, const TraceFileMeta& meta,
                  util::FileSystem* fs = nullptr,
                  const TraceWriterOptions& options = {});
  ~TraceFileWriter();

  TraceFileWriter(const TraceFileWriter&) = delete;
  TraceFileWriter& operator=(const TraceFileWriter&) = delete;

  /// Appends one buffer record. record.words.size() must equal
  /// meta.bufferWords (std::invalid_argument otherwise — a programming
  /// error). Returns false on I/O failure; the file position is rewound to
  /// the record boundary so a retry overwrites the torn bytes instead of
  /// compounding them. error()/errorMessage() describe the failure.
  bool writeBuffer(const BufferRecord& record);

  /// Coalesced append: serializes `count` records into one staging buffer
  /// and issues a single write() (the writev-style bulk path behind
  /// BatchingSink); with compression on, the batch becomes one LZ block.
  /// Returns how many records are durably in the file; on a short/failed
  /// bulk write it rewinds to the batch start and replays record-by-record
  /// (uncompressed) so the return value — and bytesWritten() — count
  /// exactly the records that landed, never the attempted batch size.
  /// Records must all match meta.bufferWords (std::invalid_argument).
  size_t writeBufferBatch(const BufferRecord* const* records, size_t count);

  uint64_t buffersWritten() const noexcept { return buffersWritten_; }
  /// Bytes durably written (file header included, v3 footer excluded — the
  /// footer is transient: every flush rewrites it and every record write
  /// reclaims its space). A failed or replayed write contributes only what
  /// actually landed at a record boundary.
  uint64_t bytesWritten() const noexcept { return bytesWritten_; }
  /// What bytesWritten() would be with compression off: header plus the
  /// raw serialized size of every durable record. rawBytes() -
  /// bytesWritten() is the I/O volume compression saved.
  uint64_t rawBytes() const noexcept { return rawBytes_; }

  /// Flushes buffered bytes, writing the file header first if no record
  /// has been written yet and (v3) rewriting the footer index + trailer
  /// after the last record. Returns false on failure; see errorMessage().
  bool flush();

  /// errno of the last failed write/flush (0 if none).
  int error() const noexcept { return errno_; }
  const std::string& errorMessage() const noexcept { return errorMessage_; }

 private:
  /// In-memory image of one footer index entry (see DiskFooterEntry).
  struct FooterEntry {
    int64_t offset = 0;
    uint32_t records = 0;
    uint32_t flags = 0;  // bit 0: compressed block
    uint32_t storedBytes = 0;
    uint32_t rawBytes = 0;
    uint32_t crc = 0;
  };

  bool ensureHeader();
  bool seekToBody();
  void recordError(const char* what);
  /// Folds one durable record's on-disk bytes into the open footer group,
  /// sealing the group entry every indexRecordsPerEntry records.
  void noteRecordWritten(const void* diskBytes, size_t diskLen);
  void sealGroup();
  bool writeFooter();

  std::unique_ptr<util::File> file_;
  std::string path_;
  TraceFileMeta meta_;
  TraceWriterOptions options_;
  uint64_t buffersWritten_ = 0;
  uint64_t bytesWritten_ = 0;
  uint64_t rawBytes_ = 0;
  int64_t bodyEnd_ = 0;  // file offset just past the last durable record
  bool headerWritten_ = false;
  bool needSeekToBody_ = false;  // a footer write moved the file position
  bool tornTail_ = false;  // a failed write may have left bytes past bodyEnd_
  int errno_ = 0;
  std::string errorMessage_;
  std::vector<unsigned char> staging_;   // batch serialization scratch
  std::vector<unsigned char> compress_;  // LZ output scratch
  // v3 footer state: sealed entries plus the open (partial) record group.
  std::vector<FooterEntry> entries_;
  int64_t groupStart_ = 0;
  uint32_t groupCount_ = 0;
  uint32_t groupBytes_ = 0;
  uint32_t groupCrc_ = 0;
  uint32_t groupLimit_ = 16;  // indexRecordsPerEntry, clamped to u32 spans
};

class TraceFileReader {
 public:
  explicit TraceFileReader(const std::string& path,
                           const TraceReaderOptions& options = {});
  ~TraceFileReader();

  TraceFileReader(const TraceFileReader&) = delete;
  TraceFileReader& operator=(const TraceFileReader&) = delete;

  const TraceFileMeta& meta() const noexcept { return meta_; }
  uint64_t bufferCount() const noexcept { return bufferCount_; }
  /// Words a record takes up uncompressed, its header included: the most
  /// keepWordsIn's arena takes per record read.
  uint64_t recordWords() const noexcept { return recordBytes_ / sizeof(uint64_t); }
  uint32_t formatVersion() const noexcept { return version_; }

  /// Damage tally. In salvage mode this reflects the construction-time
  /// scan; in strict mode only formatVersion is meaningful.
  const SalvageReport& salvageReport() const noexcept { return report_; }

  /// Random access: read the k-th buffer record without scanning. Returns
  /// false past the end or on a short/corrupt record (v2: per-record
  /// magic/CRC verified; v3: the containing block's CRC verified once, on
  /// first touch). In salvage mode k indexes the validated records, so
  /// corrupt and torn records are already excluded. Copies the payload;
  /// use readBufferView on the hot decode path.
  bool readBuffer(uint64_t k, BufferRecord& out);

  /// Zero-copy variant of readBuffer: out.words points into the mmap (or
  /// scratch on the fallback/decompression paths) — see BufferView for
  /// lifetime rules.
  bool readBufferView(uint64_t k, BufferView& out);

  /// True when records are served from a memory mapping rather than
  /// buffered stdio reads.
  bool mapped() const noexcept { return map_ != nullptr; }

  /// The mapping records are served from (null on the stdio path). A
  /// view into it stays valid as long as the mapping is held, after the
  /// reader is gone too. The mapping is MAP_PRIVATE over the file:
  /// truncating the file under it makes a read of the lost pages fault.
  std::shared_ptr<const util::MappedFile> mapping() const noexcept { return map_; }

  /// Whether `words` lies in the mapping.
  bool inMapping(std::span<const uint64_t> words) const noexcept;

  /// From here on, every view's words stay valid as long as `arena` (and,
  /// for a view into the mapping, the mapping): a record read through
  /// stdio or at an unaligned salvage offset is read straight into
  /// `arena`, and a compressed block is decompressed straight into it,
  /// instead of into scratch the next read reuses. `arena` must outlive
  /// the reader's reads; nullptr goes back to scratch.
  void keepWordsIn(util::WordArena* arena) noexcept {
    keep_ = arena;
    cachedBlock_ = -1;  // a block cached in scratch is decompressed again
  }

  /// Record ordinals where an independent decode unit may start: each
  /// sits on a v3 block boundary whose first record opens with a buffer
  /// anchor (so the timestamp chain restarts exactly). Always includes 0;
  /// returns just {0} when the file cannot be split (v1/v2, salvage mode,
  /// or no anchor-aligned boundary found). `targetUnits` bounds how many
  /// ranges the caller wants.
  std::vector<uint64_t> parallelSplitPoints(uint32_t targetUnits);

 private:
  struct BlockInfo {
    int64_t offset = 0;        // on-disk offset of the block's first byte
    uint64_t firstRecord = 0;  // ordinal of its first record
    uint32_t records = 0;
    uint32_t storedBytes = 0;  // on-disk span (KCMZ header included)
    uint32_t rawBytes = 0;     // decompressed record bytes
    uint32_t crc = 0;          // CRC-32 over the on-disk span
    bool compressed = false;
    bool verified = false;     // strict mode: CRC checked on first touch
  };
  /// Where a salvage-validated record lives: at a raw file offset
  /// (block < 0) or inside a compressed block (block, slot).
  struct RecordLoc {
    int64_t offset = 0;
    int32_t block = -1;
    uint32_t slot = 0;
  };

  bool readBytesAt(int64_t offset, void* dst, size_t bytes);
  bool crcRange(int64_t offset, size_t bytes, uint32_t& out);
  bool fillPayload(int64_t offset, BufferView& out);
  bool readRecordViewAt(int64_t offset, BufferView& out, bool verify);
  bool parseFooter(int64_t fileSize);
  bool verifyBlock(size_t b);
  bool loadCompressedBlock(size_t b);
  bool readBlockRecordView(size_t b, uint64_t slot, BufferView& out);
  size_t blockForRecord(uint64_t k);
  bool blockStartsWithAnchor(size_t b);
  bool validateCompressedBlockAt(int64_t offset, int64_t fileSize,
                                 uint32_t& recordCount, uint32_t& storedBytes);
  void scanSalvage(int64_t fileSize);
  /// v2-style per-record scan over [begin, end); `tornTail` counts a short
  /// remainder as a torn record (whole-file scans) instead of skipped
  /// bytes (rescans of a damaged footer span). `allowBlocks` lets the
  /// resync hunt accept compressed blocks too.
  void scanSalvageRange(int64_t begin, int64_t end, bool tornTail, bool allowBlocks);
  int64_t findResync(int64_t damagedAt, int64_t end, bool allowBlocks);

  std::shared_ptr<const util::MappedFile> map_;  // null: use file_
  std::unique_ptr<util::File> file_;
  TraceFileMeta meta_;
  uint64_t bufferCount_ = 0;
  uint64_t recordBytes_ = 0;
  uint64_t headerBytes_ = 0;
  uint32_t version_ = 0;
  bool salvage_ = false;
  std::vector<BlockInfo> blocks_;   // v3: footer index (strict + salvage)
  std::vector<RecordLoc> index_;    // salvage mode: validated records
  std::vector<uint64_t> scratch_;   // payload copy when a view can't alias the map
  std::vector<unsigned char> blockScratch_;  // stdio read of a block's stored bytes
  std::vector<uint64_t> blockWords_;         // decompressed block scratch
  const uint64_t* blockData_ = nullptr;      // the cached block's words
  int64_t cachedBlock_ = -1;                 // index into blocks_ for blockData_
  util::WordArena* keep_ = nullptr;          // see keepWordsIn
  size_t blockHint_ = 0;                     // last block touched (sequential reads)
  SalvageReport report_;
};

/// A FileSink writes each processor's buffers to "<dir>/<base>.cpuN.ktrc".
///
/// onBuffer never throws into the consumer: transient write errors
/// (EINTR/EAGAIN) are retried with bounded backoff; persistent failure
/// flips the sink into a degraded state that counts dropped records
/// instead of tearing the trace further; a malformed record (wrong word
/// count) is dropped and counted rather than letting TraceFileWriter's
/// std::invalid_argument escape. flush() surfaces the first error.
///
/// Safe under a sharded Consumer: each processor's writer is only ever
/// touched by the shard owning that processor, and the cross-writer
/// accounting is atomic. onBufferBatch groups a batch by processor and
/// hands each run to TraceFileWriter::writeBufferBatch as one coalesced
/// write (one compressed block per run when writerOptions.compress).
class FileSink final : public Sink {
 public:
  FileSink(std::string directory, std::string baseName, const TraceFileMeta& commonMeta,
           util::FileSystem* fs = nullptr,
           const TraceWriterOptions& writerOptions = {});

  void onBuffer(BufferRecord&& record) override;
  void onBufferBatch(std::vector<BufferRecord>&& records) override;

  /// Returns false if the sink is degraded or any writer failed to flush;
  /// errorMessage() holds the first error observed.
  bool flush();

  /// Path used for a given processor (segment 0 of its rotation chain).
  std::string pathFor(uint32_t processor) const;
  /// Path of segment `segment` of a processor's rotation chain.
  std::string pathFor(uint32_t processor, uint32_t segment) const;

  /// True once a write has persistently failed; subsequent records are
  /// counted in droppedRecords() and discarded. An ENOSPC degrade is
  /// recoverable — see tryRecover(); everything else is permanent.
  bool degraded() const noexcept {
    return degraded_.load(std::memory_order_relaxed);
  }
  /// errno of the failure that degraded the sink (0 when healthy; ENOSPC
  /// means tryRecover can bring it back).
  int degradedErrno() const noexcept {
    return degradedErrno_.load(std::memory_order_relaxed);
  }
  /// Degraded specifically by a full disk (the recoverable class). This
  /// overrides Sink::exhausted, so upstream holders (BatchingSink, the
  /// shm drain) pause on it through any decorator chain.
  bool exhausted() const noexcept override {
    return degraded() && degradedErrno() == ENOSPC;
  }

  /// Attempts to leave an ENOSPC degrade: probes the output directory
  /// with a small write (through the same filesystem), and on success
  /// replays the parked records (see parkedRecords), clears the degraded
  /// state, and rotates every open writer so post-recovery records start
  /// a fresh, cleanly-footered segment. Returns true when the sink is
  /// healthy afterwards; false while space is still exhausted or the
  /// degrade was not ENOSPC. Caller must ensure no concurrent onBuffer*
  /// calls (the daemon suspends the tenant first).
  bool tryRecover();

  /// Records parked by an ENOSPC incident, waiting for tryRecover to
  /// land them (bounded by TraceWriterOptions::parkMaxRecords). These are
  /// neither durable nor dropped yet; counters() reports them as queued.
  uint64_t parkedRecords() const;

  /// Converts parked records to counted drops. Terminal teardown only
  /// (detaching a tenant while the disk is still full): once the sink is
  /// gone the parked records cannot land, and exact accounting requires
  /// consumed == durable + dropped.
  void shedParked();

  /// Segments closed by size/record rotation so far (all processors).
  uint64_t rotations() const noexcept {
    return rotations_.load(std::memory_order_relaxed);
  }
  /// Current segment index of a processor's chain (0 = still the base).
  uint32_t segmentIndex(uint32_t processor) const;
  uint64_t droppedRecords() const noexcept {
    return droppedRecords_.load(std::memory_order_relaxed);
  }
  /// Records whose processor id had no writer slot (>= numProcessors).
  uint64_t droppedInvalidProcessor() const noexcept {
    return droppedInvalidProcessor_.load(std::memory_order_relaxed);
  }
  /// Records dropped because words.size() != bufferWords.
  uint64_t droppedMalformed() const noexcept {
    return droppedMalformed_.load(std::memory_order_relaxed);
  }
  /// Records durably on disk, summed over all processor writers.
  uint64_t recordsWritten() const;
  /// Durable bytes (headers included), summed over all processor writers.
  uint64_t bytesWritten() const;
  /// Pre-compression byte volume of the same records (== bytesWritten()
  /// when compression is off).
  uint64_t rawBytes() const;
  std::string errorMessage() const;

  SinkCounters counters() const override;

 private:
  void degrade(const std::string& message, int err);
  /// Writes a run of same-processor records (retry/degrade policy lives
  /// here). `n` == 1 uses the single-record path, > 1 the coalesced one.
  void writeRun(const BufferRecord* const* records, size_t n);
  /// Parks up to parkMaxRecords of `records[0..n)` for post-recovery
  /// replay; the overflow is counted as dropped.
  void parkRun(const BufferRecord* const* records, size_t n);
  /// Caller holds writersMutex_. Closes processor p's current segment
  /// (footer flush) and bumps its segment index; the next writeRun lazily
  /// opens the successor. Rotation never rewrites the closed segment.
  void rotateLocked(uint32_t p);

  std::string directory_;
  std::string baseName_;
  TraceFileMeta commonMeta_;
  util::FileSystem* fs_;
  TraceWriterOptions writerOptions_;
  /// Slot assignment (lazy writer creation), rotation, and flush() hold
  /// writersMutex_; writes into an existing writer do not — the
  /// disjoint-processor contract already makes each writer
  /// single-threaded.
  mutable std::mutex writersMutex_;
  std::vector<std::unique_ptr<TraceFileWriter>> writers_;
  std::vector<uint32_t> segments_;  // per-processor rotation index
  std::atomic<uint64_t> rotations_{0};
  std::atomic<bool> degraded_{false};
  std::atomic<int> degradedErrno_{0};
  std::atomic<uint64_t> droppedRecords_{0};
  std::atomic<uint64_t> droppedInvalidProcessor_{0};
  std::atomic<uint64_t> droppedMalformed_{0};
  // Aggregates mirrored out of the (thread-confined) writers after every
  // run, so counters() reads atomics instead of racing writer internals.
  std::atomic<uint64_t> recordsWritten_{0};
  std::atomic<uint64_t> bytesWritten_{0};
  std::atomic<uint64_t> rawBytes_{0};
  mutable std::mutex errorMutex_;  // errorMessage_ only
  std::string errorMessage_;
  /// ENOSPC parking (DESIGN.md §15): the in-flight records a full disk
  /// refused, in arrival order, awaiting tryRecover. Shard threads park
  /// concurrently (different processors), hence the mutex.
  mutable std::mutex parkedMutex_;
  std::vector<BufferRecord> parked_;
};

}  // namespace ktrace
