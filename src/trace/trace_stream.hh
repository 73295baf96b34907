/**
 * @file
 * Out-of-core access to RPPMTRC containers: layout index, resident sync
 * columns, and windowed chunk views.
 *
 * indexTraceFile() is the one structural parse of the format, and both
 * readers start from its layout. The whole-file loader (trace_io.hh)
 * maps the file, charging O(file) against the address-space limit; the
 * streaming profiler must avoid exactly that, so it reads through:
 *
 *  - indexTraceFile(): walks the container structure with pread (a few
 *    dozen small reads, no mapping at all) and returns the byte extent
 *    of every column of every thread, validating magic, byte order,
 *    version, block tags, element sizes, bounds, column lengths and
 *    trailing bytes, before any profiling work starts.
 *  - loadSyncColumns(): the sparse sync columns, resident (O(#sync
 *    events) memory), with positions strictly ascending and in range.
 *    Types and arguments are left to validateSyncAndBarrierPopulations()
 *    (columnar.hh), which every source runs before applying an event.
 *  - TraceChunkReader::read() maps just the byte ranges one chunk of
 *    one thread needs — dense records [recLo, recHi), the matching
 *    addr/taken slices — through small MappedWindow mappings that die
 *    with the returned TraceChunk. Peak address-space charge is
 *    O(chunks in flight), independent of file size.
 *
 * What the per-record loop of validateColumnConsistency() checks for a
 * whole-file trace (sync-slot neutrality, op/taken ranges) is re-checked
 * incrementally by the streaming consumers as they touch each window,
 * so nothing ever walks the whole file.
 */

#ifndef RPPM_TRACE_TRACE_STREAM_HH
#define RPPM_TRACE_TRACE_STREAM_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mmap.hh"
#include "common/thread_annotations.hh"
#include "trace/trace.hh"
#include "trace/trace_io.hh"

namespace rppm {

/** Byte extent of one column payload inside the container. */
struct ColumnExtent
{
    uint64_t offset = 0; ///< absolute byte offset of the first element
    uint64_t count = 0;  ///< element count
    uint32_t crc = 0;    ///< CRC32C trailer (valid when the layout's
                         ///< hasBlockCrcs is set, i.e. version >= 2)
};

/** Extents of one thread's nine columns. */
struct ThreadLayout
{
    uint64_t records = 0;
    ColumnExtent op, pc, dep1, dep2, addr, taken;
    ColumnExtent syncPos, syncType, syncArg;
};

/** One of a thread's nine columns, in file order: its block tag,
 *  element size, short name and extent in ThreadLayout. */
struct TraceColumnSpec
{
    uint32_t tag;
    uint32_t elemSize;
    const char *name;
    ColumnExtent ThreadLayout::*extent;
};

inline constexpr TraceColumnSpec kTraceColumns[] = {
    {kTagOp, 1, "op", &ThreadLayout::op},
    {kTagPc, 4, "pc", &ThreadLayout::pc},
    {kTagDep1, 2, "dep1", &ThreadLayout::dep1},
    {kTagDep2, 2, "dep2", &ThreadLayout::dep2},
    {kTagAddr, 8, "addr", &ThreadLayout::addr},
    {kTagTaken, 1, "taken", &ThreadLayout::taken},
    {kTagSyncPos, 8, "syncPos", &ThreadLayout::syncPos},
    {kTagSyncTyp, 1, "syncType", &ThreadLayout::syncType},
    {kTagSyncArg, 4, "syncArg", &ThreadLayout::syncArg},
};

/** The structural index of an RPPMTRC file: everything needed to read
 *  any record range of any thread without parsing the container again. */
struct TraceFileLayout
{
    std::string name;
    uint64_t fileSize = 0;
    uint32_t version = 0;
    bool hasBlockCrcs = false; ///< version >= kTraceFormatVersionCrc
    std::vector<ThreadLayout> threads;
};

/**
 * Walk the container structure of @p file and return its layout.
 * Throws std::invalid_argument with the "binary container: " prefix on
 * any structural defect, including truncation anywhere in the file.
 */
TraceFileLayout indexTraceFile(const FdFile &file);

/** Throw std::invalid_argument ("checksum mismatch in @p name column")
 *  unless @p bytes at @p data match @p ext's CRC32C trailer; a no-op
 *  for a pre-checksum layout. */
void checkColumnCrc(const TraceFileLayout &layout, const ColumnExtent &ext,
                    const void *data, size_t bytes, const char *name);

/** One thread's sparse sync columns, resident. */
struct ResidentSync
{
    std::vector<uint64_t> pos;
    std::vector<SyncType> type;
    std::vector<uint32_t> arg;
};

/**
 * Read every thread's sync columns resident and validate their
 * positions (strictly ascending and < records).
 * Memory: O(total sync events), which is tiny by construction — sync
 * delimits epochs, not records.
 */
std::vector<ResidentSync> loadSyncColumns(const FdFile &file,
                                          const TraceFileLayout &layout);

/**
 * One chunk's worth of column data for one thread. Pointers are
 * absolute-base: op points at record recLo, addr at memory ordinal
 * memLo, taken at branch ordinal brLo — callers index them relative to
 * those bases (or wrap them in OffsetSpan). The windows member owns the
 * mappings; the pointers die with the struct.
 */
struct TraceChunk
{
    size_t recLo = 0, recHi = 0;
    uint64_t memLo = 0, memHi = 0;
    uint64_t brLo = 0, brHi = 0;
    const OpClass *op = nullptr;
    const uint32_t *pc = nullptr;
    const uint16_t *dep1 = nullptr;
    const uint16_t *dep2 = nullptr;
    const uint64_t *addr = nullptr;
    const uint8_t *taken = nullptr;
    std::vector<MappedWindow> windows;
};

/**
 * Rolling CRC32C verification of a trace file's column payloads as the
 * chunked reader maps them — the streaming analogue of the whole-file
 * loader's per-block trailer check, without ever holding a whole column.
 *
 * Each verified column keeps a frontier: the element ordinal up to which
 * its CRC has been folded. A mapped slice starting exactly at the
 * frontier extends the running CRC (crc32cExtend composes); when the
 * frontier reaches the column's end the accumulated CRC is compared
 * against the stored trailer and a mismatch throws std::invalid_argument
 * with the same "binary container: " prefix as every other integrity
 * failure. Chunked profiling tiles each column front to back, so in
 * practice every column completes; a consumer that ever maps a slice out
 * of order (re-reads or skips) silently retires that column from
 * verification rather than raising a false alarm — verification is
 * best-effort by design, corruption detection must never reject a good
 * file. Zero-length columns are checked at construction.
 *
 * Thread-safe: chunks of different threads fold concurrently under an
 * internal mutex (the fold itself is a cheap table walk).
 */
class StreamCrcVerifier
{
  public:
    /** Column ordinals within a thread, for fold(). */
    enum Column : uint32_t
    {
        kColOp = 0,
        kColPc,
        kColDep1,
        kColDep2,
        kColAddr,
        kColTaken,
        kNumColumns,
    };

    /** @p layout must describe a file with hasBlockCrcs == true. */
    explicit StreamCrcVerifier(const TraceFileLayout &layout);

    /**
     * Fold the payload bytes of thread @p t's column @p col covering
     * element ordinals [lo, hi) into its running CRC. Throws on a
     * mismatch once the column completes.
     */
    void fold(uint32_t t, Column col, uint64_t lo, uint64_t hi,
              const void *data, size_t elemSize);

    /** Columns fully verified so far (monotone; for tests/tools). */
    uint64_t columnsVerified() const RPPM_EXCLUDES(mutex_);

  private:
    struct State
    {
        uint64_t count = 0;    ///< total elements in the column
        uint64_t frontier = 0; ///< elements folded so far (kRetired: off)
        uint32_t expect = 0;   ///< stored trailer CRC
        uint32_t crc = 0;      ///< running CRC over [0, frontier)
    };

    static constexpr uint64_t kRetired = ~uint64_t{0};

    mutable Mutex mutex_;
    std::vector<State> states_ RPPM_GUARDED_BY(mutex_); // t*kNumColumns+col
    uint64_t verified_ RPPM_GUARDED_BY(mutex_) = 0;
};

/** Maps per-chunk column windows out of an indexed trace file. */
class TraceChunkReader
{
  public:
    /**
     * @p file and @p layout must outlive the reader and its chunks.
     * When @p layout has block CRCs, every mapped slice is folded into a
     * rolling per-column checksum and each column is verified against
     * its trailer as its last slice is read (see StreamCrcVerifier).
     */
    TraceChunkReader(const FdFile &file, const TraceFileLayout &layout)
        : file_(file), layout_(layout),
          verifier_(layout.hasBlockCrcs
                        ? std::make_unique<StreamCrcVerifier>(layout)
                        : nullptr)
    {
    }

    /**
     * Map thread @p t's dense columns for records [recLo, recHi) plus
     * the addr slice [memLo, memHi) and taken slice [brLo, brHi) (the
     * caller knows these from its rolling scan). Range-checks against
     * the layout.
     */
    TraceChunk read(uint32_t t, size_t recLo, size_t recHi,
                    uint64_t memLo, uint64_t memHi, uint64_t brLo,
                    uint64_t brHi) const;

    /** Columns fully CRC-verified so far (0 for pre-checksum files). */
    uint64_t
    columnsVerified() const
    {
        return verifier_ ? verifier_->columnsVerified() : 0;
    }

  private:
    const FdFile &file_;
    const TraceFileLayout &layout_;
    // Verification state mutates as a side effect of read() const —
    // logically the reader stays const (results are unchanged), so the
    // verifier is the classic mutable-cache shape. It locks internally.
    mutable std::unique_ptr<StreamCrcVerifier> verifier_;
};

/**
 * Verify every column trailer of an indexed trace file by pread'ing the
 * payloads in bounded spans (O(1) memory). Returns the number of columns
 * checked — 0 for pre-checksum (version 1) files, 9 * threads otherwise.
 * Throws std::invalid_argument on any mismatch. Used by `rppm_trace
 * info` and available to any tool that wants an explicit integrity pass
 * without loading the trace.
 */
uint64_t verifyTraceFileCrcs(const FdFile &file,
                             const TraceFileLayout &layout);

/**
 * Forward-only reader of one thread's op column through a small rolling
 * window — the streaming scheduler's record-scan frontier. at(i) must be
 * called with non-decreasing i; the window slides forward in fixed-size
 * spans so the address-space charge stays constant.
 */
class OpColumnScanner
{
  public:
    /** Records per mapped span (1 byte each). */
    static constexpr size_t kSpanRecords = size_t{1} << 20;

    OpColumnScanner(const FdFile &file, const ThreadLayout &thread)
        : file_(file), thread_(thread)
    {
    }

    OpClass
    at(size_t i)
    {
        if (i < winLo_ || i >= winHi_)
            slide(i);
        return reinterpret_cast<const OpClass *>(win_.data())[i - winLo_];
    }

  private:
    void slide(size_t i);

    const FdFile &file_;
    const ThreadLayout &thread_;
    MappedWindow win_;
    size_t winLo_ = 0;
    size_t winHi_ = 0; ///< empty window until the first at()
};

} // namespace rppm

#endif // RPPM_TRACE_TRACE_STREAM_HH
