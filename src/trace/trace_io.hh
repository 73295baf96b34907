/**
 * @file
 * Versioned binary serialization of ColumnarTrace ("RPPMTRC" format).
 *
 * The file is an RPPM binary container (common/binio.hh): a fixed header
 * (magic, endianness marker, version), the workload name, the thread
 * count, then per thread a small count block followed by one block per
 * column. Blocks are 8-byte aligned with sizes declared up front, so the
 * format is mmap-friendly: the whole-file loader maps the file and points
 * the columns into the payloads directly (ColumnarTrace::toOwned()
 * detaches a loaded trace from the mapping); the chunked reader
 * (trace_stream.hh) maps one window at a time.
 *
 * Loading validates everything the sequential consumers rely on: magic,
 * byte order and version (unknown versions are rejected, never
 * half-decoded; version-1 pre-checksum files still load), per-column
 * CRC32C trailers (version >= 2), per-column tags and element sizes,
 * sync positions
 * strictly ascending and in range, enum values in range, and sparse
 * column lengths consistent with the dense op column. Malformed input
 * throws std::invalid_argument; I/O failures throw std::runtime_error.
 */

#ifndef RPPM_TRACE_TRACE_IO_HH
#define RPPM_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "trace/columnar.hh"

namespace rppm {

/** Current RPPMTRC format version. Version 2 added CRC32C trailers to
 *  every column block (common/binio.hh); version 1 files (no trailers)
 *  still load, just without integrity verification. */
constexpr uint32_t kTraceFormatVersion = 2;

/** Oldest RPPMTRC version the readers accept. */
constexpr uint32_t kTraceFormatVersionMin = 1;

/** First version whose column blocks carry CRC32C trailers. */
constexpr uint32_t kTraceFormatVersionCrc = 2;

/** Container magic (first 8 bytes of every RPPMTRC file). */
constexpr char kTraceMagic[8] = {'R', 'P', 'P', 'M', 'T', 'R', 'C', '\0'};

/** Column tags ("fourcc" style, stable across versions). Shared by the
 *  whole-file loader here and the chunked reader (trace_stream.hh). */
enum TraceColumnTag : uint32_t
{
    kTagOp = 0x4f500000,      // 'OP'
    kTagPc = 0x50430000,      // 'PC'
    kTagDep1 = 0x44503100,    // 'DP1'
    kTagDep2 = 0x44503200,    // 'DP2'
    kTagAddr = 0x41445200,    // 'ADR'
    kTagTaken = 0x544b4e00,   // 'TKN'
    kTagSyncPos = 0x53504f00, // 'SPO'
    kTagSyncTyp = 0x53545900, // 'STY'
    kTagSyncArg = 0x53415200, // 'SAR'
};

/** Serialize @p trace to @p os; throws std::runtime_error on I/O error. */
void saveTrace(const ColumnarTrace &trace, std::ostream &os);

/** Convenience wrapper over a file path. */
void saveTraceToFile(const ColumnarTrace &trace, const std::string &path);

/**
 * Zero-copy load: parse the container structure of @p image and point
 * the trace's columns straight into the mapped payload bytes (the format
 * keeps every payload 8-byte aligned for exactly this). The returned
 * trace holds @p image alive via ColumnarTrace::storage and reports
 * isBorrowed() == true. Malformed input throws std::invalid_argument.
 */
ColumnarTrace loadTraceView(std::shared_ptr<const MappedFile> image);

/** Map @p path (common/mmap.hh) and loadTraceView() it. */
ColumnarTrace loadTraceViewFromFile(const std::string &path);

} // namespace rppm

#endif // RPPM_TRACE_TRACE_IO_HH
