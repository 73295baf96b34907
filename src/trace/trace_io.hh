/**
 * @file
 * Versioned binary serialization of ColumnarTrace ("RPPMTRC" format).
 *
 * The file is an RPPM binary container (common/binio.hh): a fixed header
 * (magic, endianness marker, version), the workload name, the thread
 * count, then per thread a small count block followed by one block per
 * column. Blocks are 8-byte aligned with sizes declared up front, so the
 * format is mmap-friendly.
 *
 * The format has one encoder and one structural decoder. saveTrace()
 * and `rppm_trace synth` write through BinWriter. indexTraceFile()
 * (trace_stream.hh) walks the blocks; both readers start from its
 * layout. The whole-file loader here maps the file and points the
 * columns into the payloads (ColumnarTrace::toOwned() detaches a loaded
 * trace from the mapping); the chunked reader maps one window at a time.
 *
 * The index rejects unknown versions (version-1 pre-checksum files
 * still load) and bad tags, element sizes, bounds and column lengths.
 * The whole-file loader then verifies the CRC32C trailers (version >= 2)
 * and runs validateColumnConsistency(). Sync types and arguments are
 * left to validateSyncAndBarrierPopulations() (columnar.hh), which
 * every consumer runs before it applies a sync event. Malformed input
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
 *  writers here and in rppm_trace, and the index (trace_stream.hh). */
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

/** Serialize @p trace to @p os, one column at a time; throws
 *  std::runtime_error on I/O error. */
void saveTrace(const ColumnarTrace &trace, std::ostream &os);

/** Convenience wrapper over a file path. */
void saveTraceToFile(const ColumnarTrace &trace, const std::string &path);

/**
 * Zero-copy load: index @p path (indexTraceFile), map it (common/mmap.hh)
 * and point the trace's columns straight into the mapped payload bytes
 * (the format keeps every payload 8-byte aligned for exactly this). The
 * returned trace holds the mapping alive via ColumnarTrace::storage and
 * reports isBorrowed() == true. Malformed input throws
 * std::invalid_argument (structural and checksum defects carry the
 * "binary container: " prefix; a failed CRC says "checksum mismatch");
 * a missing or unmappable file throws std::runtime_error.
 */
ColumnarTrace loadTraceViewFromFile(const std::string &path);

} // namespace rppm

#endif // RPPM_TRACE_TRACE_IO_HH
