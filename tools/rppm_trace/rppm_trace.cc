/**
 * @file
 * rppm_trace — RPPMTRC container inspector and test-trace generator.
 *
 * Subcommands:
 *
 *   info FILE
 *     Index the container and print the header, per-thread record /
 *     memory / branch / sync counts, and per-column payload sizes. For
 *     checksummed (version >= 2) files every column's CRC32C trailer is
 *     printed and verified against the payload bytes (read in bounded
 *     spans, O(1) memory). Exits non-zero on a malformed or corrupt
 *     file, so it doubles as a cheap integrity validator in CI.
 *
 *   synth FILE --records N [--name NAME] [--sync-period P]
 *         [--corrupt-at OFF]
 *     Write a synthetic single-thread trace of N records with O(1)
 *     memory: each column is generated in batches and written through
 *     BinWriter's column API (the one RPPMTRC encoder, as in
 *     saveTrace), draining the buffer as it goes; no column is ever
 *     resident.
 *     Exists so CI can manufacture a trace far larger than the memory
 *     cap it then profiles under (the out-of-core smoke test) without
 *     shipping multi-GiB fixtures. Every P-th record is a sync event
 *     (alternating MutexLock/MutexUnlock on mutex 0); all others are
 *     loads walking a 64 MiB window. --corrupt-at flips one bit at byte
 *     OFF after writing — a deliberate corruption for checksum tests
 *     and chaos CI.
 *
 *   profile FILE [--engine memory|streaming] [--stream-chunk N]
 *           [--jobs N] [--mti N]
 *     Profile the trace from the chosen source and print a short
 *     summary. Both sources start from the same index of the file.
 *     `memory` then maps the whole file (loadTraceViewFromFile) and
 *     runs profileWorkload() on --jobs workers; `streaming` runs the
 *     same engine over chunked file reads. Under `ulimit -v` the
 *     former's mapping fails (exit 1, ": mmap: " on stderr) where the
 *     latter succeeds, which is exactly what the CI memory-cap job
 *     asserts.
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_flags.hh"
#include "common/binio.hh"
#include "common/mmap.hh"
#include "profile/profiler.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stream.hh"

namespace {

using namespace rppm;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: rppm_trace info FILE\n"
        "       rppm_trace synth FILE --records N [--name NAME]\n"
        "                  [--sync-period P] [--corrupt-at OFF]\n"
        "       rppm_trace profile FILE [--engine memory|streaming]\n"
        "                  [--stream-chunk N] [--jobs N] [--mti N]\n");
    return 2;
}

// ------------------------------------------------------------------ info ---

int
cmdInfo(const std::string &path)
{
    const FdFile file(path);
    const TraceFileLayout layout = indexTraceFile(file);

    std::printf("file:    %s\n", path.c_str());
    std::printf("bytes:   %" PRIu64 "\n", layout.fileSize);
    std::printf("version: %" PRIu32 "%s\n", layout.version,
                layout.hasBlockCrcs ? " (checksummed)" : "");
    std::printf("name:    %s\n", layout.name.c_str());
    std::printf("threads: %zu\n", layout.threads.size());

    uint64_t records = 0, mems = 0, branches = 0, syncs = 0;
    for (const ThreadLayout &th : layout.threads) {
        records += th.records;
        mems += th.addr.count;
        branches += th.taken.count;
        syncs += th.syncPos.count;
    }
    std::printf("records: %" PRIu64 "  (mem %" PRIu64 ", branch %" PRIu64
                ", sync %" PRIu64 ")\n",
                records, mems, branches, syncs);

    for (size_t t = 0; t < layout.threads.size(); ++t) {
        const ThreadLayout &th = layout.threads[t];
        std::printf("thread %zu: %" PRIu64 " records\n", t, th.records);
        for (const TraceColumnSpec &col : kTraceColumns) {
            const ColumnExtent &ext = th.*col.extent;
            std::printf("  %-8s %12" PRIu64 " x %u = %12" PRIu64
                        " bytes @ %" PRIu64,
                        col.name, ext.count, col.elemSize,
                        ext.count * col.elemSize, ext.offset);
            if (layout.hasBlockCrcs)
                std::printf("  crc32c %08" PRIx32, ext.crc);
            std::printf("\n");
        }
    }

    // Verify every trailer against the actual payload bytes; throws
    // (→ exit 1) on a mismatch, so `info` doubles as an integrity check.
    const uint64_t checked = verifyTraceFileCrcs(file, layout);
    if (checked > 0)
        std::printf("checksums: %" PRIu64 " columns verified\n", checked);
    else
        std::printf("checksums: none (pre-checksum version %" PRIu32
                    " file)\n",
                    layout.version);
    return 0;
}

// ----------------------------------------------------------------- synth ---

/** Write a column of @p count elements gen(0..count-1) in bounded
 *  batches, draining @p out to @p os after each. */
template <typename T, typename Gen>
void
synthColumn(BinWriter &out, std::ostream &os, uint32_t tag, uint64_t count,
            Gen gen)
{
    constexpr size_t kBatch = size_t{1} << 16;
    std::vector<T> batch;
    batch.reserve(kBatch);
    out.beginColumn(tag, sizeof(T), count);
    for (uint64_t i = 0; i < count;) {
        batch.clear();
        for (; i < count && batch.size() < kBatch; ++i)
            batch.push_back(gen(i));
        out.payload(batch.data(), batch.size() * sizeof(T));
        out.flushTo(os);
    }
    out.endColumn();
}

/** Flip one bit at byte @p offset of @p path — deliberate corruption
 *  for checksum tests. */
void
corruptByteAt(const std::string &path, uint64_t offset)
{
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    if (!f)
        throw std::runtime_error("cannot reopen " + path);
    f.seekg(0, std::ios::end);
    const uint64_t size = static_cast<uint64_t>(f.tellg());
    if (offset >= size)
        throw std::runtime_error("--corrupt-at offset past end of file");
    f.seekg(static_cast<std::streamoff>(offset));
    char b;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x01);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&b, 1);
    f.flush();
    if (!f)
        throw std::runtime_error("corrupting " + path + " failed");
    std::printf("corrupted byte at offset %" PRIu64 "\n", offset);
}

int
cmdSynth(const std::string &path, uint64_t records,
         const std::string &name, uint64_t syncPeriod, int64_t corruptAt)
{
    if (records == 0 || syncPeriod < 2) {
        std::fprintf(stderr,
                     "rppm_trace: need --records >= 1, --sync-period "
                     ">= 2\n");
        return 2;
    }

    // Sync events at records P, 2P, 3P, ... — strictly ascending, never
    // record 0 — alternating MutexLock/MutexUnlock on mutex 0. Truncate
    // to an even count so the mutex ends released.
    uint64_t numSync = (records - 1) / syncPeriod;
    numSync &= ~uint64_t{1};
    const uint64_t numMems = records - numSync; // every other record loads

    const auto isSyncPos = [&](uint64_t i) {
        return i > 0 && i % syncPeriod == 0 &&
            i / syncPeriod <= numSync;
    };

    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        throw std::runtime_error("cannot open " + path + " for writing");
    BinWriter out(kTraceMagic, kTraceFormatVersion);
    out.str(name);
    out.u64(1); // one thread
    out.u64(records);

    // op: Load everywhere, IntAlu in sync slots.
    synthColumn<OpClass>(out, os, kTagOp, records, [&](uint64_t i) {
        return isSyncPos(i) ? OpClass::IntAlu : OpClass::Load;
    });
    // pc: a small rotating text segment; 0 in sync slots.
    synthColumn<uint32_t>(out, os, kTagPc, records, [&](uint64_t i) {
        return isSyncPos(i) ? 0 : 0x1000 + (static_cast<uint32_t>(i) & 0xfff);
    });
    // dep1/dep2: all zero (no register dependences).
    for (const uint32_t tag : {kTagDep1, kTagDep2})
        synthColumn<uint16_t>(out, os, tag, records,
                              [](uint64_t) { return uint16_t{0}; });
    // addr: a stride-64 walk over a 64 MiB window, one entry per load.
    synthColumn<uint64_t>(out, os, kTagAddr, numMems, [](uint64_t m) {
        return (m * 64) & ((uint64_t{64} << 20) - 1);
    });
    // taken: no branches.
    synthColumn<uint8_t>(out, os, kTagTaken, 0,
                         [](uint64_t) { return uint8_t{0}; });
    // Sync event k (from 0) sits at record (k + 1) * P; locks on even k.
    synthColumn<uint64_t>(out, os, kTagSyncPos, numSync,
                          [&](uint64_t k) { return (k + 1) * syncPeriod; });
    synthColumn<SyncType>(out, os, kTagSyncTyp, numSync, [](uint64_t k) {
        return k % 2 == 0 ? SyncType::MutexLock : SyncType::MutexUnlock;
    });
    synthColumn<uint32_t>(out, os, kTagSyncArg, numSync,
                          [](uint64_t) { return uint32_t{0}; }); // mutex 0
    out.flushTo(os);
    os.close();
    if (!os)
        throw std::runtime_error("trace write failed");
    std::printf("wrote %s: %" PRIu64 " records (%" PRIu64 " loads, %"
                PRIu64 " sync events)\n",
                path.c_str(), records, numMems, numSync);
    if (corruptAt >= 0)
        corruptByteAt(path, static_cast<uint64_t>(corruptAt));
    return 0;
}

// --------------------------------------------------------------- profile ---

int
cmdProfile(const std::string &path, const std::string &engine,
           const ProfilerOptions &opts)
{
    WorkloadProfile profile;
    if (engine == "memory") {
        profile = profileWorkload(loadTraceViewFromFile(path), opts);
    } else if (engine == "streaming") {
        profile = profileWorkloadStreamingFile(path, opts);
    } else {
        std::fprintf(stderr, "rppm_trace: unknown engine '%s'\n",
                     engine.c_str());
        return 2;
    }

    uint64_t epochs = 0;
    for (const auto &t : profile.threads)
        epochs += t.epochs.size();
    std::printf("profiled %s [%s]: %u threads, %" PRIu64 " epochs, %"
                PRIu64 " ops\n",
                profile.name.c_str(), engine.c_str(), profile.numThreads,
                epochs, profile.totalOps());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string cmd = argv[1];
    const std::string path = argv[2];

    // Shared option scan for the flag-taking subcommands.
    uint64_t records = 0;
    uint64_t syncPeriod = uint64_t{1} << 20;
    std::string name = "synthetic";
    std::string engine = "streaming";
    int64_t corruptAt = -1;
    ProfilerOptions opts;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "rppm_trace: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        // Numeric flags parse strictly into the field's own type.
        const auto number = [&](auto field) {
            return cli::flagValue<decltype(field)>("rppm_trace", arg,
                                                   value());
        };
        if (arg == "--records")
            records = number(records);
        else if (arg == "--sync-period")
            syncPeriod = number(syncPeriod);
        else if (arg == "--name")
            name = value();
        else if (arg == "--engine")
            engine = value();
        else if (arg == "--stream-chunk")
            opts.streamChunkRecords = number(opts.streamChunkRecords);
        else if (arg == "--jobs")
            opts.jobs = number(opts.jobs);
        else if (arg == "--mti")
            opts.microTraceInterval = number(opts.microTraceInterval);
        else if (arg == "--corrupt-at")
            corruptAt = static_cast<int64_t>(cli::flagValue<uint64_t>(
                "rppm_trace", arg, value(), INT64_MAX));
        else
            return usage();
    }

    try {
        if (cmd == "info")
            return cmdInfo(path);
        if (cmd == "synth")
            return cmdSynth(path, records, name, syncPeriod, corruptAt);
        if (cmd == "profile")
            return cmdProfile(path, engine, opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rppm_trace: %s\n", e.what());
        return 1;
    }
    return usage();
}
