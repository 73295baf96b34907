/**
 * @file
 * The RPPM profiler (Pin-tool substitute).
 *
 * Performs a functional concurrent replay of a workload trace: threads
 * advance in round-robin quanta (an arbitrary but fixed interleaving, just
 * like profiling on a real host machine), synchronization is honored
 * functionally, and every access updates per-thread and global reuse-
 * distance state (the multi-threaded StatStack extension, paper Sec.
 * III-A and Fig. 2). Write invalidation is detected by checking whether
 * another thread wrote a line between two accesses by the same thread;
 * if so, an infinite per-thread reuse distance is recorded.
 *
 * One engine (profiler_stream.cc) does the work: a chunk pipeline fed
 * either by a resident columnar trace (profileWorkload(), see
 * trace/columnar.hh) or by a trace file that need not fit in memory
 * (profileWorkloadStreamingFile()). Its profile is bit-identical for
 * every job count and chunk size. The original multi-pass AoS
 * implementation is kept as profileWorkloadLegacy()
 * (profiler_legacy.cc), the reference the engine is tested against
 * byte for byte.
 *
 * The output is a WorkloadProfile: only microarchitecture-independent
 * statistics, collected once, usable to predict any MulticoreConfig.
 */

#ifndef RPPM_PROFILE_PROFILER_HH
#define RPPM_PROFILE_PROFILER_HH

#include <cstdint>
#include <string>

#include "profile/epoch_profile.hh"
#include "trace/columnar.hh"
#include "trace/trace.hh"

namespace rppm {

/** Profiler tunables (sampling policy, not workload characteristics). */
struct ProfilerOptions
{
    /** Micro-trace length in micro-ops (paper: one thousand). */
    uint32_t microTraceLength = 1000;

    /** Micro-ops between micro-trace samples within an epoch. The paper
     *  samples once per million; we default to a denser 1-in-10 so the
     *  epoch-start sample (which over-represents cold misses) carries
     *  less weight on the short epochs of the synthetic suite. */
    uint64_t microTraceInterval = 10000;

    /** Round-robin scheduling quantum in trace records. */
    uint32_t quantum = 64;

    /** Cache line size assumed when mapping addresses to lines (bytes).
     *  Reuse distances are measured in line-granular accesses; all
     *  configurations in this repository share 64-byte lines. */
    uint32_t lineBytes = 64;

    /** Record write invalidations as infinite per-thread reuse distances
     *  (the paper's coherence modeling). Disable only for ablation
     *  studies. */
    bool detectInvalidation = true;

    /**
     * Worker threads for the profile itself (0 = all hardware threads,
     * n = n workers; 1 runs the engine serially). Pure execution policy:
     * the profile is bit-identical for every value, so this knob is
     * deliberately excluded from profilerOptionsKey() and thus from
     * ProfileCache keys — a cached profile serves every job count.
     */
    unsigned jobs = 1;

    /**
     * Records per thread per chunk of the engine's pipeline, bounding its
     * working memory (0 = profileWorkload() runs one window spanning the
     * whole trace; profileWorkloadStreamingFile() uses
     * kDefaultStreamChunkRecords). Like jobs, pure execution policy —
     * the profile is bit-identical at every chunk size, so this knob too
     * stays out of profilerOptionsKey() and ProfileCache keys.
     */
    uint64_t streamChunkRecords = 0;
};

/** Chunk size of profileWorkloadStreamingFile() when the caller left
 *  streamChunkRecords at 0 (~4M records ≈ 32 MiB of dense columns per
 *  in-flight chunk per thread). */
constexpr uint64_t kDefaultStreamChunkRecords = uint64_t{1} << 22;

/**
 * Profile @p trace once; the result predicts any architecture. This is
 * the hot path of every Study grid. Runs on opts.jobs workers, as one
 * window over the whole trace, or in chunks of opts.streamChunkRecords
 * records when that is > 0 (peak working memory bounded by the chunk).
 *
 * A cheap sequential replay of the round-robin schedule over the sparse
 * sync columns pins down the exact global interleaving; the interleaved
 * reuse/coherence resolution is sharded by line hash across the worker
 * pool; and the per-thread statistics sweep fans out in segments,
 * consuming the pre-resolved reuse distances (profiler_stream.cc).
 * Bit-identical to profileWorkloadLegacy() by test.
 */
WorkloadProfile profileWorkload(const ColumnarTrace &trace,
                                const ProfilerOptions &opts = {});

/**
 * The out-of-core entry point: the same engine, streaming an RPPMTRC
 * container straight from disk without ever materializing whole
 * columns. Only the sparse sync columns are resident; dense column data
 * is read through small per-chunk mapped windows, so peak RSS is
 * O(chunk × threads), not O(file). Profiles traces larger than physical
 * memory.
 */
WorkloadProfile profileWorkloadStreamingFile(const std::string &path,
                                             const ProfilerOptions &opts = {});

/** AoS convenience overload: converts to columnar form, then profiles. */
WorkloadProfile profileWorkload(const WorkloadTrace &trace,
                                const ProfilerOptions &opts = {});

/**
 * Reference implementation: the original multi-pass AoS profiler, kept
 * as the oracle of the engine equivalence tests and as the bench/perf
 * speedup baseline. Produces a profile bit-identical to
 * profileWorkload().
 */
WorkloadProfile profileWorkloadLegacy(const WorkloadTrace &trace,
                                      const ProfilerOptions &opts = {});

} // namespace rppm

#endif // RPPM_PROFILE_PROFILER_HH
