/**
 * @file
 * The epoch-sharded profiler: the in-memory engine of profileWorkload().
 *
 * The multi-threaded StatStack extension orders every memory access of
 * every thread on one global sequence counter, and coherence
 * invalidation compares per-line write timestamps across threads, so a
 * direct replay is inherently sequential. This engine reproduces the
 * replay's profile exactly — the same bits, for every job count — by
 * decomposing it into phases whose parallel grains are independent by
 * construction:
 *
 *  A. Index     (parallel, one task per thread) Per-thread prefix
 *               counts of memory records, so any record range can be
 *               converted to a memory-access count in O(1).
 *  B. Schedule  (sequential, cheap) The pausable replay of the
 *               round-robin quantum scheduler over the *sparse sync
 *               columns only* (profile/schedule_replay.hh, shared with
 *               the streaming engine): it runs the same SyncState
 *               machine as the reference profiler but skips all
 *               per-record statistics, so it costs O(#runs + #sync)
 *               instead of O(#records). Its output is the exact global
 *               interleaving: for every run of micro-ops it executed,
 *               the global-sequence number its first memory access will
 *               receive.
 *  C. Emit      (parallel, one task per thread) Each thread converts
 *               its runs into a stream of (line, global seq, ordinal)
 *               access entries, bucketed by line-hash shard. A line
 *               lives in exactly one shard, so the per-line reuse and
 *               write-timestamp state of different shards never
 *               interacts.
 *  D. Resolve   (parallel, one task per shard) Each shard merges its
 *               per-thread entry lists by global sequence number — a
 *               deterministic interleaving identical to the schedule's —
 *               and walks them through a shard-local LineTable. This
 *               resolves, per access: the interleaved (global) reuse
 *               distance, and the per-thread reuse distance including
 *               the coherence rule ("another thread wrote the line since
 *               my last access" => infinite distance), using the shared
 *               write-timestamp ordering the global sequence numbers
 *               encode. Results scatter into per-thread arrays indexed
 *               by access ordinal — every slot is written exactly once,
 *               so shards need no locks.
 *  E. Sweep     (parallel, one task per *segment*) The per-thread
 *               statistics pass — instruction mix, dependence and
 *               instruction-stream reuse distances, branch entropy, load
 *               gaps, pointer-chase detection, micro-trace sampling,
 *               epoch delimitation — which only reads thread-local state
 *               plus the pre-resolved reuse arrays from D. The loop
 *               itself is the shared sweep (profile/stat_sweep.hh). To
 *               scale past the workload's thread count (most suite
 *               kernels have 2-4 threads), each thread's record range
 *               splits into up to 4 x jobs segments: a cheap cursor
 *               dry-run pins the exact sweep state at each boundary, the
 *               segments sweep concurrently, and a sequential per-thread
 *               stitch resolves cross-segment instruction reuse and open
 *               micro-trace windows exactly (stat_sweep.hh). At jobs == 1
 *               every thread is one segment and the phases run serially.
 *  F. Classify  (sequential, cheap) Synchronization counts and condvar
 *               classification from the sync columns; both are
 *               order-independent aggregates (classifySyncProfile,
 *               shared with the streaming engine).
 *
 * Nothing here is sampled or approximated: phase B pins down the exact
 * interleaving of the reference replay, and phases C-E are refactorings
 * of its per-record loop around it. tests/test_profile_parallel asserts
 * byte-identical serialized profiles against profileWorkloadLegacy() on
 * the whole workload suite for several job counts.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hh"
#include "common/hash.hh"
#include "common/parallel.hh"
#include "profile/profiler.hh"
#include "profile/reuse_tables.hh"
#include "profile/schedule_replay.hh"
#include "profile/stat_sweep.hh"
#include "trace/columnar.hh"

namespace rppm {

namespace {

/** One scheduled run of micro-ops: records [start, end) of one thread,
 *  whose memory accesses receive global sequence numbers gseqBase+1.. */
struct Run
{
    uint64_t start;
    uint64_t end;
    uint64_t gseqBase;
};

/** One memory access routed to a line-hash shard. */
struct AccessEntry
{
    uint64_t line;
    uint64_t gseq;    ///< global sequence number (from the schedule)
    uint32_t ordinal; ///< index into the thread's sparse addr column
    uint32_t isStore;
};

/** Records below which a thread's range is not worth splitting: the
 *  boundary dry-run and stitch are O(range) and O(touched lines), so
 *  tiny segments would be all overhead. */
constexpr size_t kMinSegmentRecords = 4096;

/** One phase-E work item: records [lo, hi) of thread tid, entered with
 *  the exact sweep cursor the sequential sweep would hold at lo. */
struct Segment
{
    uint32_t tid;
    size_t lo;
    size_t hi;
    SweepState entry;
};

} // namespace

WorkloadProfile
profileWorkloadParallel(const ColumnarTrace &trace,
                        const ProfilerOptions &opts)
{
    const uint32_t num_threads = static_cast<uint32_t>(trace.numThreads());
    const ParallelExecutor pool(opts.jobs);

    WorkloadProfile profile;
    profile.name = trace.name;
    profile.numThreads = num_threads;
    profile.threads.resize(num_threads);
    trace.validateColumnConsistency();
    profile.barrierPopulation = trace.validateAndBarrierPopulations();

    // --- Phase A: per-thread memory prefix counts (parallel).
    std::vector<std::vector<uint32_t>> memPrefix(num_threads);
    pool.forEach(num_threads, [&](size_t t) {
        const ThreadColumns &cols = trace.threads[t];
        RPPM_REQUIRE(cols.addr.size() < UINT32_MAX,
                     "trace thread exceeds 2^32 memory accesses");
        std::vector<uint32_t> &prefix = memPrefix[t];
        prefix.resize(cols.numRecords() + 1);
        uint32_t count = 0;
        for (size_t i = 0; i < cols.numRecords(); ++i) {
            prefix[i] = count;
            if (isMemory(cols.op[i]))
                ++count;
        }
        prefix[cols.numRecords()] = count;
    });

    // --- Phase B: schedule replay (sequential, O(#runs + #sync)).
    std::vector<SyncView> sync_views;
    sync_views.reserve(num_threads);
    for (const ThreadColumns &cols : trace.threads)
        sync_views.push_back(syncView(cols));

    std::vector<std::vector<Run>> runs(num_threads);
    ScheduleReplayer replayer(opts, sync_views, profile.barrierPopulation);
    replayer.advance(
        [&](uint32_t t, size_t lo, size_t hi) -> uint64_t {
            return memPrefix[t][hi] - memPrefix[t][lo];
        },
        [&](uint32_t t, size_t lo, size_t hi, uint64_t gseqBase,
            uint64_t mem) {
            if (mem > 0)
                runs[t].push_back(Run{lo, hi, gseqBase});
        },
        [] { return false; });

    // --- Phase C: emit shard-bucketed access streams (parallel).
    // Shards partition the line space by the *high* bits of the same
    // mix64 hash the LineTable probes with its low bits, so shard
    // assignment and in-shard probing stay uncorrelated. The shard count
    // is pure execution policy — every count yields the same profile.
    unsigned shardBits = 3;
    while ((1u << shardBits) < std::min(64u, pool.jobs() * 4))
        ++shardBits;
    const size_t numShards = size_t{1} << shardBits;

    std::vector<std::vector<std::vector<AccessEntry>>> buckets(num_threads);
    pool.forEach(num_threads, [&](size_t t) {
        const ThreadColumns &cols = trace.threads[t];
        auto &mine = buckets[t];
        mine.resize(numShards);
        const size_t expect = cols.addr.size() / numShards + 16;
        for (auto &bucket : mine)
            bucket.reserve(expect);
        for (const Run &run : runs[t]) {
            uint32_t j = memPrefix[t][run.start];
            uint64_t gseq = run.gseqBase;
            for (size_t i = run.start; i < run.end; ++i) {
                const OpClass op = cols.op[i];
                if (!isMemory(op))
                    continue;
                const uint64_t line = cols.addr[j] / opts.lineBytes;
                const size_t shard = static_cast<size_t>(
                    mix64(line + 1) >> (64 - shardBits));
                mine[shard].push_back(AccessEntry{
                    line, ++gseq, j, op == OpClass::Store});
                ++j;
            }
        }
    });

    // --- Phase D: per-shard interleaved reuse resolution (parallel).
    std::vector<std::vector<uint64_t>> localRd(num_threads);
    std::vector<std::vector<uint64_t>> globalRd(num_threads);
    for (uint32_t t = 0; t < num_threads; ++t) {
        localRd[t].resize(trace.threads[t].addr.size());
        globalRd[t].resize(trace.threads[t].addr.size());
    }
    pool.forEach(numShards, [&](size_t s) {
        uint64_t shard_accesses = 0;
        for (uint32_t t = 0; t < num_threads; ++t)
            shard_accesses += buckets[t][s].size();
        if (shard_accesses == 0)
            return;
        LineTable lines(num_threads, shard_accesses);

        // Deterministic merge of the per-thread entry lists by global
        // sequence number (each list is already ascending; gseq values
        // are globally unique). This is exactly the order in which the
        // round-robin replay touches these lines.
        std::vector<size_t> at(num_threads, 0);
        for (uint64_t n = 0; n < shard_accesses; ++n) {
            uint32_t tid = UINT32_MAX;
            uint64_t best = UINT64_MAX;
            for (uint32_t t = 0; t < num_threads; ++t) {
                if (at[t] < buckets[t][s].size() &&
                    buckets[t][s][at[t]].gseq < best) {
                    best = buckets[t][s][at[t]].gseq;
                    tid = t;
                }
            }
            const AccessEntry &e = buckets[tid][s][at[tid]++];

            const size_t slot = lines.slot(e.line);
            LineTable::Meta &meta = lines.meta(slot);
            LineTable::PerThread &mine = lines.perThread(slot, tid);

            uint64_t local = LogHistogram::kInfinity;
            uint64_t global = LogHistogram::kInfinity;
            if (meta.lastGlobalSeq != 0)
                global = e.gseq - meta.lastGlobalSeq - 1;
            if (mine.count != 0) {
                const bool invalidated = opts.detectInvalidation &&
                    meta.lastWriteSeq > mine.seq &&
                    meta.lastWriter != tid;
                if (!invalidated) {
                    // The thread's data-access counter at any access is
                    // ordinal+1, so the replay's
                    // localDataSeq - count - 1 is this difference.
                    local = e.ordinal - (mine.count - 1) - 1;
                }
            }
            localRd[tid][e.ordinal] = local;
            globalRd[tid][e.ordinal] = global;

            mine.count = static_cast<uint64_t>(e.ordinal) + 1;
            mine.seq = e.gseq;
            meta.lastGlobalSeq = e.gseq;
            if (e.isStore) {
                meta.lastWriteSeq = e.gseq;
                meta.lastWriter = tid;
            }
        }
    });
    buckets.clear();
    buckets.shrink_to_fit();

    // --- Phase E: segmented statistics sweep (parallel, one task per
    //     segment). Boundary cursors first: a dry-run of the sweep's
    //     cursor arithmetic (1-byte op column reads, no statistics) per
    //     thread, snapshotting the exact SweepState at each segment
    //     edge so segments are independent by construction.
    std::vector<Segment> segments;
    std::vector<std::vector<size_t>> segOfThread(num_threads);
    {
        std::vector<std::vector<Segment>> perThread(num_threads);
        pool.forEach(num_threads, [&](size_t t) {
            const ThreadColumns &cols = trace.threads[t];
            const size_t n = cols.numRecords();
            size_t numSegs = 1;
            if (pool.jobs() > 1 && n >= 2 * kMinSegmentRecords) {
                numSegs = std::min<size_t>(size_t{4} * pool.jobs(),
                                           n / kMinSegmentRecords);
            }
            SweepState st;
            for (size_t s = 0; s < numSegs; ++s) {
                const size_t lo = n * s / numSegs;
                const size_t hi = n * (s + 1) / numSegs;
                perThread[t].push_back(
                    Segment{static_cast<uint32_t>(t), lo, hi, st});
                if (s + 1 < numSegs) {
                    advanceSweepCursor(cols, sync_views[t], opts, st, lo,
                                       hi);
                }
            }
        });
        for (uint32_t t = 0; t < num_threads; ++t) {
            for (Segment &sg : perThread[t]) {
                segOfThread[t].push_back(segments.size());
                segments.push_back(std::move(sg));
            }
        }
    }

    std::vector<SegmentSweep> sweeps(segments.size());
    pool.forEach(segments.size(), [&](size_t i) {
        const Segment &sg = segments[i];
        const ThreadColumns &cols = trace.threads[sg.tid];
        const ReuseSpans rd{{localRd[sg.tid].data(), 0},
                            {globalRd[sg.tid].data(), 0}};
        sweeps[i] = runSweepSegment(cols, sync_views[sg.tid], opts,
                                    sg.entry, rd, sg.lo, sg.hi);
    });

    // Stitch sequentially per thread (threads stitch concurrently):
    // resolves cross-segment instruction reuse against the thread's
    // carried line map and splices partial epochs.
    pool.forEach(num_threads, [&](size_t t) {
        InstrLineMap carried;
        for (const size_t i : segOfThread[t]) {
            stitchSweepSegment(profile.threads[t], carried,
                               std::move(sweeps[i]));
        }
    });

    // --- Phase F: synchronization aggregates (order-independent).
    classifySyncProfile(profile, sync_views);

    return profile;
}

} // namespace rppm
