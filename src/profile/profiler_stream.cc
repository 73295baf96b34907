/**
 * @file
 * Out-of-core streaming profiler — bit-identical to the epoch-sharded
 * engine with peak memory bounded by the chunk size, not the trace size.
 *
 * The epoch-sharded engine requires the whole trace resident (owned
 * columns or a whole-file mapping), so its peak address-space charge is
 * O(trace). This engine processes the trace in fixed-size
 * chunks of streamChunkRecords records per thread, keeping at most two
 * chunks in flight, and produces exactly the same profile — the same
 * bits, for every chunk size and job count.
 *
 * The decomposition is the parallel engine's (see
 * profiler_parallel.cc), re-cut along the record axis:
 *
 *  1. The pausable schedule replayer (profile/schedule_replay.hh) is
 *     advanced until every live thread's record cursor reaches the next
 *     chunk target. It pauses only between quantum slices, so the
 *     resulting chunk edges are exact run boundaries: every scheduled
 *     run lies wholly inside one chunk, and the global sequence numbers
 *     it assigns are identical to the unpaused replay's. The memory
 *     oracle it needs is a rolling forward scan of the op column (a
 *     small mapped window for file sources), which also yields the
 *     sparse addr/taken offsets of each chunk edge.
 *  2. Phase C (shard-bucketed access emit) runs per (chunk, thread)
 *     over just-mapped column windows.
 *  3. Phase D (per-shard reuse resolution) runs per shard against
 *     *persistent* shard LineTables that carry line state across
 *     chunks; the absolute ordinals and global sequence numbers make
 *     the per-chunk merges a partition of the whole-trace merge.
 *  4. Phase E is the shared statistics sweep (profile/stat_sweep.hh),
 *     one segment per (chunk, thread) with the SweepState cursor and
 *     InstrLineMap carried across chunks and stitched in chunk order.
 *
 * The phases of consecutive chunks overlap through a shared work deque
 * (common/parallel.hh): chunk k+1's emit tasks are queued before chunk
 * k's resolve tasks, and the barrier waits help execute whatever is at
 * the front of the deque, so workers flow across the C/D boundary
 * instead of idling at it. The main thread advances the replayer for
 * chunk k+1 while workers bucket chunk k.
 *
 * Sources: an in-memory ColumnarTrace (windows are pointer slices into
 * its columns) or an RPPMTRC file accessed through the chunked reader
 * (trace/trace_stream.hh) — index the container, keep only the sparse
 * sync columns resident, and map each chunk's column slices on demand.
 * The file path never materializes the trace, so profiling a trace far
 * larger than the address-space budget succeeds where the whole-file
 * loaders cannot even map their input (tests/test_profile_streaming,
 * CI stream-smoke).
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
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
#include "trace/trace_stream.hh"

namespace rppm {

namespace {

/**
 * Where chunk data comes from. The driver below only ever sees absolute
 * record/ordinal ranges and TraceChunk windows, so the pipeline is
 * identical for resident and out-of-core traces.
 */
class StreamSource
{
  public:
    virtual ~StreamSource() = default;

    virtual const std::string &name() const = 0;
    virtual uint32_t numThreads() const = 0;
    virtual uint64_t numRecords(uint32_t t) const = 0;
    /** Declared sparse column lengths (cross-checked against the scan). */
    virtual uint64_t numMems(uint32_t t) const = 0;
    virtual uint64_t numBranches(uint32_t t) const = 0;
    virtual SyncView sync(uint32_t t) const = 0;

    /** Structural validation + barrier populations (throws
     *  std::invalid_argument, same as the resident loaders). */
    virtual std::unordered_map<uint32_t, uint32_t> validateAndBarriers()
        const = 0;

    /**
     * Count memory and branch records in records [lo, hi) of thread
     * @p t, adding into @p mems / @p branches. Called with ascending,
     * non-overlapping ranges per thread (the replayer's runs), so a
     * rolling window suffices. File sources validate op classes here —
     * the one walk that sees every record.
     */
    virtual void countRange(uint32_t t, size_t lo, size_t hi,
                            uint64_t &mems, uint64_t &branches) = 0;

    /** Materialize one chunk's column windows (see TraceChunk). */
    virtual TraceChunk fetch(uint32_t t, size_t recLo, size_t recHi,
                             uint64_t memLo, uint64_t memHi, uint64_t brLo,
                             uint64_t brHi) = 0;
};

/** Resident source: chunks are pointer slices into the trace columns. */
class MemorySource final : public StreamSource
{
  public:
    explicit MemorySource(const ColumnarTrace &trace) : trace_(trace) {}

    const std::string &name() const override { return trace_.name; }

    uint32_t
    numThreads() const override
    {
        return static_cast<uint32_t>(trace_.numThreads());
    }

    uint64_t
    numRecords(uint32_t t) const override
    {
        return trace_.threads[t].numRecords();
    }

    uint64_t
    numMems(uint32_t t) const override
    {
        return trace_.threads[t].addr.size();
    }

    uint64_t
    numBranches(uint32_t t) const override
    {
        return trace_.threads[t].taken.size();
    }

    SyncView
    sync(uint32_t t) const override
    {
        return syncView(trace_.threads[t]);
    }

    std::unordered_map<uint32_t, uint32_t>
    validateAndBarriers() const override
    {
        trace_.validateColumnConsistency();
        return trace_.validateAndBarrierPopulations();
    }

    void
    countRange(uint32_t t, size_t lo, size_t hi, uint64_t &mems,
               uint64_t &branches) override
    {
        const Column<OpClass> &op = trace_.threads[t].op;
        for (size_t i = lo; i < hi; ++i) {
            if (isMemory(op[i]))
                ++mems;
            else if (op[i] == OpClass::Branch)
                ++branches;
        }
    }

    TraceChunk
    fetch(uint32_t t, size_t recLo, size_t recHi, uint64_t memLo,
          uint64_t memHi, uint64_t brLo, uint64_t brHi) override
    {
        const ThreadColumns &cols = trace_.threads[t];
        TraceChunk chunk;
        chunk.recLo = recLo;
        chunk.recHi = recHi;
        chunk.memLo = memLo;
        chunk.memHi = memHi;
        chunk.brLo = brLo;
        chunk.brHi = brHi;
        if (recLo < recHi) {
            chunk.op = cols.op.data() + recLo;
            chunk.pc = cols.pc.data() + recLo;
            chunk.dep1 = cols.dep1.data() + recLo;
            chunk.dep2 = cols.dep2.data() + recLo;
        }
        if (memLo < memHi)
            chunk.addr = cols.addr.data() + memLo;
        if (brLo < brHi)
            chunk.taken = cols.taken.data() + brLo;
        return chunk;
    }

  private:
    const ColumnarTrace &trace_;
};

/** Out-of-core source over an indexed RPPMTRC file. Resident state is
 *  the layout and the sparse sync columns; everything else arrives in
 *  mapped windows and leaves with them. */
class FileSource final : public StreamSource
{
  public:
    explicit FileSource(const std::string &path)
        : file_(path), layout_(indexTraceFile(file_)),
          sync_(loadSyncColumns(file_, layout_)), reader_(file_, layout_)
    {
        scanners_.reserve(layout_.threads.size());
        for (const ThreadLayout &th : layout_.threads)
            scanners_.emplace_back(file_, th);
    }

    const std::string &name() const override { return layout_.name; }

    uint32_t
    numThreads() const override
    {
        return static_cast<uint32_t>(layout_.threads.size());
    }

    uint64_t
    numRecords(uint32_t t) const override
    {
        return layout_.threads[t].records;
    }

    uint64_t
    numMems(uint32_t t) const override
    {
        return layout_.threads[t].addr.count;
    }

    uint64_t
    numBranches(uint32_t t) const override
    {
        return layout_.threads[t].taken.count;
    }

    SyncView
    sync(uint32_t t) const override
    {
        const ResidentSync &s = sync_[t];
        return SyncView{s.pos.data(), s.type.data(), s.arg.data(),
                        s.pos.size(),
                        static_cast<size_t>(layout_.threads[t].records)};
    }

    std::unordered_map<uint32_t, uint32_t>
    validateAndBarriers() const override
    {
        std::vector<SyncSpan> spans;
        spans.reserve(sync_.size());
        for (size_t t = 0; t < sync_.size(); ++t) {
            spans.push_back(SyncSpan{sync_[t].type.data(),
                                     sync_[t].arg.data(),
                                     sync_[t].pos.size(),
                                     layout_.threads[t].records});
        }
        return validateSyncAndBarrierPopulations(spans);
    }

    void
    countRange(uint32_t t, size_t lo, size_t hi, uint64_t &mems,
               uint64_t &branches) override
    {
        OpColumnScanner &scan = scanners_[t];
        for (size_t i = lo; i < hi; ++i) {
            const OpClass op = scan.at(i);
            RPPM_REQUIRE(static_cast<uint8_t>(op) <
                             static_cast<uint8_t>(OpClass::NumClasses),
                         "op class out of range");
            if (isMemory(op))
                ++mems;
            else if (op == OpClass::Branch)
                ++branches;
        }
    }

    TraceChunk
    fetch(uint32_t t, size_t recLo, size_t recHi, uint64_t memLo,
          uint64_t memHi, uint64_t brLo, uint64_t brHi) override
    {
        TraceChunk chunk =
            reader_.read(t, recLo, recHi, memLo, memHi, brLo, brHi);
        // The resident loaders validate branch outcomes trace-wide; do
        // the same incrementally, on the slice just mapped.
        for (uint64_t b = brLo; b < brHi; ++b) {
            RPPM_REQUIRE(chunk.taken[b - brLo] <= 1,
                         "branch outcome out of range");
        }
        return chunk;
    }

  private:
    FdFile file_;
    TraceFileLayout layout_;
    std::vector<ResidentSync> sync_;
    TraceChunkReader reader_;
    std::vector<OpColumnScanner> scanners_;
};

/** One scheduled run inside a chunk (records [start, end) of one
 *  thread); its mems get gseqBase+1.. and sparse ordinals memBase.. */
struct Run
{
    uint64_t start;
    uint64_t end;
    uint64_t gseqBase;
    uint64_t memBase;
};

/** One memory access routed to a line-hash shard (as in the parallel
 *  engine; the ordinal is absolute, so shard state carries verbatim). */
struct AccessEntry
{
    uint64_t line;
    uint64_t gseq;
    uint32_t ordinal;
    uint32_t isStore;
};

/** One thread's slice of one in-flight chunk. */
struct ThreadChunk
{
    size_t recLo = 0, recHi = 0;
    uint64_t memLo = 0, memHi = 0;
    uint64_t brLo = 0, brHi = 0;
    std::vector<Run> runs;
    TraceChunk data;
    /** Phase-C output: per-shard access entries. */
    std::vector<std::vector<AccessEntry>> buckets;
    /** Phase-D output, indexed ordinal - memLo. */
    std::vector<uint64_t> localRd, globalRd;
};

/** One in-flight chunk (the pipeline keeps two alive). */
struct ChunkState
{
    std::vector<ThreadChunk> threads;
    bool valid = false;
};

WorkloadProfile
streamProfile(StreamSource &src, const ProfilerOptions &opts)
{
    const uint32_t num_threads = src.numThreads();
    const uint64_t chunk_records = opts.streamChunkRecords > 0 ?
        opts.streamChunkRecords :
        kDefaultStreamChunkRecords;

    WorkloadProfile profile;
    profile.name = src.name();
    profile.numThreads = num_threads;
    profile.threads.resize(num_threads);
    profile.barrierPopulation = src.validateAndBarriers();

    std::vector<SyncView> sync_views;
    sync_views.reserve(num_threads);
    uint64_t total_mems = 0;
    for (uint32_t t = 0; t < num_threads; ++t) {
        sync_views.push_back(src.sync(t));
        RPPM_REQUIRE(src.numMems(t) < UINT32_MAX,
                     "trace thread exceeds 2^32 memory accesses");
        total_mems += src.numMems(t);
    }

    WorkDeque deque(opts.jobs);

    // Same shard geometry as the parallel engine (profiler_parallel.cc
    // phase C); the per-shard LineTables here are *persistent*, carrying
    // line state across chunks so the per-chunk resolves compose to the
    // whole-trace merge.
    unsigned shardBits = 3;
    while ((1u << shardBits) < std::min(64u, deque.jobs() * 4))
        ++shardBits;
    const size_t numShards = size_t{1} << shardBits;
    // Presize from the *chunk* size, not total_mems: the whole point of
    // streaming is peak memory independent of trace length, and the
    // tables grow on demand if the workload really touches more
    // distinct lines than a couple of chunks' worth of accesses.
    const uint64_t line_hint =
        std::min(total_mems, 2 * chunk_records * num_threads) / numShards;
    std::vector<LineTable> shardLines;
    shardLines.reserve(numShards);
    for (size_t s = 0; s < numShards; ++s)
        shardLines.emplace_back(num_threads, line_hint);

    // The replayer's memory oracle: a rolling forward scan of the op
    // column tracking the absolute sparse offsets reached so far. At
    // every pause the un-scanned tail of a thread consists solely of
    // sync slots (neutral: no mems, no branches), so the rolling totals
    // are exact at every chunk edge.
    ScheduleReplayer replayer(opts, sync_views, profile.barrierPopulation);
    std::vector<size_t> scanPos(num_threads, 0);
    std::vector<uint64_t> memSoFar(num_threads, 0);
    std::vector<uint64_t> brSoFar(num_threads, 0);
    std::vector<size_t> prevCursor(num_threads, 0);
    std::vector<uint64_t> prevMemHi(num_threads, 0);
    std::vector<uint64_t> prevBrHi(num_threads, 0);
    bool replayDone = false;

    auto memCount = [&](uint32_t t, size_t, size_t hi) -> uint64_t {
        const uint64_t before = memSoFar[t];
        src.countRange(t, scanPos[t], hi, memSoFar[t], brSoFar[t]);
        scanPos[t] = hi;
        return memSoFar[t] - before;
    };

    // Carried phase-E state, one per thread: the sweep cursor, and the
    // instruction-line map the chunk stitches resolve against.
    std::vector<SweepState> eCursor(num_threads);
    std::vector<InstrLineMap> carried(num_threads);

    ChunkState chunks[2];
    WorkDeque::Group cGroup[2];
    WorkDeque::Group dGroup;
    WorkDeque::Group eGroup;

    // Advance the replayer one chunk and materialize its windows.
    // Returns false (st.valid == false) once the schedule is spent.
    auto advanceChunk = [&](ChunkState &st) -> bool {
        st.valid = false;
        if (replayDone)
            return false;
        st.threads.clear();
        st.threads.resize(num_threads);

        std::vector<size_t> target(num_threads);
        for (uint32_t t = 0; t < num_threads; ++t) {
            target[t] = static_cast<size_t>(
                std::min<uint64_t>(prevCursor[t] + chunk_records,
                                   src.numRecords(t)));
        }
        // Never pause before the first slice: when every target is
        // already met (e.g. all remaining threads are recordless), the
        // replayer still has thread-finish bookkeeping to run, and one
        // slice guarantees forward progress.
        size_t checks = 0;
        auto pause = [&] {
            if (checks++ == 0)
                return false;
            for (uint32_t t = 0; t < num_threads; ++t) {
                if (replayer.recordCursor(t) < target[t])
                    return false;
            }
            return true;
        };
        replayDone = replayer.advance(
            memCount,
            [&](uint32_t t, size_t lo, size_t hi, uint64_t gseqBase,
                uint64_t mem) {
                if (mem > 0) {
                    st.threads[t].runs.push_back(
                        Run{lo, hi, gseqBase, memSoFar[t] - mem});
                }
            },
            pause);

        bool any = false;
        for (uint32_t t = 0; t < num_threads; ++t) {
            ThreadChunk &tc = st.threads[t];
            tc.recLo = prevCursor[t];
            tc.recHi = replayer.recordCursor(t);
            prevCursor[t] = tc.recHi;
            tc.memLo = prevMemHi[t];
            tc.brLo = prevBrHi[t];
            tc.memHi = memSoFar[t];
            tc.brHi = brSoFar[t];
            prevMemHi[t] = tc.memHi;
            prevBrHi[t] = tc.brHi;
            if (tc.recLo == tc.recHi)
                continue;
            any = true;
            tc.data = src.fetch(t, tc.recLo, tc.recHi, tc.memLo, tc.memHi,
                                tc.brLo, tc.brHi);
            // Phase D scatters into these from multiple shard tasks;
            // allocate them here, before any task can run.
            tc.localRd.resize(tc.memHi - tc.memLo);
            tc.globalRd.resize(tc.memHi - tc.memLo);
        }
        st.valid = any;
        return any;
    };

    // --- Phase C of one chunk: shard-bucketed access emit, one task
    //     per thread (identical math to the parallel engine, with run
    //     memBase standing in for the memory prefix array).
    auto postEmit = [&](ChunkState &st, WorkDeque::Group &group) {
        for (uint32_t t = 0; t < num_threads; ++t) {
            ThreadChunk &tc = st.threads[t];
            if (tc.runs.empty())
                continue;
            deque.post(group, [&opts, &tc, numShards, shardBits] {
                tc.buckets.resize(numShards);
                const size_t expect =
                    static_cast<size_t>(tc.memHi - tc.memLo) / numShards +
                    16;
                for (auto &bucket : tc.buckets)
                    bucket.reserve(expect);
                for (const Run &run : tc.runs) {
                    uint64_t j = run.memBase;
                    uint64_t gseq = run.gseqBase;
                    for (size_t i = run.start; i < run.end; ++i) {
                        const OpClass op = tc.data.op[i - tc.recLo];
                        if (!isMemory(op))
                            continue;
                        const uint64_t line =
                            tc.data.addr[j - tc.memLo] / opts.lineBytes;
                        const size_t shard = static_cast<size_t>(
                            mix64(line + 1) >> (64 - shardBits));
                        tc.buckets[shard].push_back(AccessEntry{
                            line, ++gseq, static_cast<uint32_t>(j),
                            op == OpClass::Store});
                        ++j;
                    }
                }
            });
        }
    };

    // --- Phase D of one chunk: per-shard reuse resolution against the
    //     persistent shard tables. Byte-for-byte the parallel engine's
    //     merge: absolute gseqs make per-chunk in-order globally
    //     in-order, absolute ordinals make the counts carry verbatim.
    auto postResolve = [&](ChunkState &st, WorkDeque::Group &group) {
        for (size_t s = 0; s < numShards; ++s) {
            deque.post(group, [&st, &shardLines, &opts, num_threads, s] {
                auto entries =
                    [&](uint32_t t) -> std::vector<AccessEntry> & {
                    return st.threads[t].buckets[s];
                };
                uint64_t shard_accesses = 0;
                for (uint32_t t = 0; t < num_threads; ++t) {
                    if (!st.threads[t].buckets.empty())
                        shard_accesses += entries(t).size();
                }
                if (shard_accesses == 0)
                    return;
                LineTable &lines = shardLines[s];

                std::vector<size_t> at(num_threads, 0);
                for (uint64_t n = 0; n < shard_accesses; ++n) {
                    uint32_t tid = UINT32_MAX;
                    uint64_t best = UINT64_MAX;
                    for (uint32_t t = 0; t < num_threads; ++t) {
                        if (st.threads[t].buckets.empty())
                            continue;
                        if (at[t] < entries(t).size() &&
                            entries(t)[at[t]].gseq < best) {
                            best = entries(t)[at[t]].gseq;
                            tid = t;
                        }
                    }
                    const AccessEntry &e = entries(tid)[at[tid]++];

                    const size_t slot = lines.slot(e.line);
                    LineTable::Meta &meta = lines.meta(slot);
                    LineTable::PerThread &mine =
                        lines.perThread(slot, tid);

                    uint64_t local = LogHistogram::kInfinity;
                    uint64_t global = LogHistogram::kInfinity;
                    if (meta.lastGlobalSeq != 0)
                        global = e.gseq - meta.lastGlobalSeq - 1;
                    if (mine.count != 0) {
                        const bool invalidated =
                            opts.detectInvalidation &&
                            meta.lastWriteSeq > mine.seq &&
                            meta.lastWriter != tid;
                        if (!invalidated)
                            local = e.ordinal - (mine.count - 1) - 1;
                    }
                    ThreadChunk &tc = st.threads[tid];
                    tc.localRd[e.ordinal - tc.memLo] = local;
                    tc.globalRd[e.ordinal - tc.memLo] = global;

                    mine.count = static_cast<uint64_t>(e.ordinal) + 1;
                    mine.seq = e.gseq;
                    meta.lastGlobalSeq = e.gseq;
                    if (e.isStore) {
                        meta.lastWriteSeq = e.gseq;
                        meta.lastWriter = tid;
                    }
                }
            });
        }
    };

    // --- Phase E of one chunk: the shared statistics sweep, one
    //     segment per thread, cursor carried across chunks and stitched
    //     in-task (chunks arrive in order; threads are independent).
    auto postSweep = [&](ChunkState &st, WorkDeque::Group &group) {
        for (uint32_t t = 0; t < num_threads; ++t) {
            ThreadChunk &tc = st.threads[t];
            if (tc.recLo == tc.recHi)
                continue;
            deque.post(group, [&sync_views, &opts, &profile, &eCursor,
                               &carried, &tc, t] {
                const WindowCols wc{{tc.data.op, tc.recLo},
                                    {tc.data.pc, tc.recLo},
                                    {tc.data.dep1, tc.recLo},
                                    {tc.data.dep2, tc.recLo},
                                    {tc.data.taken,
                                     static_cast<size_t>(tc.brLo)}};
                const ReuseSpans rd{{tc.localRd.data(), tc.memLo},
                                    {tc.globalRd.data(), tc.memLo}};
                SegmentSweep seg =
                    runSweepSegment(wc, sync_views[t], opts, eCursor[t],
                                    rd, tc.recLo, tc.recHi);
                eCursor[t] = seg.exit;
                stitchSweepSegment(profile.threads[t], carried[t],
                                   std::move(seg));
            });
        }
    };

    // --- The pipeline. Queue order per iteration: C(k+1) before D(k)
    //     before E(k); the FIFO deque plus helping waits let workers
    //     cross the stage boundaries, while the dependences (D(k) after
    //     C(k); E(k) after D(k); D(k+1) after D(k), for the shared
    //     shard tables) are enforced by the group waits.
    try {
        size_t k = 0;
        if (advanceChunk(chunks[0]))
            postEmit(chunks[0], cGroup[0]);
        while (chunks[k & 1].valid) {
            ChunkState &cur = chunks[k & 1];
            ChunkState &nxt = chunks[(k + 1) & 1];
            // The replay/scan of chunk k+1 touches only main-thread
            // state, so it runs under C(k)'s bucketing on the workers.
            const bool more = advanceChunk(nxt);
            deque.wait(cGroup[k & 1]);
            if (more)
                postEmit(nxt, cGroup[(k + 1) & 1]);
            postResolve(cur, dGroup);
            deque.wait(dGroup);
            postSweep(cur, eGroup);
            deque.wait(eGroup);
            cur = ChunkState{}; // release windows, buckets, rd arrays
            ++k;
        }
    } catch (...) {
        // Outstanding tasks capture this frame; drain every group
        // before unwinding it.
        for (WorkDeque::Group *g :
             {&cGroup[0], &cGroup[1], &dGroup, &eGroup}) {
            try {
                deque.wait(*g);
            } catch (...) {
            }
        }
        throw;
    }

    // The scan is the only pass that sees every record of a file-backed
    // trace; cross-check it against the declared sparse column lengths
    // (the resident loaders validate the same properties up front).
    for (uint32_t t = 0; t < num_threads; ++t) {
        RPPM_REQUIRE(memSoFar[t] == src.numMems(t),
                     "addr column length does not match memory op count");
        RPPM_REQUIRE(brSoFar[t] == src.numBranches(t),
                     "taken column length does not match branch count");
        // A thread with no records still owns one (empty) epoch.
        if (profile.threads[t].epochs.empty())
            profile.threads[t].epochs.emplace_back();
    }

    classifySyncProfile(profile, sync_views);
    return profile;
}

} // namespace

WorkloadProfile
profileWorkloadStreaming(const ColumnarTrace &trace,
                         const ProfilerOptions &opts)
{
    MemorySource src(trace);
    return streamProfile(src, opts);
}

WorkloadProfile
profileWorkloadStreamingFile(const std::string &path,
                             const ProfilerOptions &opts)
{
    FileSource src(path);
    return streamProfile(src, opts);
}

} // namespace rppm
