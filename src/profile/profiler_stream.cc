/**
 * @file
 * The profiler engine: one chunk pipeline, fed by a resident trace or by
 * a trace file.
 *
 * The multi-threaded StatStack extension orders every memory access of
 * every thread on one global sequence counter, and coherence
 * invalidation compares per-line write timestamps across threads, so a
 * direct replay is inherently sequential. This engine reproduces the
 * replay's profile exactly — the same bits, for every job count and
 * chunk size — through phases whose parallel grains are independent by
 * construction, run over chunks of at most streamChunkRecords records
 * per thread (working memory is bounded by the chunk, not the trace):
 *
 *  A. Index     (per source) Memory/branch record counts of any run: a
 *               resident trace builds per-thread prefix counts on the
 *               worker pool (O(1) per run); a file scans its op column
 *               in a rolling window (no O(records) index out of core).
 *  B. Schedule  (sequential) The simulator's round-robin quantum
 *               schedule (sim/round_robin.hh) over the sparse sync
 *               columns only, on its step clock, advanced until every
 *               live thread reaches the next chunk target. It pauses
 *               only between quantum slices, so chunk edges are run
 *               boundaries and every access gets the global sequence
 *               number of the unpaused walk.
 *  C. Emit      (one task per thread) Each thread turns its runs into
 *               (line, global seq, ordinal) entries, bucketed by
 *               line-hash shard; a line lives in exactly one shard.
 *  D. Resolve   (one task per shard) Each shard merges its per-thread
 *               lists by global sequence number — the replay's order —
 *               through its LineTable, carried across chunks: global
 *               and per-thread reuse distances, including the coherence
 *               rule ("another thread wrote the line since my last
 *               access" => infinite distance). Results scatter into
 *               per-thread arrays by access ordinal, each slot written
 *               once, so shards need no locks.
 *  E. Sweep     The shared statistics sweep (profile/stat_sweep.hh),
 *               continued from each thread's carried cursor. A long
 *               slice splits into up to 4 x jobs segments: a cursor
 *               dry-run pins each segment's entry state, the segments
 *               sweep concurrently, and the last to finish stitches
 *               them in order. At jobs == 1 every slice is one segment.
 *  F. Classify  (sequential) Order-independent synchronization counts
 *               and condvar classification from the sync columns.
 *
 * profileWorkload() with streamChunkRecords == 0 runs one window
 * spanning the longest thread. Chunks overlap through a shared work
 * deque (common/parallel.hh): chunk k+1's emit tasks are queued before
 * chunk k's resolve tasks, the waits help run whatever is queued, and
 * the main thread replays chunk k+1 while workers bucket chunk k. The
 * file source keeps only the sparse sync columns resident and maps each
 * chunk's column slices on demand (trace/trace_stream.hh), so it
 * profiles traces larger than the address-space budget.
 *
 * Nothing is sampled or approximated. tests/test_profile_parallel and
 * tests/test_profile_streaming assert byte-identical serialized profiles
 * against the committed corpus tests/golden/profile.txt on the whole
 * workload suite for several job counts and chunk sizes.
 */

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assert.hh"
#include "common/hash.hh"
#include "common/parallel.hh"
#include "profile/profiler.hh"
#include "profile/reuse_tables.hh"
#include "profile/stat_sweep.hh"
#include "sim/round_robin.hh"
#include "sim/sync_state.hh"
#include "trace/columnar.hh"
#include "trace/trace_stream.hh"

namespace rppm {

namespace {

/** One thread of a source: its declared sparse column lengths
 *  (cross-checked against the run counts) and its sync columns, which
 *  carry its record count. */
struct SourceThread
{
    uint64_t mems;
    uint64_t branches;
    SyncView sync;
};

/**
 * Where chunk data comes from. The pipeline below only ever sees
 * absolute record/ordinal ranges and TraceChunk windows, so it is
 * identical for resident and out-of-core traces. Sources fill name and
 * threads on construction.
 */
class StreamSource
{
  public:
    virtual ~StreamSource() = default;

    std::string name;
    std::vector<SourceThread> threads;

    /** Structural validation + barrier populations (throws
     *  std::invalid_argument, same as the resident loaders). */
    virtual std::unordered_map<uint32_t, uint32_t> validateAndBarriers()
        const = 0;

    /**
     * Count memory and branch records in records [lo, hi) of thread
     * @p t, adding into @p mems / @p branches (phase A). Called with
     * ascending, non-overlapping ranges per thread (the schedule's
     * runs), so a rolling window suffices. File sources validate op
     * classes here; the sweep checks the sync slots in between.
     */
    virtual void countRange(uint32_t t, size_t lo, size_t hi,
                            uint64_t &mems, uint64_t &branches) = 0;

    /** The schedule is spent: no countRange call follows. */
    virtual void releaseIndex() {}

    /** Materialize one chunk's column windows (see TraceChunk). */
    virtual TraceChunk fetch(uint32_t t, size_t recLo, size_t recHi,
                             uint64_t memLo, uint64_t memHi, uint64_t brLo,
                             uint64_t brHi) = 0;
};

/** Resident source: chunks are pointer slices into the trace columns,
 *  and countRange() reads per-thread prefix counts built up front on
 *  the worker pool. */
class MemorySource final : public StreamSource
{
  public:
    MemorySource(const ColumnarTrace &trace, WorkDeque &deque)
        : trace_(trace), memPrefix_(trace.numThreads()),
          brPrefix_(trace.numThreads())
    {
        trace_.validateColumnConsistency();
        name = trace.name;
        WorkDeque::Group group;
        for (size_t t = 0; t < trace.numThreads(); ++t) {
            const ThreadColumns &cols = trace.threads[t];
            threads.push_back(SourceThread{cols.addr.size(),
                                           cols.taken.size(),
                                           syncView(cols)});
            deque.post(group, [this, &cols, t] {
                RPPM_REQUIRE(cols.addr.size() < UINT32_MAX &&
                                 cols.taken.size() < UINT32_MAX,
                             "trace thread exceeds 2^32 memory or branch "
                             "records");
                const size_t n = cols.numRecords();
                memPrefix_[t] =
                    std::make_unique_for_overwrite<uint32_t[]>(n + 1);
                brPrefix_[t] =
                    std::make_unique_for_overwrite<uint32_t[]>(n + 1);
                uint32_t *const mem = memPrefix_[t].get();
                uint32_t *const br = brPrefix_[t].get();
                uint32_t mems = 0, branches = 0;
                for (size_t i = 0; i < n; ++i) {
                    mem[i] = mems;
                    br[i] = branches;
                    const OpClass op = cols.op[i];
                    mems += isMemory(op);
                    branches += op == OpClass::Branch;
                }
                mem[n] = mems;
                br[n] = branches;
            });
        }
        deque.wait(group);
    }

    std::unordered_map<uint32_t, uint32_t>
    validateAndBarriers() const override
    {
        return trace_.validateAndBarrierPopulations();
    }

    void
    countRange(uint32_t t, size_t lo, size_t hi, uint64_t &mems,
               uint64_t &branches) override
    {
        mems += memPrefix_[t][hi] - memPrefix_[t][lo];
        branches += brPrefix_[t][hi] - brPrefix_[t][lo];
    }

    void
    releaseIndex() override
    {
        memPrefix_.clear();
        brPrefix_.clear();
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
    /** Memory / branch records before each record, per thread. */
    std::vector<std::unique_ptr<uint32_t[]>> memPrefix_;
    std::vector<std::unique_ptr<uint32_t[]>> brPrefix_;
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
        name = layout_.name;
        scanners_.reserve(layout_.threads.size());
        for (size_t t = 0; t < layout_.threads.size(); ++t) {
            const ThreadLayout &th = layout_.threads[t];
            const ResidentSync &s = sync_[t];
            threads.push_back(SourceThread{
                th.addr.count, th.taken.count,
                SyncView{s.pos.data(), s.type.data(), s.arg.data(),
                         s.pos.size(), static_cast<size_t>(th.records)}});
            scanners_.emplace_back(file_, th);
        }
    }

    std::unordered_map<uint32_t, uint32_t>
    validateAndBarriers() const override
    {
        std::vector<SyncView> views;
        views.reserve(threads.size());
        for (const SourceThread &th : threads)
            views.push_back(th.sync);
        return validateSyncAndBarrierPopulations(views);
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

/** Records below which a thread's chunk slice is not split: the
 *  boundary dry-run and stitch are O(range) and O(touched lines), so
 *  tiny segments would be all overhead. */
constexpr size_t kMinSegmentRecords = 4096;

/** One scheduled run inside a chunk (records [start, end) of one
 *  thread); its mems get gseqBase+1.. and sparse ordinals memBase.. */
struct Run
{
    uint64_t start;
    uint64_t end;
    uint64_t gseqBase;
    uint64_t memBase;
};

/** One memory access routed to a line-hash shard. The ordinal is
 *  absolute, so shard state carries across chunks verbatim. */
struct AccessEntry
{
    uint64_t line;
    uint64_t gseq;    ///< global sequence number (from the schedule)
    uint32_t ordinal; ///< index into the thread's sparse addr column
    uint32_t isStore;
};

/** One phase-E work item: records [lo, hi) of a thread, entered with
 *  the exact sweep cursor the sequential sweep would hold at lo. */
struct Segment
{
    size_t lo = 0, hi = 0;
    SweepState entry;
    SegmentSweep sweep;
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
    /** Phase-D output, indexed ordinal - memLo; every slot is written
     *  exactly once, so it starts uninitialized. */
    std::unique_ptr<uint64_t[]> localRd, globalRd;
    /** Phase E: the slice's segments, and how many are still unswept
     *  (the task that takes it to zero stitches them in order). */
    std::vector<Segment> segs;
    std::atomic<size_t> unswept{0};
};

/** One in-flight chunk (the pipeline keeps two alive). */
struct ChunkState
{
    std::vector<ThreadChunk> threads;
    bool valid = false;
    bool last = false; ///< the schedule is spent: no chunk follows
};

/**
 * Phase C for one thread's slice of a chunk: route every memory access
 * of its runs to a line-hash shard. Shards partition the line space by
 * the *high* bits of the same mix64 hash the LineTable probes with its
 * low bits, so shard assignment and in-shard probing stay uncorrelated.
 */
void
emitAccesses(ThreadChunk &tc, const ProfilerOptions &opts,
             unsigned shardBits)
{
    const size_t numShards = size_t{1} << shardBits;
    tc.buckets.resize(numShards);
    const size_t expect =
        static_cast<size_t>(tc.memHi - tc.memLo) / numShards + 16;
    for (auto &bucket : tc.buckets)
        bucket.reserve(expect);

    // Bound once: the pushes below could otherwise alias tc's fields.
    std::vector<AccessEntry> *const buckets = tc.buckets.data();
    const OpClass *const op = tc.data.op;
    const uint64_t *const addr = tc.data.addr;
    const size_t recLo = tc.recLo;
    const uint64_t memLo = tc.memLo;
    const uint64_t lineBytes = opts.lineBytes;
    for (const Run &run : tc.runs) {
        uint64_t j = run.memBase;
        uint64_t gseq = run.gseqBase;
        for (size_t i = run.start - recLo; i < run.end - recLo; ++i) {
            if (!isMemory(op[i]))
                continue;
            const uint64_t line = addr[j - memLo] / lineBytes;
            const size_t shard =
                static_cast<size_t>(mix64(line + 1) >> (64 - shardBits));
            buckets[shard].push_back(
                AccessEntry{line, ++gseq, static_cast<uint32_t>(j),
                            op[i] == OpClass::Store});
            ++j;
        }
    }
}

/**
 * Phase D for shard @p s of one chunk: merge the threads' entry lists by
 * global sequence number — each list is ascending and gseqs are globally
 * unique, so this is exactly the order in which the round-robin replay
 * touches these lines — and resolve every access against the shard's
 * LineTable, created on first use. Absolute gseqs and ordinals make each
 * chunk's merge a slice of the whole-trace merge.
 */
void
resolveShard(ChunkState &st, size_t s, std::unique_ptr<LineTable> &table,
             uint64_t lineHint, const ProfilerOptions &opts)
{
    /** One thread's entries in this shard, with its outputs bound. */
    struct Lane
    {
        const AccessEntry *at;
        const AccessEntry *end;
        uint64_t *localRd;
        uint64_t *globalRd;
        uint64_t memLo;
        uint32_t tid;
    };
    std::vector<Lane> lanes;
    for (uint32_t t = 0; t < st.threads.size(); ++t) {
        ThreadChunk &tc = st.threads[t];
        if (tc.buckets.empty() || tc.buckets[s].empty())
            continue;
        const std::vector<AccessEntry> &entries = tc.buckets[s];
        lanes.push_back(Lane{entries.data(),
                             entries.data() + entries.size(),
                             tc.localRd.get(), tc.globalRd.get(), tc.memLo,
                             t});
    }
    if (lanes.empty())
        return;
    if (!table) {
        table = std::make_unique<LineTable>(
            static_cast<uint32_t>(st.threads.size()), lineHint);
    }
    LineTable &lines = *table;

    while (!lanes.empty()) {
        // The lane with the smallest head runs until its head passes
        // the smallest head of the others.
        size_t pick = 0;
        uint64_t bound = UINT64_MAX;
        for (size_t l = 1; l < lanes.size(); ++l) {
            if (lanes[l].at->gseq < lanes[pick].at->gseq) {
                bound = lanes[pick].at->gseq;
                pick = l;
            } else {
                bound = std::min(bound, lanes[l].at->gseq);
            }
        }
        Lane &lane = lanes[pick];
        const uint32_t tid = lane.tid;
        do {
            const AccessEntry &e = *lane.at;
            const size_t slot = lines.slot(e.line);
            LineTable::Meta &meta = lines.meta(slot);
            LineTable::PerThread &mine = lines.perThread(slot, tid);

            uint64_t local = LogHistogram::kInfinity;
            uint64_t global = LogHistogram::kInfinity;
            if (meta.lastGlobalSeq != 0)
                global = e.gseq - meta.lastGlobalSeq - 1;
            if (mine.count != 0) {
                const bool invalidated = opts.detectInvalidation &&
                    meta.lastWriteSeq > mine.seq && meta.lastWriter != tid;
                if (!invalidated) {
                    // The thread's data-access counter at any access is
                    // ordinal+1, so the replay's
                    // localDataSeq - count - 1 is this difference.
                    local = e.ordinal - (mine.count - 1) - 1;
                }
            }
            lane.localRd[e.ordinal - lane.memLo] = local;
            lane.globalRd[e.ordinal - lane.memLo] = global;

            mine.count = static_cast<uint64_t>(e.ordinal) + 1;
            mine.seq = e.gseq;
            meta.lastGlobalSeq = e.gseq;
            if (e.isStore) {
                meta.lastWriteSeq = e.gseq;
                meta.lastWriter = tid;
            }
        } while (++lane.at != lane.end && lane.at->gseq < bound);
        if (lane.at == lane.end) {
            lane = lanes.back();
            lanes.pop_back();
        }
    }
}

/** A chunk slice's columns, indexed by absolute record/branch index. */
WindowCols
windowCols(const ThreadChunk &tc)
{
    return WindowCols{{tc.data.op, tc.recLo},
                      {tc.data.pc, tc.recLo},
                      {tc.data.dep1, tc.recLo},
                      {tc.data.dep2, tc.recLo},
                      {tc.data.taken, static_cast<size_t>(tc.brLo)}};
}

/**
 * Run the pipeline over @p src. @p chunkRecords == 0 means one window
 * spanning the longest thread.
 */
WorkloadProfile
streamProfile(StreamSource &src, WorkDeque &deque,
              const ProfilerOptions &opts, uint64_t chunkRecords)
{
    const uint32_t num_threads = static_cast<uint32_t>(src.threads.size());

    WorkloadProfile profile;
    profile.name = src.name;
    profile.numThreads = num_threads;
    profile.threads.resize(num_threads);
    profile.barrierPopulation = src.validateAndBarriers();

    std::vector<SyncView> sync_views;
    sync_views.reserve(num_threads);
    uint64_t total_mems = 0;
    uint64_t longest = 1;
    for (const SourceThread &th : src.threads) {
        sync_views.push_back(th.sync);
        RPPM_REQUIRE(th.mems < UINT32_MAX,
                     "trace thread exceeds 2^32 memory accesses");
        total_mems += th.mems;
        longest = std::max<uint64_t>(longest, th.sync.numRecords);
    }
    // No window needs to exceed the longest thread; the clamp also keeps
    // prevCursor + chunk_records and the table presize below in range.
    const uint64_t chunk_records =
        chunkRecords == 0 ? longest : std::min(chunkRecords, longest);

    // The shard count is pure execution policy — every count yields the
    // same profile. The per-shard LineTables are *persistent*, carrying
    // line state across chunks so the per-chunk resolves compose to the
    // whole-trace merge.
    unsigned shardBits = 3;
    while ((1u << shardBits) < std::min(64u, deque.jobs() * 4))
        ++shardBits;
    const size_t numShards = size_t{1} << shardBits;
    // Presize from the *chunk* size, not total_mems: peak memory must not
    // grow with trace length, and the tables grow on demand if the
    // workload really touches more distinct lines than a couple of
    // chunks' worth of accesses.
    const uint64_t line_hint =
        std::min(total_mems, 2 * chunk_records * num_threads) / numShards;
    std::vector<std::unique_ptr<LineTable>> shardLines(numShards);

    // The schedule (sim/round_robin.hh) on its step clock, which is
    // sound because SyncState's blocking decisions are order-only. Each
    // run's count tracks the absolute sparse offsets reached so far;
    // records between runs are sync slots (neutral: no mems, no
    // branches), so the totals are exact at every chunk edge.
    SyncState syncState(num_threads, profile.barrierPopulation);
    RoundRobin schedule(sync_views, syncState, opts.quantum);
    uint64_t globalSeq = 0;
    std::vector<uint64_t> memSoFar(num_threads, 0);
    std::vector<uint64_t> brSoFar(num_threads, 0);
    std::vector<size_t> prevCursor(num_threads, 0);
    std::vector<uint64_t> prevMemHi(num_threads, 0);
    std::vector<uint64_t> prevBrHi(num_threads, 0);
    bool scheduleDone = false;

    // Carried phase-E state, one per thread: the sweep cursor, and the
    // instruction-line map the stitches resolve against.
    std::vector<SweepState> eCursor(num_threads);
    std::vector<InstrLineMap> carried(num_threads);

    ChunkState chunks[2];
    WorkDeque::Group cGroup[2];
    WorkDeque::Group dGroup;
    WorkDeque::Group eGroup;

    // Advance the schedule one chunk and materialize its windows.
    // Returns false (st.valid == false) once the schedule is spent.
    auto advanceChunk = [&](ChunkState &st) -> bool {
        st.valid = false;
        if (scheduleDone)
            return false;
        st.threads = std::vector<ThreadChunk>(num_threads);

        std::vector<size_t> target(num_threads);
        for (uint32_t t = 0; t < num_threads; ++t) {
            target[t] = static_cast<size_t>(
                std::min<uint64_t>(prevCursor[t] + chunk_records,
                                   src.threads[t].sync.numRecords));
        }
        // Never pause before the first slice: when every target is
        // already met (e.g. all remaining threads are recordless), the
        // schedule still has thread-finish bookkeeping to run, and one
        // slice guarantees forward progress.
        size_t checks = 0;
        auto pause = [&] {
            if (checks++ == 0)
                return false;
            for (uint32_t t = 0; t < num_threads; ++t) {
                if (schedule.cursor(t) < target[t])
                    return false;
            }
            return true;
        };
        scheduleDone = schedule.advance(
            [&](uint32_t t, size_t lo, size_t hi) {
                const uint64_t memLo = memSoFar[t];
                src.countRange(t, lo, hi, memSoFar[t], brSoFar[t]);
                // The run's accesses get globalSeq+1 .. globalSeq+mems.
                if (memSoFar[t] > memLo) {
                    st.threads[t].runs.push_back(
                        Run{lo, hi, globalSeq, memLo});
                    globalSeq += memSoFar[t] - memLo;
                }
            },
            [&](uint32_t t, SyncType type, uint32_t arg) {
                const double now = static_cast<double>(schedule.step());
                return syncState.apply(t, type, arg, now).blocks;
            },
            [&](uint32_t t) {
                syncState.finish(t, static_cast<double>(schedule.step()));
            },
            pause);
        if (scheduleDone)
            src.releaseIndex();
        st.last = scheduleDone;

        bool any = false;
        for (uint32_t t = 0; t < num_threads; ++t) {
            ThreadChunk &tc = st.threads[t];
            tc.recLo = prevCursor[t];
            tc.recHi = schedule.cursor(t);
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
            const size_t mems = static_cast<size_t>(tc.memHi - tc.memLo);
            tc.localRd = std::make_unique_for_overwrite<uint64_t[]>(mems);
            tc.globalRd = std::make_unique_for_overwrite<uint64_t[]>(mems);
        }
        st.valid = any;
        return any;
    };

    // --- Phase C of one chunk: one emit task per thread.
    auto postEmit = [&](ChunkState &st, WorkDeque::Group &group) {
        for (ThreadChunk &tc : st.threads) {
            if (tc.runs.empty())
                continue;
            deque.post(group, [&opts, &tc, shardBits] {
                emitAccesses(tc, opts, shardBits);
            });
        }
    };

    // --- Phase D of one chunk: one resolve task per shard. A shard's
    //     line state is dead once the last chunk has resolved.
    auto postResolve = [&](ChunkState &st, WorkDeque::Group &group) {
        for (size_t s = 0; s < numShards; ++s) {
            deque.post(group, [&st, &shardLines, &opts, line_hint, s] {
                resolveShard(st, s, shardLines[s], line_hint, opts);
                if (st.last)
                    shardLines[s].reset();
            });
        }
    };

    // --- Phase E: sweep one segment of a thread's chunk slice. The task
    //     that finishes the slice's last segment stitches all of them in
    //     order and carries the exit cursor to the next chunk.
    auto sweepSegment = [&](ThreadChunk &tc, uint32_t t, size_t s) {
        Segment &sg = tc.segs[s];
        const ReuseSpans rd{{tc.localRd.get(), tc.memLo},
                            {tc.globalRd.get(), tc.memLo}};
        sg.sweep = runSweepSegment(windowCols(tc), sync_views[t], opts,
                                   sg.entry, rd, sg.lo, sg.hi);
        if (tc.unswept.fetch_sub(1) != 1)
            return;
        eCursor[t] = tc.segs.back().sweep.exit;
        for (Segment &done : tc.segs) {
            stitchSweepSegment(profile.threads[t], carried[t],
                               std::move(done.sweep));
        }
    };

    // --- Phase E of one thread's chunk slice. A slice long enough to
    //     split fans out into up to 4 x jobs segments: a dry-run of the
    //     sweep's cursor arithmetic from the carried cursor (1-byte op
    //     column reads, no statistics) pins each segment's entry state,
    //     so the segments sweep concurrently. A shorter slice is one
    //     segment, swept right here.
    auto sweepSlice = [&](ThreadChunk &tc, uint32_t t) {
        tc.buckets = {}; // phase D's input, dead from here on
        const size_t n = tc.recHi - tc.recLo;
        size_t numSegs = 1;
        if (deque.jobs() > 1 && n >= 2 * kMinSegmentRecords) {
            numSegs = std::min<size_t>(size_t{4} * deque.jobs(),
                                       n / kMinSegmentRecords);
        }
        tc.segs.resize(numSegs);
        tc.unswept = numSegs;
        const WindowCols wc = windowCols(tc);
        SweepState cursor = eCursor[t];
        for (size_t s = 0; s < numSegs; ++s) {
            Segment &sg = tc.segs[s];
            sg.lo = tc.recLo + n * s / numSegs;
            sg.hi = tc.recLo + n * (s + 1) / numSegs;
            sg.entry = cursor;
            if (numSegs == 1) {
                sweepSegment(tc, t, s);
            } else {
                deque.post(eGroup, [&sweepSegment, &tc, t, s] {
                    sweepSegment(tc, t, s);
                });
            }
            if (s + 1 < numSegs) {
                advanceSweepCursor(wc, sync_views[t], opts, cursor, sg.lo,
                                   sg.hi);
            }
        }
    };

    auto postSweep = [&](ChunkState &st) {
        for (uint32_t t = 0; t < num_threads; ++t) {
            ThreadChunk &tc = st.threads[t];
            if (tc.recLo != tc.recHi) {
                deque.post(eGroup,
                           [&sweepSlice, &tc, t] { sweepSlice(tc, t); });
            }
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
            // The schedule/scan of chunk k+1 touches only main-thread
            // state, so it runs under C(k)'s bucketing on the workers.
            const bool more = advanceChunk(nxt);
            deque.wait(cGroup[k & 1]);
            if (more)
                postEmit(nxt, cGroup[(k + 1) & 1]);
            postResolve(cur, dGroup);
            deque.wait(dGroup);
            postSweep(cur);
            deque.wait(eGroup);
            cur = ChunkState{}; // release windows, rd arrays, segments
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

    // For a file-backed trace the counts come from the only pass that
    // sees every run record; cross-check them against the declared
    // sparse column lengths (resident traces are validated up front).
    for (uint32_t t = 0; t < num_threads; ++t) {
        RPPM_REQUIRE(memSoFar[t] == src.threads[t].mems,
                     "addr column length does not match memory op count");
        RPPM_REQUIRE(brSoFar[t] == src.threads[t].branches,
                     "taken column length does not match branch count");
        // A thread with no records still owns one (empty) epoch. Its
        // last epoch closes with the thread.
        std::vector<EpochProfile> &epochs = profile.threads[t].epochs;
        if (epochs.empty())
            epochs.emplace_back();
        epochs.back().freeze();
        epochs.shrink_to_fit();
    }

    // --- Phase F: synchronization aggregates (order-independent).
    classifySyncProfile(profile, sync_views);
    return profile;
}

} // namespace

WorkloadProfile
profileWorkload(const ColumnarTrace &trace, const ProfilerOptions &opts)
{
    // Neither jobs nor streamChunkRecords enters the ProfileCache key
    // (study/profile_cache.cc): both are pure execution policy.
    WorkDeque deque(opts.jobs);
    MemorySource src(trace, deque);
    return streamProfile(src, deque, opts, opts.streamChunkRecords);
}

WorkloadProfile
profileWorkloadStreamingFile(const std::string &path,
                             const ProfilerOptions &opts)
{
    WorkDeque deque(opts.jobs);
    FileSource src(path);
    return streamProfile(src, deque, opts,
                         opts.streamChunkRecords > 0 ?
                             opts.streamChunkRecords :
                             kDefaultStreamChunkRecords);
}

} // namespace rppm
