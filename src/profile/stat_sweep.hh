/**
 * @file
 * The profiler engine's statistics sweep, phase E of profiler_stream.cc
 * (internal).
 *
 * The per-record statistics loop — instruction mix, dependence
 * distances, instruction-stream reuse, micro-trace sampling, branch
 * entropy, load gaps, pointer-chase detection — exists exactly once,
 * here. The engine resolves memory reuse distances ahead of the sweep
 * (its phase D) and hands them in as ReuseSpans.
 *
 * The sweep is *segmented*: a thread's record range is split at
 * arbitrary record boundaries, each segment is swept independently from
 * a carried cursor (SweepState), and a cheap sequential stitch per
 * thread resolves the two pieces of state that cross segment boundaries
 * — instruction-reuse first touches (deferred as pendings against the
 * thread's long-lived InstrLineMap) and micro-trace windows left open at
 * the boundary. Stitching is exact, not approximate: histogram adds
 * commute, so resolving a first touch after the fact produces the same
 * buckets an unsegmented sweep would have. The engine carries the
 * cursor across chunks, and splits a long chunk slice into segments to
 * scale phase E past the workload's thread count.
 */

#ifndef RPPM_PROFILE_STAT_SWEEP_HH
#define RPPM_PROFILE_STAT_SWEEP_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <set>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assert.hh"
#include "profile/epoch_profile.hh"
#include "profile/profiler.hh"
#include "profile/reuse_tables.hh"
#include "trace/columnar.hh"

namespace rppm {

/** Ring size for load->load dependence detection. */
constexpr size_t kSweepRecentOps = 512;

/**
 * The sweep's complete scalar cursor at a record boundary. Copying this
 * struct at position i and resuming from the copy reproduces the exact
 * statistics the uninterrupted sweep would emit from i on — that is the
 * whole carried-state handoff contract of segmented and chunked sweeps.
 * All cursors are absolute (indices into the thread's full columns);
 * chunk windows translate via OffsetSpan, not by resetting cursors.
 */
struct SweepState
{
    size_t memIdx = 0;  ///< next entry in the sparse addr column
    size_t brIdx = 0;   ///< next entry in the sparse taken column
    size_t syncIdx = 0; ///< next entry in the sparse sync columns
    uint64_t instrSeq = 0;
    uint64_t opsInEpoch = 0;
    uint64_t opsSinceLastLoad = 0;
    uint64_t nextMicroTraceAt = 0;
    uint64_t microTraceRemaining = 0;
    uint64_t emitted = 0;
    /** Recent op classes, indexed by absolute emitted % kSweepRecentOps.
     *  OpClass::IntAlu is 0, so zero-init is the required fill. */
    std::array<OpClass, kSweepRecentOps> recentOps{};
};

/** Read-only view of one thread's sparse sync columns. */
struct SyncView
{
    const uint64_t *pos = nullptr;
    const SyncType *type = nullptr;
    const uint32_t *arg = nullptr;
    size_t count = 0;
    size_t numRecords = 0; ///< sentinel when no sync events remain

    size_t
    next(size_t syncIdx) const
    {
        return syncIdx < count ? static_cast<size_t>(pos[syncIdx]) :
                                 numRecords;
    }
};

inline SyncView
syncView(const ThreadColumns &cols)
{
    return SyncView{cols.syncPos.data(), cols.syncType.data(),
                    cols.syncArg.data(), cols.syncPos.size(),
                    cols.numRecords()};
}

/**
 * A pointer that answers absolute record indices for a mapped window:
 * span[i] reads element i - base of the underlying slice. Lets chunk
 * windows keep every SweepState cursor absolute.
 */
template <typename T>
struct OffsetSpan
{
    const T *p = nullptr;
    size_t base = 0;

    const T &operator[](size_t i) const { return p[i - base]; }
};

/** Column bundle for windowed sweeps (one chunk slice). */
struct WindowCols
{
    OffsetSpan<OpClass> op;
    OffsetSpan<uint32_t> pc;
    OffsetSpan<uint16_t> dep1;
    OffsetSpan<uint16_t> dep2;
    OffsetSpan<uint8_t> taken;
};

/** Pre-resolved reuse distances of one thread's memory accesses (the
 *  engine's phase D output), indexed by absolute sparse addr index. */
struct ReuseSpans
{
    OffsetSpan<uint64_t> local;
    OffsetSpan<uint64_t> global;
};

/** An instruction line first fetched inside a segment: whether the fetch
 *  was cold or a reuse of an earlier segment's fetch is only decidable
 *  at stitch time, against the thread's carried InstrLineMap. */
struct InstrPending
{
    uint64_t line;
    uint64_t seq;   ///< instrSeq at the touch
    uint32_t epoch; ///< index into the segment's epoch vector
};

/** Result of sweeping one segment independently of its predecessors. */
struct SegmentSweep
{
    /** Partial epochs; the first continues whatever epoch was open at
     *  the segment boundary (possibly a brand-new empty one). */
    std::vector<EpochProfile> epochs;
    std::vector<InstrPending> pendings;
    /** Segment-local line -> last fetch seq (exported to the carried
     *  map at stitch; its key set is exactly the pendings' lines). */
    SeqTable instr{size_t{1} << 8};
    /** Entry cursor had an open micro-trace window: the segment's first
     *  micro-trace extends the thread's currently open one. */
    bool firstTraceContinues = false;
    /** Cursor after the segment (carried into the next chunk). */
    SweepState exit;
};

/**
 * One run of pure micro-ops [start, end) of one thread — no sync records
 * inside, so the epoch reference is stable. This is THE per-record
 * statistics loop: a field-for-field port of the legacy per-record
 * process_op, fissioned into tight per-column loops (each statistic is a
 * histogram or counter whose content depends only on per-component
 * order, which each loop preserves).
 *
 * @param cols column bundle: cols.op/pc/dep1/dep2 indexed by absolute
 *             record index, cols.taken by ts.brIdx
 * @param rd   pre-resolved reuse distances, indexed by ts.memIdx
 * @param ts   carried cursor (advanced in place)
 * @param seg  the segment being swept: its last epoch receives the
 *             statistics, and instruction lines first fetched in the
 *             segment become pendings for the stitcher
 */
inline void
sweepRun(const WindowCols &cols, const ProfilerOptions &opts, ReuseSpans rd,
         SweepState &ts, SegmentSweep &seg, size_t start, size_t end)
{
    EpochProfile &ep = seg.epochs.back();
    const uint32_t epochIdx = static_cast<uint32_t>(seg.epochs.size() - 1);

    // --- Instruction mix (op column only).
    {
        std::array<uint64_t, kNumOpClasses> mix_local{};
        for (size_t i = start; i < end; ++i)
            ++mix_local[static_cast<size_t>(cols.op[i])];
        for (size_t c = 0; c < kNumOpClasses; ++c)
            ep.mix[c] += mix_local[c];
        ep.numOps += end - start;
    }

    // --- Dependence distances (dep columns) and instruction-stream
    //     reuse distance at line granularity (pc column).
    for (size_t i = start; i < end; ++i) {
        if (cols.dep1[i])
            ep.depDist.add(cols.dep1[i]);
        if (cols.dep2[i])
            ep.depDist.add(cols.dep2[i]);

        const uint64_t pc_line = cols.pc[i] / opts.lineBytes;
        ++ts.instrSeq;
        bool inserted = false;
        uint64_t &last_fetch = seg.instr.lookup(pc_line, inserted);
        if (!inserted) {
            ep.instrRd.add(ts.instrSeq - last_fetch - 1);
        } else {
            // Cold, or a reuse of an earlier segment's fetch: only the
            // stitcher can tell.
            seg.pendings.push_back(
                InstrPending{pc_line, ts.instrSeq, epochIdx});
        }
        last_fetch = ts.instrSeq;
    }

    // --- Stateful sweep: micro-trace sampling windows, memory /
    //     StatStack reuse distances, branches, MLP statistics.
    //     Specialized on whether any op of this run can fall inside a
    //     sampling window: when none can (the common case — the windows
    //     cover ~10% of the stream), the per-op sampling checks and the
    //     micro-trace push vanish from the loop.
    auto stateful = [&](auto sampling_tag, size_t s_begin, size_t s_end) {
        constexpr bool kSampling = decltype(sampling_tag)::value;
    for (size_t i = s_begin; i < s_end; ++i) {
        const OpClass op = cols.op[i];

        // Micro-trace sampling policy: a snippet at each epoch start and
        // then one every microTraceInterval ops.
        if (kSampling && ts.microTraceRemaining == 0 &&
            ts.opsInEpoch >= ts.nextMicroTraceAt) {
            // No up-front reserve: epochs delimited by frequent sync
            // (critical-section-heavy workloads) truncate most snippets
            // after a handful of ops, so geometric growth wastes less
            // than reserving the full snippet would.
            ep.microTraces.emplace_back();
            ts.microTraceRemaining = opts.microTraceLength;
            ts.nextMicroTraceAt = ts.opsInEpoch + opts.microTraceInterval;
        }

        uint64_t local_rd = LogHistogram::kInfinity;
        uint64_t global_rd = LogHistogram::kInfinity;

        if (isMemory(op)) {
            const bool is_store = op == OpClass::Store;
            local_rd = rd.local[ts.memIdx];
            global_rd = rd.global[ts.memIdx];
            ++ts.memIdx;

            ep.localRd.add(local_rd);
            ep.globalRd.add(global_rd);
            if (!is_store) {
                ep.loadLocalRd.add(local_rd);
                ep.loadGlobalRd.add(global_rd);
            }

            if (is_store) {
                ++ep.numStores;
            } else {
                ++ep.numLoads;
                ep.loadGap.add(ts.opsSinceLastLoad);
                ts.opsSinceLastLoad = 0;
                // Pointer-chase detection: does a source operand name a
                // load among the recent ops?
                auto dep_is_load = [&](uint16_t dep) {
                    if (dep == 0 || dep > ts.emitted ||
                        dep >= kSweepRecentOps) {
                        return false;
                    }
                    return ts.recentOps[(ts.emitted - dep) %
                                        kSweepRecentOps] == OpClass::Load;
                };
                if (dep_is_load(cols.dep1[i]) ||
                    dep_is_load(cols.dep2[i])) {
                    ++ep.loadsDependingOnLoad;
                }
            }
        }

        if (op == OpClass::Branch) {
            ++ep.numBranches;
            ep.branches.record(cols.pc[i], cols.taken[ts.brIdx++] != 0);
        }

        if (kSampling && ts.microTraceRemaining > 0) {
            MicroTraceOp mop;
            mop.op = op;
            mop.dep1 = cols.dep1[i];
            mop.dep2 = cols.dep2[i];
            mop.localRd = local_rd;
            mop.globalRd = global_rd;
            ep.microTraces.back().ops.push_back(mop);
            --ts.microTraceRemaining;
        }

        ts.recentOps[ts.emitted % kSweepRecentOps] = op;
        ++ts.emitted;
        ++ts.opsInEpoch;
        if (!isMemory(op) || op == OpClass::Store)
            ++ts.opsSinceLastLoad;
    }
    };

    // A run is sampling-free iff no window is open and the window
    // trigger (opsInEpoch >= nextMicroTraceAt) cannot fire for any op in
    // it.
    if (ts.microTraceRemaining == 0 &&
        ts.opsInEpoch + (end - start) <= ts.nextMicroTraceAt) {
        stateful(std::false_type{}, start, end);
    } else {
        stateful(std::true_type{}, start, end);
    }
}

/**
 * Advance @p ts across records [lo, hi) exactly as the sweep would —
 * same sampling-window state machine, same epoch resets, same cursor
 * arithmetic — without emitting any statistics. O(records) over the
 * 1-byte op column; this is how segment entry cursors are computed.
 */
inline void
advanceSweepCursor(const WindowCols &cols, const SyncView &sync,
                   const ProfilerOptions &opts, SweepState &ts, size_t lo,
                   size_t hi)
{
    size_t i = lo;
    while (i < hi) {
        const size_t next_sync = sync.next(ts.syncIdx);
        if (i == next_sync) {
            const SyncType type = sync.type[ts.syncIdx];
            ++ts.syncIdx;
            ++i;
            if (type == SyncType::CondMarker)
                continue; // markers do not delineate epochs
            ts.opsInEpoch = 0;
            ts.nextMicroTraceAt = 0;
            ts.microTraceRemaining = 0;
            continue;
        }
        const size_t run_end = std::min(next_sync, hi);
        for (; i < run_end; ++i) {
            const OpClass op = cols.op[i];
            if (ts.microTraceRemaining == 0 &&
                ts.opsInEpoch >= ts.nextMicroTraceAt) {
                ts.microTraceRemaining = opts.microTraceLength;
                ts.nextMicroTraceAt =
                    ts.opsInEpoch + opts.microTraceInterval;
            }
            if (isMemory(op)) {
                ++ts.memIdx;
                if (op == OpClass::Load)
                    ts.opsSinceLastLoad = 0;
            } else if (op == OpClass::Branch) {
                ++ts.brIdx;
            }
            if (ts.microTraceRemaining > 0)
                --ts.microTraceRemaining;
            ts.recentOps[ts.emitted % kSweepRecentOps] = op;
            ++ts.emitted;
            ++ts.instrSeq;
            ++ts.opsInEpoch;
            if (!isMemory(op) || op == OpClass::Store)
                ++ts.opsSinceLastLoad;
        }
    }
}

/**
 * Sweep records [lo, hi) of one thread from entry cursor @p entry.
 * Pure function of (columns, options, entry, rd): segments can run on
 * any worker in any order.
 */
inline SegmentSweep
runSweepSegment(const WindowCols &cols, const SyncView &sync,
                const ProfilerOptions &opts, const SweepState &entry,
                ReuseSpans rd, size_t lo, size_t hi)
{
    SegmentSweep seg;
    SweepState ts = entry;
    seg.firstTraceContinues = ts.microTraceRemaining > 0;
    seg.epochs.emplace_back();
    // Continuation ops must land in "the open micro-trace", which lives
    // in an earlier segment; give them a local trace the stitcher will
    // splice onto it.
    if (seg.firstTraceContinues)
        seg.epochs.back().microTraces.emplace_back();

    size_t i = lo;
    while (i < hi) {
        const size_t next_sync = sync.next(ts.syncIdx);
        if (i == next_sync) {
            const SyncType type = sync.type[ts.syncIdx];
            const uint32_t arg = sync.arg[ts.syncIdx];
            // File-backed chunks skip whole-column validation; re-assert
            // the sync-slot neutrality invariant the sweep relies on
            // here, where it costs O(#sync) instead of O(records).
            RPPM_REQUIRE(cols.op[i] == OpClass::IntAlu &&
                             cols.pc[i] == 0 && cols.dep1[i] == 0 &&
                             cols.dep2[i] == 0,
                         "sync slot carries micro-op data");
            ++ts.syncIdx;
            ++i;
            if (type == SyncType::CondMarker)
                continue; // markers do not delineate epochs
            seg.epochs.back().endType = type;
            seg.epochs.back().endArg = arg;
            seg.epochs.emplace_back();
            ts.opsInEpoch = 0;
            ts.nextMicroTraceAt = 0;
            ts.microTraceRemaining = 0;
            continue;
        }
        // The whole run up to the next sync event (or segment end):
        // quantum boundaries only order the global interleaving, which
        // the pre-resolved reuse distances have already absorbed.
        const size_t run_end = std::min(next_sync, hi);
        sweepRun(cols, opts, rd, ts, seg, i, run_end);
        i = run_end;
    }
    seg.exit = ts;
    return seg;
}

/** Merge a segment's first (partial) epoch into the thread's currently
 *  open epoch. Every constituent merge is exact: counters add,
 *  histograms add bucket-wise, branch tables add per-PC counts. */
inline void
mergeEpochInto(EpochProfile &open, EpochProfile &first,
               bool firstTraceContinues)
{
    open.numOps += first.numOps;
    open.numLoads += first.numLoads;
    open.numStores += first.numStores;
    open.numBranches += first.numBranches;
    open.loadsDependingOnLoad += first.loadsDependingOnLoad;
    for (size_t c = 0; c < kNumOpClasses; ++c)
        open.mix[c] += first.mix[c];
    open.depDist.merge(first.depDist);
    open.localRd.merge(first.localRd);
    open.globalRd.merge(first.globalRd);
    open.loadLocalRd.merge(first.loadLocalRd);
    open.loadGlobalRd.merge(first.loadGlobalRd);
    open.instrRd.merge(first.instrRd);
    open.loadGap.merge(first.loadGap);
    open.branches.merge(first.branches);

    size_t m0 = 0;
    if (firstTraceContinues && !first.microTraces.empty()) {
        RPPM_ASSERT(!open.microTraces.empty());
        std::vector<MicroTraceOp> &dst = open.microTraces.back().ops;
        const std::vector<MicroTraceOp> &src = first.microTraces[0].ops;
        dst.insert(dst.end(), src.begin(), src.end());
        m0 = 1;
    }
    for (size_t m = m0; m < first.microTraces.size(); ++m)
        open.microTraces.push_back(std::move(first.microTraces[m]));

    // Whichever segment closes the epoch sets these; until then both
    // sides hold the open-epoch default (None, 0).
    open.endType = first.endType;
    open.endArg = first.endArg;
}

/**
 * Stitch one segment into the thread's profile, in segment order:
 * resolve the deferred instruction first touches against the thread's
 * carried map, roll the segment's fetches into it, then splice the
 * partial epochs. Sequential per thread (different threads stitch
 * concurrently); cost is O(pendings + epochs), not O(records).
 */
inline void
stitchSweepSegment(ThreadProfile &tp, InstrLineMap &carried,
                   SegmentSweep &&seg)
{
    for (const InstrPending &p : seg.pendings) {
        bool fresh = false;
        const uint64_t last = carried.lookup(p.line, fresh);
        EpochProfile &ep = seg.epochs[p.epoch];
        if (!fresh) {
            // An earlier segment fetched this line: the distance the
            // sequential sweep would have recorded at this very op.
            ep.instrRd.add(p.seq - last - 1);
        } else {
            ep.instrRd.add(LogHistogram::kInfinity);
        }
    }
    // Export the segment's final fetch sequence per line. Every line the
    // segment touched appears in pendings exactly once (its first
    // touch), so pendings double as the export's key list — including
    // any slot the resolution loop above may have freshly inserted.
    for (const InstrPending &p : seg.pendings) {
        bool ignored = false;
        const uint64_t last = seg.instr.lookup(p.line, ignored);
        carried.lookup(p.line, ignored) = last;
    }

    if (tp.epochs.empty())
        tp.epochs.emplace_back();
    mergeEpochInto(tp.epochs.back(), seg.epochs[0],
                   seg.firstTraceContinues);
    for (size_t e = 1; e < seg.epochs.size(); ++e)
        tp.epochs.push_back(std::move(seg.epochs[e]));
}

/**
 * Phase F of the engine: synchronization counts and condvar
 * classification from the sparse sync columns (order-independent
 * aggregates, paper Sec. III-B).
 */
inline void
classifySyncProfile(WorkloadProfile &profile,
                    const std::vector<SyncView> &sync)
{
    std::unordered_map<uint32_t, std::set<uint32_t>> cond_waiters;
    std::unordered_map<uint32_t, std::set<uint32_t>> cond_releasers;
    for (uint32_t t = 0; t < sync.size(); ++t) {
        const SyncView &sv = sync[t];
        for (size_t k = 0; k < sv.count; ++k) {
            const uint32_t arg = sv.arg[k];
            switch (sv.type[k]) {
              case SyncType::MutexLock:
                ++profile.syncCounts.criticalSections;
                break;
              case SyncType::BarrierWait:
                ++profile.syncCounts.barriers;
                break;
              case SyncType::CondBarrier:
                ++profile.syncCounts.condVars;
                cond_waiters[arg].insert(t);
                cond_releasers[arg].insert(t);
                break;
              case SyncType::QueuePop:
                ++profile.syncCounts.condVars;
                cond_waiters[arg].insert(t);
                break;
              case SyncType::QueuePush:
                ++profile.syncCounts.condVars;
                cond_releasers[arg].insert(t);
                break;
              case SyncType::CondMarker:
                // Source marker: the thread *could* wait here.
                cond_waiters[arg];
                break;
              default:
                break;
            }
        }
    }
    // Classify condvar-backed objects: symmetric waiter/releaser sets
    // mean a barrier; disjoint sets mean producer-consumer.
    // rppm-lint: ordered-ok(distinct condVarClasses key per id)
    for (const auto &[id, waiters] : cond_waiters) {
        const auto rel_it = cond_releasers.find(id);
        std::set<uint32_t> releasers =
            rel_it == cond_releasers.end() ? std::set<uint32_t>{} :
            rel_it->second;
        const bool symmetric = !waiters.empty() && waiters == releasers;
        profile.condVarClasses[id] = symmetric ?
            CondVarClass::BarrierLike : CondVarClass::ProducerConsumer;
    }
}

} // namespace rppm

#endif // RPPM_PROFILE_STAT_SWEEP_HH
