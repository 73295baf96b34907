#include "rppm/ilp_model.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/assert.hh"
#include "rppm/memory_model.hh"

namespace rppm {

namespace {

/**
 * Scratch space of one lockstep replay call: one uninitialised buffer
 * sized for the longest micro-trace. Every row holds one double per
 * lane ([row * Lanes + lane]), so a lane's state never shares a slot
 * with another lane's.
 *
 *  - completion: row 0 is a sentinel of zeros read by ops without a
 *    dependence (max(ready, 0.0) == ready); op i lives in row i + 1.
 *  - issue, retire, lat: row i is op i. Written before they are read.
 *  - mshr: one row per MSHR plus a sentinel row that non-loads read
 *    (0.0, so max(at, 0.0) == at) and rewrite with 0.0.
 *  - fu: every op class gets maxUnits rows; rows past the class's unit
 *    count hold +inf so the earliest-free search never picks them.
 */
template <size_t Lanes>
class LaneScratch
{
  public:
    LaneScratch(const CoreConfig &core, size_t max_ops)
        : mshrs_(std::max<uint32_t>(core.mshrs, 1))
    {
        for (size_t c = 0; c < kNumOpClasses; ++c) {
            fuCount_[c] = std::max<uint32_t>(core.fus[c].count, 1);
            maxUnits_ = std::max(maxUnits_, fuCount_[c]);
        }
        const size_t rows = (4 * max_ops + 1) + (mshrs_ + 1) +
            kNumOpClasses * maxUnits_;
        buf_.reset(new double[rows * Lanes]);
        completion = buf_.get();
        issue = completion + (max_ops + 1) * Lanes;
        retire = issue + max_ops * Lanes;
        lat = retire + max_ops * Lanes;
        mshr = lat + max_ops * Lanes;
        fu = mshr + (mshrs_ + 1) * Lanes;
        std::fill(completion, completion + Lanes, 0.0);
    }

    /** Free every MSHR and functional unit at cycle 0. */
    void
    reset()
    {
        std::fill(mshr, mshr + (mshrs_ + 1) * Lanes, 0.0);
        for (size_t c = 0; c < kNumOpClasses; ++c) {
            double *rows = fu + c * maxUnits_ * Lanes;
            std::fill(rows, rows + fuCount_[c] * Lanes, 0.0);
            std::fill(rows + fuCount_[c] * Lanes, rows + maxUnits_ * Lanes,
                      std::numeric_limits<double>::infinity());
        }
    }

    size_t mshrs() const { return mshrs_; }
    size_t maxUnits() const { return maxUnits_; }

    double *completion;
    double *issue;
    double *retire;
    double *lat;
    double *mshr;
    double *fu;

  private:
    size_t mshrs_;
    size_t maxUnits_ = 1;
    std::array<size_t, kNumOpClasses> fuCount_{};
    std::unique_ptr<double[]> buf_;
};

/**
 * The replay loop: idealized instruction-window replay of @p mt, once
 * per lane, in lockstep. Same structural constraints as the simulator
 * core (width, ROB, IQ, dependences, FU contention, MSHRs) but with
 * perfect branch prediction and I-cache, and statistical memory
 * latencies. The achieved IPC is the epoch's effective dispatch rate.
 *
 * @p latency(i, op, lat) fills lat[lane] for memory op i; it runs for
 * every memory op before the replay. Everything a lane reads or writes is its
 * own except the op stream and the load and branch counts, which do not
 * depend on timing. The lane body selects rather than branches on the
 * op's class (adding +0.0 or taking max with 0.0 leaves a value
 * unchanged), so the sums and cycles are those of the branching form.
 */
template <size_t Lanes, typename Lane, typename Latency>
void
replayLanes(const MicroTrace &mt, const CoreConfig &core,
            const std::array<Lane, Lanes> &lanes, Latency &&latency,
            LaneScratch<Lanes> &s, std::array<IlpResult, Lanes> &out)
{
    out.fill(IlpResult());
    const size_t n = mt.ops.size();
    if (n == 0)
        return;
    s.reset();

    for (size_t i = 0; i < n; ++i) {
        const MicroTraceOp &op = mt.ops[i];
        double *const row = s.lat + i * Lanes;
        if (isMemory(op.op)) {
            latency(i, op, row);
        } else {
            std::fill(row, row + Lanes,
                      static_cast<double>(
                          core.fus[static_cast<size_t>(op.op)].latency));
        }
    }

    std::array<double, Lanes> fetch_stall, miss_rate;
    for (size_t k = 0; k < Lanes; ++k) {
        fetch_stall[k] = lanes[k].fetchStallPerOp;
        miss_rate[k] = lanes[k].branchMissRate;
    }
    std::array<double, Lanes> dispatch_cycle{};
    std::array<uint32_t, Lanes> dispatched{};
    std::array<double, Lanes> last_retire{};
    std::array<double, Lanes> branch_res_sum{};
    std::array<double, Lanes> branch_pen_sum{};
    std::array<double, Lanes> flush_accum{};
    uint64_t branch_count = 0;
    size_t mshr_slot = 0; // loads so far, modulo the MSHR count
    const double frontend = static_cast<double>(core.frontendDepth);
    const size_t max_units = s.maxUnits();

    for (size_t i = 0; i < n; ++i) {
        const MicroTraceOp &op = mt.ops[i];
        const size_t cls = static_cast<size_t>(op.op);
        const bool is_load = op.op == OpClass::Load;
        const bool is_branch = op.op == OpClass::Branch;
        const bool rob_full = i >= core.robSize;
        const bool iq_full = i >= core.issueQueueSize;
        const double *const rob_row =
            rob_full ? s.retire + (i - core.robSize) * Lanes : nullptr;
        const double *const iq_row =
            iq_full ? s.issue + (i - core.issueQueueSize) * Lanes : nullptr;
        // dep in [1, i] names an earlier op; 0 or past the trace start
        // reads the zero sentinel row.
        const size_t dep1 = op.dep1, dep2 = op.dep2;
        const double *const dep1_row = s.completion +
            (dep1 - 1 < i ? i + 1 - dep1 : 0) * Lanes;
        const double *const dep2_row = s.completion +
            (dep2 - 1 < i ? i + 1 - dep2 : 0) * Lanes;
        const double *const lat = s.lat + i * Lanes;
        double *const fus = s.fu + cls * max_units * Lanes;
        double *const mshr =
            s.mshr + (is_load ? mshr_slot : s.mshrs()) * Lanes;
        const double interval = static_cast<double>(core.fus[cls].interval);
        double *const completion = s.completion + (i + 1) * Lanes;
        double *const issue = s.issue + i * Lanes;
        double *const retire = s.retire + i * Lanes;

        for (size_t k = 0; k < Lanes; ++k) {
            // Expected I-cache stall delays the in-order front end.
            double dc = dispatch_cycle[k] + fetch_stall[k];

            double earliest = 0.0;
            if (rob_full)
                earliest = std::max(earliest, rob_row[k]);
            if (iq_full)
                earliest = std::max(earliest, iq_row[k]);
            earliest = std::ceil(earliest);

            const bool stall = earliest > dc;
            dc = stall ? earliest : dc;
            const uint32_t used = stall ? 0 : dispatched[k];
            const bool width_full = used >= core.dispatchWidth;
            dc += width_full ? 1.0 : 0.0;
            uint32_t slots = width_full ? 1 : used + 1;
            const double dispatch = dc;

            double ready = dispatch + 1.0;
            ready = std::max(ready, dep1_row[k]);
            ready = std::max(ready, dep2_row[k]);

            // Earliest-free unit of the class (first on ties).
            double *unit = fus + k;
            for (size_t u = 1; u < max_units; ++u) {
                double *const cand = fus + u * Lanes + k;
                unit = *cand < *unit ? cand : unit;
            }
            double at = std::max(ready, *unit);

            // MSHR constraint: a load cannot issue before the MSHR ring
            // has a free slot, bounding memory-level parallelism the
            // same way the simulator core does.
            at = std::max(at, mshr[k]);
            mshr[k] = is_load ? at + lat[k] : 0.0;
            *unit = at + interval;

            const double done = at + lat[k];
            completion[k] = done;
            issue[k] = at;

            // Branch statistics. If this branch were mispredicted, the
            // front end would restart at completion + refill; only the
            // part beyond the back-end frontier (what has retired so
            // far) is lost time.
            branch_res_sum[k] += is_branch ? done - dispatch : 0.0;
            branch_pen_sum[k] += is_branch ?
                std::max(0.0, done + frontend - last_retire[k]) : 0.0;
            // Flush emulation: mispredict every (1/rate)-th branch. The
            // redirect stalls dispatch until the branch resolves plus
            // the refill, and the window naturally pays the ramp-up.
            flush_accum[k] += is_branch ? miss_rate[k] : 0.0;
            const bool flush = is_branch && flush_accum[k] >= 1.0;
            flush_accum[k] -= flush ? 1.0 : 0.0;
            const double redirect = done + frontend;
            const bool redirected = flush && redirect > dc;
            dispatch_cycle[k] = redirected ? redirect : dc;
            dispatched[k] = redirected ? 0 : slots;

            last_retire[k] = std::max(last_retire[k], done);
            retire[k] = last_retire[k];
        }
        if (is_load)
            mshr_slot = mshr_slot + 1 == s.mshrs() ? 0 : mshr_slot + 1;
        branch_count += is_branch;
    }

    const double width = static_cast<double>(core.dispatchWidth);
    for (size_t k = 0; k < Lanes; ++k) {
        IlpResult &result = out[k];
        result.ipc = last_retire[k] > 0.0 ?
            static_cast<double>(n) / last_retire[k] : width;
        result.ipc = std::min(result.ipc, width);
        if (branch_count > 0) {
            result.branchResolution =
                branch_res_sum[k] / static_cast<double>(branch_count);
            result.branchPenalty =
                branch_pen_sum[k] / static_cast<double>(branch_count);
        }
    }
}

/** Micro-op-weighted fold of per-trace results into epoch results. */
template <size_t Lanes>
class EpochFold
{
  public:
    void
    add(size_t ops, const std::array<IlpResult, Lanes> &r)
    {
        for (size_t k = 0; k < Lanes; ++k) {
            weightedCycles_[k] += static_cast<double>(ops) / r[k].ipc;
            if (r[k].branchResolution > 0.0) {
                branchResSum_[k] += r[k].branchResolution;
                branchPenSum_[k] += r[k].branchPenalty;
                ++tracesWithBranches_[k];
            }
        }
        ops_ += ops;
    }

    std::array<IlpResult, Lanes>
    result(const CoreConfig &core) const
    {
        std::array<IlpResult, Lanes> out;
        for (size_t k = 0; k < Lanes; ++k) {
            IlpResult &result = out[k];
            if (ops_ == 0) {
                // No samples (empty epoch): fall back to the front-end
                // width — the epoch contributes ~zero cycles anyway.
                result.ipc = static_cast<double>(core.dispatchWidth);
                result.branchResolution =
                    static_cast<double>(core.frontendDepth);
                continue;
            }
            result.ipc = static_cast<double>(ops_) / weightedCycles_[k];
            if (tracesWithBranches_[k] > 0) {
                result.branchResolution = branchResSum_[k] /
                    static_cast<double>(tracesWithBranches_[k]);
                result.branchPenalty = branchPenSum_[k] /
                    static_cast<double>(tracesWithBranches_[k]);
            }
        }
        return out;
    }

  private:
    std::array<double, Lanes> weightedCycles_{};
    std::array<double, Lanes> branchResSum_{};
    std::array<double, Lanes> branchPenSum_{};
    std::array<uint64_t, Lanes> tracesWithBranches_{};
    uint64_t ops_ = 0;
};

size_t
maxTraceOps(const EpochProfile &epoch)
{
    size_t max_ops = 0;
    for (const MicroTrace &mt : epoch.microTraces)
        max_ops = std::max(max_ops, mt.ops.size());
    return max_ops;
}

/** Replay @p mt with caller-supplied latencies, evaluated once per
 *  memory op before the replay. */
template <size_t Lanes>
void
replayWithFns(const MicroTrace &mt, const CoreConfig &core,
              const std::array<LatencyLane, Lanes> &lanes,
              LaneScratch<Lanes> &s, std::array<IlpResult, Lanes> &out)
{
    replayLanes(
        mt, core, lanes,
        [&lanes](size_t, const MicroTraceOp &op, double *lat) {
            for (size_t k = 0; k < Lanes; ++k)
                lat[k] = lanes[k].memLatency(op);
        },
        s, out);
}

} // namespace

template <size_t Lanes>
std::array<IlpResult, Lanes>
replayMicroTrace(const MicroTrace &mt, const CoreConfig &core,
                 const std::array<LatencyLane, Lanes> &lanes)
{
    LaneScratch<Lanes> scratch(core, mt.ops.size());
    std::array<IlpResult, Lanes> out;
    replayWithFns<Lanes>(mt, core, lanes, scratch, out);
    return out;
}

template std::array<IlpResult, 1>
replayMicroTrace<1>(const MicroTrace &, const CoreConfig &,
                    const std::array<LatencyLane, 1> &);
template std::array<IlpResult, 5>
replayMicroTrace<5>(const MicroTrace &, const CoreConfig &,
                    const std::array<LatencyLane, 5> &);

IlpResult
replayMicroTrace(const MicroTrace &mt, const CoreConfig &core,
                 const LoadLatencyFn &mem_latency,
                 double fetch_stall_per_op, double branch_miss_rate)
{
    return replayMicroTrace<1>(
        mt, core, {{{mem_latency, fetch_stall_per_op, branch_miss_rate}}})[0];
}

IlpResult
epochIlp(const EpochProfile &epoch, const CoreConfig &core,
         const LoadLatencyFn &mem_latency, double fetch_stall_per_op,
         double branch_miss_rate)
{
    const std::array<LatencyLane, 1> lanes{
        {{mem_latency, fetch_stall_per_op, branch_miss_rate}}};
    LaneScratch<1> scratch(core, maxTraceOps(epoch));
    EpochFold<1> fold;
    std::array<IlpResult, 1> r;
    for (const MicroTrace &mt : epoch.microTraces) {
        if (mt.ops.empty())
            continue;
        replayWithFns<1>(mt, core, lanes, scratch, r);
        fold.add(mt.ops.size(), r);
    }
    return fold.result(core)[0];
}

template <size_t Lanes>
std::array<IlpResult, Lanes>
epochIlp(const EpochProfile &epoch, const CoreConfig &core,
         const EpochMemoryModel &mem,
         const std::array<ReplayLane, Lanes> &lanes)
{
    const double store = mem.storeLatency();
    // The loads' stack distances, consumed in trace and op order: the
    // replay asks for each memory op's latency once, in op order.
    const std::vector<EpochStacks::OpSd> &micro_sd = mem.microSd();
    const EpochStacks::OpSd *sd = micro_sd.data();

    LaneScratch<Lanes> scratch(core, maxTraceOps(epoch));
    EpochFold<Lanes> fold;
    std::array<IlpResult, Lanes> r;
    for (const MicroTrace &mt : epoch.microTraces) {
        if (mt.ops.empty())
            continue;
        replayLanes(
            mt, core, lanes,
            [&](size_t, const MicroTraceOp &op, double *lat) {
                if (op.op == OpClass::Store) {
                    std::fill(lat, lat + Lanes, store);
                    return;
                }
                const EpochMemoryModel::LoadPrices p =
                    mem.loadPrices(*sd++);
                for (size_t k = 0; k < Lanes; ++k) {
                    switch (lanes[k].pricing) {
                    case LoadPricing::L1Only: lat[k] = p.l1Only; break;
                    case LoadPricing::HitPath: lat[k] = p.hit; break;
                    case LoadPricing::Full: lat[k] = p.full; break;
                    }
                }
            },
            scratch, r);
        fold.add(mt.ops.size(), r);
    }
    RPPM_ASSERT(sd == micro_sd.data() + micro_sd.size());
    return fold.result(core);
}

template std::array<IlpResult, 1>
epochIlp<1>(const EpochProfile &, const CoreConfig &,
            const EpochMemoryModel &, const std::array<ReplayLane, 1> &);
template std::array<IlpResult, 5>
epochIlp<5>(const EpochProfile &, const CoreConfig &,
            const EpochMemoryModel &, const std::array<ReplayLane, 5> &);

} // namespace rppm
