#include "rppm/thread_model.hh"

#include <algorithm>
#include <utility>

#include "rppm/branch_model.hh"
#include "rppm/ilp_model.hh"
#include "rppm/memory_model.hh"
#include "rppm/mlp_model.hh"

namespace rppm {

namespace {

/**
 * Shared-bus queueing inflation for the DRAM component. With
 * memBusCycles > 0, every core's misses compete for one bus; assuming
 * symmetric threads, the per-epoch DRAM stall grows by the expected
 * M/D/1 waiting time per transfer.
 *
 * @param misses predicted DRAM transfers in this epoch
 * @param cycles predicted epoch length (for the arrival rate)
 */
double
busAdjustedDram(const MulticoreConfig &cfg, const CoreConfig &core,
                double misses, double cycles, double dram_cycles)
{
    if (cfg.memBusCycles == 0 || misses <= 0.0 || cycles <= 0.0)
        return dram_cycles;
    // memBusCycles is defined on the reference (core 0) clock; this
    // epoch's quantities are in @p core's own cycles, so convert the
    // service time (exact /1.0 on a homogeneous machine).
    const double service = static_cast<double>(cfg.memBusCycles) /
        (cfg.referenceGHz() / core.frequencyGHz);
    const double cores = static_cast<double>(cfg.numCores());

    // Light/moderate load: M/D/1 queueing delay per transfer.
    const double rho = std::min(0.95, misses / cycles * cores * service);
    const double wait = 0.5 * service * rho / (1.0 - rho);
    const double inflated = dram_cycles *
        (1.0 + wait / static_cast<double>(core.memLatency));

    // Saturation: the bus serializes every core's transfers, so the
    // epoch cannot drain its misses faster than the aggregate service
    // time — a hard bandwidth lower bound.
    const double bound = misses * service * cores;
    return std::max(inflated, bound);
}

/** The calibrated entropy map of @p core's predictor, or nullptr when
 *  @p opts leaves branches out. Resolved once per call, not per epoch:
 *  the lookup takes the process-wide cache's lock. */
const EntropyMissRateModel *
branchModelFor(const CoreConfig &core, const Eq1Options &opts)
{
    return opts.branch ? &BranchModelCache::instance().get(core.branch)
                       : nullptr;
}

/** Eq. 1 for one epoch; @p branch_model is branchModelFor(core, opts). */
EpochPrediction
predictEpochWith(const EpochProfile &epoch, const MulticoreConfig &cfg,
                 const CoreConfig &core, const Eq1Options &opts,
                 std::shared_ptr<const EpochStacks> stacks,
                 const EntropyMissRateModel *branch_model)
{
    EpochPrediction pred;
    if (epoch.numOps == 0)
        return pred;

    const double n = static_cast<double>(epoch.numOps);
    EpochMemoryModel mem =
        stacks ? EpochMemoryModel(epoch, cfg, core, std::move(stacks))
               : EpochMemoryModel(epoch, cfg, core, opts.llcUsesGlobalRd);

    if (!opts.ilpReplay) {
        // Ablation: no ILP modeling. Dispatch at full front-end width and
        // stack the miss components additively on top (the pre-interval-
        // model view of processor performance).
        const double width = static_cast<double>(core.dispatchWidth);
        pred.deff = width;
        pred.stack[CpiComponent::Base] = n / width;
        const double mem_accesses =
            static_cast<double>(epoch.numLoads + epoch.numStores);
        pred.stack[CpiComponent::MemL2] = mem_accesses *
            mem.l1dMissRate() * static_cast<double>(core.l2.latency);
        pred.stack[CpiComponent::MemLLC] = mem_accesses *
            mem.l2MissRate() * static_cast<double>(cfg.llc.latency);
        const double mlp = opts.mlpOverlap ?
            epochMlp(epoch, core, mem.llcLoadMissRate()) : 1.0;
        pred.mlp = mlp;
        pred.stack[CpiComponent::MemDram] = mem.llcLoadMisses() *
            static_cast<double>(core.memLatency) / mlp;
        pred.stack[CpiComponent::ICache] = mem.icacheCycles();
        if (opts.branch) {
            const BranchComponent branch = branchComponent(
                mem.stacks(), *branch_model,
                static_cast<double>(core.frontendDepth) + 10.0);
            pred.stack[CpiComponent::Branch] = branch.cycles;
        }
        pred.cycles = pred.stack.total();
        return pred;
    }

    // --- Base + memory components via three micro-trace replays of
    // increasing memory realism. The L1-only replay gives the pure-ILP
    // base (Eq. 1's N/Deff); the hit-path replay adds L2/LLC hit
    // latencies; the full replay adds per-access DRAM penalties, from
    // which the window model derives the overlapped (MLP-limited)
    // long-latency stall — Eq. 1's mLLC x cmem / MLP term, with the MLP
    // emerging from dependences, ROB occupancy and MSHR pressure.
    // Per-op expected stack distances are precomputed (and shared across
    // grid points through EpochStacks), so the replays read two doubles
    // per load instead of re-walking the survival sums. With MLP overlap
    // off (ablation) the full replays price loads on the hit path.
    const LoadPricing full =
        opts.mlpOverlap ? LoadPricing::Full : LoadPricing::HitPath;
    const double fetch_stall = mem.icachePerFetch();
    const double miss_rate_pred = opts.branch ?
        epochBranchMissRate(mem.stacks(), *branch_model) : 0.0;

    if (!opts.decompose) {
        // Fast path: only the final replay (full memory + I-cache
        // stalls + branch flushes). Identical total to the decomposed
        // path up to clamping; everything reported as Base.
        const IlpResult ilp = epochIlp<1>(
            epoch, core, mem, {{{full, fetch_stall, miss_rate_pred}}})[0];
        pred.deff = ilp.ipc;
        double cycles = n / ilp.ipc;
        if (!opts.mlpOverlap)
            cycles += mem.llcLoadMisses() *
                static_cast<double>(core.memLatency);
        // Bus contention: treat the whole epoch as the DRAM share for
        // the fast path (slightly conservative under moderate load).
        cycles = busAdjustedDram(cfg, core, mem.dramTransfers(), cycles, cycles);
        pred.stack[CpiComponent::Base] = cycles;
        pred.cycles = cycles;
        pred.mlp = epochMlp(epoch, core, mem.llcLoadMissRate());
        return pred;
    }

    // The five replays run as lanes of one lockstep pass. The fourth
    // adds the expected I-cache front-end stalls on top of the full
    // memory behaviour, so instruction misses only cost what the back
    // end does not hide. The fifth emulates front-end flushes at the
    // entropy-predicted misprediction rate, capturing redirect latency
    // plus window ramp-up (Eq. 1's mbpred x (cres + cfr) term, evaluated
    // mechanistically).
    const std::array<IlpResult, 5> lanes = epochIlp<5>(
        epoch, core, mem,
        {{{LoadPricing::L1Only, 0.0, 0.0},
          {LoadPricing::HitPath, 0.0, 0.0},
          {full, 0.0, 0.0},
          {full, fetch_stall, 0.0},
          {full, fetch_stall, miss_rate_pred}}});
    const IlpResult &ilp_l1 = lanes[0];
    const IlpResult &ilp_hit = lanes[1];
    const IlpResult &ilp_full = lanes[2];
    const IlpResult &ilp_fetch = lanes[3];
    const IlpResult &ilp_flush = lanes[4];

    const double base_cycles = n / ilp_l1.ipc;
    const double hit_cycles = n / ilp_hit.ipc;
    const double full_cycles = n / ilp_full.ipc;
    const double fetch_cycles = n / ilp_fetch.ipc;
    const double flush_cycles = n / ilp_flush.ipc;
    const double near_mem_cycles = std::max(0.0, hit_cycles - base_cycles);
    // With MLP overlap disabled (ablation), the full replay equals the
    // hit replay and every DRAM access is charged serially: mLLC x cmem.
    double dram_cycles = opts.mlpOverlap ?
        std::max(0.0, full_cycles - hit_cycles) :
        mem.llcLoadMisses() * static_cast<double>(core.memLatency);
    // Shared-bus queueing (no-op unless memBusCycles > 0).
    dram_cycles = busAdjustedDram(cfg, core, mem.dramTransfers(),
                                  flush_cycles, dram_cycles);
    pred.deff = ilp_full.ipc;

    // Effective MLP implied by the window model, reported for analysis:
    // raw miss latency over the overlapped stall it produced.
    const double raw_dram =
        mem.llcLoadMisses() * static_cast<double>(core.memLatency);
    pred.mlp = dram_cycles > 0.0 ?
        std::max(1.0, raw_dram / dram_cycles) :
        epochMlp(epoch, core, mem.llcLoadMissRate());

    // Split the near-memory cycles between L2 and LLC by their predicted
    // extra-latency contributions.
    const double l2_weight = mem.l1dMissRate() *
        static_cast<double>(core.l2.latency);
    const double llc_weight = mem.l2MissRate() *
        static_cast<double>(cfg.llc.latency);
    const double weight_sum = l2_weight + llc_weight;
    const double l2_share =
        weight_sum > 0.0 ? l2_weight / weight_sum : 1.0;

    // --- Branch component: the flush-replay difference, i.e. the extra
    // cycles mispredictions add on top of everything else the window is
    // already paying for.
    const double branch_cycles = std::max(0.0, flush_cycles - fetch_cycles);

    // --- I-cache component: the replay difference (overlapped stalls).
    const double icache_cycles = std::max(0.0, fetch_cycles - full_cycles);

    pred.stack[CpiComponent::Base] = base_cycles;
    pred.stack[CpiComponent::MemL2] = near_mem_cycles * l2_share;
    pred.stack[CpiComponent::MemLLC] = near_mem_cycles * (1.0 - l2_share);
    pred.stack[CpiComponent::Branch] = branch_cycles;
    pred.stack[CpiComponent::ICache] = icache_cycles;
    pred.stack[CpiComponent::MemDram] = dram_cycles;
    pred.cycles = pred.stack.total();
    return pred;
}

} // namespace

EpochPrediction
predictEpoch(const EpochProfile &epoch, const MulticoreConfig &cfg,
             const Eq1Options &opts)
{
    const CoreConfig &core = cfg.core(0);
    return predictEpochWith(epoch, cfg, core, opts, nullptr,
                            branchModelFor(core, opts));
}

ThreadPrediction
predictThread(const ThreadProfile &thread, const MulticoreConfig &cfg,
              const Eq1Options &opts)
{
    return predictThread(thread, cfg, cfg.core(0), opts);
}

ThreadPrediction
predictThread(const ThreadProfile &thread, const MulticoreConfig &cfg,
              const CoreConfig &core, const Eq1Options &opts,
              const EpochStacksFn &stacks)
{
    const EntropyMissRateModel *branch_model = branchModelFor(core, opts);
    ThreadPrediction result;
    result.epochs.reserve(thread.epochs.size());
    for (size_t e = 0; e < thread.epochs.size(); ++e) {
        EpochPrediction pred = predictEpochWith(
            thread.epochs[e], cfg, core, opts, stacks ? stacks(e) : nullptr,
            branch_model);
        result.activeCycles += pred.cycles;
        result.stack.add(pred.stack);
        result.instructions += thread.epochs[e].numOps;
        result.epochs.push_back(std::move(pred));
    }
    return result;
}

} // namespace rppm
