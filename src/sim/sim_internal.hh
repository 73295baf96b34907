/**
 * @file
 * Shared internals of the simulator engines (internal header).
 *
 * simulate() has two engines that must stay byte-identical (see
 * simulator.hh): the sequential columnar engine and the phased parallel
 * engine. Both walk one schedule (sim/round_robin.hh); the pieces whose
 * float operation sequences define their identity live here so both
 * engines compile the exact same code: the expanded per-thread
 * hierarchy configuration, the columnar micro-op run executor and the
 * result assembly.
 */

#ifndef RPPM_SIM_SIM_INTERNAL_HH
#define RPPM_SIM_SIM_INTERNAL_HH

#include <algorithm>
#include <cstdint>

#include "arch/config.hh"
#include "sim/simulator.hh"
#include "simcore/core_model.hh"
#include "trace/columnar.hh"

namespace rppm::sim_detail {

/**
 * Hierarchy configuration with one private-cache slot per thread.
 *
 * Each thread gets a private cache set; workloads may have more threads
 * than cores (e.g. main + numCores workers) as long as the *concurrently
 * active* thread count stays at numCores, which the paper's setups
 * guarantee (the main thread blocks in join while the workers run). Each
 * slot carries the *mapped* core's parameters, so heterogeneous machines
 * give each thread the caches of the core it is placed on.
 */
inline MulticoreConfig
expandedHierConfig(const MulticoreConfig &cfg, uint32_t num_threads)
{
    MulticoreConfig hier_cfg = cfg;
    const uint32_t slots = std::max(cfg.numCores(), num_threads);
    hier_cfg.cores.clear();
    hier_cfg.cores.reserve(slots);
    for (uint32_t t = 0; t < slots; ++t)
        hier_cfg.cores.push_back(cfg.threadCore(t));
    hier_cfg.mapping = ThreadMapping();
    // memBusCycles is defined on the *original* config's reference
    // (core 0) clock, but the hierarchy's internal bus clock is its own
    // slot 0 = threadCore(0); rescale the service time into that domain
    // (factor exactly 1.0 unless thread 0 sits on a different clock).
    hier_cfg.memBusCycles = static_cast<uint32_t>(
        cfg.memBusCycles *
            (hier_cfg.cores.front().frequencyGHz / cfg.referenceGHz()) +
        0.5);
    return hier_cfg;
}

/**
 * Execute the micro-op records [cur.index(), end) through @p core — any
 * CoreModelT instantiation — materializing each record from the columns.
 * @p pre(i) runs before each execute — the parallel engine points its
 * replay memory at record i, the sequential engine passes a no-op. The
 * caller guarantees the range contains no sync records.
 */
template <typename Core, typename PreExec>
inline void
executeRange(ColumnCursor &cur, Core &core, size_t end, PreExec pre)
{
    while (cur.index() < end) {
        TraceRecord rec;
        rec.op = cur.op();
        rec.pc = cur.pc();
        rec.dep1 = cur.dep1();
        rec.dep2 = cur.dep2();
        if (isMemory(rec.op))
            rec.addr = cur.addr();
        else if (rec.op == OpClass::Branch)
            rec.taken = cur.taken();
        pre(cur.index());
        core.execute(rec);
        cur.advance();
    }
}

/**
 * Assemble the per-thread results, totals and averages. @p coreOf /
 * @p branchOf / @p memOf map a thread id to its CoreModelT (any
 * instantiation), branch stats and memory stats; finishTime and activity
 * must already be filled in.
 */
template <typename CoreOf, typename BranchOf, typename MemOf>
inline void
finalizeResult(SimResult &result, const MulticoreConfig &cfg,
               uint32_t num_threads, CoreOf coreOf, BranchOf branchOf,
               MemOf memOf)
{
    double total = 0.0;
    for (uint32_t t = 0; t < num_threads; ++t) {
        ThreadResult &tr = result.threads[t];
        auto &core = coreOf(t);
        tr.core = cfg.coreOf(t);
        tr.instructions = core.instructions();
        tr.cpi = core.cpiStack();
        tr.activeCycles = core.activeCycles();
        tr.syncCycles = tr.cpi[CpiComponent::Sync];
        tr.finishSeconds = cfg.refCyclesToSeconds(tr.finishTime);
        total = std::max(total, tr.finishTime);
        result.mem.push_back(memOf(t));
        result.branch.push_back(branchOf(t));
    }
    result.totalCycles = total;
    result.totalSeconds = cfg.refCyclesToSeconds(total);
}

/** Parallel phased engine (simulator_parallel.cc); requires
 *  memBusCycles == 0 and is byte-identical to the sequential engine. */
SimResult simulateParallelImpl(const ColumnarTrace &trace,
                               const MulticoreConfig &cfg,
                               const SimOptions &opts, unsigned jobs);

} // namespace rppm::sim_detail

#endif // RPPM_SIM_SIM_INTERNAL_HH
