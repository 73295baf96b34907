/**
 * @file
 * Multicore golden-reference simulator.
 *
 * Interleaves the per-thread traces of a workload with the round-robin
 * quantum schedule the profiler walks too (sim/round_robin.hh): each
 * turn, the next runnable thread (rotating cursor) advances by up to
 * `quantum` records through its core model, and synchronization records
 * go through SyncState, giving them their dynamic
 * (arrival-order-dependent) semantics. Memory accesses therefore hit the
 * shared hierarchy in a deterministic, interleaved global order, which
 * is what makes cache sharing and coherence effects realistic.
 *
 * Two engines walk that one schedule and produce byte-identical
 * results, both on the flat-table SimHierarchy (sim_hierarchy.hh):
 *  - simulate() with jobs == 1 (or memBusCycles > 0): the sequential
 *    columnar engine (simulator_columnar.cc), which executes each run
 *    and applies each event in core time as the walk reaches it. Bus
 *    queueing (memBusCycles > 0) needs that global time order, so this
 *    engine stays.
 *  - simulate() with jobs > 1 (and memBusCycles == 0): the phased
 *    parallel engine (simulator_parallel.cc), which walks the schedule
 *    on the step clock first, as the profiler does, to pin the global
 *    interleaving, then replays core models and cache shards
 *    concurrently.
 * tests/test_sim_parallel.cc pins both to the committed corpus
 * tests/golden/sim.txt.
 *
 * Plays the role Sniper plays in the paper: its execution times are the
 * golden reference RPPM's predictions are scored against.
 */

#ifndef RPPM_SIM_SIMULATOR_HH
#define RPPM_SIM_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "branch/tournament.hh"
#include "sim/sim_hierarchy.hh"
#include "sim/sync_state.hh"
#include "simcore/core_model.hh"
#include "trace/columnar.hh"
#include "trace/trace.hh"

namespace rppm {

/** Active-interval record used for bottlegraphs. */
struct ActivityInterval
{
    double begin = 0.0;
    double end = 0.0;
};

/**
 * Per-thread simulation results.
 *
 * finishTime and activity are in reference cycles (core 0's clock
 * domain) so threads on cores with different frequencies share one time
 * base; activeCycles, syncCycles and the CPI stack are in the thread's
 * own core's cycles. On a homogeneous machine the two coincide.
 */
struct ThreadResult
{
    double finishTime = 0.0;       ///< cycle the thread exhausted its trace
    double finishSeconds = 0.0;    ///< finishTime in wall-clock seconds
    double activeCycles = 0.0;     ///< busy (non-idle) cycles
    double syncCycles = 0.0;       ///< idle cycles waiting on sync
    uint32_t core = 0;             ///< core this thread was mapped to
    uint64_t instructions = 0;
    CpiStack cpi;                  ///< absolute cycle budget by component
    std::vector<ActivityInterval> activity; ///< for bottlegraphs
};

/** Whole-workload simulation results. */
struct SimResult
{
    std::string workload;
    std::string config;
    double totalCycles = 0.0;      ///< execution time (reference cycles)
    double totalSeconds = 0.0;     ///< at the reference clock frequency
    std::vector<ThreadResult> threads;
    std::vector<CoreMemStats> mem; ///< per-core cache statistics
    std::vector<BranchStats> branch;

    /** Average per-thread CPI stack normalized per instruction. */
    CpiStack averageCpiStack() const;
};

/** Tunables of the simulator that are not architecture parameters. */
struct SimOptions
{
    /** Cycle cost charged for executing one sync operation. */
    double syncOpCost = 40.0;

    /** Scheduler quantum in records per turn (matches the profiler's
     *  default). Execution-order policy: it changes the simulated
     *  interleaving, so it is an explicit, deterministic knob. */
    uint32_t quantum = 64;

    /**
     * Worker threads for the parallel engine (0 = all hardware
     * threads). Pure execution policy — every job count yields the same
     * result bits. Configurations with memBusCycles > 0 fall back to
     * the sequential engine (bus queueing is time-dependent and cannot
     * be sharded).
     */
    unsigned jobs = 1;
};

/**
 * Execute @p trace on @p cfg and return the golden-reference timing.
 *
 * The simulation is deterministic: same trace + config => same result,
 * for every SimOptions::jobs value. Throws on deadlock (which indicates
 * a malformed trace).
 */
SimResult simulate(const ColumnarTrace &trace, const MulticoreConfig &cfg,
                   const SimOptions &opts = {});

} // namespace rppm

#endif // RPPM_SIM_SIMULATOR_HH
