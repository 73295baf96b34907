/**
 * @file
 * ILP / base-component model (Eq. 1, term N/Deff).
 *
 * Following Van den Steen et al. [37], the effective dispatch rate Deff
 * is a function of the front-end width, the application's inherent ILP
 * and functional-unit contention. The profiler captures ILP at fine grain
 * in sampled 1000-uop micro-traces (op classes + dependence distances +
 * per-access reuse distances). The model replays each micro-trace through
 * an idealized window model — no branch mispredictions, no I-cache
 * misses, loads at their *expected* hit latency from the statistical
 * cache model — and reports the achieved IPC, which becomes Deff for the
 * surrounding epoch.
 *
 * The Eq.-1 CPI stack needs five replays of each micro-trace that differ
 * only in load latency, front-end stall and flush rate. They run as
 * lanes of one lockstep pass: op decode, dependence and latency lookups
 * are shared, while every lane keeps its own dispatch, functional-unit,
 * MSHR, completion, issue and retire state and updates it in the same
 * order as a lone replay, so each lane's result is bit-identical to
 * replaying it alone. A single replay is the one-lane instance of the
 * same kernel.
 */

#ifndef RPPM_RPPM_ILP_MODEL_HH
#define RPPM_RPPM_ILP_MODEL_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "arch/config.hh"
#include "profile/epoch_profile.hh"

namespace rppm {

struct EpochMemoryModel;

/**
 * Returns the expected latency (cycles) of a memory micro-op given its
 * profiled reuse distances. Kept abstract so the ILP model is testable
 * in isolation; it is evaluated once per memory op before the replay.
 */
using LoadLatencyFn =
    std::function<double(const MicroTraceOp &op)>;

/** Result of replaying one micro-trace. */
struct IlpResult
{
    double ipc = 1.0;              ///< effective dispatch rate Deff
    double branchResolution = 0.0; ///< mean dispatch->execute of branches
    /**
     * Mean front-end redirect cost of a misprediction: resolution plus
     * refill, minus the back-end slack already stalling dispatch (a
     * flush hiding behind a DRAM miss at the ROB head costs nothing
     * extra). This is what one misprediction adds to execution time.
     */
    double branchPenalty = 0.0;
};

/** One lane of a lockstep replay with caller-supplied latencies. */
struct LatencyLane
{
    LoadLatencyFn memLatency;     ///< latency of each memory op
    double fetchStallPerOp = 0.0; ///< see replayMicroTrace
    double branchMissRate = 0.0;  ///< see replayMicroTrace
};

/**
 * Replay @p mt through the idealized window model of @p core.
 *
 * @param mem_latency expected latency of each memory op (L1 hit latency
 *        at minimum; DRAM misses are modeled separately via the MLP
 *        term, so implementations typically cap at the LLC hit latency)
 * @param fetch_stall_per_op expected front-end stall per fetched op from
 *        the I-cache model; the in-order front end makes the smeared
 *        expectation throughput-exact, and the replay naturally overlaps
 *        it with back-end stalls
 * @param branch_miss_rate predicted misprediction probability from the
 *        entropy model; the replay emulates a front-end flush on every
 *        (1/rate)-th branch, capturing both the redirect latency and the
 *        window ramp-up that follows it
 */
IlpResult replayMicroTrace(const MicroTrace &mt, const CoreConfig &core,
                           const LoadLatencyFn &mem_latency,
                           double fetch_stall_per_op = 0.0,
                           double branch_miss_rate = 0.0);

/** Replay @p mt once per lane, all lanes in lockstep. Lane k's result
 *  is bit-identical to replayMicroTrace with lane k's parameters.
 *  Instantiated for 1 and 5 lanes. */
template <size_t Lanes>
std::array<IlpResult, Lanes>
replayMicroTrace(const MicroTrace &mt, const CoreConfig &core,
                 const std::array<LatencyLane, Lanes> &lanes);

/**
 * Effective dispatch rate of an epoch: micro-op-weighted average over the
 * epoch's micro-traces. Falls back to a mix/width heuristic when the
 * epoch carries no samples (only possible for empty epochs).
 */
IlpResult epochIlp(const EpochProfile &epoch, const CoreConfig &core,
                   const LoadLatencyFn &mem_latency,
                   double fetch_stall_per_op = 0.0,
                   double branch_miss_rate = 0.0);

/** How a replay lane driven by the statistical cache model prices a
 *  load (stores always take the store FU latency). */
enum class LoadPricing : uint8_t
{
    L1Only,  ///< every load hits the L1D (the pure-ILP base)
    HitPath, ///< L2/LLC hit latencies from the expected stack distances
    Full,    ///< hit path plus DRAM latency past the LLC reach
};

/** One lane of a lockstep epoch replay over the cache model. */
struct ReplayLane
{
    LoadPricing pricing = LoadPricing::Full;
    double fetchStallPerOp = 0.0;
    double branchMissRate = 0.0;
};

/**
 * epochIlp for every lane at once, with load latencies from @p mem's
 * precomputed per-load stack distances (EpochStacks::microSd). @p mem must
 * model @p epoch on @p core. Scratch space is one buffer owned by the
 * call. Instantiated for 1 and 5 lanes.
 */
template <size_t Lanes>
std::array<IlpResult, Lanes>
epochIlp(const EpochProfile &epoch, const CoreConfig &core,
         const EpochMemoryModel &mem,
         const std::array<ReplayLane, Lanes> &lanes);

} // namespace rppm

#endif // RPPM_RPPM_ILP_MODEL_HH
