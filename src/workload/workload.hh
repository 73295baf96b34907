/**
 * @file
 * Multi-threaded workload specification and trace generation.
 *
 * A WorkloadSpec composes kernel blocks with synchronization scaffolding:
 * sequential init/finalization by the main thread, thread creation and
 * join, barrier-delimited parallel epochs (classic OpenMP-style barriers
 * or condvar-implemented pthread barriers), critical sections, and
 * producer-consumer condvar queues. synthesizeTrace() turns a spec into
 * a deterministic ColumnarTrace — the stand-in for running a real
 * Rodinia or Parsec binary.
 */

#ifndef RPPM_WORKLOAD_WORKLOAD_HH
#define RPPM_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <string>

#include "trace/columnar.hh"
#include "trace/trace.hh"
#include "workload/kernel.hh"

namespace rppm {

/** How parallel epochs are delimited. */
enum class BarrierFlavor : uint8_t
{
    None,      ///< epochs run back-to-back; only the final join syncs
    Classic,   ///< OpenMP/pthread barrier (BarrierWait records)
    CondVar,   ///< barrier implemented with a condition variable
};

/** Complete description of a synthetic multi-threaded benchmark. */
struct WorkloadSpec
{
    std::string name = "workload";
    uint64_t seed = 1;

    // --- Thread structure.
    uint32_t numWorkers = 3;     ///< worker threads created by main
    bool mainWorks = true;       ///< main participates in parallel epochs
    double mainWorkScale = 1.0;  ///< main's relative work when it works
    uint64_t mainBookkeepingOps = 2000; ///< main's work when it idles

    // --- Sequential phases (main thread only).
    uint64_t initOps = 20000;
    uint64_t finalOps = 5000;

    // --- Parallel epochs.
    uint32_t numEpochs = 20;
    uint64_t opsPerEpoch = 20000;  ///< per participating thread
    double imbalance = 0.0;        ///< deterministic per-thread skew
    double epochJitter = 0.1;      ///< random per-epoch work variation
    BarrierFlavor barrierFlavor = BarrierFlavor::Classic;

    // --- Critical sections (inside epochs).
    uint32_t csPerEpoch = 0;       ///< per thread per epoch
    uint64_t csLenOps = 60;        ///< ops inside each critical section
    uint32_t numMutexes = 1;

    // --- Producer-consumer phase (before the epochs).
    uint32_t queueItems = 0;       ///< items pushed by main (0 = none)
    uint64_t itemOps = 2000;       ///< consumer work per item

    // --- Kernel characteristics of the parallel work.
    KernelParams kernel;

    /** Threads in the trace: main + workers. */
    uint32_t numThreads() const { return numWorkers + 1; }

    /** Approximate total micro-op count the spec will generate. */
    uint64_t approxTotalOps() const;
};

/**
 * Synthesize the deterministic trace for @p spec on up to @p jobs
 * worker threads (0 = all hardware threads), one per workload thread
 * stream. The per-thread RNG streams are forked up front in a fixed
 * order, so the trace is bit-identical for every job count. Throws
 * std::invalid_argument on a spec without workers.
 */
ColumnarTrace synthesizeTrace(const WorkloadSpec &spec, unsigned jobs = 1);

/** The same trace as its AoS record view:
 *  synthesizeTrace(spec, jobs).toWorkload(). */
WorkloadTrace generateWorkload(const WorkloadSpec &spec, unsigned jobs = 1);

/**
 * The Table-I style microbenchmark: @p threads threads iterating a loop
 * of @p iterations identical bodies of @p ops_per_iter micro-ops with a
 * barrier after every iteration.
 */
WorkloadSpec barrierLoopSpec(uint32_t threads, uint32_t iterations,
                             uint64_t ops_per_iter);

} // namespace rppm

#endif // RPPM_WORKLOAD_WORKLOAD_HH
