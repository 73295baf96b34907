/**
 * @file
 * Microarchitecture-independent per-epoch profile data structures.
 *
 * An epoch is the stretch of one thread's execution between two of its
 * synchronization events (paper Sec. III-A, Fig. 3a). Each epoch profile
 * contains only workload-inherent statistics: instruction mix, dependence
 * distances, sampled micro-traces (1000-uop snippets with per-access reuse
 * distances), branch entropy accumulators, per-thread and global
 * (interleaved) reuse-distance distributions, and the synchronization
 * event that terminates the epoch. The RPPM model consumes these profiles
 * to predict performance on any MulticoreConfig.
 */

#ifndef RPPM_PROFILE_EPOCH_PROFILE_HH
#define RPPM_PROFILE_EPOCH_PROFILE_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "branch/entropy.hh"
#include "common/histogram.hh"
#include "trace/trace.hh"

namespace rppm {

/** One op of a sampled micro-trace (paper Sec. II-B: ILP modeling). */
struct MicroTraceOp
{
    uint64_t localRd = LogHistogram::kInfinity;  ///< per-thread reuse dist.
    uint64_t globalRd = LogHistogram::kInfinity; ///< interleaved reuse dist.
    uint16_t dep1 = 0;
    uint16_t dep2 = 0;
    OpClass op = OpClass::IntAlu;
};

/** A sampled 1000-uop snippet capturing fine-grained ILP behaviour. */
struct MicroTrace
{
    std::vector<MicroTraceOp> ops;
};

/** Profile of one inter-synchronization epoch of one thread. */
struct EpochProfile
{
    // --- Scalar counts.
    uint64_t numOps = 0;
    uint64_t numLoads = 0;
    uint64_t numStores = 0;
    uint64_t numBranches = 0;
    uint64_t loadsDependingOnLoad = 0; ///< loads serialized behind a load
    std::array<uint64_t, kNumOpClasses> mix{};

    // --- Distributions.
    LogHistogram depDist;      ///< dependence distances (all ops)
    LogHistogram localRd;      ///< per-thread data reuse distances
    LogHistogram globalRd;     ///< interleaved data reuse distances
    LogHistogram loadLocalRd;  ///< loads only: per-thread reuse distances
    LogHistogram loadGlobalRd; ///< loads only: interleaved reuse distances
    LogHistogram instrRd;      ///< instruction-stream reuse distances
    LogHistogram loadGap;      ///< micro-ops between consecutive loads

    // --- Branch behaviour (per-static-branch outcome counts).
    BranchEntropyProfile branches;

    // --- Fine-grained ILP samples.
    std::vector<MicroTrace> microTraces;

    // --- Event terminating this epoch (None = thread finished).
    SyncType endType = SyncType::None;
    uint32_t endArg = 0;

    /** Mean micro-ops between loads (numOps when the epoch has <2 loads). */
    double meanLoadGap() const;

    /** Freeze every distribution (LogHistogram::freeze) and trim the
     *  micro-traces to their size: the profiler calls this once the
     *  epoch is closed. */
    void freeze();
};

/** All epochs of one thread, in execution order. */
struct ThreadProfile
{
    std::vector<EpochProfile> epochs;

    uint64_t totalOps() const;
};

/** Classification of a condition-variable usage pattern (paper III-B). */
enum class CondVarClass : uint8_t
{
    BarrierLike,       ///< all-but-one wait; any thread can release
    ProducerConsumer,  ///< disjoint waiter / releaser thread sets
};

/** Dynamic synchronization counts, as reported in Table III. */
struct SyncCounts
{
    uint64_t criticalSections = 0; ///< mutex acquisitions
    uint64_t barriers = 0;         ///< classic barrier arrivals / population
    uint64_t condVars = 0;         ///< condvar events (waits + signals)
};

/** The complete microarchitecture-independent profile of a workload. */
struct WorkloadProfile
{
    std::string name;
    uint32_t numThreads = 0;
    std::vector<ThreadProfile> threads;

    /** Participants per barrier-like sync object id. */
    std::unordered_map<uint32_t, uint32_t> barrierPopulation;

    /** Classification of every condvar-backed sync object. */
    std::unordered_map<uint32_t, CondVarClass> condVarClasses;

    SyncCounts syncCounts;

    /** Total micro-ops across all threads and epochs. */
    uint64_t totalOps() const;

    /**
     * Approximate resident heap footprint in bytes. Used by byte-budgeted
     * cache eviction (common/lru.hh) — accuracy within a small constant
     * factor is all the budget math needs, so this counts the dominant
     * payloads at their allocated capacities (epochs, histogram
     * buckets, micro-trace ops, branch tables) and ignores allocator
     * overhead.
     */
    uint64_t approxResidentBytes() const;
};

} // namespace rppm

#endif // RPPM_PROFILE_EPOCH_PROFILE_HH
