/**
 * @file
 * Multi-level cache hierarchy with a directory for write invalidation.
 *
 * Layout matches the paper's simulated machine: per-core private L1I, L1D
 * and L2, plus one shared LLC. Private levels are built per core from
 * that core's CoreConfig, so heterogeneous machines give each core its
 * own cache geometry. A last-writer directory implements MESI-style
 * write invalidation: a write by one core removes the line from every
 * other core's private caches, so the next access by those cores is a
 * coherence miss — the behaviour RPPM's profiler detects as an infinite
 * per-thread reuse distance. Returned latencies are in the *accessing
 * core's* clock cycles; shared-bus queueing state is kept on the
 * reference (core 0) clock as a backlog that drains with observed time
 * (robust to the scheduler's slightly out-of-order timestamps across
 * cores) and converted per access. Engineered for the simulator's hot
 * loop:
 *
 *  - The last-writer directory lives in an open-addressing lazy-zero
 *    OpenTable (common/open_table.hh, extracted from the profiler's
 *    reuse tables) instead of std::unordered_map nodes; at most one
 *    probe serves the whole access (invalidation filter + coherence
 *    classify + last-writer update), and a read that hits L1D skips the
 *    directory entirely — its sharer bit is necessarily already set,
 *    because the only event that clears it (a remote write) would also
 *    have invalidated the copy and made the hit impossible.
 *  - The caches are SimCache tag stores (sim_cache.hh) with shift/mask
 *    set indexing. Every level shares one line size
 *    (MulticoreConfig::validate() enforces it), so the address-to-line
 *    division happens once per access and the line number feeds every
 *    level and the directory.
 *  - Each directory entry carries a sharer bit mask — a conservative
 *    superset of the cores whose private L1D/L2 may hold the line. A
 *    write only probes the caches of cores in the mask instead of every
 *    core; since invalidating an absent line is a no-op (and charges no
 *    stats), filtering by a superset is exact, and after a write the
 *    writer is the only possible sharer. Machines with more than 64
 *    cores fall back to probing every core.
 *
 * The fetch path is split so the parallel engine can replay it in two
 * phases: instrFetch() is the full L1I probe + miss fill (sequential
 * engine), instrMissFill() is only the shared L2/LLC walk of a known L1I
 * miss (the parallel engine resolves L1I hits thread-locally — L1I is
 * never invalidated — and replays just the misses in global order).
 *
 * Not internally synchronized: one instance is owned by one thread at a
 * time (the parallel engine gives each cache-set shard its own replica).
 */

#ifndef RPPM_SIM_SIM_HIERARCHY_HH
#define RPPM_SIM_SIM_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/config.hh"
#include "common/open_table.hh"
#include "sim/sim_cache.hh"

namespace rppm {

/** Which level serviced an access. */
enum class HitLevel : uint8_t
{
    L1,
    L2,
    LLC,
    Memory,
};

/** Outcome of a data access through the hierarchy. */
struct AccessResult
{
    HitLevel level = HitLevel::L1;
    uint32_t latency = 0;        ///< total load-to-use latency in cycles
    bool coherenceMiss = false;  ///< miss caused by a remote write
};

/** Per-core, per-level miss statistics. */
struct CoreMemStats
{
    uint64_t l1iAccesses = 0, l1iMisses = 0;
    uint64_t l1dAccesses = 0, l1dMisses = 0;
    uint64_t l2Accesses = 0, l2Misses = 0;
    uint64_t llcAccesses = 0, llcMisses = 0;
    uint64_t coherenceMisses = 0;
    uint64_t invalidationsReceived = 0;
};

/** The full memory hierarchy of one multicore, for the simulator. */
class SimHierarchy
{
  public:
    /**
     * @p expected_lines pre-sizes the coherence directory (an upper
     * bound on distinct lines — the engines pass the trace's data-access
     * count, this hierarchy's share of it in the sharded replay). 0
     * keeps the default small table and relies on geometric growth;
     * streaming traces then rehash the whole directory on every
     * doubling, so the engines always pass a bound.
     */
    explicit SimHierarchy(const MulticoreConfig &cfg,
                          uint64_t expected_lines = 0);

    /**
     * Data access by @p core at byte address @p addr; writes invalidate
     * remote private copies. @p now is the issue time in @p core's
     * cycles, used for shared-bus queueing when memBusCycles > 0
     * (accesses must arrive in roughly global time order, which the
     * simulator's scheduler guarantees).
     */
    AccessResult dataAccess(uint32_t core, uint64_t addr, bool is_write,
                            double now = 0.0);

    /** Full instruction fetch (L1I probe, then miss fill). */
    uint32_t instrFetch(uint32_t core, uint64_t pc);

    /**
     * Serve a known L1I miss from the unified L2 / LLC path without
     * touching L1I or its stats; returns the extra front-end stall.
     */
    uint32_t instrMissFill(uint32_t core, uint64_t pc);

    /**
     * Software-prefetch every table row a dataAccess(core, addr) will
     * touch (L1D tags, coherence-directory slot, L2/LLC tags for the
     * miss path). No architectural effect; the columnar engines call
     * this a few entries ahead of their position in the addr column to
     * hide the random-probe latency that dominates streaming traces.
     */
    void
    prefetchData(uint32_t core, uint64_t addr) const
    {
        const uint64_t line = llc_->lineOf(addr);
        l1d_[core].prefetchLine(line);
        dir_.prefetch(line);
        l2_[core].prefetchLine(line);
        llc_->prefetchLine(line);
    }

    /** Credit externally replayed L1I probes into @p core's stats. */
    void
    addL1iStats(uint32_t core, uint64_t accesses, uint64_t misses)
    {
        stats_[core].l1iAccesses += accesses;
        stats_[core].l1iMisses += misses;
    }

    const CoreMemStats &coreStats(uint32_t core) const
    {
        return stats_[core];
    }

    const MulticoreConfig &config() const { return cfg_; }

  private:
    /** Shared L2 → LLC → memory walk of a known L1D miss. */
    void lowerWalk(uint32_t core, uint64_t line, bool is_write,
                   bool remote_written, double now, AccessResult &result);

    /**
     * Last writer (core+1; 0 = never written) and sharer superset.
     * Deliberately trivial (no member initializers): OpenTable keeps
     * its value store raw and value-initializes a slot on first insert.
     */
    struct DirEntry
    {
        uint64_t sharers;
        uint32_t lastWriter;
    };

    MulticoreConfig cfg_;
    std::vector<SimCache> l1i_, l1d_, l2_;
    std::unique_ptr<SimCache> llc_;
    std::vector<CoreMemStats> stats_;
    OpenTable<DirEntry> dir_;
    bool wide_ = false; ///< > 64 cores: sharer mask unusable, probe all
    double busBacklog_ = 0.0;
    double busLastNow_ = 0.0;
};

} // namespace rppm

#endif // RPPM_SIM_SIM_HIERARCHY_HH
