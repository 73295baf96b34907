/**
 * @file
 * Open-addressing state tables of the profiler engine (internal header).
 *
 * The profiler's hot per-line and per-PC state lives in open-addressing
 * tables with flat storage instead of std::unordered_map nodes. The
 * engine keeps one LineTable per line-hash shard and carries it across
 * chunks.
 *
 * Thread-safety contract: these tables are deliberately NOT internally
 * synchronized and carry no RPPM_GUARDED_BY annotations — each instance
 * is owned by exactly one thread at a time. Each shard's table belongs
 * to exactly one phase-D task at a time (shard index = high mix64 bits
 * of the line key, so two workers can never reach the same table), and
 * each thread's InstrLineMap to the one task stitching that thread's
 * segments. Sharing one table across threads is a bug; guard it with
 * rppm::Mutex and annotate if a future engine ever needs to.
 */

#ifndef RPPM_PROFILE_REUSE_TABLES_HH
#define RPPM_PROFILE_REUSE_TABLES_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.hh"
#include "common/open_table.hh"

namespace rppm {

/**
 * Open-addressing table of per-line reuse/coherence state with flat
 * per-thread rows. Keys are stored as line+1 so 0 can mean "empty"
 * (line numbers are addr / lineBytes < 2^58, so +1 never wraps). The
 * shared scalar state is interleaved in one struct and the per-thread
 * (count, seq) pair is adjacent in memory, so an access touches two
 * cache lines instead of five.
 */
class LineTable
{
  public:
    /** One hash slot: key and shared per-line scalar state together, so
     *  the probe and the state update touch the same cache line. Kept
     *  trivial (no default member initializers): slots live in
     *  deliberately uninitialized arrays and are only written on claim —
     *  implicit zero-construction would memset the whole presized table
     *  on every profile call. */
    struct Meta
    {
        uint64_t key; ///< line+1; 0 = empty slot (used_ is authoritative)
        uint64_t lastGlobalSeq;
        uint64_t lastWriteSeq;
        uint32_t lastWriter;
        uint32_t pad;
    };

    /** One thread's view of one line; trivial for the same reason. */
    struct PerThread
    {
        uint64_t count; ///< thread-local access counter at last touch
        uint64_t seq;   ///< global sequence number at last touch
    };

    /**
     * @param num_threads workload thread count
     * @param mem_ops total dynamic memory accesses, used to presize the
     *        table: distinct lines cannot exceed mem_ops, and empirically
     *        run well below half of it, so presizing to ~mem_ops/2 slots
     *        (bounded to keep degenerate traces cheap) avoids mid-sweep
     *        rehashes of the whole table.
     */
    LineTable(uint32_t num_threads, uint64_t mem_ops)
        : threads_(num_threads)
    {
        uint64_t cap = uint64_t{1} << 16;
        const uint64_t want = std::min<uint64_t>(mem_ops / 2,
                                                 uint64_t{1} << 20);
        while (cap < want)
            cap *= 2;
        grow(static_cast<size_t>(cap));
    }

    /** Slot for @p line, inserting zero-initialized state if absent. */
    size_t
    slot(uint64_t line)
    {
        if ((size_ + 1) * 10 >= cap_ * 7)
            grow(cap_ * 2);
        const uint64_t key = line + 1;
        size_t i = static_cast<size_t>(mix64(key)) & mask_;
        while (true) {
            if (!used_[i]) {
                used_[i] = 1;
                meta_[i] = Meta{key, 0, 0, UINT32_MAX, 0};
                for (uint32_t t = 0; t < threads_; ++t)
                    pt_[i * threads_ + t] = PerThread{};
                ++size_;
                return i;
            }
            if (meta_[i].key == key)
                return i;
            i = (i + 1) & mask_;
        }
    }

    Meta &meta(size_t s) { return meta_[s]; }
    PerThread &perThread(size_t s, uint32_t tid)
    {
        return pt_[s * threads_ + tid];
    }

  private:
    void
    grow(size_t new_cap)
    {
        std::vector<uint8_t> old_used = std::move(used_);
        auto old_meta = std::move(meta_);
        auto old_pt = std::move(pt_);
        const size_t old_cap = cap_;

        cap_ = new_cap;
        mask_ = cap_ - 1;
        // Only the occupancy bytes are zeroed up front (cap_ bytes); the
        // wide slot and per-thread arrays stay uninitialized until their
        // slot is claimed. Presizing for hundreds of thousands of lines
        // would otherwise spend more time in memset than the rehashes it
        // avoids.
        used_.assign(cap_, 0);
        meta_ = std::make_unique_for_overwrite<Meta[]>(cap_);
        pt_ = std::make_unique_for_overwrite<PerThread[]>(cap_ * threads_);

        for (size_t i = 0; i < old_cap; ++i) {
            if (!old_used[i])
                continue;
            size_t j =
                static_cast<size_t>(mix64(old_meta[i].key)) & mask_;
            while (used_[j])
                j = (j + 1) & mask_;
            used_[j] = 1;
            meta_[j] = old_meta[i];
            for (uint32_t t = 0; t < threads_; ++t)
                pt_[j * threads_ + t] = old_pt[i * threads_ + t];
        }
    }

    uint32_t threads_;
    size_t cap_ = 0;
    size_t mask_ = 0;
    size_t size_ = 0;
    std::vector<uint8_t> used_;
    std::unique_ptr<Meta[]> meta_;
    std::unique_ptr<PerThread[]> pt_;
};

/**
 * Open-addressing map line -> sequence number (instruction stream). The
 * generic table this used to implement inline now lives in
 * common/open_table.hh (the simulator's coherence directory shares it);
 * keeping the historical alias preserves the profiler's vocabulary.
 */
using SeqTable = OpenTable<uint64_t>;

/**
 * Instruction-line -> last-fetch map. PC lines are small and dense for
 * every realistic code footprint, so the common case is a flat array
 * indexed by line (0 = never fetched; fetch counters start at 1); lines
 * beyond the flat range fall back to the open-addressing SeqTable.
 * Semantically identical to the legacy unordered_map<line, seq>.
 */
class InstrLineMap
{
  public:
    static constexpr uint64_t kFlatLines = 1u << 16;

    InstrLineMap() { flat_.assign(kFlatLines, 0); }

    /** Last-fetch slot for @p line; @p inserted = first fetch of it. */
    uint64_t &
    lookup(uint64_t line, bool &inserted)
    {
        if (line < kFlatLines) {
            uint64_t &v = flat_[line];
            inserted = v == 0;
            return v;
        }
        return overflow_.lookup(line, inserted);
    }

  private:
    std::vector<uint64_t> flat_;
    SeqTable overflow_;
};

} // namespace rppm

#endif // RPPM_PROFILE_REUSE_TABLES_HH
