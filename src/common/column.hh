/**
 * @file
 * Column<T>: a contiguous typed column with owned or borrowed storage.
 *
 * The columnar trace (trace/columnar.hh) historically stored each column
 * as a std::vector. That forces every consumer of an on-disk RPPMTRC file
 * to copy the payloads out of the (8-byte-aligned, mmap-friendly)
 * container even though the bytes on disk already have exactly the
 * in-memory layout. Column<T> keeps the entire read API of a const
 * vector — size()/empty()/operator[]/data()/begin()/end() — but the
 * storage behind it is either
 *
 *   owned:    a std::vector<T>, built by push_back or assigned whole
 *             (the conversion and deserialize-by-copy paths), or
 *   borrowed: a {pointer, count} view into memory owned by someone else
 *             (an mmap'd file image; see common/mmap.hh).
 *
 * Reads are branch-free in both modes: accessors go through a cached
 * {data, size} pair that mutators keep in sync. Mutating a borrowed
 * column is a programming error and panics; whoever borrows storage is
 * responsible for keeping the backing memory alive (ColumnarTrace holds
 * a shared_ptr to the MappedFile for exactly this).
 *
 * Comparison is by content, so an owned column and a borrowed view of
 * the same serialized bytes compare equal — the round-trip tests rely
 * on this to pin mmap views equal to the trace that was saved.
 */

#ifndef RPPM_COMMON_COLUMN_HH
#define RPPM_COMMON_COLUMN_HH

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hh"

namespace rppm {

template <typename T>
class Column
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "columns hold raw serialized payloads");

  public:
    using value_type = T;

    Column() = default;

    /** Take ownership of @p v (deserialize-by-copy path). */
    /* implicit */ Column(std::vector<T> v) : owned_(std::move(v))
    {
        relink();
    }

    Column &
    operator=(std::vector<T> v)
    {
        owned_ = std::move(v);
        borrowed_ = false;
        relink();
        return *this;
    }

    /** Borrow @p count elements at @p p; the caller keeps @p p alive. */
    static Column
    borrow(const T *p, size_t count)
    {
        Column c;
        c.borrowed_ = true;
        c.data_ = p;
        c.size_ = count;
        return c;
    }

    // Copies and moves must re-point the cached view at the new vector
    // buffer in owned mode (and must not, in borrowed mode, where the
    // view aliases external storage by design).
    Column(const Column &o) : owned_(o.owned_), borrowed_(o.borrowed_)
    {
        if (borrowed_) {
            data_ = o.data_;
            size_ = o.size_;
        } else {
            relink();
        }
    }

    Column(Column &&o) noexcept
        : owned_(std::move(o.owned_)), borrowed_(o.borrowed_)
    {
        if (borrowed_) {
            data_ = o.data_;
            size_ = o.size_;
        } else {
            relink();
        }
        o.owned_.clear();
        o.borrowed_ = false;
        o.relink();
    }

    Column &
    operator=(const Column &o)
    {
        if (this == &o)
            return *this;
        owned_ = o.owned_;
        borrowed_ = o.borrowed_;
        if (borrowed_) {
            data_ = o.data_;
            size_ = o.size_;
        } else {
            relink();
        }
        return *this;
    }

    Column &
    operator=(Column &&o) noexcept
    {
        if (this == &o)
            return *this;
        owned_ = std::move(o.owned_);
        borrowed_ = o.borrowed_;
        if (borrowed_) {
            data_ = o.data_;
            size_ = o.size_;
        } else {
            relink();
        }
        o.owned_.clear();
        o.borrowed_ = false;
        o.relink();
        return *this;
    }

    // --- Read API (valid in both modes, branch-free).
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const T &operator[](size_t i) const { return data_[i]; }
    const T *data() const { return data_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

    /** True when this column aliases storage it does not own. */
    bool isBorrowed() const { return borrowed_; }

    // --- Mutation (owned mode only; panics on a borrowed column).
    void
    reserve(size_t n)
    {
        RPPM_ASSERT(!borrowed_);
        owned_.reserve(n);
        relink();
    }

    void
    push_back(const T &v)
    {
        RPPM_ASSERT(!borrowed_);
        owned_.push_back(v);
        relink();
    }

    /** Content comparison, independent of storage mode. */
    bool
    operator==(const Column &o) const
    {
        if (size_ != o.size_)
            return false;
        for (size_t i = 0; i < size_; ++i) {
            if (!(data_[i] == o.data_[i]))
                return false;
        }
        return true;
    }

  private:
    void
    relink()
    {
        data_ = owned_.data();
        size_ = owned_.size();
    }

    std::vector<T> owned_;
    const T *data_ = nullptr;
    size_t size_ = 0;
    bool borrowed_ = false;
};

} // namespace rppm

#endif // RPPM_COMMON_COLUMN_HH
