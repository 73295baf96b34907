/**
 * @file
 * Read-only memory-mapped file with RAII lifetime.
 *
 * The RPPM binary containers (RPPMTRC traces, RPPMPRF profiles) are laid
 * out so that every column payload starts at an 8-byte-aligned offset;
 * mapping such a file lets a reader point straight into the payloads
 * instead of copying them into vectors. MappedFile owns the mapping; any
 * structure that borrows pointers into it (Column<T> views inside a
 * ColumnarTrace, for example) must keep a shared_ptr to the MappedFile
 * alive for as long as the pointers are used.
 *
 * The mapping is strictly PROT_READ — writing through a borrowed view is
 * a segfault, which is the cheap enforcement backing the "immutable after
 * publish" discipline for shared artifacts.
 */

#ifndef RPPM_COMMON_MMAP_HH
#define RPPM_COMMON_MMAP_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace rppm {

/** An immutable byte image of a file, mapped with mmap(PROT_READ). */
class MappedFile
{
  public:
    /** Map @p path read-only; throws std::runtime_error on any I/O
     *  failure (missing file, unreadable, mmap refusal). Empty files
     *  yield a valid zero-length image without calling mmap. */
    static std::shared_ptr<const MappedFile> open(const std::string &path);

    ~MappedFile();

    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    const char *data() const { return data_; }
    size_t size() const { return size_; }

    /** The whole image as a view (no copy). */
    std::string_view view() const { return {data_, size_}; }

    /** Path the image was mapped from (diagnostics only). */
    const std::string &path() const { return path_; }

  private:
    MappedFile(std::string path, const char *data, size_t size)
        : path_(std::move(path)), data_(data), size_(size)
    {}

    std::string path_;
    const char *data_;
    size_t size_;
};

/**
 * An open read-only file descriptor with RAII lifetime and whole-read
 * pread. The out-of-core trace reader uses this instead of MappedFile:
 * mapping a whole file charges its full size against RLIMIT_AS (the
 * `ulimit -v` memory caps out-of-core profiling must run under), whereas
 * a descriptor plus small MappedWindow views charges only the windows.
 */
class FdFile
{
  public:
    /** Open @p path read-only; throws std::runtime_error on failure. */
    explicit FdFile(const std::string &path);
    ~FdFile();

    FdFile(const FdFile &) = delete;
    FdFile &operator=(const FdFile &) = delete;

    size_t size() const { return size_; }
    const std::string &path() const { return path_; }
    int fd() const { return fd_; }

    /** Read exactly @p n bytes at @p offset into @p dst; throws
     *  std::runtime_error on any short read or I/O error. */
    void pread(void *dst, size_t n, uint64_t offset) const;

  private:
    std::string path_;
    int fd_ = -1;
    size_t size_ = 0;
};

/**
 * A remappable read-only mapping of one byte range of an FdFile.
 *
 * map() rounds the requested offset down to a page boundary internally;
 * data() always points at the requested offset. Remapping through the
 * same window (the streaming reader's double-buffered chunk slots)
 * replaces the previous mapping, so peak address-space charge stays at
 * one window's worth.
 */
class MappedWindow
{
  public:
    MappedWindow() = default;
    ~MappedWindow() { reset(); }

    MappedWindow(const MappedWindow &) = delete;
    MappedWindow &operator=(const MappedWindow &) = delete;
    MappedWindow(MappedWindow &&other) noexcept { *this = std::move(other); }
    MappedWindow &
    operator=(MappedWindow &&other) noexcept
    {
        if (this != &other) {
            reset();
            base_ = other.base_;
            mapLen_ = other.mapLen_;
            data_ = other.data_;
            len_ = other.len_;
            other.base_ = nullptr;
            other.mapLen_ = 0;
            other.data_ = nullptr;
            other.len_ = 0;
        }
        return *this;
    }

    /** Map bytes [offset, offset + len) of @p file, replacing any
     *  previous mapping; throws std::runtime_error on bounds or mmap
     *  failure. len == 0 just resets. */
    void map(const FdFile &file, uint64_t offset, size_t len);

    /** Unmap; data() becomes nullptr. */
    void reset();

    const char *data() const { return data_; }
    size_t size() const { return len_; }

  private:
    char *base_ = nullptr;  ///< page-aligned mapping base
    size_t mapLen_ = 0;     ///< mapped length from base_
    const char *data_ = nullptr; ///< base_ + in-page offset
    size_t len_ = 0;
};

} // namespace rppm

#endif // RPPM_COMMON_MMAP_HH
