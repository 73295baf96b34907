/**
 * @file
 * Minimal binary container primitives shared by the trace and profile
 * serializers.
 *
 * Layout discipline (the "RPPM binary container"):
 *  - a fixed-size header: 8-byte magic, an endianness marker, a format
 *    version — readers reject anything they do not understand;
 *  - after the header, a sequence of *blocks*: a 16-byte block header
 *    (u32 tag, u32 element size, u64 element count) followed by the raw
 *    element data, padded to 8-byte alignment;
 *  - when the writer emits checksums (the default for every current
 *    format version), each block additionally carries an 8-byte trailer
 *    after the payload padding: u32 CRC32C of the payload bytes
 *    (common/crc32c.hh) plus u32 reserved-zero, so blocks stay 8-byte
 *    aligned on both ends. Readers opt in per format version via
 *    setBlockCrcVerify(); a mismatch means a torn write or bit-flip and
 *    is rejected like any other structural defect.
 *
 * Because every block states its size up front and data is 8-byte
 * aligned, a consumer can mmap the file and point straight into the
 * column payloads without parsing them: the RPPMTRC readers index the
 * blocks with pread (trace/trace_stream.hh) and then borrow or window
 * the payloads. BinReader here walks an in-memory image instead (the
 * RPPMPRF profile and the wire messages), copying each column out.
 *
 * BinWriter builds an image in memory; writing columns a piece at a
 * time (beginColumn/payload/endColumn) and draining the buffer with
 * flushTo() writes a file of any size in O(1) memory, same bytes.
 *
 * All multi-byte values are in host byte order; the endianness marker in
 * the header makes cross-endian files fail loudly instead of silently
 * decoding garbage.
 */

#ifndef RPPM_COMMON_BINIO_HH
#define RPPM_COMMON_BINIO_HH

#include <cstdint>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/crc32c.hh"

namespace rppm {

/** Marker written after the magic; a mismatch means a foreign-endian
 *  (or corrupt) file. */
constexpr uint32_t kBinEndianMarker = 0x01020304u;

/** Append-only builder for the binary container. */
class BinWriter
{
  public:
    /**
     * Start a container: magic (exactly 8 bytes), endianness, version.
     * @p block_crcs controls whether column blocks carry the CRC32C
     * trailer; pass false only to craft legacy (pre-checksum) images,
     * e.g. version-1 fixtures in tests.
     */
    BinWriter(const char magic[8], uint32_t version, bool block_crcs = true)
        : blockCrcs_(block_crcs)
    {
        buf_.append(magic, 8);
        u32(kBinEndianMarker);
        u32(version);
    }

    void u8(uint8_t v) { raw(&v, sizeof(v)); }
    void u16(uint16_t v) { raw(&v, sizeof(v)); }
    void u32(uint32_t v) { raw(&v, sizeof(v)); }
    void u64(uint64_t v) { raw(&v, sizeof(v)); }
    void f64(double v) { raw(&v, sizeof(v)); }

    /** Length-prefixed string, padded to 8 bytes. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        raw(s.data(), s.size());
        pad8();
    }

    /** One column block: header + raw element data. The block is padded
     *  to 8-byte alignment on both ends, so block headers and element
     *  payloads always start at 8-byte offsets regardless of what scalar
     *  fields precede them — this is what keeps the format mmap-safe.
     *  Accepts any contiguous container exposing data()/size() and a
     *  trivially-copyable value_type (std::vector, Column<T>, ...). */
    template <typename C>
    void
    column(uint32_t tag, const C &data)
    {
        using T = typename C::value_type;
        static_assert(std::is_trivially_copyable_v<T>);
        beginColumn(tag, sizeof(T), data.size());
        payload(data.data(), data.size() * sizeof(T));
        endColumn();
    }

    /** Open a block of @p count elements of @p elem_size bytes whose
     *  payload then arrives piecewise through payload(). */
    void
    beginColumn(uint32_t tag, uint32_t elem_size, uint64_t count)
    {
        pad8();
        u32(tag);
        u32(elem_size);
        u64(count);
        payloadLeft_ = count * elem_size;
        crc_ = kCrc32cInit;
    }

    /** Append @p n payload bytes to the open column. */
    void
    payload(const void *p, size_t n)
    {
        if (n > payloadLeft_)
            throw std::logic_error("binary container: column overrun");
        payloadLeft_ -= n;
        crc_ = crc32cExtend(crc_, p, n);
        raw(p, n);
    }

    /** Close the open column: payload padding, then the CRC trailer. */
    void
    endColumn()
    {
        if (payloadLeft_ != 0)
            throw std::logic_error("binary container: column underrun");
        pad8();
        if (blockCrcs_) {
            u32(crc_);
            u32(0); // reserved; keeps the trailer 8 bytes
        }
    }

    /** Write the buffered bytes to @p os and drop them from the buffer;
     *  throws std::runtime_error on a failed write. */
    void
    flushTo(std::ostream &os)
    {
        os.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
        if (!os)
            throw std::runtime_error("binary container: write failed");
        flushed_ += buf_.size();
        buf_.clear();
    }

    /** The bytes buffered since the last flushTo() (the whole image
     *  when nothing was flushed). */
    const std::string &data() const { return buf_; }

  private:
    void
    raw(const void *p, size_t n)
    {
        buf_.append(static_cast<const char *>(p), n);
    }

    void
    pad8()
    {
        while ((flushed_ + buf_.size()) % 8 != 0)
            buf_.push_back('\0');
    }

    std::string buf_;
    uint64_t flushed_ = 0;     ///< bytes already written by flushTo()
    uint64_t payloadLeft_ = 0; ///< open column's payload bytes to come
    uint32_t crc_ = kCrc32cInit; ///< open column's running CRC32C
    bool blockCrcs_;
};

/** Bounds-checked reader over an in-memory container image. */
class BinReader
{
  public:
    /**
     * Bind to @p data and validate the header. Throws
     * std::invalid_argument on bad magic, foreign endianness, or a
     * version other than @p expect_version (old/new formats are rejected,
     * never half-decoded). The reader never outlives @p data.
     */
    BinReader(std::string_view data, const char magic[8],
              uint32_t expect_version)
        : BinReader(data, magic, expect_version, expect_version)
    {
    }

    /**
     * Version-range overload for formats that still load older images
     * (e.g. pre-checksum v1 containers): accepts any version in
     * [min_version, max_version] and exposes the one seen via
     * version(), so the caller can adapt (typically
     * setBlockCrcVerify(version() >= first-checksummed-version)).
     */
    BinReader(std::string_view data, const char magic[8],
              uint32_t min_version, uint32_t max_version)
        : p_(data.data()), end_(data.data() + data.size()), base_(p_)
    {
        char seen[8];
        bytes(seen, 8, "magic");
        if (std::memcmp(seen, magic, 8) != 0)
            fail("bad magic (not this container format)");
        if (u32("endianness") != kBinEndianMarker)
            fail("foreign byte order");
        version_ = u32("version");
        if (version_ < min_version || version_ > max_version) {
            fail("unsupported format version " + std::to_string(version_) +
                 " (expected " + std::to_string(min_version) +
                 (max_version != min_version
                      ? ".." + std::to_string(max_version)
                      : "") +
                 ")");
        }
    }

    /** The container version seen in the header. */
    uint32_t version() const { return version_; }

    /** Enable (or disable) verification of per-block CRC32C trailers.
     *  The caller decides from version(): formats grew trailers at a
     *  specific version, and reading a trailer that is not there would
     *  misparse the stream. */
    void setBlockCrcVerify(bool verify) { blockCrcs_ = verify; }

    void
    bytes(void *out, size_t n, const char *what)
    {
        if (remaining() < n)
            fail(std::string("truncated input reading ") + what);
        std::memcpy(out, p_, n);
        p_ += n;
    }

    uint8_t u8(const char *what) { return pod<uint8_t>(what); }
    uint16_t u16(const char *what) { return pod<uint16_t>(what); }
    uint32_t u32(const char *what) { return pod<uint32_t>(what); }
    uint64_t u64(const char *what) { return pod<uint64_t>(what); }
    double f64(const char *what) { return pod<double>(what); }

    std::string
    str(const char *what)
    {
        const uint64_t n = u64(what);
        if (n > remaining())
            fail(std::string("truncated string: ") + what);
        std::string s(p_, n);
        p_ += n;
        skipPad8();
        return s;
    }

    /** Read one column block; the tag and element size must match. */
    template <typename T>
    std::vector<T>
    column(uint32_t tag, const char *what)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        skipPad8();
        const uint32_t seen_tag = u32(what);
        if (seen_tag != tag)
            fail(std::string("unexpected block tag for ") + what);
        const uint32_t elem = u32(what);
        if (elem != sizeof(T))
            fail(std::string("element size mismatch in ") + what);
        const uint64_t count = u64(what);
        if (count > remaining() / sizeof(T))
            fail(std::string("truncated column: ") + what);
        std::vector<T> data(count);
        if (count > 0)
            std::memcpy(data.data(), p_, count * sizeof(T));
        const char *payload = p_;
        p_ += count * sizeof(T);
        skipPad8();
        checkBlockCrc(payload, count * sizeof(T), what);
        return data;
    }

    /** True once the whole image has been consumed. */
    bool atEnd() const { return p_ == end_; }

    /** Bytes left in the image; use to sanity-bound untrusted counts
     *  before reserving memory for them. */
    size_t remainingBytes() const { return remaining(); }

    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw std::invalid_argument("binary container: " + msg);
    }

  private:
    template <typename T>
    T
    pod(const char *what)
    {
        if (remaining() < sizeof(T))
            fail(std::string("truncated input reading ") + what);
        T v;
        std::memcpy(&v, p_, sizeof(T));
        p_ += sizeof(T);
        return v;
    }

    size_t remaining() const { return static_cast<size_t>(end_ - p_); }

    void
    skipPad8()
    {
        const size_t off = static_cast<size_t>(p_ - base_);
        const size_t pad = (8 - off % 8) % 8;
        if (pad > remaining())
            fail("truncated padding");
        p_ += pad;
    }

    /** Consume and verify a block's CRC trailer (no-op unless
     *  setBlockCrcVerify(true)); called after the payload padding. */
    void
    checkBlockCrc(const char *payload, size_t n, const char *what)
    {
        if (!blockCrcs_)
            return;
        const uint32_t stored = u32(what);
        u32(what); // reserved
        if (stored != crc32c(payload, n))
            fail(std::string("checksum mismatch in ") + what +
                 " (torn write or corruption)");
    }

    const char *p_;
    const char *end_;
    const char *base_;
    uint32_t version_ = 0;
    bool blockCrcs_ = false;
};

} // namespace rppm

#endif // RPPM_COMMON_BINIO_HH
