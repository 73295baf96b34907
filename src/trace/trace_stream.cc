#include "trace/trace_stream.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/assert.hh"
#include "common/binio.hh"
#include "common/crc32c.hh"
#include "trace/trace_io.hh"

namespace rppm {

namespace {

[[noreturn]] void
fail(const std::string &msg)
{
    // Same exception type and prefix as BinReader::fail, the other
    // container decoder.
    throw std::invalid_argument("binary container: " + msg);
}

/** pread-backed cursor mirroring BinReader's walk over an image. */
class FileWalker
{
  public:
    explicit FileWalker(const FdFile &file)
        : file_(file), size_(file.size())
    {
    }

    uint64_t offset() const { return off_; }
    uint64_t remaining() const { return size_ - off_; }

    void
    bytes(void *out, size_t n, const std::string &what)
    {
        if (remaining() < n)
            fail(std::string("truncated input reading ") + what);
        file_.pread(out, n, off_);
        off_ += n;
    }

    template <typename T = uint64_t>
    T
    pod(const std::string &what)
    {
        T v;
        bytes(&v, sizeof(v), what);
        return v;
    }

    void
    skip(uint64_t n, const std::string &what)
    {
        if (remaining() < n)
            fail(std::string("truncated input reading ") + what);
        off_ += n;
    }

    void
    skipPad8()
    {
        const uint64_t pad = (8 - off_ % 8) % 8;
        if (pad > remaining())
            fail("truncated padding");
        off_ += pad;
    }

  private:
    const FdFile &file_;
    uint64_t size_;
    uint64_t off_ = 0;
};

/** Walk one column block header, record its extent, skip its payload.
 *  For checksummed (version >= 2) files, consume the 8-byte trailer and
 *  record the stored CRC so readers can verify payloads later. */
ColumnExtent
walkColumn(FileWalker &in, const TraceColumnSpec &col, bool hasCrc)
{
    const std::string what = std::string(col.name) + " column";
    in.skipPad8();
    if (in.pod<uint32_t>(what) != col.tag)
        fail("unexpected block tag for " + what);
    if (in.pod<uint32_t>(what) != col.elemSize)
        fail("element size mismatch in " + what);
    const uint64_t count = in.pod(what);
    if (count > in.remaining() / col.elemSize)
        fail("truncated column: " + what);
    ColumnExtent ext;
    ext.offset = in.offset();
    ext.count = count;
    in.skip(count * col.elemSize, what);
    in.skipPad8();
    if (hasCrc) {
        ext.crc = in.pod<uint32_t>(what);
        in.pod<uint32_t>(what); // reserved
    }
    return ext;
}

} // namespace

TraceFileLayout
indexTraceFile(const FdFile &file)
{
    TraceFileLayout layout;
    layout.fileSize = file.size();

    FileWalker in(file);
    char magic[8];
    in.bytes(magic, 8, "magic");
    if (std::memcmp(magic, kTraceMagic, 8) != 0)
        fail("bad magic (not this container format)");
    if (in.pod<uint32_t>("endianness") != kBinEndianMarker)
        fail("foreign byte order");
    const uint32_t version = in.pod<uint32_t>("version");
    if (version < kTraceFormatVersionMin || version > kTraceFormatVersion) {
        fail("unsupported format version " + std::to_string(version) +
             " (expected " + std::to_string(kTraceFormatVersionMin) +
             ".." + std::to_string(kTraceFormatVersion) + ")");
    }
    layout.version = version;
    layout.hasBlockCrcs = version >= kTraceFormatVersionCrc;

    const uint64_t nameLen = in.pod("name");
    if (nameLen > in.remaining())
        fail("truncated string: name");
    layout.name.resize(nameLen);
    if (nameLen > 0)
        in.bytes(layout.name.data(), nameLen, "name");
    in.skipPad8();

    const uint64_t threads = in.pod("thread count");
    // An absurd thread count means corruption; fail before allocating.
    if (threads > layout.fileSize)
        fail("thread count exceeds file size");
    layout.threads.resize(threads);
    const bool crcs = layout.hasBlockCrcs;
    for (uint64_t t = 0; t < threads; ++t) {
        ThreadLayout &th = layout.threads[t];
        th.records = in.pod("record count");
        for (const TraceColumnSpec &col : kTraceColumns)
            th.*col.extent = walkColumn(in, col, crcs);
        if (th.op.count != th.records)
            fail("record count does not match op column");
        if (th.pc.count != th.records || th.dep1.count != th.records ||
            th.dep2.count != th.records) {
            fail("dense column lengths differ");
        }
        if (th.addr.count > th.records || th.taken.count > th.records)
            fail("sparse column longer than record count");
        if (th.syncType.count != th.syncPos.count ||
            th.syncArg.count != th.syncPos.count) {
            fail("sync column lengths differ");
        }
    }
    if (in.remaining() != 0)
        fail("trailing bytes after last thread");
    return layout;
}

void
checkColumnCrc(const TraceFileLayout &layout, const ColumnExtent &ext,
               const void *data, size_t bytes, const char *name)
{
    if (layout.hasBlockCrcs && crc32c(data, bytes) != ext.crc)
        fail(std::string("checksum mismatch in ") + name +
             " column (torn write or corruption)");
}

std::vector<ResidentSync>
loadSyncColumns(const FdFile &file, const TraceFileLayout &layout)
{
    std::vector<ResidentSync> sync(layout.threads.size());
    for (size_t t = 0; t < layout.threads.size(); ++t) {
        const ThreadLayout &th = layout.threads[t];
        ResidentSync &s = sync[t];
        // Sync columns are resident anyway, so verify them here in one
        // shot; the dense columns are verified incrementally as the
        // chunk reader maps them.
        const auto read = [&](auto &column, const ColumnExtent &ext,
                              const char *name) {
            column.resize(static_cast<size_t>(ext.count));
            const size_t bytes = column.size() * sizeof(column[0]);
            if (bytes > 0)
                file.pread(column.data(), bytes, ext.offset);
            checkColumnCrc(layout, ext, column.data(), bytes, name);
        };
        read(s.pos, th.syncPos, "syncPos");
        read(s.type, th.syncType, "syncType");
        read(s.arg, th.syncArg, "syncArg");
        const size_t n = s.pos.size();
        uint64_t prev = 0;
        for (size_t k = 0; k < n; ++k) {
            if (s.pos[k] >= th.records)
                fail("sync position out of range");
            if (k > 0 && s.pos[k] <= prev)
                fail("sync positions not strictly ascending");
            prev = s.pos[k];
        }
    }
    return sync;
}

StreamCrcVerifier::StreamCrcVerifier(const TraceFileLayout &layout)
{
    MutexLock lock(mutex_);
    states_.resize(layout.threads.size() * kNumColumns);
    for (size_t t = 0; t < layout.threads.size(); ++t) {
        const ThreadLayout &th = layout.threads[t];
        const ColumnExtent *exts[kNumColumns] = {&th.op,   &th.pc,
                                                 &th.dep1, &th.dep2,
                                                 &th.addr, &th.taken};
        for (uint32_t c = 0; c < kNumColumns; ++c) {
            State &s = states_[t * kNumColumns + c];
            s.count = exts[c]->count;
            s.expect = exts[c]->crc;
            if (s.count == 0) {
                // Empty columns have nothing to fold; check now.
                if (s.expect != kCrc32cInit)
                    fail("checksum mismatch in empty column "
                         "(torn write or corruption)");
                s.frontier = kRetired;
                ++verified_;
            }
        }
    }
}

void
StreamCrcVerifier::fold(uint32_t t, Column col, uint64_t lo, uint64_t hi,
                        const void *data, size_t elemSize)
{
    MutexLock lock(mutex_);
    State &s = states_[t * kNumColumns + col];
    if (s.frontier == kRetired)
        return;
    if (lo != s.frontier) {
        // Out-of-order access: the running CRC can no longer cover the
        // column contiguously. Retire it from verification — missing a
        // check is acceptable, a false mismatch is not.
        s.frontier = kRetired;
        return;
    }
    s.crc = crc32cExtend(s.crc, data, (hi - lo) * elemSize);
    s.frontier = hi;
    if (s.frontier == s.count) {
        if (s.crc != s.expect)
            fail("checksum mismatch in streamed column "
                 "(torn write or corruption)");
        s.frontier = kRetired;
        ++verified_;
    }
}

uint64_t
StreamCrcVerifier::columnsVerified() const
{
    MutexLock lock(mutex_);
    return verified_;
}

TraceChunk
TraceChunkReader::read(uint32_t t, size_t recLo, size_t recHi,
                       uint64_t memLo, uint64_t memHi, uint64_t brLo,
                       uint64_t brHi) const
{
    const ThreadLayout &th = layout_.threads[t];
    RPPM_REQUIRE(recLo <= recHi && recHi <= th.records &&
                     memLo <= memHi && memHi <= th.addr.count &&
                     brLo <= brHi && brHi <= th.taken.count,
                 "trace chunk range out of bounds");

    TraceChunk chunk;
    chunk.recLo = recLo;
    chunk.recHi = recHi;
    chunk.memLo = memLo;
    chunk.memHi = memHi;
    chunk.brLo = brLo;
    chunk.brHi = brHi;
    chunk.windows.reserve(6);

    // One mapping per column slice. Payload offsets are 8-byte aligned
    // by the container discipline, and every element size divides 8, so
    // each window's data pointer is correctly aligned for its type.
    auto mapSlice = [&](const ColumnExtent &ext, uint64_t lo, uint64_t hi,
                        size_t elem,
                        StreamCrcVerifier::Column col) -> const char * {
        if (lo == hi)
            return nullptr;
        MappedWindow w;
        w.map(file_, ext.offset + lo * elem,
              static_cast<size_t>((hi - lo) * elem));
        chunk.windows.push_back(std::move(w));
        const char *data = chunk.windows.back().data();
        if (verifier_)
            verifier_->fold(t, col, lo, hi, data, elem);
        return data;
    };

    chunk.op = reinterpret_cast<const OpClass *>(
        mapSlice(th.op, recLo, recHi, 1, StreamCrcVerifier::kColOp));
    chunk.pc = reinterpret_cast<const uint32_t *>(
        mapSlice(th.pc, recLo, recHi, 4, StreamCrcVerifier::kColPc));
    chunk.dep1 = reinterpret_cast<const uint16_t *>(
        mapSlice(th.dep1, recLo, recHi, 2, StreamCrcVerifier::kColDep1));
    chunk.dep2 = reinterpret_cast<const uint16_t *>(
        mapSlice(th.dep2, recLo, recHi, 2, StreamCrcVerifier::kColDep2));
    chunk.addr = reinterpret_cast<const uint64_t *>(
        mapSlice(th.addr, memLo, memHi, 8, StreamCrcVerifier::kColAddr));
    chunk.taken = reinterpret_cast<const uint8_t *>(
        mapSlice(th.taken, brLo, brHi, 1, StreamCrcVerifier::kColTaken));
    return chunk;
}

uint64_t
verifyTraceFileCrcs(const FdFile &file, const TraceFileLayout &layout)
{
    if (!layout.hasBlockCrcs)
        return 0;
    // Bounded scratch: big enough to amortize syscalls, small enough to
    // stay out-of-core friendly.
    constexpr size_t kSpanBytes = size_t{1} << 20;
    std::vector<char> buf(kSpanBytes);
    uint64_t checked = 0;
    auto verify = [&](const ColumnExtent &ext, const TraceColumnSpec &col) {
        uint32_t crc = kCrc32cInit;
        uint64_t bytes = ext.count * col.elemSize;
        uint64_t off = ext.offset;
        while (bytes > 0) {
            const size_t n =
                static_cast<size_t>(std::min<uint64_t>(bytes, kSpanBytes));
            file.pread(buf.data(), n, off);
            crc = crc32cExtend(crc, buf.data(), n);
            off += n;
            bytes -= n;
        }
        if (crc != ext.crc)
            fail(std::string("checksum mismatch in ") + col.name +
                 " column (torn write or corruption)");
        ++checked;
    };
    for (const ThreadLayout &th : layout.threads) {
        for (const TraceColumnSpec &col : kTraceColumns)
            verify(th.*col.extent, col);
    }
    return checked;
}

void
OpColumnScanner::slide(size_t i)
{
    RPPM_REQUIRE(i >= winLo_ || winHi_ == 0,
                 "op scanner is forward-only");
    RPPM_REQUIRE(i < thread_.records, "op scan past end of thread");
    winLo_ = i;
    winHi_ = std::min(i + kSpanRecords,
                      static_cast<size_t>(thread_.records));
    win_.map(file_, thread_.op.offset + winLo_, winHi_ - winLo_);
}

} // namespace rppm
