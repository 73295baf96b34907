#include "trace/trace_io.hh"

#include <fstream>
#include <ostream>
#include <stdexcept>

#include "common/binio.hh"

namespace rppm {

// kTraceMagic and the TraceColumnTag values live in trace_io.hh, shared
// with the chunked out-of-core reader (trace_stream.hh).

void
saveTrace(const ColumnarTrace &trace, std::ostream &os)
{
    BinWriter out(kTraceMagic, kTraceFormatVersion);
    out.str(trace.name);
    out.u64(trace.threads.size());
    for (const ThreadColumns &cols : trace.threads) {
        out.u64(cols.numRecords());
        out.column(kTagOp, cols.op);
        out.column(kTagPc, cols.pc);
        out.column(kTagDep1, cols.dep1);
        out.column(kTagDep2, cols.dep2);
        out.column(kTagAddr, cols.addr);
        out.column(kTagTaken, cols.taken);
        out.column(kTagSyncPos, cols.syncPos);
        out.column(kTagSyncTyp, cols.syncType);
        out.column(kTagSyncArg, cols.syncArg);
    }
    os.write(out.data().data(),
             static_cast<std::streamsize>(out.data().size()));
    if (!os)
        throw std::runtime_error("trace write failed");
}

namespace {

/** Column @p tag of the mapped image, borrowed in place. */
template <typename T>
Column<T>
viewColumn(BinReader &in, uint32_t tag, const char *what)
{
    const auto [p, n] = in.columnView<T>(tag, what);
    return Column<T>::borrow(p, n);
}

/**
 * Structural parse of a mapped RPPMTRC image: header, tags, element
 * sizes, bounds, trailing bytes and dense/sparse cross-consistency. The
 * columns point into the image instead of copying it.
 */
ColumnarTrace
parseTrace(BinReader &in, size_t image_size)
{
    ColumnarTrace trace;
    trace.name = in.str("name");
    const uint64_t threads = in.u64("thread count");
    // An absurd thread count means corruption; fail before allocating.
    if (threads > image_size)
        in.fail("thread count exceeds file size");
    trace.threads.resize(threads);
    for (uint64_t t = 0; t < threads; ++t) {
        ThreadColumns &cols = trace.threads[t];
        const uint64_t records = in.u64("record count");
        cols.op = viewColumn<OpClass>(in, kTagOp, "op column");
        cols.pc = viewColumn<uint32_t>(in, kTagPc, "pc column");
        cols.dep1 = viewColumn<uint16_t>(in, kTagDep1, "dep1 column");
        cols.dep2 = viewColumn<uint16_t>(in, kTagDep2, "dep2 column");
        cols.addr = viewColumn<uint64_t>(in, kTagAddr, "addr column");
        cols.taken = viewColumn<uint8_t>(in, kTagTaken, "taken column");
        cols.syncPos =
            viewColumn<uint64_t>(in, kTagSyncPos, "syncPos column");
        cols.syncType =
            viewColumn<SyncType>(in, kTagSyncTyp, "syncType column");
        cols.syncArg =
            viewColumn<uint32_t>(in, kTagSyncArg, "syncArg column");
        if (cols.op.size() != records)
            in.fail("record count does not match op column");
    }
    if (!in.atEnd())
        in.fail("trailing bytes after last thread");
    // Cross-check dense/sparse column consistency (also throws
    // std::invalid_argument) before handing the trace to consumers that
    // index the sparse columns blindly.
    trace.validateColumnConsistency();
    return trace;
}

} // namespace

ColumnarTrace
loadTraceView(std::shared_ptr<const MappedFile> image)
{
    BinReader in(image->view(), kTraceMagic, kTraceFormatVersionMin,
                 kTraceFormatVersion);
    in.setBlockCrcVerify(in.version() >= kTraceFormatVersionCrc);
    ColumnarTrace trace = parseTrace(in, image->size());
    // The columns alias the mapped bytes; the trace keeps the image
    // alive (and marks itself borrowed) by holding it.
    trace.storage = std::move(image);
    return trace;
}

ColumnarTrace
loadTraceViewFromFile(const std::string &path)
{
    return loadTraceView(MappedFile::open(path));
}

void
saveTraceToFile(const ColumnarTrace &trace, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        throw std::runtime_error("cannot open " + path + " for writing");
    saveTrace(trace, os);
}

} // namespace rppm
