#include "trace/trace_io.hh"

#include <fstream>
#include <ostream>
#include <stdexcept>
#include <type_traits>

#include "common/binio.hh"
#include "common/mmap.hh"
#include "trace/trace_stream.hh"

namespace rppm {

void
saveTrace(const ColumnarTrace &trace, std::ostream &os)
{
    BinWriter out(kTraceMagic, kTraceFormatVersion);
    out.str(trace.name);
    out.u64(trace.threads.size());
    // One column at a time reaches the stream: the buffer never holds
    // more than the largest column.
    const auto column = [&](uint32_t tag, const auto &data) {
        out.column(tag, data);
        out.flushTo(os);
    };
    for (const ThreadColumns &cols : trace.threads) {
        out.u64(cols.numRecords());
        column(kTagOp, cols.op);
        column(kTagPc, cols.pc);
        column(kTagDep1, cols.dep1);
        column(kTagDep2, cols.dep2);
        column(kTagAddr, cols.addr);
        column(kTagTaken, cols.taken);
        column(kTagSyncPos, cols.syncPos);
        column(kTagSyncTyp, cols.syncType);
        column(kTagSyncArg, cols.syncArg);
    }
    out.flushTo(os);
}

ColumnarTrace
loadTraceViewFromFile(const std::string &path)
{
    // The index is the one structural parse; the mapping only lends the
    // payload bytes it located.
    const TraceFileLayout layout = indexTraceFile(FdFile(path));
    std::shared_ptr<const MappedFile> image = MappedFile::open(path);
    if (image->size() != layout.fileSize)
        throw std::invalid_argument(
            "binary container: file changed size while loading");

    const auto borrow = [&](auto &column, const ColumnExtent &ext,
                            const char *name) {
        using T = typename std::decay_t<decltype(column)>::value_type;
        const char *p = image->data() + ext.offset;
        const auto count = static_cast<size_t>(ext.count);
        checkColumnCrc(layout, ext, p, count * sizeof(T), name);
        column = Column<T>::borrow(reinterpret_cast<const T *>(p), count);
    };
    ColumnarTrace trace;
    trace.name = layout.name;
    trace.threads.resize(layout.threads.size());
    for (size_t t = 0; t < layout.threads.size(); ++t) {
        const ThreadLayout &th = layout.threads[t];
        ThreadColumns &cols = trace.threads[t];
        borrow(cols.op, th.op, "op");
        borrow(cols.pc, th.pc, "pc");
        borrow(cols.dep1, th.dep1, "dep1");
        borrow(cols.dep2, th.dep2, "dep2");
        borrow(cols.addr, th.addr, "addr");
        borrow(cols.taken, th.taken, "taken");
        borrow(cols.syncPos, th.syncPos, "syncPos");
        borrow(cols.syncType, th.syncType, "syncType");
        borrow(cols.syncArg, th.syncArg, "syncArg");
    }
    // Consumers index the sparse columns blindly, so cross-check them
    // against the dense ones before handing the trace out. The columns
    // alias the mapped bytes; the trace keeps the image alive.
    trace.validateColumnConsistency();
    trace.storage = std::move(image);
    return trace;
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
