#include "trace/trace_builder.hh"

namespace rppm {

void
ThreadTraceBuilder::record(const TraceRecord &rec)
{
    if (rec.isSync()) {
        cols_.syncPos.push_back(cols_.numRecords());
        cols_.syncType.push_back(rec.sync);
        cols_.syncArg.push_back(rec.syncArg);
    } else if (isMemory(rec.op)) {
        cols_.addr.push_back(rec.addr);
    } else if (rec.op == OpClass::Branch) {
        cols_.taken.push_back(rec.taken ? 1 : 0);
    }
    // Sync slots carry neutral dense values (IntAlu, pc 0, deps 0).
    const bool sync = rec.isSync();
    cols_.op.push_back(sync ? OpClass::IntAlu : rec.op);
    cols_.pc.push_back(sync ? 0 : rec.pc);
    cols_.dep1.push_back(sync ? 0 : rec.dep1);
    cols_.dep2.push_back(sync ? 0 : rec.dep2);
}

} // namespace rppm
