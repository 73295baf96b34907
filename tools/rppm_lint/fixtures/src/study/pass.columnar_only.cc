// Fixture: a study-layer source that builds and holds only columns.
// Naming the AoS WorkloadTrace in a comment is fine, and so are longer
// identifiers such as ThreadTraceBuilder. Expected: clean.
#include "trace/trace_builder.hh"

namespace rppm {

inline ColumnarTrace
oneThread()
{
    ColumnarTrace trace;
    trace.threads.resize(1);
    ThreadTraceBuilder builder(trace.threads[0]);
    builder.op(OpClass::IntAlu, 0);
    const char *label = "WorkloadTrace";
    (void)label;
    return trace;
}

} // namespace rppm
