// Fixture: a study-layer source keeping the AoS record form beside its
// columns. Expected: >= 1 [aos-trace] finding.
#include "trace/columnar.hh"

namespace rppm {

struct SourceState
{
    ColumnarTrace columnar;
    WorkloadTrace records;
};

} // namespace rppm
