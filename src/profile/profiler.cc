/**
 * @file
 * Engine selection for profileWorkload().
 *
 * Two engines run the one statistics sweep (profile/stat_sweep.hh) and
 * produce bit-identical profiles: the chunked streaming engine
 * (profiler_stream.cc) when opts.streamChunkRecords > 0, otherwise the
 * epoch-sharded engine (profiler_parallel.cc) at every job count —
 * jobs == 1 runs it serially. Both are checked byte-for-byte against
 * the multi-pass reference profileWorkloadLegacy() (profiler_legacy.cc).
 */

#include "profile/profiler.hh"

#include "profile/stat_sweep.hh"
#include "trace/columnar.hh"

namespace rppm {

WorkloadProfile
profileWorkload(const ColumnarTrace &trace, const ProfilerOptions &opts)
{
    // Engine selection is pure policy: neither jobs nor
    // streamChunkRecords enters the ProfileCache key
    // (study/profile_cache.cc).
    if (opts.streamChunkRecords > 0)
        return profileWorkloadStreaming(trace, opts);
    return profileWorkloadParallel(trace, opts);
}

WorkloadProfile
profileWorkload(const WorkloadTrace &trace, const ProfilerOptions &opts)
{
    return profileWorkload(ColumnarTrace::fromWorkload(trace), opts);
}

} // namespace rppm
