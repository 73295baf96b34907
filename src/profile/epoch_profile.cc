#include "profile/epoch_profile.hh"

namespace rppm {

double
EpochProfile::meanLoadGap() const
{
    if (loadGap.total() == 0)
        return static_cast<double>(numOps == 0 ? 1 : numOps);
    return loadGap.meanFinite();
}

void
EpochProfile::freeze()
{
    for (LogHistogram *h : {&depDist, &localRd, &globalRd, &loadLocalRd,
                            &loadGlobalRd, &instrRd, &loadGap})
        h->freeze();
    // Snippets grow by push_back while the epoch is open; drop the
    // growth slack now that none of them can grow further.
    for (MicroTrace &trace : microTraces)
        trace.ops.shrink_to_fit();
    microTraces.shrink_to_fit();
}

uint64_t
ThreadProfile::totalOps() const
{
    uint64_t n = 0;
    for (const auto &epoch : epochs)
        n += epoch.numOps;
    return n;
}

uint64_t
WorkloadProfile::totalOps() const
{
    uint64_t n = 0;
    for (const auto &thread : threads)
        n += thread.totalOps();
    return n;
}

uint64_t
WorkloadProfile::approxResidentBytes() const
{
    uint64_t bytes = sizeof(WorkloadProfile);
    for (const auto &thread : threads) {
        bytes += thread.epochs.capacity() * sizeof(EpochProfile);
        for (const auto &epoch : thread.epochs) {
            for (const LogHistogram *h :
                 {&epoch.depDist, &epoch.localRd, &epoch.globalRd,
                  &epoch.loadLocalRd, &epoch.loadGlobalRd, &epoch.instrRd,
                  &epoch.loadGap})
                bytes += h->heapBytes();
            // Open-addressing branch table: slots are ~70% occupied at
            // the growth threshold; charge per-slot payload (used byte,
            // pc, taken/total counts) at that density.
            bytes += epoch.branches.staticBranches() * 25 * 10 / 7;
            bytes += epoch.microTraces.capacity() * sizeof(MicroTrace);
            for (const auto &mt : epoch.microTraces)
                bytes += mt.ops.capacity() * sizeof(MicroTraceOp);
        }
    }
    bytes += barrierPopulation.size() * 2 * sizeof(uint64_t);
    bytes += condVarClasses.size() * 2 * sizeof(uint64_t);
    return bytes;
}

} // namespace rppm
