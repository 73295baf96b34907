#include "study/source.hh"

#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/mmap.hh"
#include "study/profile_cache.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stream.hh"
#include "workload/workload.hh"

namespace rppm {

/**
 * Immutable-after-publish state. The lazily built trace is initialized
 * exactly once inside its std::once_flag and never written again;
 * std::call_once makes the completed write visible to every subsequent
 * caller, after which reads are lock-free. With profile and trace-build
 * of *distinct* workloads overlapping inside one Study — and the
 * parallel profiler's own pool reading the trace from several threads —
 * this is what keeps the source data-race-free without serializing
 * readers behind a mutex (tests/test_profile_parallel.cc hammers it
 * under TSan).
 */
struct WorkloadSource::State
{
    // Shared-state discipline (thread_annotations.hh has no vocabulary
    // for once_flag publication, so it is spelled out here instead):
    // name/spec/fixedProfile are set in the constructor and const
    // afterwards; columnar is written exactly once, inside its
    // std::call_once, and is immutable after it returns. Nothing
    // here may ever be guarded by a mutex — lock-free reads after
    // publication are the point (see file comment in source.hh).
    std::string name;
    std::optional<WorkloadSpec> spec;
    std::shared_ptr<const WorkloadProfile> fixedProfile;
    std::string tracePath; ///< file-backed source; empty otherwise
    uint64_t fileBytes = 0;

    std::once_flag columnarOnce;
    std::optional<ColumnarTrace> columnar; ///< written once in columnarOnce
};

WorkloadSource::WorkloadSource(WorkloadSpec spec)
    : state_(std::make_shared<State>())
{
    state_->name = spec.name;
    state_->spec = std::move(spec);
}

WorkloadSource::WorkloadSource(ColumnarTrace trace)
    : state_(std::make_shared<State>())
{
    state_->name = trace.name;
    state_->columnar = std::move(trace);
}

WorkloadSource::WorkloadSource(WorkloadProfile profile)
    : state_(std::make_shared<State>())
{
    state_->name = profile.name;
    state_->fixedProfile =
        std::make_shared<const WorkloadProfile>(std::move(profile));
}

WorkloadSource::WorkloadSource(std::shared_ptr<State> state)
    : state_(std::move(state))
{
}

WorkloadSource
WorkloadSource::fromTraceFile(const std::string &path)
{
    auto state = std::make_shared<State>();
    // Index the container now: the workload name and file size come out
    // of the header walk, and a truncated or corrupt file is rejected at
    // registration instead of at first profile request.
    FdFile file(path);
    const TraceFileLayout layout = indexTraceFile(file);
    state->name = layout.name;
    state->tracePath = path;
    state->fileBytes = layout.fileSize;
    return WorkloadSource(std::move(state));
}

const std::string &
WorkloadSource::name() const
{
    return state_->name;
}

bool
WorkloadSource::hasTrace() const
{
    return state_->spec.has_value() || state_->columnar.has_value() ||
        !state_->tracePath.empty();
}

const ColumnarTrace &
WorkloadSource::columnar(unsigned jobs) const
{
    // The member is immutable once its call_once returns, so the
    // reference stays valid forever. An exception inside call_once
    // (profile-only source) leaves the flag unset, so every caller
    // observes the same failure.
    State &s = *state_;
    std::call_once(s.columnarOnce, [&] {
        if (s.columnar)
            return; // trace-backed source: published at construction
        if (!s.tracePath.empty()) {
            // File-backed source whose consumer needs the in-memory
            // trace: a zero-copy mmap view keeps the page cache as the
            // backing store.
            s.columnar = loadTraceViewFromFile(s.tracePath);
            return;
        }
        if (!s.spec) {
            throw std::logic_error(
                "WorkloadSource '" + s.name +
                "' is profile-only: no trace available");
        }
        s.columnar = synthesizeTrace(*s.spec, jobs);
    });
    return *s.columnar;
}

std::shared_ptr<const WorkloadProfile>
WorkloadSource::profile(const ProfilerOptions &opts,
                        ProfileCache &cache) const
{
    if (state_->fixedProfile)
        return state_->fixedProfile;
    return cache.getOrCompute(name(), opts, [this, &opts] {
        const State &s = *state_;
        if (!s.tracePath.empty() &&
            (opts.streamChunkRecords > 0 ||
             s.fileBytes >= kStreamFileBytesThreshold)) {
            // Big file, or an explicit chunk size: profile out-of-core
            // straight from the container, never materializing the
            // trace. Bit-identical to the in-memory engines, so cache
            // artifacts are interchangeable either way.
            return profileWorkloadStreamingFile(s.tracePath, opts);
        }
        return profileWorkload(columnar(opts.jobs), opts);
    });
}

} // namespace rppm
