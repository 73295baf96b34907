/**
 * @file
 * Workload sources for Study evaluation.
 *
 * A WorkloadSource is the facade's handle on "one workload", however it
 * was described: a synthetic WorkloadSpec (trace generated lazily), a
 * ready-made WorkloadTrace (e.g. hand-built or imported), or a bare
 * WorkloadProfile (profile-only — the analytical evaluators work, the
 * trace-consuming ones don't). Sources are cheap copyable handles onto
 * shared state with *immutable-after-publish* semantics: the trace and
 * its columnar view are each built exactly once under a std::once_flag
 * and never mutated afterwards, so any number of Study workers (and the
 * parallel profiler's own worker pool) can read them concurrently
 * without locks — ThreadSanitizer-clean by test. Profiles are produced
 * through the study's ProfileCache.
 */

#ifndef RPPM_STUDY_SOURCE_HH
#define RPPM_STUDY_SOURCE_HH

#include <memory>
#include <optional>
#include <string>

#include "profile/epoch_profile.hh"
#include "profile/profiler.hh"
#include "trace/columnar.hh"
#include "trace/trace.hh"
#include "workload/workload.hh"

namespace rppm {

class ProfileCache;

/**
 * File-backed sources at or above this size are profiled out-of-core by
 * default (profile() streams the file in chunks of the default size
 * unless the caller pinned streamChunkRecords). 256 MiB of columns is
 * where materializing the whole trace starts to contend with the
 * profiler's own working set on small machines; below it the mapped
 * trace, profiled as one window with an O(1) run index, wins on constant
 * factors.
 */
constexpr uint64_t kStreamFileBytesThreshold = uint64_t{256} << 20;

/** Shared immutable-after-creation handle on one workload. */
class WorkloadSource
{
  public:
    /** Source backed by a spec; the trace is generated on first use. */
    explicit WorkloadSource(WorkloadSpec spec);

    /** Source backed by an existing trace. */
    explicit WorkloadSource(WorkloadTrace trace);

    /**
     * Source backed by an existing columnar trace — e.g. a zero-copy
     * mmap view from loadTraceView(); borrowed storage stays borrowed
     * (the trace carries its own file-image keepalive), so profiling
     * such a source reads straight out of the page cache. The AoS view
     * is reconstructed lazily only if a consumer asks for trace().
     */
    explicit WorkloadSource(ColumnarTrace trace);

    /** Profile-only source: analytical evaluators only. */
    explicit WorkloadSource(WorkloadProfile profile);

    /**
     * Source backed by an RPPMTRC file that is *not* loaded up front:
     * construction only indexes the container (so structural defects
     * surface immediately) and records its size. profile() streams the
     * file out-of-core when it is large (>= kStreamFileBytesThreshold)
     * or when opts.streamChunkRecords asks for it; only consumers that
     * need the in-memory views (trace()/columnar()) materialize the
     * trace, lazily. Throws std::invalid_argument on a malformed file.
     */
    static WorkloadSource fromTraceFile(const std::string &path);

    /** The workload's name (grid axis label). */
    const std::string &name() const;

    /** True when a trace is available (spec- or trace-backed). */
    bool hasTrace() const;

    /**
     * The workload trace, generating it from the spec on first call
     * (on up to @p jobs synthesis workers; 0 = all hardware threads —
     * the trace is bit-identical for every job count, so concurrent
     * callers with different values are fine). Thread-safe,
     * immutable-after-publish; throws std::logic_error on a
     * profile-only source.
     */
    const WorkloadTrace &trace(unsigned jobs = 1) const;

    /**
     * The columnar view of the trace, built (and cached) on first call —
     * the representation the in-memory profiler consumes, so a Study grid
     * converts each workload at most once. Thread-safe,
     * immutable-after-publish; throws std::logic_error on a
     * profile-only source.
     */
    const ColumnarTrace &columnar(unsigned jobs = 1) const;

    /**
     * The workload profile for @p opts, produced through @p cache.
     * opts.jobs drives both trace synthesis and the profiler's worker
     * pool (the profile content is identical for every job count).
     * File-backed sources stream the file out-of-core when
     * opts.streamChunkRecords > 0 or the file is at least
     * kStreamFileBytesThreshold bytes; the resulting profile (and its
     * cache artifact) is bit-identical to the in-memory engines', so
     * the routing is invisible to the cache. Profile-only sources
     * return their fixed profile regardless of @p opts. Thread-safe.
     */
    std::shared_ptr<const WorkloadProfile>
    profile(const ProfilerOptions &opts, ProfileCache &cache) const;

  private:
    struct State;
    explicit WorkloadSource(std::shared_ptr<State> state);
    std::shared_ptr<State> state_;
};

} // namespace rppm

#endif // RPPM_STUDY_SOURCE_HH
