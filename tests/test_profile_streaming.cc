/**
 * @file
 * Differential tests for the profiler engine across chunk sizes.
 *
 * The contract under test is the same absolute one the one-window
 * profile carries: profileWorkload() with streamChunkRecords > 0 — and
 * the file-backed profileWorkloadStreamingFile(), which never
 * materializes the trace — must produce a profile *bit-identical* to
 * the multi-pass reference profileWorkloadLegacy() for every chunk size
 * and every job count, on every kernel of the workload suite. Equality
 * is asserted through the deterministic text serializer against the
 * reference text, computed once per kernel and option set. On top of
 * the identity sweep: structural rejection of truncated/corrupt trace
 * files at every prefix length, chunk-size exclusion from the profile
 * cache key, and artifact identity between one-window and chunked runs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "profile/profiler.hh"
#include "profile_reference.hh"
#include "study/profile_cache.hh"
#include "study/source.hh"
#include "trace/columnar.hh"
#include "trace/trace_io.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

/** A structurally rich workload: barriers, critical sections, a
 *  producer-consumer queue, shared data, coherence traffic. */
WorkloadSpec
richSpec(const char *name = "stream-test")
{
    WorkloadSpec spec = barrierLoopSpec(4, 5, 2500);
    spec.name = name;
    spec.csPerEpoch = 2;
    spec.queueItems = 6;
    spec.kernel.sharedFrac = 0.25;
    spec.kernel.branchEntropy = 0.1;
    return spec;
}

/** Chunk targets: degenerate (every chunk is a single quantum slice),
 *  small (thousands of chunks on suite kernels), three segments' worth
 *  (suite kernels span several chunks, and at jobs 2 and 4 each
 *  full-length chunk slice splits into three concurrently swept
 *  segments), and larger than any test trace (the whole trace is one
 *  chunk). */
const uint64_t kChunkSizes[] = {1, 4096, 12288, uint64_t{1} << 30};
const unsigned kJobCounts[] = {1, 2, 4};

class TempTraceFile
{
  public:
    explicit TempTraceFile(const ColumnarTrace &trace)
        : path_(std::filesystem::temp_directory_path() /
                ("rppm-stream-test-" + trace.name + ".rppmtrc"))
    {
        saveTraceToFile(trace, path_.string());
    }

    ~TempTraceFile()
    {
        std::error_code ec;
        std::filesystem::remove(path_, ec);
    }

    const std::string path() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

TEST(StreamingProfiler, BitIdenticalOnEveryKernelChunkSizeAndJobCount)
{
    // The tentpole guarantee: on all 26 suite kernels, the streaming
    // engine's profile serializes byte-for-byte identically to the
    // legacy reference's, for every (chunk size, job count) combination.
    for (const SuiteEntry &entry : fullSuite()) {
        const WorkloadSpec spec = scaledSpec(entry);
        const WorkloadTrace trace = generateWorkload(spec);
        const ColumnarTrace cols = ColumnarTrace::fromWorkload(trace);
        const std::string legacy = legacyProfileText(trace);
        for (const uint64_t chunk : kChunkSizes) {
            for (const unsigned jobs : kJobCounts) {
                ProfilerOptions opts;
                opts.streamChunkRecords = chunk;
                opts.jobs = jobs;
                // EXPECT_TRUE rather than EXPECT_EQ: on failure gtest
                // would try to print two multi-hundred-kB strings.
                EXPECT_TRUE(serializeProfileText(
                                profileWorkload(cols, opts)) == legacy)
                    << spec.name << " chunk=" << chunk
                    << " jobs=" << jobs;
            }
        }
    }
}

TEST(StreamingProfiler, FileBackedBitIdentical)
{
    // The out-of-core path: serialize the trace, profile it straight
    // from the file through mapped chunk windows, and require the exact
    // reference bytes — across chunk sizes that force many windows per
    // run.
    const WorkloadTrace trace = generateWorkload(richSpec());
    const ColumnarTrace cols = ColumnarTrace::fromWorkload(trace);
    const TempTraceFile file(cols);
    const std::string legacy = legacyProfileText(trace);
    for (const uint64_t chunk : kChunkSizes) {
        for (const unsigned jobs : kJobCounts) {
            ProfilerOptions opts;
            opts.streamChunkRecords = chunk;
            opts.jobs = jobs;
            EXPECT_TRUE(serializeProfileText(profileWorkloadStreamingFile(
                            file.path(), opts)) == legacy)
                << "chunk=" << chunk << " jobs=" << jobs;
        }
    }
}

TEST(StreamingProfiler, BitIdenticalUnderCustomOptions)
{
    // Content-shaping options (sampling policy, quantum, coherence
    // detection, line size) must keep streaming == legacy for small
    // chunks, where every epoch spans many chunk stitches.
    ProfilerOptions base;
    base.quantum = 17;
    base.microTraceLength = 64;
    base.microTraceInterval = 500;

    ProfilerOptions noInval = base;
    noInval.detectInvalidation = false;

    ProfilerOptions bigLines = base;
    bigLines.lineBytes = 256;

    const WorkloadTrace trace = generateWorkload(richSpec());
    const ColumnarTrace cols = ColumnarTrace::fromWorkload(trace);
    for (const ProfilerOptions &proto : {base, noInval, bigLines}) {
        const std::string legacy = legacyProfileText(trace, proto);
        for (const uint64_t chunk : {uint64_t{1}, uint64_t{4096}}) {
            ProfilerOptions opts = proto;
            opts.streamChunkRecords = chunk;
            opts.jobs = 3;
            EXPECT_TRUE(serializeProfileText(profileWorkload(cols, opts)) ==
                        legacy)
                << "quantum=" << opts.quantum << " inv="
                << opts.detectInvalidation << " lb=" << opts.lineBytes
                << " chunk=" << chunk;
        }
    }
}

TEST(StreamingProfiler, SingleThreadedWorkload)
{
    // Degenerate shape: one thread, no synchronization beyond the
    // create/join scaffolding — every chunk edge is a bare quantum
    // boundary inside one long epoch.
    WorkloadSpec spec;
    spec.name = "single";
    spec.numWorkers = 1;
    spec.mainWorks = false;
    spec.numEpochs = 3;
    spec.opsPerEpoch = 4000;
    spec.barrierFlavor = BarrierFlavor::None;
    const WorkloadTrace trace = generateWorkload(spec);
    const ColumnarTrace cols = ColumnarTrace::fromWorkload(trace);
    const std::string legacy = legacyProfileText(trace);
    for (const uint64_t chunk : kChunkSizes) {
        ProfilerOptions opts;
        opts.streamChunkRecords = chunk;
        opts.jobs = 2;
        EXPECT_TRUE(serializeProfileText(profileWorkload(cols, opts)) ==
                    legacy)
            << "chunk=" << chunk;
    }
}

TEST(StreamingProfiler, TruncatedFileRejectedAtEveryPrefix)
{
    // An RPPMTRC cut off anywhere — mid-header, mid-column-header,
    // mid-payload, mid-final-padding — must be rejected up front by the
    // structural index with the loaders' exception type, never half
    // profiled. (The streaming reader validates the whole container
    // before any chunk work starts, so "mid-chunk" truncation cannot
    // exist: it is caught here.)
    const ColumnarTrace cols = ColumnarTrace::fromWorkload(
        generateWorkload(scaledSpec(fullSuite().front(), 100)));
    std::stringstream ss;
    saveTrace(cols, ss);
    const std::string whole = ss.str();

    const auto path = std::filesystem::temp_directory_path() /
        "rppm-stream-truncated.rppmtrc";
    ProfilerOptions opts;
    opts.streamChunkRecords = 64;

    // Step through prefix lengths densely near the start (header and
    // first column blocks) and coarsely through the payloads.
    for (size_t len = 0; len < whole.size();
         len += (len < 256 ? 1 : whole.size() / 97 + 1)) {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(whole.data(), static_cast<std::streamsize>(len));
        os.close();
        EXPECT_THROW(profileWorkloadStreamingFile(path.string(), opts),
                     std::invalid_argument)
            << "prefix=" << len;
    }

    // The untruncated file profiles fine (sanity check of the fixture).
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(whole.data(), static_cast<std::streamsize>(whole.size()));
    os.close();
    EXPECT_NO_THROW(profileWorkloadStreamingFile(path.string(), opts));

    std::error_code ec;
    std::filesystem::remove(path, ec);
}

TEST(StreamingProfiler, FileBackedWorkloadSource)
{
    // A WorkloadSource registered by trace path: construction indexes
    // the container (picking up the embedded name), profile() with an
    // explicit chunk size streams straight from the file, and the
    // result matches the reference bit for bit.
    const WorkloadTrace trace = generateWorkload(richSpec());
    const ColumnarTrace cols = ColumnarTrace::fromWorkload(trace);
    const TempTraceFile file(cols);

    const WorkloadSource src = WorkloadSource::fromTraceFile(file.path());
    EXPECT_EQ(src.name(), cols.name);
    EXPECT_TRUE(src.hasTrace());

    ProfilerOptions stream;
    stream.streamChunkRecords = 2048;
    stream.jobs = 2;
    ProfileCache cache;
    const auto streamed = src.profile(stream, cache);
    EXPECT_TRUE(serializeProfileText(*streamed) == legacyProfileText(trace));

    // Consumers that need the in-memory views still get them (lazily,
    // as a zero-copy mmap of the same file).
    EXPECT_TRUE(src.columnar() == cols);

    // A malformed path fails at registration, not at first profile.
    EXPECT_THROW(WorkloadSource::fromTraceFile("/nonexistent.rppmtrc"),
                 std::exception);
}

TEST(StreamingProfiler, ChunkSizeStaysOutOfTheCacheKey)
{
    // "Profile once" must hold across chunk sizes: the cache key carries
    // options that shape profile content; the chunk size (like the job
    // count) is pure execution policy.
    ProfilerOptions a, b, c;
    b.streamChunkRecords = 4096;
    c.streamChunkRecords = kDefaultStreamChunkRecords;
    c.jobs = 8;
    EXPECT_EQ(profilerOptionsKey(a), profilerOptionsKey(b));
    EXPECT_EQ(profilerOptionsKey(a), profilerOptionsKey(c));
}

TEST(StreamingProfiler, CacheArtifactIdenticalAcrossEngines)
{
    // A ProfileCache fed by a chunked run must produce the same
    // artifact — same path (key), same bytes — as one fed by a
    // one-window run, and the one-window artifact must serve chunked
    // requests.
    const auto dir = std::filesystem::temp_directory_path() /
        "rppm-stream-cache-test";
    std::filesystem::remove_all(dir);

    const WorkloadSpec spec = richSpec("stream-cache");
    const WorkloadTrace trace = generateWorkload(spec);
    const ColumnarTrace cols = ColumnarTrace::fromWorkload(trace);

    ProfilerOptions memory;
    ProfilerOptions stream;
    stream.streamChunkRecords = 2048;
    stream.jobs = 4;

    ProfileCache cacheA;
    cacheA.setDirectory(dir.string());
    const auto fromMemory = cacheA.getOrCompute(
        spec.name, memory, [&] { return profileWorkload(cols, memory); });
    EXPECT_EQ(cacheA.pathFor(spec.name, memory),
              cacheA.pathFor(spec.name, stream));

    // Fresh cache, same directory, chunked request: disk hit off the
    // one-window artifact, identical content.
    ProfileCache cacheB;
    cacheB.setDirectory(dir.string());
    const auto fromStream = cacheB.getOrCompute(
        spec.name, stream, [&] { return profileWorkload(cols, stream); });
    EXPECT_EQ(cacheB.stats().diskHits, 1u);
    const std::string legacy = legacyProfileText(trace);
    EXPECT_TRUE(serializeProfileText(*fromMemory) == legacy);
    EXPECT_TRUE(serializeProfileText(*fromStream) == legacy);

    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace rppm
