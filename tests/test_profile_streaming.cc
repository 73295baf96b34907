/**
 * @file
 * Differential tests for the profiler engine across chunk sizes.
 *
 * The contract under test is the same absolute one the one-window
 * profile carries: profileWorkload() with streamChunkRecords > 0 — and
 * the file-backed profileWorkloadStreamingFile(), which never
 * materializes the trace — must produce a profile *bit-identical* to
 * the committed corpus tests/golden/profile.txt for every chunk size
 * and every job count, on every kernel of the workload suite. Equality
 * is asserted through the byte length and CRC32C of the deterministic
 * RPPMPRF serialization. On top of the identity sweep: structural
 * rejection of truncated/corrupt trace files at every prefix length,
 * agreement of the whole-file and chunked readers on mutated, flipped
 * and truncated files (both reject, or both return the same profile
 * bytes), chunk-size exclusion from the profile cache key, and artifact
 * identity between one-window and chunked runs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "profile/profiler.hh"
#include "profile_reference.hh"
#include "sim/simulator.hh"
#include "study/profile_cache.hh"
#include "study/source.hh"
#include "trace/columnar.hh"
#include "trace/trace_builder.hh"
#include "trace/trace_io.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

/** Chunk targets: degenerate (every chunk is a single quantum slice),
 *  small (thousands of chunks on suite kernels), three segments' worth
 *  (suite kernels span several chunks, and at jobs 2 and 4 each
 *  full-length chunk slice splits into three concurrently swept
 *  segments), and larger than any test trace (the whole trace is one
 *  chunk). */
const uint64_t kChunkSizes[] = {1, 4096, 12288, uint64_t{1} << 30};
const unsigned kJobCounts[] = {1, 2, 4};

/** Corpus name of the rich workload. */
const char *const kRich = "stream-test";

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
    // corpus, for every (chunk size, job count) combination.
    for (const SuiteEntry &entry : fullSuite()) {
        const WorkloadSpec spec = scaledSpec(entry);
        const ColumnarTrace cols = synthesizeTrace(spec);
        for (const uint64_t chunk : kChunkSizes) {
            for (const unsigned jobs : kJobCounts) {
                ProfilerOptions opts;
                opts.streamChunkRecords = chunk;
                opts.jobs = jobs;
                EXPECT_TRUE(matchesProfileCorpus(
                    profileKey(spec.name), profileWorkload(cols, opts)))
                    << "chunk=" << chunk << " jobs=" << jobs;
            }
        }
    }
}

TEST(StreamingProfiler, FileBackedBitIdentical)
{
    // The out-of-core path: serialize the trace, profile it straight
    // from the file through mapped chunk windows, and require the exact
    // corpus bytes — across chunk sizes that force many windows per run.
    const TempTraceFile file(
        synthesizeTrace(richSpec(kRich)));
    for (const uint64_t chunk : kChunkSizes) {
        for (const unsigned jobs : kJobCounts) {
            ProfilerOptions opts;
            opts.streamChunkRecords = chunk;
            opts.jobs = jobs;
            EXPECT_TRUE(matchesProfileCorpus(
                profileKey(kRich),
                profileWorkloadStreamingFile(file.path(), opts)))
                << "chunk=" << chunk << " jobs=" << jobs;
        }
    }
}

TEST(StreamingProfiler, BitIdenticalUnderCustomOptions)
{
    // Content-shaping options (sampling policy, quantum, coherence
    // detection, line size) must keep streaming on the corpus for small
    // chunks, where every epoch spans many chunk stitches.
    const ColumnarTrace cols = synthesizeTrace(richSpec(kRich));
    for (const auto &[name, proto] : customProfilerOptions()) {
        for (const uint64_t chunk : {uint64_t{1}, uint64_t{4096}}) {
            ProfilerOptions opts = proto;
            opts.streamChunkRecords = chunk;
            opts.jobs = 3;
            EXPECT_TRUE(matchesProfileCorpus(profileKey(kRich, name),
                                             profileWorkload(cols, opts)))
                << "chunk=" << chunk;
        }
    }
}

TEST(StreamingProfiler, HotSharedRegionOnEveryChunkSizeAndJobCount)
{
    // The coherence-sensitive workload (a small, hot, written shared
    // region) under the default options and with coherence detection
    // on and off: invalidation state carried across chunk edges must
    // reproduce the corpus for every chunk size and job count.
    const ColumnarTrace cols = synthesizeTrace(hotSharedSpec());
    for (const auto &[name, proto] : hotSharedOptions()) {
        for (const uint64_t chunk : kChunkSizes) {
            for (const unsigned jobs : kJobCounts) {
                ProfilerOptions opts = proto;
                opts.streamChunkRecords = chunk;
                opts.jobs = jobs;
                EXPECT_TRUE(matchesProfileCorpus(
                    profileKey("hot-shared", name),
                    profileWorkload(cols, opts)))
                    << name << " chunk=" << chunk << " jobs=" << jobs;
            }
        }
    }
}

TEST(StreamingProfiler, SingleThreadedWorkload)
{
    // Degenerate shape: one thread, no synchronization beyond the
    // create/join scaffolding — every chunk edge is a bare quantum
    // boundary inside one long epoch.
    const ColumnarTrace cols = synthesizeTrace(singleThreadSpec());
    for (const uint64_t chunk : kChunkSizes) {
        ProfilerOptions opts;
        opts.streamChunkRecords = chunk;
        opts.jobs = 2;
        EXPECT_TRUE(matchesProfileCorpus(profileKey("single"),
                                         profileWorkload(cols, opts)))
            << "chunk=" << chunk;
    }
}

TEST(StreamingProfiler, DeadlockRejectedLikeTheSimulator)
{
    // The worker ends blocked in a pop from a queue nobody pushes, so
    // main's join never returns. The profiler walks the simulator's
    // schedule, so both must reject the trace: a profile of a schedule
    // that cannot complete would only fail later, inside predict().
    ColumnarTrace trace;
    trace.name = "deadlock";
    trace.threads.resize(2);
    ThreadTraceBuilder main(trace.threads[0]);
    main.sync(SyncType::ThreadCreate, 1);
    main.sync(SyncType::ThreadJoin, 1);
    ThreadTraceBuilder worker(trace.threads[1]);
    for (uint32_t i = 0; i < 50; ++i)
        worker.load(0x1000 + 64 * i, 4 * i);
    worker.sync(SyncType::QueuePop, 9);
    const ColumnarTrace cols = trace;

    for (const unsigned jobs : {1u, 4u}) {
        ProfilerOptions opts;
        opts.jobs = jobs;
        EXPECT_THROW(profileWorkload(cols, opts), std::invalid_argument)
            << "jobs=" << jobs;
    }
    const TempTraceFile file(cols);
    ProfilerOptions chunked;
    chunked.streamChunkRecords = 16;
    EXPECT_THROW(profileWorkloadStreamingFile(file.path(), chunked),
                 std::invalid_argument);

    for (const unsigned jobs : {1u, 2u}) {
        SimOptions opts;
        opts.jobs = jobs;
        EXPECT_THROW(simulate(cols, baseConfig(), opts),
                     std::invalid_argument)
            << "jobs=" << jobs;
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
    const ColumnarTrace cols =
        synthesizeTrace(scaledSpec(fullSuite().front(), 100));
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

// ------------------------------------------- the two readers agree ---

/** Write @p bytes to @p path, replacing the file. */
void
writeBytes(const std::filesystem::path &path, std::string_view bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/**
 * Profile the file at @p path from a whole-file mapping and from chunked
 * file reads, and require the two readers to agree: both reject it with
 * std::invalid_argument, or both return byte-identical RPPMPRF profiles.
 * Any other exception fails the test; an abort kills it.
 */
void
expectReadersAgree(const std::filesystem::path &path,
                   const std::string &what)
{
    std::string viaMap, viaStream;
    bool mapRejects = false, streamRejects = false;
    try {
        viaMap = serializeProfileBinary(
            profileWorkload(loadTraceViewFromFile(path.string())));
    } catch (const std::invalid_argument &) {
        mapRejects = true;
    }
    ProfilerOptions chunked;
    chunked.streamChunkRecords = 64;
    try {
        viaStream = serializeProfileBinary(
            profileWorkloadStreamingFile(path.string(), chunked));
    } catch (const std::invalid_argument &) {
        streamRejects = true;
    }
    EXPECT_EQ(mapRejects, streamRejects) << what;
    EXPECT_TRUE(viaMap == viaStream) << what;
}

TEST(StreamingProfiler, SyncColumnMutantsAgreeAcrossReaders)
{
    // Every sync event of two small traces, retyped to each SyncType
    // value (None and the out-of-range NumTypes included) and, apart
    // from that, pointed at thread id numThreads. saveTrace writes valid
    // CRCs, so only the sync validation stands between a mutant and the
    // sync model.
    WorkloadSpec queued = barrierLoopSpec(2, 2, 300);
    queued.name = "queued";
    queued.csPerEpoch = 1;
    queued.queueItems = 2;
    const auto path = std::filesystem::temp_directory_path() /
        "rppm-stream-sync-mutant.rppmtrc";
    constexpr uint8_t kArgMutant =
        static_cast<uint8_t>(SyncType::NumTypes) + 1;
    for (const WorkloadSpec &spec : {barrierLoopSpec(2, 3, 300), queued}) {
        const ColumnarTrace trace = synthesizeTrace(spec);
        for (size_t t = 0; t < trace.numThreads(); ++t) {
            const ThreadColumns &cols = trace.threads[t];
            for (size_t k = 0; k < cols.syncPos.size(); ++k) {
                for (uint8_t v = 0; v <= kArgMutant; ++v) {
                    std::vector<SyncType> types(cols.syncType.begin(),
                                                cols.syncType.end());
                    std::vector<uint32_t> args(cols.syncArg.begin(),
                                               cols.syncArg.end());
                    if (v == kArgMutant)
                        args[k] = static_cast<uint32_t>(trace.numThreads());
                    else
                        types[k] = static_cast<SyncType>(v);
                    ColumnarTrace mutant = trace;
                    mutant.threads[t].syncType = std::move(types);
                    mutant.threads[t].syncArg = std::move(args);
                    saveTraceToFile(mutant, path.string());
                    expectReadersAgree(
                        path, spec.name + " thread " + std::to_string(t) +
                            " event " + std::to_string(k) + " mutant " +
                            std::to_string(v));
                }
            }
        }
    }
    std::error_code ec;
    std::filesystem::remove(path, ec);
}

TEST(StreamingProfiler, FlippedAndTruncatedBytesAgreeAcrossReaders)
{
    // Deterministic fuzz of the RPPMTRC decoder: one flipped byte at
    // every k-th offset, and a cut at every k-th length, of a small
    // trace in the checksummed format and in the pre-checksum version-1
    // format, where no CRC catches a flipped payload byte before the
    // validators do. k is odd, so the offsets cover every position
    // within the 8-byte block alignment.
    const ColumnarTrace trace = synthesizeTrace(barrierLoopSpec(2, 2, 200));
    const auto path = std::filesystem::temp_directory_path() /
        "rppm-stream-fuzz.rppmtrc";
    for (const std::string &image :
         {serializeTraceBytes(trace), legacyTraceBytes(trace)}) {
        const size_t k = (image.size() / 200) | 1;
        for (size_t off = 0; off < image.size(); off += k) {
            std::string flipped = image;
            flipped[off] = static_cast<char>(flipped[off] ^ 0x5a);
            writeBytes(path, flipped);
            expectReadersAgree(path, "flip at " + std::to_string(off));
        }
        for (size_t len = 0; len < image.size(); len += k) {
            writeBytes(path, std::string_view(image).substr(0, len));
            expectReadersAgree(path, "cut at " + std::to_string(len));
        }
    }
    std::error_code ec;
    std::filesystem::remove(path, ec);
}

TEST(StreamingProfiler, FileBackedWorkloadSource)
{
    // A WorkloadSource registered by trace path: construction indexes
    // the container (picking up the embedded name), profile() with an
    // explicit chunk size streams straight from the file, and the
    // result matches the corpus bit for bit.
    const ColumnarTrace cols = synthesizeTrace(richSpec(kRich));
    const TempTraceFile file(cols);

    const WorkloadSource src = WorkloadSource::fromTraceFile(file.path());
    EXPECT_EQ(src.name(), cols.name);
    EXPECT_TRUE(src.hasTrace());

    ProfilerOptions stream;
    stream.streamChunkRecords = 2048;
    stream.jobs = 2;
    ProfileCache cache;
    const auto streamed = src.profile(stream, cache);
    EXPECT_TRUE(matchesProfileCorpus(profileKey(kRich), *streamed));

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
    const ColumnarTrace cols = synthesizeTrace(spec);

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
    EXPECT_TRUE(matchesProfileCorpus(profileKey(spec.name), *fromMemory));
    EXPECT_TRUE(matchesProfileCorpus(profileKey(spec.name), *fromStream));

    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace rppm
