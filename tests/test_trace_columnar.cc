/**
 * @file
 * Tests for the columnar trace engine and the profiler entry points:
 *
 *  - AoS <-> columnar conversion is lossless;
 *  - binary trace serialization round-trips bit-identically and rejects
 *    old-version, truncated and corrupt input cleanly;
 *  - profileWorkload() (both overloads) produces profiles bit-identical
 *    to the legacy multi-pass reference on every workload kernel of the
 *    suite (byte-compared through the deterministic text serializer);
 *  - the binary profile format round-trips exactly (predictions and
 *    bytes) and the ProfileCache self-heals corrupt or legacy-format
 *    artifacts.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "profile/profiler.hh"
#include "profile/serialize.hh"
#include "profile_reference.hh"
#include "rppm/predictor.hh"
#include "sim/sync_state.hh"
#include "study/profile_cache.hh"
#include "trace/columnar.hh"
#include "trace/trace_builder.hh"
#include "trace/trace_io.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

/** A small but structurally rich workload (barriers, critical sections,
 *  a producer-consumer queue, shared data). */
WorkloadSpec
richSpec(const char *name = "columnar-test")
{
    WorkloadSpec spec = barrierLoopSpec(3, 4, 2500);
    spec.name = name;
    spec.csPerEpoch = 2;
    spec.queueItems = 5;
    spec.kernel.sharedFrac = 0.2;
    spec.kernel.branchEntropy = 0.1;
    return spec;
}

std::string
serializeTrace(const ColumnarTrace &trace)
{
    std::stringstream ss;
    saveTrace(trace, ss);
    return ss.str();
}

TEST(Columnar, ConversionIsLossless)
{
    const WorkloadTrace trace = generateWorkload(richSpec());
    const ColumnarTrace cols = ColumnarTrace::fromWorkload(trace);

    EXPECT_EQ(cols.numThreads(), trace.numThreads());
    EXPECT_EQ(cols.totalOps(), trace.totalOps());
    for (SyncType type :
         {SyncType::BarrierWait, SyncType::MutexLock, SyncType::QueuePush,
          SyncType::ThreadCreate, SyncType::ThreadJoin}) {
        EXPECT_EQ(cols.countSync(type), trace.countSync(type))
            << syncTypeName(type);
    }

    // AoS -> columnar -> AoS -> columnar is a fixed point.
    const WorkloadTrace back = cols.toWorkload();
    EXPECT_EQ(back.name, trace.name);
    ASSERT_EQ(back.threads.size(), trace.threads.size());
    EXPECT_TRUE(ColumnarTrace::fromWorkload(back) == cols);
}

TEST(Columnar, CursorWalksRecordsInOrder)
{
    WorkloadTrace trace;
    trace.name = "cursor";
    trace.threads.resize(1);
    ThreadTraceBuilder b(trace.threads[0]);
    b.op(OpClass::IntAlu, 0x10);
    b.load(0x1000, 0x14, 1);
    b.sync(SyncType::MutexLock, 7);
    b.store(0x1040, 0x18);
    b.branch(0x1c, true, 2);
    b.sync(SyncType::MutexUnlock, 7);

    const ColumnarTrace cols = ColumnarTrace::fromWorkload(trace);
    ColumnCursor cur(cols.threads[0]);

    EXPECT_FALSE(cur.atSync());
    EXPECT_EQ(cur.op(), OpClass::IntAlu);
    cur.advance();
    EXPECT_EQ(cur.op(), OpClass::Load);
    EXPECT_EQ(cur.addr(), 0x1000u);
    EXPECT_EQ(cur.dep1(), 1);
    cur.advance();
    ASSERT_TRUE(cur.atSync());
    EXPECT_EQ(cur.syncType(), SyncType::MutexLock);
    EXPECT_EQ(cur.syncArg(), 7u);
    cur.advance();
    EXPECT_EQ(cur.op(), OpClass::Store);
    EXPECT_EQ(cur.addr(), 0x1040u);
    cur.advance();
    EXPECT_EQ(cur.op(), OpClass::Branch);
    EXPECT_TRUE(cur.taken());
    cur.advance();
    ASSERT_TRUE(cur.atSync());
    EXPECT_EQ(cur.syncType(), SyncType::MutexUnlock);
    cur.advance();
    EXPECT_TRUE(cur.atEnd());
}

TEST(Columnar, ValidateMatchesAoSValidate)
{
    const WorkloadTrace good = generateWorkload(richSpec());
    EXPECT_NO_THROW(good.validate());
    EXPECT_NO_THROW(
        ColumnarTrace::fromWorkload(good).validateAndBarrierPopulations());

    // Unbalanced mutex: both representations must reject it.
    WorkloadTrace bad;
    bad.threads.resize(1);
    ThreadTraceBuilder b(bad.threads[0]);
    b.op(OpClass::IntAlu, 0);
    b.sync(SyncType::MutexLock, 1);
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    EXPECT_THROW(
        ColumnarTrace::fromWorkload(bad).validateAndBarrierPopulations(),
        std::invalid_argument);
}

TEST(Columnar, BarrierPopulationsMatchLegacyScan)
{
    const WorkloadTrace trace = generateWorkload(richSpec());
    const auto legacy = barrierPopulations(trace);
    const auto columnar = ColumnarTrace::fromWorkload(trace)
                              .validateAndBarrierPopulations();
    EXPECT_EQ(columnar, legacy);
}

// ------------------------------------------------- binary trace I/O ---

TEST(TraceIo, RoundTripIsBitIdentical)
{
    const ColumnarTrace original =
        ColumnarTrace::fromWorkload(generateWorkload(richSpec()));
    const std::string bytes = serializeTrace(original);

    std::stringstream in(bytes);
    const ColumnarTrace loaded = loadTrace(in);
    EXPECT_TRUE(loaded == original);

    // save(load(save(t))) == save(t), byte for byte.
    EXPECT_TRUE(serializeTrace(loaded) == bytes);
}

TEST(TraceIo, FileRoundTrip)
{
    const ColumnarTrace original =
        ColumnarTrace::fromWorkload(generateWorkload(richSpec()));
    const std::string path = "/tmp/rppm_test_trace.rppmtrc";
    saveTraceToFile(original, path);
    const ColumnarTrace loaded = loadTraceFromFile(path);
    EXPECT_TRUE(loaded == original);
    std::filesystem::remove(path);
}

TEST(TraceIo, RejectsBadMagic)
{
    std::stringstream ss("definitely not a trace file");
    EXPECT_THROW(loadTrace(ss), std::invalid_argument);
}

TEST(TraceIo, RejectsOldVersion)
{
    std::string bytes = serializeTrace(
        ColumnarTrace::fromWorkload(generateWorkload(richSpec())));
    // The version field sits after the 8-byte magic and the 4-byte
    // endianness marker.
    bytes[12] = static_cast<char>(kTraceFormatVersion + 1);
    std::stringstream in(bytes);
    EXPECT_THROW(loadTrace(in), std::invalid_argument);
}

TEST(TraceIo, RejectsTruncatedInput)
{
    const std::string bytes = serializeTrace(
        ColumnarTrace::fromWorkload(generateWorkload(richSpec())));
    for (const double frac : {0.25, 0.5, 0.9}) {
        std::stringstream in(bytes.substr(
            0, static_cast<size_t>(static_cast<double>(bytes.size()) *
                                   frac)));
        EXPECT_THROW(loadTrace(in), std::invalid_argument) << frac;
    }
}

TEST(TraceIo, RejectsTrailingGarbage)
{
    std::string bytes = serializeTrace(
        ColumnarTrace::fromWorkload(generateWorkload(richSpec())));
    bytes += "garbage.";
    std::stringstream in(bytes);
    EXPECT_THROW(loadTrace(in), std::invalid_argument);
}

// ------------------------------------------- zero-copy mmap views ---

namespace {

/** Write raw bytes to a temp path and return the path. */
std::string
writeTempFile(const std::string &bytes, const char *name)
{
    const std::string path = std::string("/tmp/") + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
}

} // namespace

TEST(TraceView, BorrowedViewEqualsOwnedLoad)
{
    const ColumnarTrace original =
        ColumnarTrace::fromWorkload(generateWorkload(richSpec()));
    const std::string path =
        writeTempFile(serializeTrace(original), "rppm_test_view.rppmtrc");

    const ColumnarTrace owned = loadTraceFromFile(path);
    const ColumnarTrace view = loadTraceViewFromFile(path);

    // The view borrows the mmap image; the copying loader owns vectors.
    EXPECT_TRUE(view.isBorrowed());
    EXPECT_FALSE(owned.isBorrowed());
    EXPECT_NE(view.storage, nullptr);

    // Same trace either way, element-for-element and byte-for-byte.
    EXPECT_TRUE(view == owned);
    EXPECT_TRUE(view == original);
    EXPECT_TRUE(serializeTrace(view) == serializeTrace(owned));

    // Deep-copying the view drops the borrow and preserves content.
    const ColumnarTrace detached = view.toOwned();
    EXPECT_FALSE(detached.isBorrowed());
    EXPECT_TRUE(detached == original);

    std::filesystem::remove(path);
}

TEST(TraceView, ProfilesBitIdenticallyToOwnedLoad)
{
    const ColumnarTrace original =
        ColumnarTrace::fromWorkload(generateWorkload(richSpec()));
    const std::string path = writeTempFile(
        serializeTrace(original), "rppm_test_view_prof.rppmtrc");

    ProfilerOptions opts;
    opts.microTraceLength = 60;
    opts.microTraceInterval = 400;
    const WorkloadProfile fromView =
        profileWorkload(loadTraceViewFromFile(path), opts);
    const WorkloadProfile fromOwned =
        profileWorkload(loadTraceFromFile(path), opts);
    EXPECT_TRUE(serializeProfileText(fromView) ==
                serializeProfileText(fromOwned));

    std::filesystem::remove(path);
}

TEST(TraceView, RejectsExactlyWhatTheCopyLoaderRejects)
{
    const std::string bytes = serializeTrace(
        ColumnarTrace::fromWorkload(generateWorkload(richSpec())));
    const char *path_name = "rppm_test_view_bad.rppmtrc";

    // Bad magic.
    {
        const std::string path =
            writeTempFile("definitely not a trace file", path_name);
        EXPECT_THROW(loadTraceViewFromFile(path), std::invalid_argument);
    }
    // Old/unknown format version (field after magic + endian marker).
    {
        std::string bad = bytes;
        bad[12] = static_cast<char>(kTraceFormatVersion + 1);
        const std::string path = writeTempFile(bad, path_name);
        EXPECT_THROW(loadTraceViewFromFile(path), std::invalid_argument);
    }
    // Truncation at several depths.
    for (const double frac : {0.25, 0.5, 0.9}) {
        const std::string path = writeTempFile(
            bytes.substr(0, static_cast<size_t>(
                                static_cast<double>(bytes.size()) * frac)),
            path_name);
        EXPECT_THROW(loadTraceViewFromFile(path), std::invalid_argument)
            << frac;
    }
    // Trailing garbage.
    {
        const std::string path = writeTempFile(bytes + "garbage.", path_name);
        EXPECT_THROW(loadTraceViewFromFile(path), std::invalid_argument);
    }
    // Missing file is an I/O error, not a format error.
    EXPECT_THROW(loadTraceViewFromFile("/tmp/rppm_no_such_trace.rppmtrc"),
                 std::runtime_error);
    std::filesystem::remove(std::string("/tmp/") + path_name);
}

TEST(TraceView, ColumnBorrowSemantics)
{
    const std::vector<uint32_t> backing = {1, 2, 3, 4, 5};
    const Column<uint32_t> borrowed =
        Column<uint32_t>::borrow(backing.data(), backing.size());
    EXPECT_TRUE(borrowed.isBorrowed());
    EXPECT_EQ(borrowed.size(), backing.size());
    EXPECT_EQ(borrowed[3], 4u);

    // Copies of a borrowed column stay borrowed views of the same data.
    const Column<uint32_t> copy = borrowed;
    EXPECT_TRUE(copy.isBorrowed());
    EXPECT_EQ(copy.data(), backing.data());

    // Owned columns compare equal to borrowed ones by content.
    Column<uint32_t> owned;
    owned = backing;
    EXPECT_FALSE(owned.isBorrowed());
    EXPECT_TRUE(owned == borrowed);
    EXPECT_NE(owned.data(), borrowed.data());
}

// ----------------------------------- profiler vs. legacy equivalence ---

TEST(Profiler, BitIdenticalToLegacyOnEveryKernel)
{
    // One text-serialized byte mismatch anywhere in mix, histograms,
    // micro-traces, branch counts or sync structure fails this test.
    // Kernels are scaled down to keep the test fast; every suite entry
    // is covered, through the AoS overload at default options.
    for (const SuiteEntry &entry : fullSuite()) {
        const WorkloadTrace trace = generateWorkload(scaledSpec(entry));
        // EXPECT_TRUE rather than EXPECT_EQ: on failure gtest would try
        // to print two multi-hundred-kB strings.
        EXPECT_TRUE(serializeProfileText(profileWorkload(trace)) ==
                    legacyProfileText(trace))
            << trace.name;
    }
}

TEST(Profiler, ColumnarOverloadMatchesAoSOverload)
{
    const WorkloadTrace trace = generateWorkload(richSpec());
    const ColumnarTrace cols = ColumnarTrace::fromWorkload(trace);
    EXPECT_TRUE(serializeProfileText(profileWorkload(cols)) ==
                serializeProfileText(profileWorkload(trace)));
}

TEST(Profiler, RespectsProfilerOptions)
{
    // The options that change profile content must keep the profile
    // equal to the reference's.
    ProfilerOptions opts;
    opts.detectInvalidation = false;
    opts.quantum = 17;
    opts.microTraceLength = 64;
    opts.microTraceInterval = 500;
    const WorkloadTrace trace = generateWorkload(richSpec());
    EXPECT_TRUE(serializeProfileText(profileWorkload(trace, opts)) ==
                legacyProfileText(trace, opts));
}

// ----------------------------------------------- binary profile I/O ---

TEST(ProfileBinary, RoundTripPredictsIdentically)
{
    const WorkloadProfile original =
        profileWorkload(generateWorkload(richSpec()));
    std::stringstream ss;
    saveProfileBinary(original, ss);
    const WorkloadProfile copy = loadProfileBinary(ss);

    for (const MulticoreConfig &cfg : tableIvConfigs()) {
        const RppmPrediction a = predict(original, cfg);
        const RppmPrediction b = predict(copy, cfg);
        EXPECT_DOUBLE_EQ(a.totalCycles, b.totalCycles) << cfg.name;
    }
}

TEST(ProfileBinary, DoubleRoundTripIsByteStable)
{
    const WorkloadProfile original =
        profileWorkload(generateWorkload(richSpec()));
    std::stringstream once, twice;
    saveProfileBinary(original, once);
    const WorkloadProfile copy = loadProfileBinary(once);
    saveProfileBinary(copy, twice);
    EXPECT_TRUE(once.str() == twice.str());
}

TEST(ProfileBinary, RejectsBadInput)
{
    const WorkloadProfile original =
        profileWorkload(generateWorkload(richSpec()));
    std::stringstream ss;
    saveProfileBinary(original, ss);
    std::string bytes = ss.str();

    {   // Old/newer version.
        std::string old = bytes;
        old[12] = static_cast<char>(kProfileFormatVersion + 3);
        std::stringstream in(old);
        EXPECT_THROW(loadProfileBinary(in), std::invalid_argument);
    }
    {   // Truncation.
        std::stringstream in(bytes.substr(0, bytes.size() / 2));
        EXPECT_THROW(loadProfileBinary(in), std::invalid_argument);
    }
    {   // Text-format profile fed to the binary loader.
        std::stringstream text;
        saveProfile(original, text);
        std::stringstream in(text.str());
        EXPECT_THROW(loadProfileBinary(in), std::invalid_argument);
    }
}

TEST(ProfileBinary, CacheSelfHealsCorruptAndLegacyArtifacts)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "rppm_columnar_heal";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    const WorkloadSpec spec = richSpec("heal-me");
    const WorkloadTrace trace = generateWorkload(spec);
    const WorkloadProfile reference = profileWorkload(trace);

    ProfileCache cache;
    cache.setDirectory(dir.string());
    const std::string path = cache.pathFor(spec.name, {});

    // Seed the artifact with a *legacy text-format* profile (what a
    // pre-binary checkout would have written), as the interesting case
    // of "old version on disk".
    saveProfileToFile(reference, path);

    int computations = 0;
    const auto healed = cache.getOrCompute(spec.name, {}, [&] {
        ++computations;
        return profileWorkload(trace);
    });
    EXPECT_EQ(computations, 1); // text artifact rejected, recomputed
    EXPECT_EQ(cache.stats().diskHits, 0u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(healed->totalOps(), reference.totalOps());

    // The artifact was overwritten in the binary format: a fresh cache
    // now hits disk and predicts identically.
    ProfileCache fresh;
    fresh.setDirectory(dir.string());
    const auto from_disk = fresh.getOrCompute(spec.name, {}, [&] {
        ADD_FAILURE() << "should have loaded from disk";
        return profileWorkload(trace);
    });
    EXPECT_EQ(fresh.stats().diskHits, 1u);
    const RppmPrediction a = predict(reference, baseConfig());
    const RppmPrediction b = predict(*from_disk, baseConfig());
    EXPECT_DOUBLE_EQ(a.totalCycles, b.totalCycles);

    // Plain corruption self-heals the same way.
    {
        std::ofstream os(path, std::ios::binary);
        os << "corrupted beyond recognition";
    }
    ProfileCache corrupt;
    corrupt.setDirectory(dir.string());
    int recomputed = 0;
    corrupt.getOrCompute(spec.name, {}, [&] {
        ++recomputed;
        return profileWorkload(trace);
    });
    EXPECT_EQ(recomputed, 1);

    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace rppm
