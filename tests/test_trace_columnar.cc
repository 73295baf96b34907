/**
 * @file
 * Tests for the columnar trace engine and the profiler entry points:
 *
 *  - the builder encodes records into columns, and the AoS record view
 *    (toWorkload/fromWorkload) round-trips losslessly;
 *  - binary trace serialization round-trips bit-identically through the
 *    zero-copy mmap view, which rejects old-version, truncated and
 *    corrupt input cleanly;
 *  - synthesis at every job count reproduces the committed trace corpus
 *    tests/golden/trace.txt (byte length and CRC32C of the RPPMTRC
 *    bytes), which this file also records;
 *  - profileWorkload() produces profiles bit-identical
 *    to the committed corpus tests/golden/profile.txt on every workload
 *    kernel of the suite (byte length and CRC32C of the deterministic
 *    RPPMPRF serialization).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "profile/profiler.hh"
#include "profile_reference.hh"
#include "trace/columnar.hh"
#include "trace/trace_builder.hh"
#include "trace/trace_io.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

std::string
serializeTrace(const ColumnarTrace &trace)
{
    std::stringstream ss;
    saveTrace(trace, ss);
    return ss.str();
}

/** Write raw bytes to a temp path and return the path. */
std::string
writeTempFile(const std::string &bytes, const char *name)
{
    const std::string path = std::string("/tmp/") + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
}

TEST(Columnar, ConversionIsLossless)
{
    const ColumnarTrace cols = synthesizeTrace(columnarRichSpec());
    const WorkloadTrace aos = cols.toWorkload();

    EXPECT_EQ(aos.name, cols.name);
    ASSERT_EQ(aos.numThreads(), cols.numThreads());
    uint64_t ops = 0;
    std::map<SyncType, uint64_t> syncs;
    for (size_t t = 0; t < aos.numThreads(); ++t) {
        const auto &records = aos.threads[t].records;
        EXPECT_EQ(records.size(), cols.threads[t].numRecords());
        for (const TraceRecord &rec : records) {
            if (rec.isSync())
                ++syncs[rec.sync];
            else
                ++ops;
        }
    }
    EXPECT_EQ(ops, cols.totalOps());
    for (SyncType type :
         {SyncType::BarrierWait, SyncType::MutexLock, SyncType::QueuePush,
          SyncType::ThreadCreate, SyncType::ThreadJoin}) {
        EXPECT_EQ(syncs[type], cols.countSync(type)) << syncTypeName(type);
    }

    // columnar -> AoS -> columnar is a fixed point at every job count.
    EXPECT_TRUE(ColumnarTrace::fromWorkload(aos) == cols);
    EXPECT_TRUE(ColumnarTrace::fromWorkload(aos, 4) == cols);
}

TEST(Columnar, CursorWalksRecordsInOrder)
{
    ThreadColumns cols;
    ThreadTraceBuilder b(cols);
    b.op(OpClass::IntAlu, 0x10);
    b.load(0x1000, 0x14, 1);
    b.sync(SyncType::MutexLock, 7);
    b.store(0x1040, 0x18);
    b.branch(0x1c, true, 2);
    b.sync(SyncType::MutexUnlock, 7);

    ColumnCursor cur(cols);

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

// ------------------------------------------------- binary trace I/O ---

TEST(TraceIo, RoundTripIsBitIdentical)
{
    const ColumnarTrace original = synthesizeTrace(columnarRichSpec());
    const std::string bytes = serializeTrace(original);
    const std::string path =
        writeTempFile(bytes, "rppm_test_roundtrip.rppmtrc");

    const ColumnarTrace loaded = loadTraceViewFromFile(path);
    EXPECT_TRUE(loaded == original);

    // save(load(save(t))) == save(t), byte for byte.
    EXPECT_TRUE(serializeTrace(loaded) == bytes);
    std::filesystem::remove(path);
}

TEST(TraceIo, FileRoundTrip)
{
    const ColumnarTrace original = synthesizeTrace(columnarRichSpec());
    const std::string path = "/tmp/rppm_test_trace.rppmtrc";
    saveTraceToFile(original, path);
    EXPECT_TRUE(loadTraceViewFromFile(path) == original);
    std::filesystem::remove(path);
}

// ------------------------------------------ synthesis vs. the corpus ---

TEST(TraceGolden, CorpusCoversEveryCase)
{
    // Records tests/golden/trace.txt from the one-job synthesis when
    // RPPM_GOLDEN_WRITE names it (golden.hh). Otherwise the corpus must
    // hold exactly the workloads the identity test looks up.
    const std::vector<WorkloadSpec> specs = traceCorpusSpecs();
    const std::string target = golden::writePath("trace.txt");
    if (!target.empty()) {
        std::vector<std::string> lines;
        for (const WorkloadSpec &spec : specs) {
            lines.push_back(golden::digest(
                traceKey(spec.name),
                serializeTraceBytes(synthesizeTrace(spec))));
        }
        ASSERT_TRUE(golden::write(
            target,
            "# RPPM golden trace corpus: <workload>|rppmtrc then the byte\n"
            "# length and CRC32C of the synthesized trace's RPPMTRC\n"
            "# serialization (trace/trace_io.hh).\n"
            "# Written by tests/test_trace_columnar.cc; see "
            "tests/golden.hh before regenerating.\n",
            lines))
            << "cannot write " << target;
        return;
    }
    const std::map<std::string, std::string> corpus =
        golden::load("trace.txt");
    EXPECT_EQ(corpus.size(), specs.size());
    for (const WorkloadSpec &spec : specs) {
        EXPECT_EQ(corpus.count(traceKey(spec.name)), 1u)
            << "no corpus line for " << spec.name;
    }
}

TEST(TraceGolden, SynthesisMatchesCorpusForEveryJobCount)
{
    // Pins the synthesized trace itself, not only the profiles and
    // simulations derived from it, and its round trip through the AoS
    // record view.
    for (const WorkloadSpec &spec : traceCorpusSpecs()) {
        for (const unsigned jobs : {1u, 4u}) {
            EXPECT_TRUE(matchesTraceCorpus(spec.name,
                                           synthesizeTrace(spec, jobs)))
                << "jobs=" << jobs;
        }
        EXPECT_TRUE(matchesTraceCorpus(
            spec.name, ColumnarTrace::fromWorkload(generateWorkload(spec))))
            << "via the AoS view";
    }
}

// ------------------------------------------- zero-copy mmap views ---

TEST(TraceView, BorrowedViewEqualsSavedTrace)
{
    const ColumnarTrace original = synthesizeTrace(columnarRichSpec());
    const std::string path =
        writeTempFile(serializeTrace(original), "rppm_test_view.rppmtrc");

    const ColumnarTrace view = loadTraceViewFromFile(path);

    // The view borrows the mmap image; the synthesized trace owns
    // vectors.
    EXPECT_TRUE(view.isBorrowed());
    EXPECT_FALSE(original.isBorrowed());
    EXPECT_NE(view.storage, nullptr);

    // Same trace, element-for-element and byte-for-byte.
    EXPECT_TRUE(view == original);
    EXPECT_TRUE(serializeTrace(view) == serializeTrace(original));

    // Deep-copying the view drops the borrow and preserves content.
    const ColumnarTrace detached = view.toOwned();
    EXPECT_FALSE(detached.isBorrowed());
    EXPECT_TRUE(detached == original);

    std::filesystem::remove(path);
}

TEST(TraceView, ProfilesBitIdenticallyToSavedTrace)
{
    const ColumnarTrace original = synthesizeTrace(columnarRichSpec());
    const std::string path = writeTempFile(
        serializeTrace(original), "rppm_test_view_prof.rppmtrc");

    ProfilerOptions opts;
    opts.microTraceLength = 60;
    opts.microTraceInterval = 400;
    const WorkloadProfile fromView =
        profileWorkload(loadTraceViewFromFile(path), opts);
    const WorkloadProfile fromOriginal = profileWorkload(original, opts);
    EXPECT_TRUE(serializeProfileBinary(fromView) ==
                serializeProfileBinary(fromOriginal));

    std::filesystem::remove(path);
}

TEST(TraceView, RejectsMalformedImages)
{
    const std::string bytes = serializeTrace(
        synthesizeTrace(columnarRichSpec()));
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

// ------------------------------------------ profiler vs. the corpus ---

TEST(Profiler, BitIdenticalToCorpusOnEveryKernel)
{
    // One serialized byte mismatch anywhere in mix, histograms,
    // micro-traces, branch counts or sync structure fails this test.
    // Kernels are scaled down to keep the test fast; every suite entry
    // is covered at default options.
    for (const SuiteEntry &entry : fullSuite()) {
        const WorkloadSpec spec = scaledSpec(entry);
        EXPECT_TRUE(matchesProfileCorpus(
            profileKey(spec.name), profileWorkload(synthesizeTrace(spec))));
    }
}

TEST(Profiler, RespectsProfilerOptions)
{
    // The options that change profile content must keep the profile
    // equal to the corpus'.
    ProfilerOptions opts;
    opts.detectInvalidation = false;
    opts.quantum = 17;
    opts.microTraceLength = 64;
    opts.microTraceInterval = 500;
    EXPECT_TRUE(matchesProfileCorpus(
        profileKey("columnar-test", "noinval"),
        profileWorkload(synthesizeTrace(columnarRichSpec()), opts)));
}

} // namespace
} // namespace rppm
