/**
 * @file
 * Tests for the RPPMPRF profile format (profile/serialize.hh): exact
 * round-tripping of everything the model consumes, the key property that
 * a reloaded profile yields bit-identical predictions, rejection of
 * malformed and legacy input, and the ProfileCache's self-healing of
 * artifacts the reader rejects.
 *
 * The reader is a decoder of hostile input, and its checksums cover the
 * column blocks only: the epoch scalars (counters, end type and end
 * argument) sit outside them. The sweeps at the end corrupt those
 * scalars structurally, flip sampled bytes and truncate the image; the
 * reader must reject every result or hand back a profile predict()
 * executes without aborting.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "profile/profiler.hh"
#include "profile/serialize.hh"
#include "rppm/predictor.hh"
#include "study/profile_cache.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

WorkloadSpec
sampleSpec(const char *name = "serialize-test")
{
    WorkloadSpec spec = barrierLoopSpec(3, 4, 2500);
    spec.name = name;
    spec.csPerEpoch = 2;
    spec.queueItems = 5;
    spec.kernel.sharedFrac = 0.2;
    spec.kernel.branchEntropy = 0.1;
    return spec;
}

WorkloadProfile
sampleProfile()
{
    return profileWorkload(synthesizeTrace(sampleSpec()));
}

std::string
serialize(const WorkloadProfile &profile)
{
    std::stringstream ss;
    saveProfileBinary(profile, ss);
    return ss.str();
}

WorkloadProfile
deserialize(const std::string &bytes)
{
    std::stringstream ss(bytes);
    return loadProfileBinary(ss);
}

WorkloadProfile
roundTrip(const WorkloadProfile &profile)
{
    return deserialize(serialize(profile));
}

TEST(Serialize, RoundTripPreservesStructure)
{
    const WorkloadProfile original = sampleProfile();
    const WorkloadProfile copy = roundTrip(original);

    EXPECT_EQ(copy.name, original.name);
    EXPECT_EQ(copy.numThreads, original.numThreads);
    ASSERT_EQ(copy.threads.size(), original.threads.size());
    EXPECT_EQ(copy.barrierPopulation, original.barrierPopulation);
    EXPECT_EQ(copy.condVarClasses.size(), original.condVarClasses.size());
    EXPECT_EQ(copy.syncCounts.criticalSections,
              original.syncCounts.criticalSections);
    EXPECT_EQ(copy.syncCounts.barriers, original.syncCounts.barriers);
    EXPECT_EQ(copy.syncCounts.condVars, original.syncCounts.condVars);
}

TEST(Serialize, RoundTripPreservesEpochs)
{
    const WorkloadProfile original = sampleProfile();
    const WorkloadProfile copy = roundTrip(original);
    for (size_t t = 0; t < original.threads.size(); ++t) {
        ASSERT_EQ(copy.threads[t].epochs.size(),
                  original.threads[t].epochs.size()) << t;
        for (size_t e = 0; e < original.threads[t].epochs.size(); ++e) {
            const EpochProfile &a = original.threads[t].epochs[e];
            const EpochProfile &b = copy.threads[t].epochs[e];
            EXPECT_EQ(a.numOps, b.numOps);
            EXPECT_EQ(a.numLoads, b.numLoads);
            EXPECT_EQ(a.numStores, b.numStores);
            EXPECT_EQ(a.numBranches, b.numBranches);
            EXPECT_EQ(a.loadsDependingOnLoad, b.loadsDependingOnLoad);
            EXPECT_EQ(a.endType, b.endType);
            EXPECT_EQ(a.endArg, b.endArg);
            EXPECT_EQ(a.mix, b.mix);
            EXPECT_EQ(a.localRd.total(), b.localRd.total());
            EXPECT_EQ(a.localRd.totalInfinite(),
                      b.localRd.totalInfinite());
            EXPECT_EQ(a.globalRd.total(), b.globalRd.total());
            EXPECT_EQ(a.instrRd.total(), b.instrRd.total());
            EXPECT_EQ(a.microTraces.size(), b.microTraces.size());
            EXPECT_NEAR(a.branches.averageLinearEntropy(),
                        b.branches.averageLinearEntropy(), 1e-12);
        }
    }
}

TEST(Serialize, RoundTripPreservesMicroTraces)
{
    const WorkloadProfile original = sampleProfile();
    const WorkloadProfile copy = roundTrip(original);
    // Find the first epoch that actually carries micro-traces (early
    // epochs may be pure synchronization).
    size_t epoch = 0;
    while (epoch < original.threads[1].epochs.size() &&
           original.threads[1].epochs[epoch].microTraces.empty()) {
        ++epoch;
    }
    ASSERT_LT(epoch, original.threads[1].epochs.size());
    const auto &a = original.threads[1].epochs[epoch].microTraces;
    const auto &b = copy.threads[1].epochs[epoch].microTraces;
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    for (size_t i = 0; i < a[0].ops.size(); ++i) {
        EXPECT_EQ(a[0].ops[i].op, b[0].ops[i].op);
        EXPECT_EQ(a[0].ops[i].dep1, b[0].ops[i].dep1);
        EXPECT_EQ(a[0].ops[i].dep2, b[0].ops[i].dep2);
        EXPECT_EQ(a[0].ops[i].localRd, b[0].ops[i].localRd);
        EXPECT_EQ(a[0].ops[i].globalRd, b[0].ops[i].globalRd);
    }
}

TEST(Serialize, ReloadedProfilePredictsIdentically)
{
    const WorkloadProfile original = sampleProfile();
    const WorkloadProfile copy = roundTrip(original);
    for (const MulticoreConfig &cfg : tableIvConfigs()) {
        const RppmPrediction a = predict(original, cfg);
        const RppmPrediction b = predict(copy, cfg);
        EXPECT_DOUBLE_EQ(a.totalCycles, b.totalCycles) << cfg.name;
        for (size_t t = 0; t < a.threads.size(); ++t) {
            EXPECT_DOUBLE_EQ(a.threads[t].activeCycles,
                             b.threads[t].activeCycles);
        }
    }
}

TEST(Serialize, FileRoundTrip)
{
    const WorkloadProfile original = sampleProfile();
    const std::string path = "/tmp/rppm_test_profile.rppmprf";
    saveProfileBinaryToFile(original, path);
    const WorkloadProfile copy = loadProfileBinaryFromFile(path);
    EXPECT_EQ(copy.name, original.name);
    const RppmPrediction a = predict(original, baseConfig());
    const RppmPrediction b = predict(copy, baseConfig());
    EXPECT_DOUBLE_EQ(a.totalCycles, b.totalCycles);
    std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows)
{
    EXPECT_THROW(loadProfileBinaryFromFile("/nonexistent/rppm.prof"),
                 std::runtime_error);
}

TEST(ProfileBinary, DoubleRoundTripIsByteStable)
{
    const std::string once = serialize(sampleProfile());
    // EXPECT_TRUE rather than EXPECT_EQ: on failure, gtest would try to
    // diff two large byte strings.
    EXPECT_TRUE(serialize(deserialize(once)) == once);
}

/** The first bytes of a profile a pre-binary checkout wrote in its
 *  line-oriented text format. */
const char kLegacyTextProfile[] =
    "RPPMPROF 1\nname heal-me\nthreads 4\nbarriers 0\ncondvars 0\n"
    "synccounts 0 0 0\n";

TEST(ProfileBinary, RejectsBadInput)
{
    const std::string bytes = serialize(sampleProfile());
    const auto rejects = [](const std::string &image) {
        std::stringstream in(image);
        EXPECT_THROW(loadProfileBinary(in), std::invalid_argument);
    };
    rejects("");                  // empty stream
    rejects("NOTAPROFILE 9\n");   // foreign magic
    rejects(kLegacyTextProfile);  // legacy text-format profile
    {   // Old/newer version.
        std::string old = bytes;
        old[12] = static_cast<char>(kProfileFormatVersion + 3);
        rejects(old);
    }
    rejects(bytes.substr(0, bytes.size() / 2)); // truncation
}

TEST(ProfileBinary, CacheSelfHealsCorruptAndLegacyArtifacts)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "rppm_serialize_heal";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    const WorkloadSpec spec = sampleSpec("heal-me");
    const ColumnarTrace trace = synthesizeTrace(spec);
    const WorkloadProfile reference = profileWorkload(trace);
    const auto recompute = [&](ProfileCache &cache) {
        int computations = 0;
        cache.getOrCompute(spec.name, {}, [&] {
            ++computations;
            return profileWorkload(trace);
        });
        return computations;
    };

    ProfileCache cache;
    cache.setDirectory(dir.string());
    const std::string path = cache.pathFor(spec.name, {});

    // Seed the artifact with a *legacy text-format* profile (what a
    // pre-binary checkout would have written), as the interesting case
    // of "old version on disk".
    {
        std::ofstream os(path, std::ios::binary);
        os << kLegacyTextProfile;
    }
    EXPECT_EQ(recompute(cache), 1); // text artifact rejected, recomputed
    EXPECT_EQ(cache.stats().diskHits, 0u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().quarantined, 1u);

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
    EXPECT_EQ(recompute(corrupt), 1);
    EXPECT_EQ(corrupt.stats().quarantined, 1u);

    // So does an artifact that passes every checksum but whose sync
    // structure cannot execute: the main thread's first epoch claims to
    // end the thread.
    WorkloadProfile inconsistent = reference;
    ASSERT_GT(inconsistent.threads[0].epochs.size(), 1u);
    inconsistent.threads[0].epochs[0].endType = SyncType::None;
    saveProfileBinaryToFile(inconsistent, path);
    ProfileCache unsound;
    unsound.setDirectory(dir.string());
    EXPECT_EQ(recompute(unsound), 1);
    EXPECT_EQ(unsound.stats().quarantined, 1u);
    EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));

    std::filesystem::remove_all(dir);
}

// ------------------------------------------- corrupt-input sweeps ---

/** A small profile with every kind of sync event the sweeps mutate:
 *  create/join, barriers, critical sections and a queue. */
WorkloadProfile
sweepProfile()
{
    WorkloadSpec spec = barrierLoopSpec(2, 2, 150);
    spec.name = "sweep";
    spec.csPerEpoch = 1;
    spec.queueItems = 2;
    spec.itemOps = 40;
    spec.initOps = 60;
    spec.finalOps = 60;
    return profileWorkload(synthesizeTrace(spec));
}

/**
 * The rule every corrupt image must keep: loading it throws
 * std::invalid_argument, or the loaded profile's predict() returns or
 * throws std::invalid_argument. Anything else (an abort, another
 * exception type) fails the test.
 */
::testing::AssertionResult
loadsSafely(const std::string &image)
{
    WorkloadProfile profile;
    try {
        profile = deserialize(image);
    } catch (const std::invalid_argument &) {
        return ::testing::AssertionSuccess();
    }
    try {
        predict(profile, baseConfig());
    } catch (const std::invalid_argument &) {
    } catch (const std::exception &e) {
        return ::testing::AssertionFailure()
            << "predict() threw a non-input error: " << e.what();
    }
    return ::testing::AssertionSuccess();
}

TEST(ProfileSweep, StructuralMutationsLoadSafely)
{
    // Every epoch end retargeted at every other sync id the profile
    // uses and at the first thread id past the end, and retyped as
    // every sync type: the scalars a CRC does not cover.
    const WorkloadProfile profile = sweepProfile();
    std::set<uint32_t> ids = {profile.numThreads};
    for (const ThreadProfile &thread : profile.threads) {
        for (const EpochProfile &epoch : thread.epochs)
            ids.insert(epoch.endArg);
    }
    size_t mutants = 0;
    for (size_t t = 0; t < profile.threads.size(); ++t) {
        for (size_t e = 0; e < profile.threads[t].epochs.size(); ++e) {
            const EpochProfile &epoch = profile.threads[t].epochs[e];
            WorkloadProfile mutant = profile;
            EpochProfile &target = mutant.threads[t].epochs[e];
            for (const uint32_t id : ids) {
                if (id == epoch.endArg)
                    continue;
                target.endArg = id;
                EXPECT_TRUE(loadsSafely(serialize(mutant)))
                    << "thread " << t << " epoch " << e << " endArg "
                    << id;
                ++mutants;
            }
            target.endArg = epoch.endArg;
            for (uint8_t type = 0;
                 type < static_cast<uint8_t>(SyncType::NumTypes); ++type) {
                if (type == static_cast<uint8_t>(epoch.endType))
                    continue;
                target.endType = static_cast<SyncType>(type);
                EXPECT_TRUE(loadsSafely(serialize(mutant)))
                    << "thread " << t << " epoch " << e << " endType "
                    << syncTypeName(target.endType);
                ++mutants;
            }
        }
    }
    EXPECT_GT(mutants, 100u);
}

TEST(ProfileSweep, FlippedAndTruncatedImagesLoadSafely)
{
    const std::string image = serialize(sweepProfile());
    // Sample every k-th offset and length; k is odd so both sweeps
    // visit every byte lane of the 8-byte-aligned fields.
    const size_t k = 7;
    for (size_t at = 0; at < image.size(); at += k) {
        std::string flipped = image;
        flipped[at] = static_cast<char>(~flipped[at]);
        EXPECT_TRUE(loadsSafely(flipped)) << "flip at " << at;
    }
    for (size_t len = 0; len < image.size(); len += k) {
        std::stringstream in(image.substr(0, len));
        EXPECT_THROW(loadProfileBinary(in), std::invalid_argument)
            << "truncated to " << len;
    }
}

} // namespace
} // namespace rppm
