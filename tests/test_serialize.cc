/**
 * @file
 * Tests for profile serialization: exact round-tripping of everything
 * the model consumes, error handling on malformed input, and the key
 * property that a reloaded profile yields bit-identical predictions.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "profile/profiler.hh"
#include "profile/serialize.hh"
#include "rppm/predictor.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

WorkloadProfile
sampleProfile()
{
    WorkloadSpec spec = barrierLoopSpec(3, 4, 2500);
    spec.csPerEpoch = 2;
    spec.queueItems = 5;
    spec.kernel.sharedFrac = 0.2;
    spec.kernel.branchEntropy = 0.1;
    return profileWorkload(synthesizeTrace(spec));
}

WorkloadProfile
roundTrip(const WorkloadProfile &profile)
{
    std::stringstream ss;
    saveProfile(profile, ss);
    return loadProfile(ss);
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

TEST(Serialize, DoubleRoundTripStable)
{
    const WorkloadProfile original = sampleProfile();
    const WorkloadProfile once = roundTrip(original);
    const WorkloadProfile twice = roundTrip(once);
    std::stringstream sa, sb;
    saveProfile(once, sa);
    saveProfile(twice, sb);
    // EXPECT_TRUE rather than EXPECT_EQ: on failure, gtest would try to
    // diff two ~0.5 MB strings.
    EXPECT_TRUE(sa.str() == sb.str());
}

TEST(Serialize, RejectsBadMagic)
{
    std::stringstream ss("NOTAPROFILE 9\n");
    EXPECT_THROW(loadProfile(ss), std::invalid_argument);
}

TEST(Serialize, RejectsTruncatedInput)
{
    const WorkloadProfile original = sampleProfile();
    std::stringstream ss;
    saveProfile(original, ss);
    const std::string full = ss.str();
    std::stringstream truncated(full.substr(0, full.size() / 2));
    EXPECT_THROW(loadProfile(truncated), std::invalid_argument);
}

TEST(Serialize, RejectsEmptyStream)
{
    std::stringstream ss;
    EXPECT_THROW(loadProfile(ss), std::invalid_argument);
}

TEST(Serialize, FileRoundTrip)
{
    const WorkloadProfile original = sampleProfile();
    const std::string path = "/tmp/rppm_test_profile.txt";
    saveProfileToFile(original, path);
    const WorkloadProfile copy = loadProfileFromFile(path);
    EXPECT_EQ(copy.name, original.name);
    const RppmPrediction a = predict(original, baseConfig());
    const RppmPrediction b = predict(copy, baseConfig());
    EXPECT_DOUBLE_EQ(a.totalCycles, b.totalCycles);
    std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows)
{
    EXPECT_THROW(loadProfileFromFile("/nonexistent/rppm.prof"),
                 std::runtime_error);
}

} // namespace
} // namespace rppm
