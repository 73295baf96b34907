/**
 * @file
 * Shared helpers of the profiler identity tests.
 *
 * Every byte-identity check of the profiler engine compares the
 * deterministic RPPMPRF serialization (profile/serialize.hh) of its
 * profile against the committed corpus tests/golden/profile.txt (see
 * golden.hh): one line per workload and option set, holding the byte
 * length and CRC32C of that serialization; the check also feeds the
 * bytes back through the RPPMPRF reader, which must accept them. This
 * header names the corpus cases, so that the tests and the recorder in
 * test_profile_parallel.cc agree on them.
 *
 * The same workloads, once each, make up the trace corpus
 * tests/golden/trace.txt: one line per workload holding the byte length
 * and CRC32C of its saveTrace (RPPMTRC) bytes, recorded by
 * test_trace_columnar.cc.
 */

#ifndef RPPM_TESTS_PROFILE_REFERENCE_HH
#define RPPM_TESTS_PROFILE_REFERENCE_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/binio.hh"
#include "golden.hh"
#include "profile/profiler.hh"
#include "profile/serialize.hh"
#include "trace/trace_io.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace rppm {

/** The deterministic RPPMPRF serialization of @p profile. */
inline std::string
serializeProfileBinary(const WorkloadProfile &profile)
{
    std::stringstream ss;
    saveProfileBinary(profile, ss);
    return ss.str();
}

/** Suite spec scaled down so 26 kernels x many engine configurations
 *  stay fast; all synchronization structure is preserved. */
inline WorkloadSpec
scaledSpec(const SuiteEntry &entry, uint64_t divisor = 20)
{
    WorkloadSpec spec = entry.spec;
    spec.opsPerEpoch = std::max<uint64_t>(1, spec.opsPerEpoch / divisor);
    spec.initOps = std::max<uint64_t>(1, spec.initOps / divisor);
    spec.finalOps = std::max<uint64_t>(1, spec.finalOps / divisor);
    spec.itemOps = std::max<uint64_t>(1, spec.itemOps / divisor);
    return spec;
}

/** A structurally rich workload: barriers, critical sections, a
 *  producer-consumer queue, shared data, coherence traffic. */
inline WorkloadSpec
richSpec(const char *name)
{
    WorkloadSpec spec = barrierLoopSpec(4, 5, 2500);
    spec.name = name;
    spec.csPerEpoch = 2;
    spec.queueItems = 6;
    spec.kernel.sharedFrac = 0.25;
    spec.kernel.branchEntropy = 0.1;
    return spec;
}

/** A smaller rich workload (three workers, four epochs). */
inline WorkloadSpec
columnarRichSpec(const char *name = "columnar-test")
{
    WorkloadSpec spec = barrierLoopSpec(3, 4, 2500);
    spec.name = name;
    spec.csPerEpoch = 2;
    spec.queueItems = 5;
    spec.kernel.sharedFrac = 0.2;
    spec.kernel.branchEntropy = 0.1;
    return spec;
}

/** The rich workload with a small, hot, written shared region: threads
 *  often re-touch a shared line another thread has just written, so
 *  coherence invalidation (ProfilerOptions::detectInvalidation) shapes
 *  the profile. */
inline WorkloadSpec
hotSharedSpec()
{
    WorkloadSpec spec = richSpec("hot-shared");
    spec.kernel.sharedBytes = 4096;
    spec.kernel.sharedFrac = 0.5;
    return spec;
}

/** Degenerate shape: one thread, no synchronization beyond the
 *  create/join scaffolding. */
inline WorkloadSpec
singleThreadSpec()
{
    WorkloadSpec spec;
    spec.name = "single";
    spec.numWorkers = 1;
    spec.mainWorks = false;
    spec.numEpochs = 3;
    spec.opsPerEpoch = 4000;
    spec.barrierFlavor = BarrierFlavor::None;
    return spec;
}

/** Options that change profile content (sampling policy, quantum,
 *  coherence detection, line size), by corpus name. */
inline std::vector<std::pair<const char *, ProfilerOptions>>
customProfilerOptions()
{
    ProfilerOptions q17;
    q17.quantum = 17;
    q17.microTraceLength = 64;
    q17.microTraceInterval = 500;

    ProfilerOptions noInval = q17;
    noInval.detectInvalidation = false;

    ProfilerOptions bigLines = q17;
    bigLines.lineBytes = 256;

    return {{"q17", q17}, {"noinval", noInval}, {"line256", bigLines}};
}

/** Option sets the hot-shared workload runs under, by corpus name:
 *  the defaults, and q17 with and without coherence detection (the
 *  last two differ in detectInvalidation alone). */
inline std::vector<std::pair<const char *, ProfilerOptions>>
hotSharedOptions()
{
    const auto custom = customProfilerOptions();
    return {{"default", {}}, custom[0], custom[1]};
}

/** Corpus key of workload @p workload under option set @p options. */
inline std::string
profileKey(const std::string &workload, const char *options = "default")
{
    return workload + "|" + options;
}

/** Corpus key of the RPPMPRF serialization of case @p key. */
inline std::string
binaryProfileKey(const std::string &key)
{
    return key + "|rppmprf";
}

/** One line of tests/golden/profile.txt. */
struct ProfileCase
{
    std::string key;
    WorkloadSpec spec;
    ProfilerOptions opts;
};

/** Every case of the profile corpus, in corpus order. */
inline std::vector<ProfileCase>
profileCorpusCases()
{
    std::vector<ProfileCase> cases;
    for (const SuiteEntry &entry : fullSuite()) {
        const WorkloadSpec spec = scaledSpec(entry);
        cases.push_back({profileKey(spec.name), spec, {}});
    }
    for (const char *name : {"par-test", "stream-test"}) {
        cases.push_back({profileKey(name), richSpec(name), {}});
        for (const auto &[opts_name, opts] : customProfilerOptions())
            cases.push_back({profileKey(name, opts_name), richSpec(name),
                             opts});
    }
    for (const char *name : {"par-cache", "stream-cache"})
        cases.push_back({profileKey(name), richSpec(name), {}});
    cases.push_back({profileKey("single"), singleThreadSpec(), {}});
    cases.push_back({profileKey("columnar-test", "noinval"),
                     columnarRichSpec(),
                     customProfilerOptions()[1].second});
    for (const auto &[opts_name, opts] : hotSharedOptions())
        cases.push_back({profileKey("hot-shared", opts_name),
                         hotSharedSpec(), opts});
    return cases;
}

/** The distinct workloads of profileCorpusCases(), in corpus order:
 *  the cases of tests/golden/trace.txt. */
inline std::vector<WorkloadSpec>
traceCorpusSpecs()
{
    std::vector<WorkloadSpec> specs;
    for (const ProfileCase &c : profileCorpusCases()) {
        const bool seen = std::any_of(
            specs.begin(), specs.end(),
            [&](const WorkloadSpec &s) { return s.name == c.spec.name; });
        if (!seen)
            specs.push_back(c.spec);
    }
    return specs;
}

/** Corpus key of workload @p workload in tests/golden/trace.txt. */
inline std::string
traceKey(const std::string &workload)
{
    return workload + "|rppmtrc";
}

/** The saveTrace (RPPMTRC) bytes of @p trace. */
inline std::string
serializeTraceBytes(const ColumnarTrace &trace)
{
    std::stringstream ss;
    saveTrace(trace, ss);
    return ss.str();
}

/** @p trace as a pre-checksum version-1 RPPMTRC image: the current
 *  layout without the block CRC trailers. */
inline std::string
legacyTraceBytes(const ColumnarTrace &trace)
{
    BinWriter out(kTraceMagic, 1, /*block_crcs=*/false);
    out.str(trace.name);
    out.u64(trace.threads.size());
    for (const ThreadColumns &cols : trace.threads) {
        out.u64(cols.numRecords());
        out.column(kTagOp, cols.op);
        out.column(kTagPc, cols.pc);
        out.column(kTagDep1, cols.dep1);
        out.column(kTagDep2, cols.dep2);
        out.column(kTagAddr, cols.addr);
        out.column(kTagTaken, cols.taken);
        out.column(kTagSyncPos, cols.syncPos);
        out.column(kTagSyncTyp, cols.syncType);
        out.column(kTagSyncArg, cols.syncArg);
    }
    return out.data();
}

/** Does the RPPMTRC serialization of @p trace match the trace corpus
 *  line of workload @p workload? */
inline ::testing::AssertionResult
matchesTraceCorpus(const std::string &workload, const ColumnarTrace &trace)
{
    static const std::map<std::string, std::string> corpus =
        golden::load("trace.txt");
    const std::string key = traceKey(workload);
    const auto it = corpus.find(key);
    if (it == corpus.end())
        return ::testing::AssertionFailure()
            << "no line for " << key << " in " << golden::path("trace.txt");
    const std::string got =
        golden::digest(key, serializeTraceBytes(trace));
    if (got != it->second)
        return ::testing::AssertionFailure()
            << "computed '" << got << "', corpus '" << it->second << "'";
    return ::testing::AssertionSuccess();
}

/** Does the RPPMPRF serialization of @p profile match the corpus line
 *  of case @p key, and does the reader accept it? */
inline ::testing::AssertionResult
matchesProfileCorpus(const std::string &key, const WorkloadProfile &profile)
{
    static const std::map<std::string, std::string> corpus =
        golden::load("profile.txt");
    const std::string line_key = binaryProfileKey(key);
    const auto it = corpus.find(line_key);
    if (it == corpus.end())
        return ::testing::AssertionFailure()
            << "no line for " << line_key << " in "
            << golden::path("profile.txt");
    const std::string bytes = serializeProfileBinary(profile);
    const std::string got = golden::digest(line_key, bytes);
    if (got != it->second)
        return ::testing::AssertionFailure()
            << "computed '" << got << "', corpus '" << it->second << "'";
    try {
        std::stringstream in(bytes);
        loadProfileBinary(in);
    } catch (const std::invalid_argument &e) {
        return ::testing::AssertionFailure()
            << "the reader rejects it: " << e.what();
    }
    return ::testing::AssertionSuccess();
}

} // namespace rppm

#endif // RPPM_TESTS_PROFILE_REFERENCE_HH
