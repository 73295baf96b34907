/**
 * @file
 * Shared helpers of the profiler equivalence tests.
 *
 * Every byte-identity check of a profiler engine compares deterministic
 * text serializations (profile/serialize.hh) against the text of the
 * multi-pass reference profiler, profileWorkloadLegacy(). Tests compute
 * the reference once per kernel and option set and compare every engine
 * configuration against it directly.
 */

#ifndef RPPM_TESTS_PROFILE_REFERENCE_HH
#define RPPM_TESTS_PROFILE_REFERENCE_HH

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>

#include "profile/profiler.hh"
#include "profile/serialize.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace rppm {

/** The deterministic text serialization of @p profile. */
inline std::string
serializeProfileText(const WorkloadProfile &profile)
{
    std::stringstream ss;
    saveProfile(profile, ss);
    return ss.str();
}

/** The reference text every engine must reproduce byte for byte. */
inline std::string
legacyProfileText(const WorkloadTrace &trace,
                  const ProfilerOptions &opts = {})
{
    return serializeProfileText(profileWorkloadLegacy(trace, opts));
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

} // namespace rppm

#endif // RPPM_TESTS_PROFILE_REFERENCE_HH
