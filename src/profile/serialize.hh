/**
 * @file
 * Profile serialization ("RPPMPRF").
 *
 * The whole point of RPPM is that the profile is collected once and
 * reused for every subsequent prediction; that only pays off if profiles
 * are durable artifacts. RPPMPRF is the one serialized form: an RPPM
 * binary container (common/binio.hh; same header/block discipline as
 * the RPPMTRC trace format) preserving everything the model consumes
 * (per-epoch counters, instruction mix, all reuse-distance histograms,
 * per-static-branch outcome counts, micro-traces and the
 * synchronization structure). The Study ProfileCache and rppmd persist
 * profiles in it.
 *
 * Round-tripping is exact with respect to predictions:
 * predict(load(save(p))) == predict(p) for every configuration. The
 * writer emits byte-deterministic output (maps are sorted before
 * writing). The reader rejects old-version, foreign or malformed files
 * with std::invalid_argument, never half-decoding them. Because the
 * CRC32C trailers cover column blocks only, it also checks each
 * thread's epoch ends with the trace's sync validator (see
 * validateSyncAndBarrierPopulations in trace/columnar.hh), so a sync
 * structure the sync model cannot execute is rejected instead of
 * aborting predict().
 */

#ifndef RPPM_PROFILE_SERIALIZE_HH
#define RPPM_PROFILE_SERIALIZE_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "profile/epoch_profile.hh"

namespace rppm {

/** Current RPPMPRF binary format version. Version 2 added CRC32C
 *  trailers to every column block (common/binio.hh); version 1 files
 *  (no trailers) still load, just without integrity verification. */
constexpr uint32_t kProfileFormatVersion = 2;

/** Oldest RPPMPRF version the loader accepts. */
constexpr uint32_t kProfileFormatVersionMin = 1;

/** First version whose column blocks carry CRC32C trailers. */
constexpr uint32_t kProfileFormatVersionCrc = 2;

/** Write @p profile in the RPPMPRF format; throws std::runtime_error
 *  on I/O error. */
void saveProfileBinary(const WorkloadProfile &profile, std::ostream &os);

/** Parse an RPPMPRF profile; throws std::invalid_argument on bad
 *  magic, foreign byte order, unsupported version, malformed input or
 *  a synchronization structure predict() cannot execute. */
WorkloadProfile loadProfileBinary(std::istream &is);

/** Convenience wrappers over file paths. */
void saveProfileBinaryToFile(const WorkloadProfile &profile,
                             const std::string &path);
WorkloadProfile loadProfileBinaryFromFile(const std::string &path);

} // namespace rppm

#endif // RPPM_PROFILE_SERIALIZE_HH
