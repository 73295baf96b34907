/**
 * @file
 * Binary profile serialization ("RPPMPRF" container, see serialize.hh).
 *
 * Layout: header (magic, endianness, version), then name, thread count,
 * the sorted barrier/condvar maps, sync counts, and per thread the epoch
 * list. Each epoch stores its scalars, the mix array, the seven
 * histograms as sparse (value, count) pairs, the branch table sorted by
 * PC, and the micro-traces as packed op records. Output is
 * byte-deterministic for a given profile.
 */

#include "profile/serialize.hh"

#include <algorithm>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/assert.hh"
#include "common/binio.hh"
#include "trace/columnar.hh"

namespace rppm {

namespace {

constexpr char kProfileMagic[8] = {'R', 'P', 'P', 'M', 'P', 'R', 'F', '\0'};

/** Sparse histogram entry: representative value (kInfinity for the
 *  infinite bucket) and sample count. */
struct HistEntry
{
    uint64_t value;
    uint64_t count;
};

/** Packed micro-trace op. */
struct PackedMop
{
    uint64_t localRd;
    uint64_t globalRd;
    uint16_t dep1;
    uint16_t dep2;
    uint8_t op;
    uint8_t pad[3];
};

static_assert(sizeof(HistEntry) == 16);
static_assert(sizeof(PackedMop) == 24);

// Block tags.
enum : uint32_t
{
    kTagHist = 0x48495354,     // 'HIST'
    kTagBranches = 0x42524e43, // 'BRNC'
    kTagMicro = 0x4d4f505f,    // 'MOP_'
    kTagMix = 0x4d495800,      // 'MIX'
    kTagBarriers = 0x42415200, // 'BAR'
    kTagCondVars = 0x43565200, // 'CVR'
};

void
writeHistogram(BinWriter &out, const LogHistogram &hist)
{
    std::vector<HistEntry> entries;
    hist.forEach([&entries](uint64_t value, uint64_t count) {
        entries.push_back({value, count});
    });
    out.column(kTagHist, entries);
}

LogHistogram
readHistogram(BinReader &in)
{
    // Entries arrive in bucket order, so the frozen form is built in
    // place: no dense bucket array ever exists.
    const auto entries = in.column<HistEntry>(kTagHist, "histogram");
    const bool has_inf = !entries.empty() &&
        entries.back().value == LogHistogram::kInfinity;
    LogHistogram hist;
    hist.freeze();
    hist.reserve(entries.size() - (has_inf ? 1 : 0));
    for (const HistEntry &e : entries)
        hist.add(e.value, e.count);
    return hist;
}

void
writeEpoch(BinWriter &out, const EpochProfile &epoch)
{
    out.u64(epoch.numOps);
    out.u64(epoch.numLoads);
    out.u64(epoch.numStores);
    out.u64(epoch.numBranches);
    out.u64(epoch.loadsDependingOnLoad);
    out.u8(static_cast<uint8_t>(epoch.endType));
    out.u32(epoch.endArg);

    std::vector<uint64_t> mix(epoch.mix.begin(), epoch.mix.end());
    out.column(kTagMix, mix);

    writeHistogram(out, epoch.depDist);
    writeHistogram(out, epoch.localRd);
    writeHistogram(out, epoch.globalRd);
    writeHistogram(out, epoch.loadLocalRd);
    writeHistogram(out, epoch.loadGlobalRd);
    writeHistogram(out, epoch.instrRd);
    writeHistogram(out, epoch.loadGap);

    // Branch counts sorted by PC so the output is byte-deterministic.
    std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> branches;
    epoch.branches.forEach(
        [&branches](uint64_t pc, uint64_t taken, uint64_t total) {
            branches.emplace_back(pc, taken, total);
        });
    std::sort(branches.begin(), branches.end());
    std::vector<uint64_t> flat;
    flat.reserve(branches.size() * 3);
    for (const auto &[pc, taken, total] : branches) {
        flat.push_back(pc);
        flat.push_back(taken);
        flat.push_back(total);
    }
    out.column(kTagBranches, flat);

    out.u64(epoch.microTraces.size());
    for (const MicroTrace &mt : epoch.microTraces) {
        std::vector<PackedMop> mops;
        mops.reserve(mt.ops.size());
        for (const MicroTraceOp &op : mt.ops) {
            PackedMop m{};
            m.localRd = op.localRd;
            m.globalRd = op.globalRd;
            m.dep1 = op.dep1;
            m.dep2 = op.dep2;
            m.op = static_cast<uint8_t>(op.op);
            mops.push_back(m);
        }
        out.column(kTagMicro, mops);
    }
}

EpochProfile
readEpoch(BinReader &in)
{
    EpochProfile epoch;
    epoch.numOps = in.u64("epoch numOps");
    epoch.numLoads = in.u64("epoch numLoads");
    epoch.numStores = in.u64("epoch numStores");
    epoch.numBranches = in.u64("epoch numBranches");
    epoch.loadsDependingOnLoad = in.u64("epoch loadsDependingOnLoad");
    const uint8_t end_type = in.u8("epoch endType");
    if (end_type >= static_cast<uint8_t>(SyncType::NumTypes))
        in.fail("bad epoch end type");
    epoch.endType = static_cast<SyncType>(end_type);
    epoch.endArg = in.u32("epoch endArg");

    const std::vector<uint64_t> mix = in.column<uint64_t>(kTagMix, "mix");
    if (mix.size() != epoch.mix.size())
        in.fail("mix array size mismatch");
    std::copy(mix.begin(), mix.end(), epoch.mix.begin());

    epoch.depDist = readHistogram(in);
    epoch.localRd = readHistogram(in);
    epoch.globalRd = readHistogram(in);
    epoch.loadLocalRd = readHistogram(in);
    epoch.loadGlobalRd = readHistogram(in);
    epoch.instrRd = readHistogram(in);
    epoch.loadGap = readHistogram(in);

    const std::vector<uint64_t> flat =
        in.column<uint64_t>(kTagBranches, "branch counts");
    if (flat.size() % 3 != 0)
        in.fail("branch count block not a multiple of 3");
    for (size_t b = 0; b < flat.size(); b += 3)
        epoch.branches.addCounts(flat[b], flat[b + 1], flat[b + 2]);

    const uint64_t traces = in.u64("micro-trace count");
    // Each micro-trace costs at least a 16-byte block header, so a count
    // beyond the remaining bytes is corruption; fail before reserving.
    if (traces > in.remainingBytes() / 16)
        in.fail("micro-trace count exceeds file size");
    epoch.microTraces.reserve(traces);
    for (uint64_t t = 0; t < traces; ++t) {
        MicroTrace mt;
        for (const PackedMop &m :
             in.column<PackedMop>(kTagMicro, "micro-trace ops")) {
            if (m.op >= static_cast<uint8_t>(OpClass::NumClasses))
                in.fail("bad micro-trace op class");
            MicroTraceOp op;
            op.op = static_cast<OpClass>(m.op);
            op.dep1 = m.dep1;
            op.dep2 = m.dep2;
            op.localRd = m.localRd;
            op.globalRd = m.globalRd;
            mt.ops.push_back(op);
        }
        epoch.microTraces.push_back(std::move(mt));
    }
    return epoch;
}

/**
 * Reject a decoded profile whose synchronization structure the sync
 * model cannot execute. The CRC trailers cover the column blocks only,
 * so a flipped epoch end type or argument reaches this point intact.
 * Each thread's epoch ends are its sync events, checked by the trace
 * validator (trace/columnar.hh); the barrier populations it derives must
 * be the decoded ones, and only a thread's last epoch may end it.
 */
void
validateProfileSync(const WorkloadProfile &profile)
{
    struct Events
    {
        std::vector<uint64_t> pos;
        std::vector<SyncType> type;
        std::vector<uint32_t> arg;
    };
    std::vector<Events> events(profile.threads.size());
    std::vector<SyncView> views;
    views.reserve(profile.threads.size());
    for (size_t t = 0; t < profile.threads.size(); ++t) {
        const std::vector<EpochProfile> &epochs = profile.threads[t].epochs;
        RPPM_REQUIRE(!epochs.empty(), "thread has no epochs");
        Events &ev = events[t];
        uint64_t records = 0;
        for (size_t e = 0; e < epochs.size(); ++e) {
            const bool last = e + 1 == epochs.size();
            RPPM_REQUIRE((epochs[e].endType == SyncType::None) == last,
                         "only a thread's last epoch may end the thread");
            records += epochs[e].numOps;
            if (last)
                break;
            ev.pos.push_back(records++);
            ev.type.push_back(epochs[e].endType);
            ev.arg.push_back(epochs[e].endArg);
        }
        views.push_back({ev.pos.data(), ev.type.data(), ev.arg.data(),
                         ev.pos.size(), records});
    }
    RPPM_REQUIRE(validateSyncAndBarrierPopulations(views) ==
                     profile.barrierPopulation,
                 "barrier populations do not match the epoch ends");
}

} // namespace

void
saveProfileBinary(const WorkloadProfile &profile, std::ostream &os)
{
    BinWriter out(kProfileMagic, kProfileFormatVersion);
    out.str(profile.name);
    out.u32(profile.numThreads);

    // Sort map contents so the output is byte-deterministic.
    const std::map<uint32_t, uint32_t> barriers(
        profile.barrierPopulation.begin(), profile.barrierPopulation.end());
    std::vector<uint32_t> barrier_flat;
    barrier_flat.reserve(barriers.size() * 2);
    for (const auto &[id, pop] : barriers) {
        barrier_flat.push_back(id);
        barrier_flat.push_back(pop);
    }
    out.column(kTagBarriers, barrier_flat);

    const std::map<uint32_t, CondVarClass> condvars(
        profile.condVarClasses.begin(), profile.condVarClasses.end());
    std::vector<uint32_t> condvar_flat;
    condvar_flat.reserve(condvars.size() * 2);
    for (const auto &[id, cls] : condvars) {
        condvar_flat.push_back(id);
        condvar_flat.push_back(static_cast<uint32_t>(cls));
    }
    out.column(kTagCondVars, condvar_flat);

    out.u64(profile.syncCounts.criticalSections);
    out.u64(profile.syncCounts.barriers);
    out.u64(profile.syncCounts.condVars);

    for (const ThreadProfile &thread : profile.threads) {
        out.u64(thread.epochs.size());
        for (const EpochProfile &epoch : thread.epochs)
            writeEpoch(out, epoch);
    }

    os.write(out.data().data(),
             static_cast<std::streamsize>(out.data().size()));
    if (!os)
        throw std::runtime_error("profile write failed");
}

WorkloadProfile
loadProfileBinary(std::istream &is)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string data = buf.str();

    BinReader in(data, kProfileMagic, kProfileFormatVersionMin,
                 kProfileFormatVersion);
    in.setBlockCrcVerify(in.version() >= kProfileFormatVersionCrc);
    WorkloadProfile profile;
    profile.name = in.str("name");
    profile.numThreads = in.u32("thread count");

    const std::vector<uint32_t> barrier_flat =
        in.column<uint32_t>(kTagBarriers, "barriers");
    if (barrier_flat.size() % 2 != 0)
        in.fail("barrier block not a multiple of 2");
    for (size_t b = 0; b < barrier_flat.size(); b += 2)
        profile.barrierPopulation[barrier_flat[b]] = barrier_flat[b + 1];

    const std::vector<uint32_t> condvar_flat =
        in.column<uint32_t>(kTagCondVars, "condvars");
    if (condvar_flat.size() % 2 != 0)
        in.fail("condvar block not a multiple of 2");
    for (size_t c = 0; c < condvar_flat.size(); c += 2) {
        if (condvar_flat[c + 1] >
            static_cast<uint32_t>(CondVarClass::ProducerConsumer))
            in.fail("bad condvar class");
        profile.condVarClasses[condvar_flat[c]] =
            static_cast<CondVarClass>(condvar_flat[c + 1]);
    }

    profile.syncCounts.criticalSections = in.u64("criticalSections");
    profile.syncCounts.barriers = in.u64("barriers");
    profile.syncCounts.condVars = in.u64("condVars");

    // A corrupt thread count would otherwise drive a huge reserve.
    if (profile.numThreads > data.size())
        in.fail("thread count exceeds file size");
    for (uint32_t t = 0; t < profile.numThreads; ++t) {
        const uint64_t epochs = in.u64("epoch count");
        if (epochs > data.size())
            in.fail("epoch count exceeds file size");
        ThreadProfile thread;
        thread.epochs.reserve(epochs);
        for (uint64_t e = 0; e < epochs; ++e)
            thread.epochs.push_back(readEpoch(in));
        profile.threads.push_back(std::move(thread));
    }
    if (!in.atEnd())
        in.fail("trailing bytes after last thread");
    validateProfileSync(profile);
    return profile;
}

void
saveProfileBinaryToFile(const WorkloadProfile &profile,
                        const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        throw std::runtime_error("cannot open " + path + " for writing");
    saveProfileBinary(profile, os);
}

WorkloadProfile
loadProfileBinaryFromFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("cannot open " + path);
    return loadProfileBinary(is);
}

} // namespace rppm
