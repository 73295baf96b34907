#include "profile/serialize.hh"

#include <algorithm>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/assert.hh"

namespace rppm {

namespace {

constexpr const char *kMagic = "RPPMPROF 1";

/** Histograms are stored sparsely as (representative value, count). */
void
writeHistogram(std::ostream &os, const char *tag, const LogHistogram &hist)
{
    size_t buckets = 0;
    hist.forEach([&](uint64_t, uint64_t) { ++buckets; });
    os << tag << ' ' << buckets << '\n';
    hist.forEach([&](uint64_t value, uint64_t count) {
        if (value == LogHistogram::kInfinity)
            os << "inf " << count << '\n';
        else
            os << value << ' ' << count << '\n';
    });
}

LogHistogram
readHistogram(std::istream &is, const char *tag)
{
    std::string seen;
    size_t buckets = 0;
    is >> seen >> buckets;
    RPPM_REQUIRE(is && seen == tag,
                 std::string("expected histogram tag ") + tag);
    // Entries arrive in bucket order, so the frozen form is built in
    // place: no dense bucket array ever exists.
    LogHistogram hist;
    hist.freeze();
    hist.reserve(buckets);
    for (size_t i = 0; i < buckets; ++i) {
        std::string value;
        uint64_t count = 0;
        is >> value >> count;
        RPPM_REQUIRE(static_cast<bool>(is), "truncated histogram");
        if (value == "inf") {
            hist.add(LogHistogram::kInfinity, count);
        } else {
            hist.add(std::stoull(value), count);
        }
    }
    hist.freeze(); // trims the room reserved for an "inf" entry
    return hist;
}

void
writeEpoch(std::ostream &os, const EpochProfile &epoch)
{
    os << "epoch " << epoch.numOps << ' ' << epoch.numLoads << ' '
       << epoch.numStores << ' ' << epoch.numBranches << ' '
       << epoch.loadsDependingOnLoad << ' '
       << static_cast<int>(epoch.endType) << ' ' << epoch.endArg << '\n';
    os << "mix";
    for (uint64_t count : epoch.mix)
        os << ' ' << count;
    os << '\n';

    writeHistogram(os, "depDist", epoch.depDist);
    writeHistogram(os, "localRd", epoch.localRd);
    writeHistogram(os, "globalRd", epoch.globalRd);
    writeHistogram(os, "loadLocalRd", epoch.loadLocalRd);
    writeHistogram(os, "loadGlobalRd", epoch.loadGlobalRd);
    writeHistogram(os, "instrRd", epoch.instrRd);
    writeHistogram(os, "loadGap", epoch.loadGap);

    // Branch counts sorted by PC so the output is byte-deterministic.
    std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> branches;
    epoch.branches.forEach(
        [&branches](uint64_t pc, uint64_t taken, uint64_t total) {
            branches.emplace_back(pc, taken, total);
        });
    std::sort(branches.begin(), branches.end());
    os << "branches " << branches.size() << '\n';
    for (const auto &[pc, taken, total] : branches)
        os << pc << ' ' << taken << ' ' << total << '\n';

    os << "microtraces " << epoch.microTraces.size() << '\n';
    for (const MicroTrace &mt : epoch.microTraces) {
        os << "mt " << mt.ops.size() << '\n';
        for (const MicroTraceOp &op : mt.ops) {
            os << static_cast<int>(op.op) << ' ' << op.dep1 << ' '
               << op.dep2 << ' ';
            if (op.localRd == LogHistogram::kInfinity)
                os << "inf ";
            else
                os << op.localRd << ' ';
            if (op.globalRd == LogHistogram::kInfinity)
                os << "inf";
            else
                os << op.globalRd;
            os << '\n';
        }
    }
}

uint64_t
readRdValue(std::istream &is)
{
    std::string token;
    is >> token;
    RPPM_REQUIRE(static_cast<bool>(is), "truncated micro-trace");
    if (token == "inf")
        return LogHistogram::kInfinity;
    return std::stoull(token);
}

EpochProfile
readEpoch(std::istream &is)
{
    std::string tag;
    EpochProfile epoch;
    int end_type = 0;
    is >> tag >> epoch.numOps >> epoch.numLoads >> epoch.numStores >>
        epoch.numBranches >> epoch.loadsDependingOnLoad >> end_type >>
        epoch.endArg;
    RPPM_REQUIRE(is && tag == "epoch", "expected epoch header");
    RPPM_REQUIRE(end_type >= 0 &&
                 end_type < static_cast<int>(SyncType::NumTypes),
                 "bad epoch end type");
    epoch.endType = static_cast<SyncType>(end_type);

    is >> tag;
    RPPM_REQUIRE(is && tag == "mix", "expected mix");
    for (uint64_t &count : epoch.mix)
        is >> count;

    epoch.depDist = readHistogram(is, "depDist");
    epoch.localRd = readHistogram(is, "localRd");
    epoch.globalRd = readHistogram(is, "globalRd");
    epoch.loadLocalRd = readHistogram(is, "loadLocalRd");
    epoch.loadGlobalRd = readHistogram(is, "loadGlobalRd");
    epoch.instrRd = readHistogram(is, "instrRd");
    epoch.loadGap = readHistogram(is, "loadGap");

    size_t branches = 0;
    is >> tag >> branches;
    RPPM_REQUIRE(is && tag == "branches", "expected branches");
    for (size_t b = 0; b < branches; ++b) {
        uint64_t pc = 0, taken = 0, total = 0;
        is >> pc >> taken >> total;
        RPPM_REQUIRE(static_cast<bool>(is), "truncated branch counts");
        epoch.branches.addCounts(pc, taken, total);
    }

    size_t traces = 0;
    is >> tag >> traces;
    RPPM_REQUIRE(is && tag == "microtraces", "expected microtraces");
    for (size_t t = 0; t < traces; ++t) {
        size_t ops = 0;
        is >> tag >> ops;
        RPPM_REQUIRE(is && tag == "mt", "expected micro-trace");
        MicroTrace mt;
        mt.ops.reserve(ops);
        for (size_t o = 0; o < ops; ++o) {
            MicroTraceOp op;
            int cls = 0;
            is >> cls >> op.dep1 >> op.dep2;
            RPPM_REQUIRE(is && cls >= 0 &&
                         cls < static_cast<int>(OpClass::NumClasses),
                         "bad micro-trace op");
            op.op = static_cast<OpClass>(cls);
            op.localRd = readRdValue(is);
            op.globalRd = readRdValue(is);
            mt.ops.push_back(op);
        }
        epoch.microTraces.push_back(std::move(mt));
    }
    return epoch;
}

} // namespace

void
saveProfile(const WorkloadProfile &profile, std::ostream &os)
{
    os << kMagic << '\n';
    os << "name " << profile.name << '\n';
    os << "threads " << profile.numThreads << '\n';

    // Sort map contents so the output is byte-deterministic.
    const std::map<uint32_t, uint32_t> barriers(
        profile.barrierPopulation.begin(), profile.barrierPopulation.end());
    os << "barriers " << barriers.size() << '\n';
    for (const auto &[id, pop] : barriers)
        os << id << ' ' << pop << '\n';

    const std::map<uint32_t, CondVarClass> condvars(
        profile.condVarClasses.begin(), profile.condVarClasses.end());
    os << "condvars " << condvars.size() << '\n';
    for (const auto &[id, cls] : condvars)
        os << id << ' ' << static_cast<int>(cls) << '\n';

    os << "synccounts " << profile.syncCounts.criticalSections << ' '
       << profile.syncCounts.barriers << ' '
       << profile.syncCounts.condVars << '\n';

    for (const ThreadProfile &thread : profile.threads) {
        os << "thread " << thread.epochs.size() << '\n';
        for (const EpochProfile &epoch : thread.epochs)
            writeEpoch(os, epoch);
    }
    if (!os)
        throw std::runtime_error("profile write failed");
}

WorkloadProfile
loadProfile(std::istream &is)
{
    std::string magic_word, magic_version;
    is >> magic_word >> magic_version;
    RPPM_REQUIRE(is && magic_word + " " + magic_version == kMagic,
                 "not an RPPM profile (bad magic)");

    WorkloadProfile profile;
    std::string tag;
    is >> tag >> profile.name;
    RPPM_REQUIRE(is && tag == "name", "expected name");
    is >> tag >> profile.numThreads;
    RPPM_REQUIRE(is && tag == "threads", "expected thread count");

    size_t barriers = 0;
    is >> tag >> barriers;
    RPPM_REQUIRE(is && tag == "barriers", "expected barriers");
    for (size_t b = 0; b < barriers; ++b) {
        uint32_t id = 0, pop = 0;
        is >> id >> pop;
        RPPM_REQUIRE(static_cast<bool>(is), "truncated barriers");
        profile.barrierPopulation[id] = pop;
    }

    size_t condvars = 0;
    is >> tag >> condvars;
    RPPM_REQUIRE(is && tag == "condvars", "expected condvars");
    for (size_t c = 0; c < condvars; ++c) {
        uint32_t id = 0;
        int cls = 0;
        is >> id >> cls;
        RPPM_REQUIRE(static_cast<bool>(is), "truncated condvars");
        profile.condVarClasses[id] = static_cast<CondVarClass>(cls);
    }

    is >> tag >> profile.syncCounts.criticalSections >>
        profile.syncCounts.barriers >> profile.syncCounts.condVars;
    RPPM_REQUIRE(is && tag == "synccounts", "expected synccounts");

    for (uint32_t t = 0; t < profile.numThreads; ++t) {
        size_t epochs = 0;
        is >> tag >> epochs;
        RPPM_REQUIRE(is && tag == "thread", "expected thread");
        ThreadProfile thread;
        thread.epochs.reserve(epochs);
        for (size_t e = 0; e < epochs; ++e)
            thread.epochs.push_back(readEpoch(is));
        profile.threads.push_back(std::move(thread));
    }
    return profile;
}

void
saveProfileToFile(const WorkloadProfile &profile, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot open " + path + " for writing");
    saveProfile(profile, os);
}

WorkloadProfile
loadProfileFromFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        throw std::runtime_error("cannot open " + path);
    return loadProfile(is);
}

} // namespace rppm
