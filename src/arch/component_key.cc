#include "arch/component_key.hh"

#include <bit>
#include <cstdint>

namespace rppm {

namespace {

/** Little binary encoder: fixed-width fields, no separators needed. */
struct KeyEncoder
{
    std::string buf;

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }
};

} // namespace

void
appendKeyF64(std::string &buf, double v)
{
    KeyEncoder e;
    e.f64(v);
    buf += e.buf;
}

std::string
threadComponentKey(const MulticoreConfig &cfg, uint32_t thread)
{
    const CoreConfig &core = cfg.threadCore(thread);
    KeyEncoder e;

    // Memory: everything the statistical cache model distinguishes. Line
    // counts are what StatStack sees; associativity and line size only
    // matter through them.
    e.u32(core.l1i.numLines());
    e.u32(core.l1d.numLines());
    e.u32(core.l1d.latency);
    e.u32(core.l2.numLines());
    e.u32(core.l2.latency);
    e.u32(cfg.llc.numLines());
    e.u32(cfg.llc.latency);
    e.u32(core.memLatency);
    e.u32(core.fus[static_cast<size_t>(OpClass::Store)].latency);

    // Branch: the entropy-model calibration inputs.
    e.u32(core.branch.totalBytes);
    e.u32(core.branch.historyBits);

    // Core term: the window-replay structural parameters.
    e.u32(core.dispatchWidth);
    e.u32(core.robSize);
    e.u32(core.issueQueueSize);
    e.u32(core.frontendDepth);
    e.u32(core.mshrs);
    for (const FuConfig &fu : core.fus) {
        e.u32(fu.latency);
        e.u32(fu.count);
        e.u32(fu.interval);
    }

    // Bus: clock-domain fields only matter once contention is modeled.
    e.u32(cfg.memBusCycles);
    if (cfg.memBusCycles > 0) {
        e.f64(core.frequencyGHz);
        e.f64(cfg.referenceGHz());
        e.u32(cfg.numCores());
    }
    return std::move(e.buf);
}

} // namespace rppm
