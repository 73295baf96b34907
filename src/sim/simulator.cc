#include "sim/simulator.hh"

namespace rppm {

CpiStack
SimResult::averageCpiStack() const
{
    // Paper Fig. 5: compute each thread's CPI stack separately, then
    // average the per-thread stacks (normalized per instruction).
    CpiStack avg;
    uint32_t counted = 0;
    for (const ThreadResult &t : threads) {
        if (t.instructions == 0)
            continue;
        CpiStack per_insn = t.cpi;
        per_insn.scale(1.0 / static_cast<double>(t.instructions));
        avg.add(per_insn);
        ++counted;
    }
    if (counted > 0)
        avg.scale(1.0 / static_cast<double>(counted));
    return avg;
}

} // namespace rppm
