/**
 * @file
 * The phase-1 key of the memoized component-evaluation engine.
 *
 * Eq. 1 (phase 1 of an RPPM prediction) reads only a subset of a
 * MulticoreConfig for one thread: the core the thread is mapped to plus
 * the shared LLC and bus. The thread key is a compact binary encoding
 * of exactly those fields, section by section in the order of the
 * components that read them, so two design points whose keys match are
 * guaranteed — by construction, not by comparison of outputs — to
 * produce bit-identical phase-1 results, and a cache keyed on them is
 * sound. Fields a component derives (e.g. line counts from
 * size/assoc/line bytes) are encoded in derived form, so configs that
 * differ only in parameters the model never distinguishes share keys.
 *
 * The key's sections, one per component, and their fields:
 *
 *  - memory  cache geometry the StatStack model sees (L1I/L1D/L2/LLC
 *            line counts, hit latencies), the core's DRAM latency and
 *            the store FU latency
 *  - branch  predictor budget + history length (the entropy-model
 *            calibration inputs)
 *  - core    the window-replay term: width, ROB, IQ, front-end depth,
 *            MSHRs and every FU (latency/count/interval)
 *  - bus     memBusCycles, plus — only when bus contention is on —
 *            the clock-domain fields the M/D/1 model reads (core and
 *            reference frequency, core count). With the bus off a
 *            frequency-only sweep therefore shares phase-1 results
 *            across the entire axis.
 *
 * Core frequency is deliberately absent from every component except the
 * bus term: phase 1 works in the core's own cycle domain, so frequency
 * only enters a prediction through phase 2's time scales and the final
 * cycles-to-seconds conversions, which are never cached.
 */

#ifndef RPPM_ARCH_COMPONENT_KEY_HH
#define RPPM_ARCH_COMPONENT_KEY_HH

#include <string>

#include "arch/config.hh"

namespace rppm {

/** Append one double to a binary key buffer (fixed 8 bytes, the bit
 *  pattern little-endian — the shared convention of every key built
 *  here and of the prediction engine's derived cache keys). */
void appendKeyF64(std::string &buf, double v);

/** The phase-1 key of @p thread on @p cfg: the memory, branch, core
 *  and bus sections of the core the thread is mapped to. */
std::string threadComponentKey(const MulticoreConfig &cfg, uint32_t thread);

} // namespace rppm

#endif // RPPM_ARCH_COMPONENT_KEY_HH
