/**
 * @file
 * Golden prediction corpus: predict() and predictGrid must reproduce the
 * committed tests/golden/predict.txt to the last bit.
 *
 * The corpus holds, for every suite kernel at test scale, the %.17g
 * total cycles and every per-thread CPI component of the prediction on
 * the Table IV configs, a memBusCycles = 8 Base and the first big.LITTLE
 * 2+2 placement, each under the full model and the five Eq1Options
 * ablation variants. Prediction fast paths prove identity against this
 * file instead of against a retained slow implementation.
 *
 * Regenerate it only in a change that alters results on purpose, and say
 * why in that change (recipe in golden.hh).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "golden.hh"
#include "profile/profiler.hh"
#include "rppm/memo.hh"
#include "rppm/predictor.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

/** The corpus' workload scale. Frozen: changing it changes every line. */
WorkloadSpec
shrink(WorkloadSpec spec, uint64_t divisor = 20)
{
    spec.opsPerEpoch = std::max<uint64_t>(500, spec.opsPerEpoch / divisor);
    spec.initOps = std::max<uint64_t>(200, spec.initOps / divisor);
    spec.finalOps = std::max<uint64_t>(100, spec.finalOps / divisor);
    spec.numEpochs = std::min<uint32_t>(spec.numEpochs, 12);
    spec.queueItems = std::min<uint32_t>(spec.queueItems, 30);
    spec.csPerEpoch = std::min<uint32_t>(spec.csPerEpoch, 12);
    return spec;
}

std::vector<MulticoreConfig>
corpusConfigs(uint32_t num_threads)
{
    std::vector<MulticoreConfig> configs = tableIvConfigs();
    MulticoreConfig bus = baseConfig();
    bus.name = "Base+bus8";
    bus.memBusCycles = 8;
    configs.push_back(bus);
    configs.push_back(
        mappingSweep(bigLittleConfig(2, 2), num_threads).front());
    return configs;
}

struct Variant
{
    const char *name;
    RppmOptions opts;
};

std::vector<Variant>
corpusVariants()
{
    std::vector<Variant> variants(6);
    variants[0].name = "full";
    variants[1].name = "nodecompose";
    variants[1].opts.eq1.decompose = false;
    variants[2].name = "noilp";
    variants[2].opts.eq1.ilpReplay = false;
    variants[3].name = "localllc";
    variants[3].opts.eq1.llcUsesGlobalRd = false;
    variants[4].name = "nomlp";
    variants[4].opts.eq1.mlpOverlap = false;
    variants[5].name = "nobranch";
    variants[5].opts.eq1.branch = false;
    return variants;
}

std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Corpus key of one prediction. */
std::string
key(const std::string &kernel, const std::string &config,
    const char *variant)
{
    return kernel + "|" + config + "|" + variant;
}

/** Corpus line of one prediction: key, total cycles, then the seven
 *  CPI components of each thread. */
std::string
line(const std::string &k, const RppmPrediction &pred)
{
    std::string out = k;
    out += ' ';
    out += fmt(pred.totalCycles);
    for (const ThreadPrediction &thread : pred.threads) {
        out += " ;";
        for (double cycles : thread.stack.cycles) {
            out += ' ';
            out += fmt(cycles);
        }
    }
    return out;
}

TEST(PredictGolden, PredictAndGridMatchCorpus)
{
    const std::vector<Variant> variants = corpusVariants();
    constexpr size_t kConfigs = 7;

    const std::string write_path = golden::writePath("predict.txt");
    const bool writing = !write_path.empty();
    const std::map<std::string, std::string> corpus =
        writing ? std::map<std::string, std::string>() :
                  golden::load("predict.txt");
    if (!writing) {
        ASSERT_EQ(corpus.size(),
                  fullSuite().size() * kConfigs * variants.size())
            << "corpus " << golden::path("predict.txt")
            << " is missing or incomplete";
    }

    std::vector<std::string> written;
    size_t checked = 0;
    for (const SuiteEntry &entry : fullSuite()) {
        const WorkloadSpec spec = shrink(entry.spec);
        const WorkloadProfile prof =
            profileWorkload(synthesizeTrace(spec));
        const std::vector<MulticoreConfig> configs =
            corpusConfigs(spec.numThreads());
        ASSERT_EQ(configs.size(), kConfigs);
        for (const Variant &variant : variants) {
            const std::vector<RppmPrediction> grid =
                predictGrid(prof, configs, variant.opts);
            ASSERT_EQ(grid.size(), configs.size());
            for (size_t c = 0; c < configs.size(); ++c) {
                const std::string k =
                    key(spec.name, configs[c].name, variant.name);
                const std::string got = line(
                    k, predict(prof, configs[c], variant.opts));
                if (writing) {
                    written.push_back(got);
                    continue;
                }
                const auto it = corpus.find(k);
                ASSERT_NE(it, corpus.end()) << "no corpus line for " << k;
                EXPECT_EQ(got, it->second)
                    << "predict() differs from the corpus; computed:\n"
                    << got;
                const std::string got_grid = line(k, grid[c]);
                EXPECT_EQ(got_grid, it->second)
                    << "predictGrid differs from the corpus; computed:\n"
                    << got_grid;
                ++checked;
            }
        }
    }

    if (writing) {
        ASSERT_TRUE(golden::write(
            write_path,
            "# RPPM golden prediction corpus: "
            "<kernel>|<config>|<variant> <totalCycles>"
            " then ' ;' and the 7 CPI components of each thread.\n"
            "# Written by tests/test_predict_golden.cc; see its header "
            "before regenerating.\n",
            written))
            << "cannot write " << write_path;
        return;
    }
    EXPECT_EQ(checked, corpus.size());
}

} // namespace
} // namespace rppm
