/**
 * @file
 * Profiles as durable artifacts, via the Study profile cache.
 *
 * A Study given a profile directory keeps every profile it computes as
 * an RPPMPRF file keyed by (workload, profiler options). A later
 * session — here simulated by a second Study — finds the file and skips
 * profiling entirely; serialization round-trips exactly, so the
 * predictions are bit-identical. The example exits 1 if either claim
 * fails. This is the intended RPPM workflow: profiling is the expensive
 * one-time step, and the saved profile then amortizes across every
 * design point anyone ever wants to evaluate.
 *
 * Build & run:  ./build/examples/profile_cache
 */

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>

#include "common/table.hh"
#include "study/study.hh"
#include "workload/suite.hh"

int
main()
{
    using namespace rppm;

    const std::string dir = "/tmp/rppm_profile_cache";
    const SuiteEntry benchmark = *findBenchmark("srad");

    // Start pristine so session 1 below really is the cache miss the
    // demo narrates, even when the example ran before.
    std::filesystem::remove_all(dir);

    // One session: a fresh Study (fresh process, other machine...)
    // sweeping Table IV with the profile directory set.
    const auto session = [&](ProfileCache::Stats &stats) {
        Study study;
        study.addWorkload(benchmark)
            .addConfigs(tableIvConfigs())
            .addEvaluator("rppm")
            .profileDirectory(dir);
        StudyResult result = study.run();
        stats = study.profiles().stats();
        return result;
    };

    // --- Session 1: profile (cache miss) and sweep Table IV. ---
    ProfileCache::Stats first;
    const StudyResult profiled = session(first);
    std::printf("session 1: %llu profile computed, saved under %s\n",
                static_cast<unsigned long long>(first.misses), dir.c_str());

    // --- Session 2: finds the serialized profile — no re-profiling. ---
    ProfileCache::Stats second;
    const StudyResult result = session(second);
    std::printf("session 2: %llu disk hit, %llu profiling runs\n\n",
                static_cast<unsigned long long>(second.diskHits),
                static_cast<unsigned long long>(second.misses));

    std::printf("predictions for 5 design points, straight from the "
                "cached profile:\n\n");
    TablePrinter table({"config", "freq", "width", "predicted ms"});
    bool identical = true;
    for (const MulticoreConfig &cfg : tableIvConfigs()) {
        const Evaluation &cell =
            result.at(benchmark.spec.name, cfg.name, "rppm");
        const Evaluation &before =
            profiled.at(benchmark.spec.name, cfg.name, "rppm");
        identical = identical &&
            std::bit_cast<uint64_t>(cell.cycles) ==
                std::bit_cast<uint64_t>(before.cycles) &&
            std::bit_cast<uint64_t>(cell.seconds) ==
                std::bit_cast<uint64_t>(before.seconds);
        table.addRow({cfg.name, fmt(cfg.core().frequencyGHz, 2) + " GHz",
                      std::to_string(cfg.core().dispatchWidth),
                      fmt(cell.seconds * 1e3, 3)});
    }
    std::printf("%s\n", table.render().c_str());

    // The demo's claims, checked: one disk hit, no profiling, and the
    // reloaded profile predicts every cell bit for bit as session 1 did.
    if (second.diskHits != 1 || second.misses != 0 || !identical) {
        std::printf("FAIL: expected 1 disk hit, 0 profiling runs and "
                    "bit-identical predictions\n");
        return 1;
    }
    std::printf("no simulation, no re-profiling — just the model.\n");
    return 0;
}
