/**
 * @file
 * Authoring a custom workload against the public API.
 *
 * Two ways to describe a multi-threaded application:
 *
 *   1. Declaratively, via WorkloadSpec: a producer-consumer service with
 *      a critical-section-protected shared structure.
 *   2. Imperatively, via ThreadTraceBuilder: hand-written traces for a
 *      two-thread ping-pong — useful for unit experiments and for
 *      importing traces from external tools.
 *
 * Both land in one Study as workload sources — a spec directly, a
 * hand-built ColumnarTrace via WorkloadSource — and the grid evaluates
 * all four backends (sim, rppm, main, crit) on each.
 *
 * Build & run:  ./build/examples/custom_workload
 */

#include <cstdio>

#include "common/table.hh"
#include "study/study.hh"
#include "trace/trace_builder.hh"
#include "workload/workload.hh"

namespace {

using namespace rppm;

void
report(const StudyResult &result, const std::string &name,
       const MulticoreConfig &cfg)
{
    const double sim = result.at(name, cfg.name, "sim").cycles;
    std::printf("==== %s ====\n", name.c_str());
    TablePrinter table({"predictor", "Mcycles", "error vs sim"});
    table.addRow({"simulation", fmt(sim / 1e6, 2), "-"});
    for (const char *backend : {"rppm", "main", "crit"}) {
        const double cycles = result.at(name, cfg.name, backend).cycles;
        table.addRow({backend, fmt(cycles / 1e6, 2),
                      fmtPct((cycles - sim) / sim)});
    }
    std::printf("%s\n", table.render().c_str());
}

} // namespace

int
main()
{
    // ---- 1. Declarative: a work-queue service with a shared index. ----
    WorkloadSpec service;
    service.name = "custom-service";
    service.seed = 2026;
    service.numWorkers = 3;
    service.mainWorks = false;        // main only produces work items
    service.mainBookkeepingOps = 2000;
    service.queueItems = 120;         // condvar-backed task queue
    service.itemOps = 6000;
    service.numEpochs = 4;            // post-queue barrier phases
    service.opsPerEpoch = 15000;
    service.barrierFlavor = BarrierFlavor::Classic;
    service.csPerEpoch = 10;          // shared-index updates under a lock
    service.csLenOps = 50;
    service.numMutexes = 4;
    service.kernel.privateBytes = 2 << 20;
    service.kernel.sharedBytes = 8 << 20;
    service.kernel.sharedFrac = 0.2;  // the shared structure
    service.kernel.sharedWriteFrac = 0.3;
    service.kernel.branchEntropy = 0.08;

    // ---- 2. Imperative: hand-built two-thread ping-pong. ----
    ColumnarTrace pingpong;
    pingpong.name = "custom-pingpong";
    pingpong.threads.resize(2);
    {
        ThreadTraceBuilder main_thread(pingpong.threads[0]);
        ThreadTraceBuilder worker(pingpong.threads[1]);
        main_thread.sync(SyncType::ThreadCreate, 1);
        constexpr int kRounds = 200;
        for (int round = 0; round < kRounds; ++round) {
            // Main produces a value in shared memory, worker consumes it
            // through a condvar queue, then both meet at a barrier.
            for (int i = 0; i < 300; ++i)
                main_thread.op(OpClass::IntAlu, 4 * (i % 64), 1);
            main_thread.store(0x5000000 + 64 * (round % 8), 0x900);
            main_thread.sync(SyncType::QueuePush, 1);
            main_thread.sync(SyncType::BarrierWait, 2);

            worker.sync(SyncType::CondMarker, 3);
            worker.sync(SyncType::QueuePop, 1);
            worker.load(0x5000000 + 64 * (round % 8), 0xa00);
            for (int i = 0; i < 100; ++i)
                worker.op(OpClass::FpMul, 0xa04 + 4 * (i % 32), 2);
            worker.sync(SyncType::BarrierWait, 2);
        }
        main_thread.sync(SyncType::ThreadJoin, 1);
    }

    // ---- One grid: both workloads x Base x all four backends. ----
    const MulticoreConfig cfg = baseConfig();
    Study study;
    study.addWorkload(service)
        .addWorkload(std::move(pingpong))
        .addConfig(cfg)
        .addEvaluator("sim")
        .addEvaluator("rppm")
        .addEvaluator("main")
        .addEvaluator("crit");
    const StudyResult result = study.run();

    report(result, "custom-service", cfg);
    report(result, "custom-pingpong", cfg);

    std::printf("note how MAIN/CRIT miss the idle time the ping-pong\n"
                "spends in synchronization while RPPM models it.\n");
    return 0;
}
