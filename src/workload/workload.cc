#include "workload/workload.hh"

#include <algorithm>
#include <cmath>

#include "common/assert.hh"
#include "common/parallel.hh"
#include "trace/trace_builder.hh"

namespace rppm {

namespace {

// Sync object id spaces. Barriers, mutexes, condvars and queues live in
// one 32-bit id space partitioned by high bits so populations never clash.
constexpr uint32_t kBarrierBase = 0x1000;
constexpr uint32_t kMutexBase = 0x2000;
constexpr uint32_t kQueueBase = 0x3000;
constexpr uint32_t kCondBase = 0x4000;

/** Deterministic per-thread skew in [-0.5, 0.5] used for imbalance. */
double
threadSkew(uint32_t slot, uint32_t num_slots)
{
    if (num_slots <= 1)
        return 0.0;
    // Spread slots evenly over [-0.5, 0.5] with a fixed permutation so
    // neighbouring thread ids do not get neighbouring skews.
    const uint32_t perm = (slot * 7 + 3) % num_slots;
    return static_cast<double>(perm) /
        static_cast<double>(num_slots - 1) - 0.5;
}

/** Ops for thread in an epoch, after imbalance and jitter. */
uint64_t
epochOps(const WorkloadSpec &spec, double work_scale, uint32_t slot,
         uint32_t num_slots, Rng &rng)
{
    double ops = static_cast<double>(spec.opsPerEpoch) * work_scale;
    ops *= 1.0 + spec.imbalance * threadSkew(slot, num_slots);
    ops *= 1.0 + spec.epochJitter * (rng.nextDouble() - 0.5);
    return std::max<uint64_t>(1, static_cast<uint64_t>(ops));
}

/** Emit one thread's share of a parallel epoch, with critical sections. */
void
emitEpochWork(const WorkloadSpec &spec, ThreadTraceBuilder &builder,
              KernelGenerator &kernel, uint64_t ops, Rng &rng)
{
    if (spec.csPerEpoch == 0) {
        kernel.emit(builder, ops);
        return;
    }
    // Interleave csPerEpoch critical sections with the open work. The
    // mutex is chosen per section so contention spreads over numMutexes.
    const uint64_t cs_total =
        static_cast<uint64_t>(spec.csPerEpoch) * spec.csLenOps;
    const uint64_t open = ops > cs_total ? ops - cs_total : 0;
    const uint64_t chunk = open / (spec.csPerEpoch + 1);
    for (uint32_t cs = 0; cs < spec.csPerEpoch; ++cs) {
        kernel.emit(builder, chunk);
        const uint32_t mutex = kMutexBase +
            static_cast<uint32_t>(rng.nextBounded(
                std::max<uint32_t>(1, spec.numMutexes)));
        builder.sync(SyncType::MutexLock, mutex);
        kernel.emit(builder, spec.csLenOps);
        builder.sync(SyncType::MutexUnlock, mutex);
    }
    kernel.emit(builder, open - chunk * spec.csPerEpoch);
}

/** Emit the barrier ending an epoch (if any). */
void
emitBarrier(const WorkloadSpec &spec, ThreadTraceBuilder &builder,
            uint32_t epoch)
{
    // Cycle over a few barrier objects like real loop nests do.
    const uint32_t id = kBarrierBase + epoch % 4;
    switch (spec.barrierFlavor) {
      case BarrierFlavor::None:
        break;
      case BarrierFlavor::Classic:
        builder.sync(SyncType::BarrierWait, id);
        break;
      case BarrierFlavor::CondVar:
        // The marker tells the profiler every thread *could* wait here,
        // exactly like the paper's manual source markers.
        builder.sync(SyncType::CondMarker, kCondBase + epoch % 4);
        builder.sync(SyncType::CondBarrier, id);
        break;
    }
}

} // namespace

uint64_t
WorkloadSpec::approxTotalOps() const
{
    const uint32_t participants = numWorkers + (mainWorks ? 1 : 0);
    uint64_t total = initOps + finalOps;
    total += static_cast<uint64_t>(numEpochs) * opsPerEpoch * participants;
    total += static_cast<uint64_t>(queueItems) * itemOps;
    if (!mainWorks)
        total += mainBookkeepingOps;
    return total;
}

namespace {

/** Emit one worker thread's full stream (tid = w + 1). */
void
generateWorkerThread(const WorkloadSpec &spec, uint32_t w, Rng rng,
                     ThreadColumns &out)
{
    const uint32_t participants = spec.numWorkers + (spec.mainWorks ? 1 : 0);
    const uint32_t tid = w + 1;
    ThreadTraceBuilder builder(out);
    KernelGenerator kernel(spec.kernel, tid, 0x10000 * tid,
                           rng.fork(0xf00d));

    // Producer-consumer phase: each worker pops its share of items.
    if (spec.queueItems > 0) {
        uint32_t my_items = spec.queueItems / spec.numWorkers;
        if (w < spec.queueItems % spec.numWorkers)
            ++my_items;
        for (uint32_t item = 0; item < my_items; ++item) {
            builder.sync(SyncType::CondMarker, kCondBase + 0x100);
            builder.sync(SyncType::QueuePop, kQueueBase);
            kernel.emit(builder, spec.itemOps);
        }
    }

    const uint32_t slot = spec.mainWorks ? tid : w;
    for (uint32_t epoch = 0; epoch < spec.numEpochs; ++epoch) {
        const uint64_t ops = epochOps(spec, 1.0, slot, participants, rng);
        emitEpochWork(spec, builder, kernel, ops, rng);
        emitBarrier(spec, builder, epoch);
    }
}

/** Emit the main thread's full stream (tid 0). */
void
generateMainThread(const WorkloadSpec &spec, Rng rng, ThreadColumns &out)
{
    const uint32_t participants = spec.numWorkers + (spec.mainWorks ? 1 : 0);
    ThreadTraceBuilder builder(out);
    KernelGenerator kernel(spec.kernel, 0, 0, rng.fork(0xf00d));

    kernel.emit(builder, spec.initOps);
    for (uint32_t w = 0; w < spec.numWorkers; ++w)
        builder.sync(SyncType::ThreadCreate, w + 1);

    // Produce queue items interleaved with light push-side work.
    for (uint32_t item = 0; item < spec.queueItems; ++item) {
        kernel.emit(builder, std::max<uint64_t>(8, spec.itemOps / 16));
        builder.sync(SyncType::CondMarker, kCondBase + 0x101);
        builder.sync(SyncType::QueuePush, kQueueBase);
    }

    if (spec.mainWorks) {
        for (uint32_t epoch = 0; epoch < spec.numEpochs; ++epoch) {
            const uint64_t ops = epochOps(spec, spec.mainWorkScale, 0,
                                          participants, rng);
            emitEpochWork(spec, builder, kernel, ops, rng);
            emitBarrier(spec, builder, epoch);
        }
    } else if (spec.mainBookkeepingOps > 0) {
        kernel.emit(builder, spec.mainBookkeepingOps);
    }

    for (uint32_t w = 0; w < spec.numWorkers; ++w)
        builder.sync(SyncType::ThreadJoin, w + 1);
    kernel.emit(builder, spec.finalOps);
}

} // namespace

ColumnarTrace
synthesizeTrace(const WorkloadSpec &spec, unsigned jobs)
{
    RPPM_REQUIRE(spec.numWorkers >= 1, "need at least one worker");
    const uint32_t num_threads = spec.numThreads();

    ColumnarTrace trace;
    trace.name = spec.name;
    trace.threads.resize(num_threads);

    Rng master(spec.seed * 0x51a3bc96d47e20efULL + 0xabcdef12345ULL);

    // Fork all per-thread RNG streams up front, in the order the
    // historical sequential generator forked them (worker tids 1..W,
    // then main): fork() advances the parent, so preserving this order
    // is what keeps the generated trace bit-identical for every job
    // count. The streams are then independent and each thread's stream
    // synthesis fans out across the pool.
    std::vector<Rng> rngs;
    rngs.reserve(num_threads);
    for (uint32_t w = 0; w < spec.numWorkers; ++w)
        rngs.push_back(master.fork(w + 1));
    rngs.push_back(master.fork(0));

    ParallelExecutor pool(jobs);
    pool.forEach(num_threads, [&](size_t task) {
        if (task < spec.numWorkers) {
            const uint32_t w = static_cast<uint32_t>(task);
            generateWorkerThread(spec, w, rngs[w], trace.threads[w + 1]);
        } else {
            generateMainThread(spec, rngs[spec.numWorkers],
                               trace.threads[0]);
        }
    });

    trace.validateAndBarrierPopulations();
    return trace;
}

WorkloadTrace
generateWorkload(const WorkloadSpec &spec, unsigned jobs)
{
    return synthesizeTrace(spec, jobs).toWorkload();
}

WorkloadSpec
barrierLoopSpec(uint32_t threads, uint32_t iterations,
                uint64_t ops_per_iter)
{
    RPPM_REQUIRE(threads >= 2, "barrier loop needs >= 2 threads");
    WorkloadSpec spec;
    spec.name = "barrier-loop";
    spec.numWorkers = threads - 1;
    spec.mainWorks = true;
    spec.initOps = 100;
    spec.finalOps = 100;
    spec.numEpochs = iterations;
    spec.opsPerEpoch = ops_per_iter;
    spec.imbalance = 0.0;
    spec.epochJitter = 0.0;
    spec.barrierFlavor = BarrierFlavor::Classic;
    spec.kernel.privateBytes = 16 << 10; // fits in L1: pure compute loop
    spec.kernel.sharedFrac = 0.0;
    spec.kernel.fracBranch = 0.05;
    spec.kernel.branchEntropy = 0.01;
    return spec;
}

} // namespace rppm
