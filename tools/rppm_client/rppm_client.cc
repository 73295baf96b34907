/**
 * @file
 * rppm_client — query the rppmd prediction daemon.
 *
 * Submits one request per workload over a single connection and prints
 * each completed grid cell as a CSV row:
 *
 *   workload,config,cycles,seconds
 *
 * --local evaluates the same (workload, config-grid) in-process through
 * Study::run() with identical formatting, so `diff` between a daemon
 * run and a --local run is the byte-identity check the CI smoke job
 * performs.
 *
 * Usage:
 *   rppm_client --socket PATH [--workload NAME]... [--trace FILE]...
 *               [--configs table4|hetero|base] [--deadline-ms MS]
 *               [--local] [--shutdown]
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "arch/config.hh"
#include "cli_flags.hh"
#include "server/client.hh"
#include "study/study.hh"
#include "trace/trace_io.hh"
#include "workload/suite.hh"

namespace {

using rppm::server::WorkloadRefKind;

struct Options
{
    std::string socket;
    std::vector<std::pair<WorkloadRefKind, std::string>> workloads;
    std::string configSet = "table4";
    uint32_t deadlineMs = 0;
    bool local = false;
    bool shutdown = false;
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket PATH [options]\n"
        "  --workload NAME   suite benchmark to evaluate (repeatable)\n"
        "  --trace FILE      RPPMTRC file to evaluate (repeatable;\n"
        "                    the path is resolved on the *server*)\n"
        "  --configs SET     table4 | hetero | base (default table4)\n"
        "  --deadline-ms MS  per-request server-side deadline (0=none)\n"
        "  --local           evaluate in-process instead (identity check)\n"
        "  --shutdown        ask the daemon to drain and exit\n",
        argv0);
}

std::vector<rppm::MulticoreConfig>
configsFor(const std::string &set)
{
    if (set == "table4")
        return rppm::tableIvConfigs();
    if (set == "hetero")
        return rppm::heterogeneousConfigs();
    if (set == "base")
        return {rppm::baseConfig()};
    std::fprintf(stderr, "rppm_client: unknown config set '%s'\n",
                 set.c_str());
    std::exit(2);
}

void
printRow(const std::string &workload, const std::string &config,
         double cycles, double seconds)
{
    // %.17g round-trips doubles exactly: daemon and --local rows are
    // byte-comparable.
    std::printf("%s,%s,%.17g,%.17g\n", workload.c_str(), config.c_str(),
                cycles, seconds);
}

int
runLocal(const Options &opts)
{
    rppm::Study study;
    for (const auto &[kind, ref] : opts.workloads) {
        if (kind == WorkloadRefKind::SuiteName) {
            const auto entry = rppm::findBenchmark(ref);
            if (!entry) {
                std::fprintf(stderr,
                             "rppm_client: unknown suite benchmark '%s'\n",
                             ref.c_str());
                return 1;
            }
            study.addWorkload(*entry);
        } else {
            study.add(
                rppm::WorkloadSource(rppm::loadTraceViewFromFile(ref)));
        }
    }
    study.addConfigs(configsFor(opts.configSet));
    study.addEvaluator("rppm");
    const rppm::StudyResult result = study.run();
    for (const rppm::Evaluation &cell : result.cells())
        printRow(cell.workload, cell.config, cell.cycles, cell.seconds);
    return 0;
}

int
runRemote(const Options &opts)
{
    rppm::server::RppmClient client;
    client.connect(opts.socket);
    const std::vector<rppm::MulticoreConfig> configs =
        configsFor(opts.configSet);
    for (const auto &[kind, ref] : opts.workloads) {
        rppm::server::Query query;
        query.kind = kind;
        query.workload = ref;
        query.deadlineMs = opts.deadlineMs;
        query.configs = configs;
        const auto results = client.evaluate(query);
        for (const rppm::server::CellResult &cell : results)
            printRow(ref, cell.config, cell.cycles, cell.seconds);
    }
    if (opts.shutdown)
        client.shutdownServer();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "rppm_client: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--socket")
            opts.socket = value();
        else if (arg == "--workload")
            opts.workloads.emplace_back(WorkloadRefKind::SuiteName,
                                        value());
        else if (arg == "--trace")
            opts.workloads.emplace_back(WorkloadRefKind::TracePath,
                                        value());
        else if (arg == "--configs")
            opts.configSet = value();
        else if (arg == "--deadline-ms")
            opts.deadlineMs = rppm::cli::flagValue<uint32_t>(
                "rppm_client", arg, value());
        else if (arg == "--local")
            opts.local = true;
        else if (arg == "--shutdown")
            opts.shutdown = true;
        else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "rppm_client: unknown option %s\n",
                         arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    if (!opts.local && opts.socket.empty()) {
        usage(argv[0]);
        return 2;
    }
    if (opts.workloads.empty() && !opts.shutdown) {
        usage(argv[0]);
        return 2;
    }

    try {
        return opts.local ? runLocal(opts) : runRemote(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rppm_client: %s\n", e.what());
        return 1;
    }
}
