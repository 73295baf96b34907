/**
 * @file
 * rppmd — the RPPM prediction daemon (see src/server/server.hh).
 *
 * Binds a Unix-domain socket, serves rppm_client (or any RppmClient
 * user) until a client sends Shutdown or the process receives
 * SIGTERM/SIGINT, then drains outstanding requests and exits cleanly.
 *
 * Usage:
 *   rppmd --socket /tmp/rppmd.sock [--profile-dir DIR]
 *         [--max-profile-bytes N] [--max-memo-bytes N]
 *         [--workers N] [--jobs N] [--stream-chunk N]
 *         [--idle-timeout SEC] [--max-queued-cells N]
 *         [--busy-retry-ms MS] [--max-resident-bytes N]
 *         [--fault-plan PLAN]
 */

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cli_flags.hh"
#include "common/fault.hh"
#include "server/server.hh"

namespace {

// Self-pipe shared by the signal handler and the Shutdown-message
// callback: both just wake the main thread, which owns the teardown.
int g_wakeFd = -1;

extern "C" void
onSignal(int)
{
    const char byte = 's';
    // Async-signal-safe; the result only matters if the pipe is full,
    // in which case the main thread is already waking up.
    (void)!write(g_wakeFd, &byte, 1);
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket PATH [options]\n"
        "  --socket PATH            listening Unix-domain socket (required)\n"
        "  --profile-dir DIR        serialized-profile directory\n"
        "  --max-profile-bytes N    in-memory profile budget (0=unlimited)\n"
        "  --max-memo-bytes N       prediction-memo budget (0=unlimited)\n"
        "  --workers N              prediction workers (0=all cores)\n"
        "  --jobs N                 profiling jobs (0=all cores)\n"
        "  --stream-chunk N         stream file-backed workloads in\n"
        "                           N-record chunks (0=auto by size)\n"
        "  --idle-timeout SEC       reap idle connections after SEC\n"
        "                           seconds (0=never; default 300)\n"
        "  --max-queued-cells N     shed requests that would push the\n"
        "                           queue past N cells (0=unlimited)\n"
        "  --busy-retry-ms MS       retry hint sent with Busy replies\n"
        "  --max-resident-bytes N   combined profile+memo ceiling; over\n"
        "                           it, profiles shed before memos\n"
        "                           (0=unlimited)\n"
        "  --fault-plan PLAN        arm fault injection (testing only),\n"
        "                           e.g. io.pread.short=every:100\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    // Env plan first so an explicit --fault-plan can override it.
    try {
        if (rppm::fault::installPlanFromEnv())
            std::fprintf(stderr, "rppmd: fault plan armed from env\n");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rppmd: bad RPPM_FAULT_PLAN: %s\n", e.what());
        return 2;
    }

    rppm::server::ServerOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "rppmd: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        // Numeric flags parse strictly into the field's own type.
        const auto number = [&](auto field) {
            return rppm::cli::flagValue<decltype(field)>("rppmd", arg,
                                                         value());
        };
        if (arg == "--socket")
            opts.socketPath = value();
        else if (arg == "--profile-dir")
            opts.profileDirectory = value();
        else if (arg == "--max-profile-bytes")
            opts.maxProfileBytes = number(opts.maxProfileBytes);
        else if (arg == "--max-memo-bytes")
            opts.maxMemoBytes = number(opts.maxMemoBytes);
        else if (arg == "--workers")
            opts.workers = number(opts.workers);
        else if (arg == "--jobs")
            opts.jobs = number(opts.jobs);
        else if (arg == "--stream-chunk")
            opts.streamChunkRecords = number(opts.streamChunkRecords);
        else if (arg == "--idle-timeout")
            opts.idleTimeoutSec = number(opts.idleTimeoutSec);
        else if (arg == "--max-queued-cells")
            opts.maxQueuedCells = number(opts.maxQueuedCells);
        else if (arg == "--busy-retry-ms")
            opts.busyRetryMs = number(opts.busyRetryMs);
        else if (arg == "--max-resident-bytes")
            opts.maxResidentBytes = number(opts.maxResidentBytes);
        else if (arg == "--fault-plan") {
            try {
                rppm::fault::installPlan(value());
            } catch (const std::exception &e) {
                std::fprintf(stderr, "rppmd: bad --fault-plan: %s\n",
                             e.what());
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "rppmd: unknown option %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    if (opts.socketPath.empty()) {
        usage(argv[0]);
        return 2;
    }

    int wake[2];
    if (pipe(wake) < 0) {
        std::perror("rppmd: pipe");
        return 1;
    }
    g_wakeFd = wake[1];
    opts.onShutdownRequest = [] { onSignal(0); };

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
    signal(SIGPIPE, SIG_IGN);

    try {
        rppm::server::RppmServer srv(opts);
        srv.start();
        std::fprintf(stderr, "rppmd: serving on %s\n",
                     opts.socketPath.c_str());

        // Park until a signal or a Shutdown message wakes us.
        pollfd pfd = {wake[0], POLLIN, 0};
        while (poll(&pfd, 1, -1) < 0 && errno == EINTR) {
        }

        std::fprintf(stderr, "rppmd: draining...\n");
        srv.stop();
        const auto stats = srv.stats();
        std::fprintf(stderr,
                     "rppmd: served %llu requests (%llu cells) over %llu "
                     "connections\n",
                     static_cast<unsigned long long>(stats.requests),
                     static_cast<unsigned long long>(stats.cells),
                     static_cast<unsigned long long>(stats.connections));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rppmd: %s\n", e.what());
        return 1;
    }
    return 0;
}
