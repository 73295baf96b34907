#!/usr/bin/env python3
"""Build and run the librppm benchmark.

Usage, from the root of the repository:

    python3 rppmbench/run.py --workload sync_dense|long_epoch \
        --seed N --seconds S --trace 0|1

The first run configures and builds rppmbench/ (which compiles librppm
from src/) into .bench_build/ at the repository root; later runs only
rebuild what changed. Build output goes to stderr. The rppm_bench binary's
stdout is passed through, and its last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when the build and the run succeeded and that
line is well formed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("sync_dense", "long_epoch")
# A run must end within 180 s, and a first run that also builds within
# 900 s; these limits leave headroom under both.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; fail on error."""
    try:
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=timeout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        fail(f"build step failed: {err}")


def build(deadline):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"librppm sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, max(1, deadline - time.monotonic()))
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(BUILD), "--target", "rppm_bench",
                "-j", jobs], max(1, deadline - time.monotonic()))
    return BUILD / "rppm_bench"


def git_commit():
    # Only a repository rooted here counts; never search parent
    # directories for one.
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    started = time.monotonic()
    binary = build(started + BUILD_TIMEOUT_S)
    work_dir = BUILD / "run"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", os.path.relpath(work_dir, ROOT),
           "--commit", git_commit()]
    env = dict(os.environ, RPPM_STUDY_QUIET="1")
    try:
        # Relative paths keep the server's socket path short however
        # deep the checkout is.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("benchmark printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
