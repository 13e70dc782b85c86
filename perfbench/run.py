#!/usr/bin/env python3
"""Build the DEMT benchmark from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload offline_paper_mix --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --reference      # machine fingerprint + figures

Run from the root of a checkout. The first call configures and builds
.bench_build/perfbench (library, benchmark, self-test); later calls only
re-run the incremental build. The self-test of the checker and the bounds
runs before every workload. The benchmark's standard output is passed
through, so its last line is the JSON result. Build output goes to
standard error. Exits non-zero without a result when the sources, the
build or the self-test are missing or fail.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
SELFTEST = os.path.join(BUILD, "perfbench_selftest")
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def step(args, timeout):
    """Run a build step with its output on standard error."""
    return subprocess.run(args, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False).returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "policy.hpp")):
        log("no moldsched sources next to perfbench/; nothing to build")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if not step(configure, 300):
            return False
    if not step(["cmake", "--build", BUILD, "-j", jobs], 840):
        log("build failed")
        return False
    return True


def main():
    if not build():
        return 2
    if not step([SELFTEST], 60):
        log("self-test of the checker and bounds failed")
        return 2
    try:
        return subprocess.run([BINARY] + sys.argv[1:], timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return 2


if __name__ == "__main__":
    sys.exit(main())
