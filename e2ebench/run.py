#!/usr/bin/env python3
"""End-to-end benchmark: builds the library and the driver from source, runs
one workload, and passes the driver's output through.

    python3 e2ebench/run.py --workload offline_table1 --seed 1 --seconds 20 --trace 0

Workloads: offline_table1, service_steady, service_churn (README.md says what
each runs and why). The build lives in .bench_build/e2ebench under the
checkout root; the first run configures and builds it, later runs rebuild
incrementally. The last line of standard output is the JSON result. The exit
status is the driver's (0 all checks passed, 1 a check failed, 2 usage, 3 a
build unfit for timing), or 1 when the build fails or the run times out.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ("offline_table1", "service_steady", "service_churn")
# A run must end within 180 seconds; every workload needs far less.
RUN_TIMEOUT_S = 170


def build():
    """Configures once, builds incrementally, and returns the driver path."""
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "e2ebench")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"error: build failed: {err}", file=sys.stderr)
        return 1

    # Paths relative to the checkout root keep Unix socket paths short.
    os.chdir(ROOT)
    workdir = os.path.join(".bench_build", f"run-{os.getpid()}")
    traces = os.path.join(".bench_build", "traces")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    trace_out = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--trace-out", trace_out]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("error: the benchmark did not finish in time", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
