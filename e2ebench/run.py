#!/usr/bin/env python3
"""End-to-end SYNPA benchmark driver.

Usage (from the root of a checkout):

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the simulator and the benchmark from source into .bench_build/
(Release), runs the bench-math self-test, then runs one workload in its
own process and relays its report.  The last line of standard output is
the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer split.
The exit code is non-zero when the build, the self-test or any
correctness check fails, and when a SYNPA_* variable is set.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("paper-closed", "open-256-smt4", "fleet-slo")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then lets the build tool decide what is stale."""
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(BUILD_DIR, f)) for f in generated):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "synpa_e2e", "e2e_selftest"],
        stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    knobs = sorted(k for k in os.environ if k.startswith("SYNPA_"))
    if knobs:
        print("run.py: refusing to run with inherited knob(s): " + " ".join(knobs),
              file=sys.stderr)
        return 2

    try:
        build()
        subprocess.run([os.path.join(BUILD_DIR, "e2e_selftest")], stdout=sys.stderr,
                       check=True, timeout=60)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        print("run.py: build or self-test failed: %s" % err, file=sys.stderr)
        return 1

    command = [os.path.join(BUILD_DIR, "synpa_e2e"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        # stdout passes straight through: the benchmark prints the result
        # line last, and prints none when it fails before measuring.
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
