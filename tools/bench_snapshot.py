#!/usr/bin/env python3
"""Capture a benchmark snapshot: run the Google-Benchmark microbenches and
write a machine-readable summary to BENCH_sim_throughput.json at the repo
root.

The snapshot records, per benchmark, wall time (always in nanoseconds,
whatever time unit the benchmark reports in) and simulated-core-cycles
throughput, plus the parallel speedup of every BM_PlatformQuantum* row
against its sim_threads=1 sibling.  Host facts (hardware_concurrency, cpu
model) are embedded so a snapshot from a 1-core container is not mistaken
for a parallel-scaling regression: wall-clock speedup only materializes
with free cores, which the CI runners (and any developer machine) have.
The build type and C++ compiler of the measured build come from
<build-dir>/CMakeCache.txt.

Usage:
    tools/bench_snapshot.py [--build-dir build] [--output BENCH_sim_throughput.json]
                            [--min-time 0.05]
    tools/bench_snapshot.py --check [--baseline BENCH_sim_throughput.json]
                            [--regression-threshold 0.25]

With --check, the freshly measured snapshot is compared against the committed
baseline instead of overwriting it.  A baseline row the fresh snapshot lacks
fails the run on any host (the row set is fixed by the bench sources, so a
missing row means a bench was dropped or renamed without updating the
baseline).  Then any benchmark row whose items_per_second dropped by more than
the threshold fails the run.  The throughput comparison only applies when the
host core count matches the baseline's (throughput on a different machine is
not a regression signal); otherwise it prints a notice and exits 0.

Requires the benches to be built (cmake --build <build-dir>); exits non-zero
with a hint if they are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as host_platform
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BENCHES = ("bench_sim_throughput", "bench_matching")


def run_bench(binary: str, min_time: float) -> dict:
    """Run one Google-Benchmark binary with JSON output; return the parsed doc."""
    cmd = [
        binary,
        "--benchmark_format=json",
        f"--benchmark_min_time={min_time}",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{os.path.basename(binary)} exited {proc.returncode}")
    return json.loads(proc.stdout)


# Google Benchmark reports real_time/cpu_time in each row's own time_unit
# (benchmarks registered with ->Unit(kMillisecond) report milliseconds).
_NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def to_ns(value, unit: str):
    """A Google Benchmark time in `unit` (ns when absent), in nanoseconds."""
    if value is None:
        return None
    if unit not in _NS_PER_UNIT:
        raise ValueError(f"unknown Google Benchmark time_unit {unit!r}")
    return value * _NS_PER_UNIT[unit]


def row_summary(b: dict) -> dict:
    """The fields worth diffing across snapshots, per benchmark row."""
    unit = b.get("time_unit", "ns")
    out = {
        "name": b["name"],
        "real_time_ns": to_ns(b.get("real_time"), unit),
        "cpu_time_ns": to_ns(b.get("cpu_time"), unit),
        "iterations": b.get("iterations"),
    }
    if "items_per_second" in b:
        out["items_per_second"] = b["items_per_second"]
    if "sim_shards" in b:
        out["sim_shards"] = int(b["sim_shards"])
    if "oracle_calls" in b:
        out["oracle_calls"] = b["oracle_calls"]
    return out


_THREADS_RE = re.compile(r"threads:(\d+)")


def serial_sibling(name: str) -> str:
    """The sim_threads=1 row a parallel row's speedup is measured against."""
    return _THREADS_RE.sub("threads:1", name)


def platform_speedups(rows: list[dict]) -> list[dict]:
    """Wall-clock speedup of every parallel BM_PlatformQuantum* row vs. its
    threads:1 sibling (same chips/shape).  Results are bit-identical across
    thread counts, so this ratio is pure execution speedup."""
    by_name = {r["name"]: r for r in rows}
    speedups = []
    for r in rows:
        if not r["name"].startswith("BM_PlatformQuantum"):
            continue
        m = _THREADS_RE.search(r["name"])
        if not m or m.group(1) == "1":
            continue
        base = by_name.get(serial_sibling(r["name"]))
        if not base or not base["real_time_ns"] or not r["real_time_ns"]:
            continue
        speedups.append(
            {
                "name": r["name"],
                "threads": int(m.group(1)),
                "sim_shards": r.get("sim_shards"),
                "speedup_vs_serial": base["real_time_ns"] / r["real_time_ns"],
            }
        )
    return speedups


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith(("model name", "hardware", "processor\t")):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return host_platform.processor() or "unknown"


def cmake_build_facts(build_dir: str) -> dict:
    """Our own build type and C++ compiler, read from the build directory's
    CMakeCache.txt (values are None when the cache or the entry is absent).
    Google Benchmark's context.library_build_type describes the benchmark
    library, not the code under test."""
    wanted = {"CMAKE_BUILD_TYPE": "cmake_build_type", "CMAKE_CXX_COMPILER": "cxx_compiler"}
    facts = dict.fromkeys(wanted.values())
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                key, sep, value = line.rstrip("\n").partition("=")
                name = key.split(":", 1)[0]
                if sep and name in wanted:
                    facts[wanted[name]] = value
    except OSError:
        pass
    return facts


def missing_rows(snapshot: dict, baseline: dict) -> list[str]:
    """Baseline rows (as bench/row) that the fresh snapshot does not have."""
    missing = []
    for bench, entry in baseline.get("benchmarks", {}).items():
        fresh = {r["name"] for r in snapshot["benchmarks"].get(bench, {}).get("rows", [])}
        missing += [f"{bench}/{r['name']}" for r in entry.get("rows", [])
                    if r["name"] not in fresh]
    return missing


def check_against_baseline(snapshot: dict, baseline_path: str, threshold: float) -> int:
    """Compare the fresh snapshot against the committed baseline; return the
    exit code.  A baseline row missing from the snapshot fails on any host;
    the throughput comparison skips (exit 0) with a notice when the host
    shape differs from the machine that produced the baseline."""
    try:
        with open(baseline_path) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.stderr.write(f"error: cannot read baseline {baseline_path}: {err}\n")
        return 1

    missing = missing_rows(snapshot, baseline)
    if missing:
        sys.stderr.write(
            f"bench check FAILED: {len(missing)} baseline rows missing from this run:\n"
            + "".join(f"  {name}\n" for name in missing)
        )
        return 1

    base_cores = baseline.get("host", {}).get("hardware_concurrency")
    here_cores = snapshot["host"]["hardware_concurrency"]
    if base_cores != here_cores:
        print(
            f"bench check skipped: baseline was taken on a "
            f"{base_cores}-core host, this host has {here_cores} cores "
            f"(throughput is not comparable across machines)"
        )
        return 0

    regressions = []
    compared = 0
    for bench, entry in snapshot["benchmarks"].items():
        base_rows = {
            r["name"]: r
            for r in baseline.get("benchmarks", {}).get(bench, {}).get("rows", [])
        }
        for row in entry["rows"]:
            base = base_rows.get(row["name"])
            if not base:
                continue
            old = base.get("items_per_second")
            new = row.get("items_per_second")
            if not old or not new:
                continue
            compared += 1
            ratio = new / old
            if ratio < 1.0 - threshold:
                regressions.append(
                    f"  {row['name']}: {old:.3e} -> {new:.3e} items/s "
                    f"({(1.0 - ratio) * 100:.0f}% slower)"
                )

    if regressions:
        sys.stderr.write(
            f"bench check FAILED: {len(regressions)} of {compared} rows regressed "
            f"beyond {threshold * 100:.0f}%:\n" + "\n".join(regressions) + "\n"
        )
        return 1
    print(f"bench check OK: {compared} throughput rows within {threshold * 100:.0f}% of baseline")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default=os.path.join(REPO_ROOT, "build"))
    ap.add_argument(
        "--output", default=os.path.join(REPO_ROOT, "BENCH_sim_throughput.json")
    )
    ap.add_argument("--min-time", type=float, default=0.05)
    ap.add_argument(
        "--check",
        action="store_true",
        help="compare against --baseline instead of writing --output",
    )
    ap.add_argument(
        "--baseline", default=os.path.join(REPO_ROOT, "BENCH_sim_throughput.json")
    )
    ap.add_argument("--regression-threshold", type=float, default=0.25)
    args = ap.parse_args()

    snapshot = {
        "host": {
            "hardware_concurrency": os.cpu_count() or 1,
            "cpu": cpu_model(),
            "system": f"{host_platform.system()} {host_platform.release()}",
            "note": (
                "speedup_vs_serial needs free host cores; on a "
                "hardware_concurrency=1 host it reads ~1.0 by construction"
            ),
        },
        "build": cmake_build_facts(args.build_dir),
        "benchmarks": {},
    }

    for bench in BENCHES:
        binary = os.path.join(args.build_dir, "bench", bench)
        if not os.path.exists(binary):
            sys.stderr.write(
                f"error: {binary} not found — build first: "
                f"cmake --build {args.build_dir} -j\n"
            )
            return 1
        doc = run_bench(binary, args.min_time)
        rows = [row_summary(b) for b in doc.get("benchmarks", [])]
        entry = {"rows": rows}
        if bench == "bench_sim_throughput":
            entry["parallel_speedups"] = platform_speedups(rows)
            ctx = doc.get("context", {})
            snapshot["host"]["benchmark_num_cpus"] = ctx.get("num_cpus")
            snapshot["host"]["library_build_type"] = ctx.get("library_build_type")
        snapshot["benchmarks"][bench] = entry

    if args.check:
        return check_against_baseline(snapshot, args.baseline, args.regression_threshold)

    with open(args.output, "w") as f:
        json.dump(snapshot, f, indent=2, sort_keys=True)
        f.write("\n")

    print(f"wrote {args.output}")
    for s in snapshot["benchmarks"]["bench_sim_throughput"].get("parallel_speedups", []):
        print(f"  {s['name']}: {s['speedup_vs_serial']:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
