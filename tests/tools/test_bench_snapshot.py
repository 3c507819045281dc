#!/usr/bin/env python3
"""Pin tools/bench_snapshot.py's unit handling, build facts and baseline
check on canned inputs: every stored *_ns field is in nanoseconds whatever
time_unit the row reports in, the snapshot's build type and compiler come
from the build directory's CMakeCache.txt, and --check fails on any host
when a baseline row is missing from the fresh snapshot.

Runs with the standard library only (unittest, no pytest) so it works both
under ctest and as `python3 tests/tools/test_bench_snapshot.py`.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "bench_snapshot", REPO_ROOT / "tools" / "bench_snapshot.py")
bench_snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_snapshot)

# Shaped like bench_matching / bench_sim_throughput output, with one row
# per time unit: the grouping rows are registered with Unit(kMillisecond).
CANNED = json.loads("""
{
  "context": {"num_cpus": 4, "library_build_type": "debug"},
  "benchmarks": [
    {"name": "BM_BlossomMinPerfect/8", "iterations": 15182,
     "real_time": 4508.69, "cpu_time": 4492.38, "time_unit": "ns"},
    {"name": "BM_GroupingColdResolve/512", "iterations": 1,
     "real_time": 1015.25, "cpu_time": 1013.5, "time_unit": "ms",
     "oracle_calls": 880000},
    {"name": "BM_ChipQuantumSmtPair/50000", "iterations": 100,
     "real_time": 812.5, "cpu_time": 800.0, "time_unit": "us",
     "items_per_second": 2.5e7},
    {"name": "BM_PlatformQuantum/chips:2/threads:1/real_time", "iterations": 10,
     "real_time": 2.0, "cpu_time": 2.0, "time_unit": "s"},
    {"name": "BM_PlatformQuantum/chips:2/threads:2/real_time", "iterations": 10,
     "real_time": 1.0, "cpu_time": 2.0, "time_unit": "s",
     "sim_shards": 2}
  ]
}
""")


def summarized() -> dict:
    return {r["name"]: r for r in map(bench_snapshot.row_summary, CANNED["benchmarks"])}


class TimeUnits(unittest.TestCase):
    def test_every_unit_is_stored_in_nanoseconds(self):
        rows = summarized()
        self.assertAlmostEqual(rows["BM_BlossomMinPerfect/8"]["real_time_ns"], 4508.69)
        self.assertAlmostEqual(rows["BM_GroupingColdResolve/512"]["real_time_ns"], 1.01525e9)
        self.assertAlmostEqual(rows["BM_GroupingColdResolve/512"]["cpu_time_ns"], 1.0135e9)
        self.assertAlmostEqual(rows["BM_ChipQuantumSmtPair/50000"]["real_time_ns"], 812_500.0)
        self.assertAlmostEqual(
            rows["BM_PlatformQuantum/chips:2/threads:1/real_time"]["real_time_ns"], 2e9)

    def test_missing_unit_means_nanoseconds(self):
        row = bench_snapshot.row_summary({"name": "BM_X", "real_time": 7.0, "cpu_time": 6.0})
        self.assertEqual((row["real_time_ns"], row["cpu_time_ns"]), (7.0, 6.0))

    def test_unknown_unit_is_rejected(self):
        with self.assertRaises(ValueError):
            bench_snapshot.row_summary(
                {"name": "BM_X", "real_time": 1.0, "cpu_time": 1.0, "time_unit": "min"})

    def test_derived_ratios_use_scaled_times(self):
        rows = list(summarized().values())
        (speedup,) = bench_snapshot.platform_speedups(rows)
        self.assertEqual(speedup["threads"], 2)
        self.assertAlmostEqual(speedup["speedup_vs_serial"], 2.0)


def snapshot_with(names: list[str], cores: int) -> dict:
    """A fresh snapshot holding bench_matching rows of the given names."""
    rows = [{"name": n, "real_time_ns": 1.0, "cpu_time_ns": 1.0, "iterations": 1}
            for n in names]
    return {"host": {"hardware_concurrency": cores},
            "benchmarks": {"bench_matching": {"rows": rows}}}


class BaselineCheck(unittest.TestCase):
    def check(self, snapshot: dict, baseline: dict) -> tuple[int, str, str]:
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "baseline.json")
            with open(path, "w") as f:
                json.dump(baseline, f)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = bench_snapshot.check_against_baseline(snapshot, path, 0.25)
        return code, out.getvalue(), err.getvalue()

    def test_missing_baseline_row_fails_before_the_core_count_skip(self):
        baseline = snapshot_with(["BM_A/8", "BM_Gone/128", "BM_Gone/512"], cores=1)
        code, _, err = self.check(snapshot_with(["BM_A/8"], cores=4), baseline)
        self.assertEqual(code, 1)
        self.assertIn("bench_matching/BM_Gone/128", err)
        self.assertIn("bench_matching/BM_Gone/512", err)
        self.assertNotIn("BM_A/8", err)

    def test_complete_snapshot_on_another_host_still_skips(self):
        baseline = snapshot_with(["BM_A/8"], cores=1)
        code, out, _ = self.check(snapshot_with(["BM_A/8", "BM_New/1"], cores=4), baseline)
        self.assertEqual(code, 0)
        self.assertIn("skipped", out)


class BuildFacts(unittest.TestCase):
    def test_reads_build_type_and_compiler_from_cmake_cache(self):
        with tempfile.TemporaryDirectory() as build_dir:
            with open(os.path.join(build_dir, "CMakeCache.txt"), "w") as f:
                f.write("# This is the CMakeCache file.\n"
                        "//Choose the type of build.\n"
                        "CMAKE_BUILD_TYPE:STRING=Release\n"
                        "//CXX compiler\n"
                        "CMAKE_CXX_COMPILER:FILEPATH=/usr/bin/g++-12\n"
                        "CMAKE_CXX_FLAGS:STRING=-O2 -DX=1\n")
            self.assertEqual(bench_snapshot.cmake_build_facts(build_dir),
                             {"cmake_build_type": "Release",
                              "cxx_compiler": "/usr/bin/g++-12"})

    def test_missing_cache_gives_none(self):
        with tempfile.TemporaryDirectory() as build_dir:
            self.assertEqual(bench_snapshot.cmake_build_facts(build_dir),
                             {"cmake_build_type": None, "cxx_compiler": None})


if __name__ == "__main__":
    unittest.main()
