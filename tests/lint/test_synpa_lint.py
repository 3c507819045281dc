#!/usr/bin/env python3
"""Pin synpa-lint behaviour: exact findings on the fixture tree, silence on
the clean counterparts, a baseline round-trip, and a clean real tree.

Runs with the standard library only (unittest, no pytest) so it works both
under ctest in the build container and as `python3 tests/lint/test_synpa_lint.py`.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import re
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = REPO_ROOT / "tests" / "lint" / "fixtures"

_spec = importlib.util.spec_from_file_location(
    "synpa_lint", REPO_ROOT / "tools" / "synpa_lint.py")
synpa_lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(synpa_lint)

FINDING_RE = re.compile(r"^(?P<path>\S+?):(?P<line>\d+): (?P<rule>[A-Z]+-\d+): ")

# One entry per deliberate violation; the line numbers are also called out in
# comments inside the fixture files themselves.
EXPECTED_FIXTURE_FINDINGS = {
    ("bench/env01_bench_violation.cpp", 6, "ENV-01"),
    ("src/core/det02_violation.cpp", 10, "DET-02"),
    ("src/fleet/det01_violation.cpp", 15, "DET-01"),
    ("src/fleet/det01_violation.cpp", 16, "DET-02"),
    ("src/core/det02_violation.cpp", 11, "DET-02"),
    ("src/core/det02_violation.cpp", 12, "DET-02"),
    ("src/exp/fork01_violation.cpp", 10, "FORK-01"),
    ("src/exp/fork01_violation.cpp", 11, "FORK-01"),
    ("src/exp/fork01_violation.cpp", 12, "FORK-01"),
    ("src/exp/fork01_violation.cpp", 13, "FORK-01"),
    ("src/exp/fork01_violation.cpp", 14, "FORK-01"),
    ("src/exp/fork01_violation.cpp", 15, "FORK-01"),
    ("src/model/obs01_violation.cpp", 8, "OBS-01"),
    ("src/model/obs01_violation.cpp", 9, "OBS-01"),
    ("src/model/obs01_violation.cpp", 10, "OBS-01"),
    ("src/sched/det01_violation.cpp", 15, "DET-01"),
    ("src/sched/det01_violation.cpp", 16, "DET-01"),
    ("src/sched/det01_violation.cpp", 17, "DET-01"),
    ("src/sched/marker_violation.cpp", 9, "MARKER-01"),
    ("src/sched/marker_violation.cpp", 10, "DET-01"),
    ("src/sched/marker_violation.cpp", 11, "MARKER-01"),
    ("src/sched/marker_violation.cpp", 12, "DET-01"),
    ("src/sched/perf01_violation.cpp", 9, "PERF-01"),
    ("src/sched/perf01_violation.cpp", 12, "PERF-01"),
    ("src/matching/shard01_local_violation.cpp", 12, "SHARD-01"),
    ("src/matching/shard01_local_violation.cpp", 13, "SHARD-01"),
    ("src/matching/shard01_local_violation.cpp", 14, "SHARD-01"),
    ("src/matching/shard01_local_violation.cpp", 15, "SHARD-01"),
    ("src/uarch/env01_violation.cpp", 9, "ENV-01"),
    ("src/uarch/shard01_violation.cpp", 8, "SHARD-01"),
    ("src/uarch/shard01_violation.cpp", 11, "SHARD-01"),
    ("src/uarch/shard01_violation.hpp", 8, "SHARD-01"),
    ("src/uarch/shard01_violation.hpp", 14, "SHARD-01"),
}

CLEAN_FIXTURES = [
    "src/common/config.cpp",
    "src/common/thread_pool.cpp",
    "src/exp/fork01_clean.cpp",
    "src/core/det02_clean.cpp",
    "src/fleet/det01_clean.cpp",
    "src/matching/shard01_local_clean.cpp",
    "src/model/obs01_clean.cpp",
    "src/obs/obs01_allowed.cpp",
    "src/sched/det01_clean.cpp",
    "src/sched/perf01_clean.cpp",
    "src/uarch/shard01_clean.cpp",
]


def run_lint(argv):
    """Invoke synpa_lint.main(argv); return (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = synpa_lint.main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_findings(stdout):
    found = set()
    for line in stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            found.add((m.group("path"), int(m.group("line")), m.group("rule")))
    return found


class FixtureFindings(unittest.TestCase):
    def test_exact_rule_ids_and_lines(self):
        code, out, _ = run_lint(
            ["--root", str(FIXTURES), "src", "bench"])
        self.assertEqual(code, 1, "fixture violations must fail the scan")
        self.assertEqual(parse_findings(out), EXPECTED_FIXTURE_FINDINGS)

    def test_clean_counterparts_have_no_findings(self):
        code, out, _ = run_lint(["--root", str(FIXTURES)] + CLEAN_FIXTURES)
        self.assertEqual(code, 0, f"clean fixtures flagged:\n{out}")
        self.assertEqual(parse_findings(out), set())

    def test_every_rule_is_exercised(self):
        exercised = {rule for _, _, rule in EXPECTED_FIXTURE_FINDINGS}
        self.assertEqual(exercised, set(synpa_lint.RULES))


class ForkScope(unittest.TestCase):
    def test_only_src_outside_the_pool_is_checked(self):
        # The same hand-rolled fork/join is a finding anywhere in src/ but
        # the pool's own files, and out of scope in bench/ and examples/.
        violation = (FIXTURES / "src" / "exp" / "fork01_violation.cpp").read_text()
        with tempfile.TemporaryDirectory() as td:
            for rel in ("src/uarch/fork.cpp", "src/common/thread_pool.hpp",
                        "src/common/thread_pool.cpp", "bench/fork.cpp",
                        "examples/fork.cpp"):
                path = Path(td) / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(violation)
            code, out, _ = run_lint(["--root", td, "src", "bench", "examples",
                                     "--baseline", str(Path(td) / "none.json")])
            self.assertEqual(code, 1)
            self.assertEqual({(p, r) for p, _, r in parse_findings(out)},
                             {("src/uarch/fork.cpp", "FORK-01")})
            self.assertEqual(len(parse_findings(out)), 6)


class BaselineRoundTrip(unittest.TestCase):
    def test_update_then_rescan_then_shrink(self):
        with tempfile.TemporaryDirectory() as td:
            baseline = Path(td) / "baseline.json"
            scan = ["--root", str(FIXTURES), "src", "bench",
                    "--baseline", str(baseline)]

            code, _, _ = run_lint(scan + ["--update-baseline"])
            self.assertEqual(code, 0)
            data = json.loads(baseline.read_text())
            self.assertEqual(data["version"], 1)
            self.assertEqual(len(data["findings"]),
                             len(EXPECTED_FIXTURE_FINDINGS))

            # Every finding baselined -> clean.
            code, out, _ = run_lint(scan)
            self.assertEqual(code, 0, out)

            # Shrinking the baseline re-exposes exactly the removed finding.
            dropped = data["findings"].pop()
            baseline.write_text(json.dumps(data))
            code, out, _ = run_lint(scan)
            self.assertEqual(code, 1)
            self.assertEqual(len(parse_findings(out)), 1)

            # A stale entry (file fixed, key lingers) keeps the scan green but
            # is reported on stderr as removable.
            baseline.write_text(json.dumps(
                {"version": 1,
                 "findings": ["bogus|DET-01|deadbeefdeadbeef"]}))
            code, _, err = run_lint(
                ["--root", str(FIXTURES), "src/obs/obs01_allowed.cpp",
                 "--baseline", str(baseline)])
            self.assertEqual(code, 0)
            self.assertIn("stale", err)

    def test_baseline_keys_survive_line_moves(self):
        with tempfile.TemporaryDirectory() as td:
            src = FIXTURES / "src" / "uarch" / "env01_violation.cpp"
            tree = Path(td) / "src" / "uarch"
            tree.mkdir(parents=True)
            copy = tree / "env01_violation.cpp"
            copy.write_text(src.read_text())
            baseline = Path(td) / "baseline.json"
            scan = ["--root", td, "src", "--baseline", str(baseline)]

            run_lint(scan + ["--update-baseline"])
            # Shift the violation down two lines; the content-hash key must
            # still match so the finding stays baselined.
            copy.write_text("\n\n" + src.read_text())
            code, out, _ = run_lint(scan)
            self.assertEqual(code, 0, out)


class RealTree(unittest.TestCase):
    def test_head_is_clean_with_checked_in_baseline(self):
        code, out, err = run_lint(["--root", str(REPO_ROOT)])
        self.assertEqual(code, 0,
                         f"synpa-lint found new violations at HEAD:\n{out}")

    def test_checked_in_baseline_is_empty(self):
        baseline = REPO_ROOT / "tools" / "synpa_lint_baseline.json"
        data = json.loads(baseline.read_text())
        self.assertEqual(data["findings"], [],
                         "the suppression baseline must stay empty: fix or "
                         "annotate violations instead of baselining them")

    def test_every_marker_in_tree_carries_a_reason(self):
        # MARKER-01 covers this during the scan, but pin it explicitly: an
        # empty-reason marker anywhere in src/ must fail the real-tree scan.
        pat = re.compile(r"//\s*synpa-lint:\s*([a-z-]+)\(([^)]*)\)")
        for f in sorted((REPO_ROOT / "src").rglob("*")):
            if f.suffix not in {".cpp", ".hpp", ".cc", ".hh", ".h", ".ipp"}:
                continue
            for m in pat.finditer(f.read_text()):
                self.assertIn(m.group(1), synpa_lint.MARKER_TAGS,
                              f"{f}: unknown marker tag {m.group(1)!r}")
                self.assertTrue(m.group(2).strip(),
                                f"{f}: marker {m.group(1)} has no reason")


if __name__ == "__main__":
    unittest.main()
