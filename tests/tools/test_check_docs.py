#!/usr/bin/env python3
"""Pin tools/check_docs.py's code-name gate on a canned tree: an
inline-code qualified name or call in README.md or docs/*.md must name
identifiers that occur in the code under src/.  A name that survives only
in a comment or a string literal does not count, `std::` names are
skipped, a trailing `*` matches a prefix, and the real repository passes.

Runs with the standard library only (unittest, no pytest) so it works both
under ctest and as `python3 tests/tools/test_check_docs.py`.
"""

from __future__ import annotations

import importlib.util
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py")
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)

SOURCE = """\
namespace synpa::sched {
// allocate_across_chips was folded into solve_platform.
const char* kName = "concat_chip_allocations";
inline constexpr int kCycles = 2'000;
struct ChipCosts { double solo; };
int solve_platform(int x) { return x; }
int env_int(int fallback);
}  // namespace synpa::sched
"""


class CodeNameGate(unittest.TestCase):
    def errors_for(self, readme: str) -> list[str]:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "src" / "sched").mkdir(parents=True)
            (root / "src" / "sched" / "topology.hpp").write_text(SOURCE)
            (root / "docs").mkdir()
            (root / "docs" / "GUIDE.md").write_text("Nothing to check.\n")
            (root / "README.md").write_text(readme)
            return check_docs.check_code_names(root)

    def test_declared_names_pass(self):
        self.assertEqual(self.errors_for(
            "`sched::solve_platform` over `sched::ChipCosts::solo`, "
            "`solve_platform(obs)`, `sched::env_*`, `std::vector`, "
            "`std::time()` and `python3 run.py --seed 42`.\n"), [])

    def test_deleted_names_fail(self):
        errors = self.errors_for(
            "`sched::allocate_across_chips` and `concat_chip_allocations()`, "
            "`sched::solve_chip`, `sched::gone_*`.\n")
        self.assertEqual(len(errors), 4, errors)
        self.assertIn("'sched::allocate_across_chips'", errors[0])
        self.assertTrue(errors[0].startswith("README.md:1:"), errors[0])
        self.assertIn("'concat_chip_allocations'", errors[1])

    def test_unknown_scope_fails(self):
        self.assertEqual(len(self.errors_for("`nowhere::solve_platform`\n")), 1)

    def test_repository_docs_resolve(self):
        self.assertEqual(check_docs.check_code_names(), [])


if __name__ == "__main__":
    unittest.main()
