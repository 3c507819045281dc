#!/usr/bin/env python3
"""synpa-lint: repo-specific determinism-contract checks for the SYNPA tree.

The simulator's whole value rests on a determinism contract (serial ==
sharded at every SYNPA_SIM_THREADS, goldens pin exact doubles).  These
rules catch the ways a PR can quietly break that contract *before* a
flaky golden does — see docs/LINTING.md for the full rationale.

Rules
  DET-01   no range-for / iterator traversal of unordered_map/unordered_set
           in the deterministic layers (src/{core,sched,uarch,scenario,
           matching,online,model,fleet}).  Hash order is not deterministic
           across
           libstdc++ versions or libc++; traversals must use sorted
           snapshots or common::FlatIdMap.  Audited exceptions carry
           `// synpa-lint: sorted-ok(<reason>)`.
  DET-02   no std::rand/random_device/wall-clock reads in the deterministic
           layers.  Host time lives behind obs::PhaseStopwatch and
           obs::host_now_us() (the obs/ allowlist layer); simulated state
           must never read the host clock.  `host-time-ok(<reason>)`.
  ENV-01   no raw getenv outside src/common/config.*.  The common::env_*
           wrappers fail loudly on malformed values and feed the
           documented-knob cross-check in tools/check_docs.py.
           `env-ok(<reason>)`.
  OBS-01   no direct stdout/stderr tracing (printf/fprintf/puts/cout/cerr)
           in src/ outside src/obs/.  Tracing goes through the flight
           recorder so traced and untraced runs stay bit-identical.
           `trace-ok(<reason>)`.
  SHARD-01 no mutable namespace-scope state (non-const globals; non-const
           `static` locals or data members in headers; non-const `static`
           and `thread_local` locals in .cpp files) in the layers that run
           inside a fork/join barrier (src/{uarch,apps,pmu,fleet,matching}).
           Chip shards and fleet nodes share no mutable state by
           construction; a global would be an unsynchronized cross-shard
           race, and a thread_local one carries state from one run into
           the next on a long-lived pool thread.
           `shard-ok(<reason>)`.
  PERF-01  no function-local common::FlatIdMap in src/**/*.cpp.  Its table
           is as long as the largest task id ever handed out (fleet-wide in
           a fleet), so one built per call zeroes that much memory to look
           up a few live tasks; per-call lookups use common::SmallIdMap.
           `flat-map-ok(<reason>)`.
  FORK-01  no std::thread/jthread/async/future/shared_future/promise/
           packaged_task in src/ outside src/common/thread_pool.*.  Every fork/join goes
           through common::parallel_for, so there is one pool, one join
           and one error rule to reason about (and to race under TSan).
           `fork-ok(<reason>)`.
  MARKER-01  a `// synpa-lint: <tag>(<reason>)` marker with an unknown tag
           or an empty reason.  Every suppression is an audit record; it
           must say why the exception is sound.

Engines: `--engine libclang` uses clang.cindex when importable (AST-exact
for DET-01/SHARD-01); the default token engine needs nothing beyond the
standard library and is what CI runs.  Both share the same rule scopes,
markers, and baseline format.

Exit status: 0 clean (or every finding baselined), 1 new findings,
2 usage/internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

RULES = {
    "DET-01": "unordered-container traversal in a deterministic layer",
    "DET-02": "host randomness/wall-clock read in a deterministic layer",
    "ENV-01": "raw getenv outside common/config",
    "OBS-01": "direct stdout/stderr tracing outside obs/",
    "SHARD-01": "mutable namespace-scope state in a barrier layer",
    "PERF-01": "function-local FlatIdMap (a per-call, id-sized table)",
    "FORK-01": "host-thread primitive outside common/thread_pool",
    "MARKER-01": "malformed synpa-lint suppression marker",
}

# Marker tag accepted per rule (MARKER-01 itself is not suppressible).
MARKER_TAGS = {
    "sorted-ok": "DET-01",
    "host-time-ok": "DET-02",
    "env-ok": "ENV-01",
    "trace-ok": "OBS-01",
    "shard-ok": "SHARD-01",
    "flat-map-ok": "PERF-01",
    "fork-ok": "FORK-01",
}

# Layers whose results are pinned bit-identical by goldens and the
# parallel-engine identity tests.
DET_LAYERS = ("src/core/", "src/sched/", "src/uarch/", "src/scenario/",
              "src/matching/", "src/online/", "src/model/", "src/fleet/")
# Layers whose code runs inside a fork/join barrier: chip shards
# (uarch/apps/pmu), fleet nodes stepped concurrently over the fleet thread
# pool, and the Step-3 solvers those nodes call (matching).
BARRIER_LAYERS = ("src/uarch/", "src/apps/", "src/pmu/", "src/fleet/",
                  "src/matching/")

CPP_SUFFIXES = {".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h", ".ipp"}

MARKER_RE = re.compile(r"synpa-lint:\s*([A-Za-z0-9-]+)\s*(?:\(([^)]*)\))?")

DET02_RE = re.compile(
    r"std::rand\b|\bsrand\s*\(|\brandom_device\b|\bsteady_clock\b"
    r"|\bsystem_clock\b|\bhigh_resolution_clock\b|\bgettimeofday\s*\("
    r"|\bclock_gettime\s*\(|\btimespec_get\s*\(|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"
    r"|(?<![\w:])rand\s*\(\s*\)|(?<![\w:])clock\s*\(\s*\)")
ENV01_RE = re.compile(r"\bgetenv\s*\(|\bsecure_getenv\s*\(")
OBS01_RE = re.compile(
    r"\bprintf\s*\(|\bfprintf\s*\(|\bfputs\s*\(|\bputs\s*\(|\bputchar\s*\("
    r"|std::cout\b|std::cerr\b|std::clog\b")
FORK01_RE = re.compile(
    r"\bstd::(?:j?thread|async|(?:shared_)?future|promise|packaged_task)\b")
UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^()]*(?:\([^()]*\)[^()]*)*)\)")
BEGIN_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*c?begin\s*\(")
FLAT_ID_MAP_DECL_RE = re.compile(
    r"^(?:(?:static|thread_local|const)\s+)*(?:::)?(?:synpa\s*::\s*)?"
    r"(?:common\s*::\s*)?FlatIdMap\s*<")


class Finding:
    __slots__ = ("path", "line", "rule", "message", "text")

    def __init__(self, path: str, line: int, rule: str, message: str, text: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.text = text

    def key(self) -> str:
        digest = hashlib.sha1(
            f"{self.rule}|{self.text.strip()}".encode()).hexdigest()[:16]
        return f"{self.path}|{self.rule}|{digest}"

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def _is_digit_separator(text: str, i: int) -> bool:
    """True when the quote at text[i] ends a token that starts with a digit
    (450'000, 0x1'ff): a C++14 digit separator, not a char literal."""
    j = i
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] in "_'."):
        j -= 1
    return j < i and text[j].isdigit()


def strip_comments_and_strings(text: str) -> str:
    """Blanks comment and string/char-literal contents, preserving line
    structure, so token scans cannot match inside either."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            chunk = text[i:j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            i = j + 2
        elif c == "R" and nxt == '"':
            m = re.match(r'R"([^(\s]{0,16})\(', text[i:])
            if m:
                end = text.find(")" + m.group(1) + '"', i + m.end())
                end = n if end < 0 else end + len(m.group(1)) + 2
                chunk = text[i:end]
                out.append("".join(ch if ch == "\n" else " " for ch in chunk))
                i = end
            else:
                out.append(c)
                i += 1
        elif c == "'" and _is_digit_separator(text, i):
            out.append(c)  # a digit separator (1'000), not a char literal
            i += 1
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(c + " " * (j - i - 2) + (c if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def collect_markers(raw_lines: list[str], path: str, findings: list[Finding]):
    """Returns {line_no: set(rule_ids suppressed)} and reports MARKER-01."""
    suppressed: dict[int, set[str]] = {}
    for no, line in enumerate(raw_lines, 1):
        if "synpa-lint:" not in line:
            continue
        for m in MARKER_RE.finditer(line):
            tag, reason = m.group(1), m.group(2)
            rule = MARKER_TAGS.get(tag)
            if rule is None:
                findings.append(Finding(path, no, "MARKER-01",
                                        f"unknown suppression tag '{tag}'", line))
            elif reason is None or not reason.strip():
                findings.append(Finding(
                    path, no, "MARKER-01",
                    f"'{tag}' marker must carry a reason: {tag}(<why this is sound>)",
                    line))
            else:
                suppressed.setdefault(no, set()).add(rule)
    return suppressed


def is_suppressed(suppressed: dict[int, set[str]], line: int, rule: str) -> bool:
    # A marker suppresses its own line and the statement on the next line.
    return rule in suppressed.get(line, set()) or rule in suppressed.get(line - 1, set())


def in_layer(rel: str, layers) -> bool:
    return any(rel.startswith(layer) for layer in layers)


def unordered_names(stripped: str) -> set[str]:
    """Names declared with an unordered container type in this text."""
    names: set[str] = set()
    for m in UNORDERED_DECL_RE.finditer(stripped):
        i = m.end() - 1  # at '<'
        depth = 0
        n = len(stripped)
        while i < n:
            if stripped[i] == "<":
                depth += 1
            elif stripped[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        tail = stripped[i + 1:i + 200]
        dm = re.match(r"\s*[&*]*\s*(?:const\s+)?([A-Za-z_]\w*)", tail)
        if dm and dm.group(1) not in ("final", "override"):
            names.add(dm.group(1))
    return names


def paired_file(path: Path) -> Path | None:
    mates = {".cpp": [".hpp", ".h"], ".hpp": [".cpp", ".cc"], ".h": [".cpp", ".cc"]}
    for suffix in mates.get(path.suffix, []):
        mate = path.with_suffix(suffix)
        if mate.exists():
            return mate
    return None


def check_det01_token(rel: str, raw_lines, stripped_lines, stripped_text,
                      path: Path, suppressed, findings):
    names = unordered_names(stripped_text)
    mate = paired_file(path)
    if mate is not None:
        names |= unordered_names(strip_comments_and_strings(mate.read_text()))
    if not names:
        return
    for no, line in enumerate(stripped_lines, 1):
        hits = []
        for m in RANGE_FOR_RE.finditer(line):
            inner = m.group(1)
            if ":" not in inner:
                continue
            range_expr = inner.rsplit(":", 1)[1].strip()
            base = re.sub(r"^\*|^\(|\)$", "", range_expr).strip()
            base = base.split(".")[-1].split("->")[-1].strip()
            if base in names:
                hits.append(f"range-for over unordered container '{base}'")
        for m in BEGIN_CALL_RE.finditer(line):
            if m.group(1) in names:
                hits.append(f"iterator traversal of unordered container '{m.group(1)}'")
        for msg in hits:
            if not is_suppressed(suppressed, no, "DET-01"):
                findings.append(Finding(
                    rel, no, "DET-01",
                    f"{msg}: hash order is nondeterministic — use a sorted "
                    "snapshot or common::FlatIdMap, or audit with "
                    "// synpa-lint: sorted-ok(<reason>)", raw_lines[no - 1]))


def check_regex_rule(rel, raw_lines, stripped_lines, rule, regex, message,
                     suppressed, findings):
    for no, line in enumerate(stripped_lines, 1):
        if regex.search(line) and not is_suppressed(suppressed, no, rule):
            findings.append(Finding(rel, no, rule, message, raw_lines[no - 1]))


# ---------------------------------------------------------------------------
# SHARD-01: a small scope tracker over the stripped text.

_SCOPE_OPENERS = re.compile(r"\b(namespace|class|struct|union|enum)\b")
_GLOBAL_DECL_RE = re.compile(
    r"^(?:(?:static|inline|thread_local)\s+)*"
    r"[A-Za-z_][\w:]*(?:\s*<[^;{}]*>)?[\w:\s\*&]*?[\s\*&]([A-Za-z_]\w*)\s*"
    r"(?:=[^;]*)?$")
_DECL_SKIP_RE = re.compile(
    r"\b(const|constexpr|constinit|using|typedef|friend|template|static_assert|"
    r"operator|extern|concept|requires|namespace|public|private|protected|"
    r"class|struct|union|enum)\b")


# A static-storage local: `static`, `thread_local`, or both, in either order.
_STATIC_LOCAL_RE = re.compile(r"^(?:static|thread_local)\b(?:\s+(?:static|thread_local)\b)?")


def _classify_scope(stmt: str) -> str:
    stmt = stmt.strip()
    if re.search(r"\bnamespace\b", stmt) or 'extern "C"' in stmt:
        return "namespace"
    if re.search(r"\b(class|struct|union|enum)\b", stmt) and "(" not in stmt \
            and "=" not in stmt:
        return "class"
    if stmt.endswith("=") or stmt.endswith("{") or re.search(r"=\s*$", stmt):
        return "init"
    if "(" in stmt:
        return "function"
    if re.search(r"\b(do|else|try)\s*$", stmt):
        return "function"
    return "block"


def _flag_decl(stmt: str) -> str | None:
    """Returns the declared name when `stmt` defines a mutable variable."""
    stmt = re.sub(r"\[\[[^\]]*\]\]", "", stmt).strip()
    if not stmt or stmt.endswith(")"):
        return None
    if _DECL_SKIP_RE.search(stmt):
        return None
    head = stmt.split("=", 1)[0]
    if "(" in head:  # function declaration/definition
        return None
    m = _GLOBAL_DECL_RE.match(stmt)
    return m.group(1) if m else None


def iter_statements(stripped_lines):
    """Yields (statement, first_line, enclosing_scopes, terminator) for every
    statement of the stripped text that ends at ';' or opens a '{' scope.
    enclosing_scopes is the tuple of _classify_scope kinds around it,
    outermost first (empty at file scope)."""
    # Preprocessor lines carry no scopes or declarations; blank them so they
    # cannot merge into the following statement.
    text = "\n".join("" if line.lstrip().startswith("#") else line
                     for line in stripped_lines)
    scopes: list[str] = []  # implicit file scope == namespace scope
    stmt, stmt_line = [], 1
    line_no = 1
    has_sig = False  # statement buffer holds a non-space character

    for ch in text:
        if ch == "\n":
            line_no += 1
            stmt.append(" ")
        elif ch == "{":
            statement = "".join(stmt)
            yield statement, stmt_line, tuple(scopes), "{"
            scopes.append(_classify_scope(statement))
            stmt, has_sig = [], False
        elif ch == "}":
            if scopes:
                scopes.pop()
            stmt, has_sig = [], False
        elif ch == ";":
            yield "".join(stmt), stmt_line, tuple(scopes), ";"
            stmt, has_sig = [], False
        elif ch == ":" and "".join(stmt).strip() in ("public", "private",
                                                     "protected"):
            # Access labels are statement boundaries, not declaration prefixes.
            stmt, has_sig = [], False
        else:
            if not has_sig and not ch.isspace():
                stmt_line = line_no
                has_sig = True
            stmt.append(ch)


def check_shard01_token(rel, raw_lines, stripped_lines, suppressed, findings):
    is_header = Path(rel).suffix in {".hpp", ".hh", ".h", ".ipp"}
    # Scopes whose non-const statics are shared: any in a header (every
    # includer gets the one instance), function bodies in a .cpp.
    static_scopes = ("function", "class", "block") if is_header else ("function", "block")

    def analyze(statement: str, at_line: int, current: str):
        statement = re.sub(r"^(?:(?:public|private|protected)\s*:\s*)+", "",
                           statement.strip())
        if not statement:
            return
        if current == "namespace":
            name = _flag_decl(statement)
            if name and not is_suppressed(suppressed, at_line, "SHARD-01"):
                findings.append(Finding(
                    rel, at_line, "SHARD-01",
                    f"mutable namespace-scope state '{name}': chip shards must "
                    "share no mutable globals — make it const/constexpr or move "
                    "it into the owning object", raw_lines[at_line - 1]))
        elif current in static_scopes:
            head = statement.split("=", 1)[0]
            sm = _STATIC_LOCAL_RE.match(head)
            if sm and "(" not in head and not _DECL_SKIP_RE.search(head[sm.end():]):
                if not is_suppressed(suppressed, at_line, "SHARD-01"):
                    findings.append(Finding(
                        rel, at_line, "SHARD-01",
                        ("non-const static in a header: every includer shares one "
                         "mutable instance across shards") if is_header else
                        ("non-const function-local static: every caller on every "
                         "thread shares it, and a thread_local one outlives the run "
                         "on a pool thread — move it into the owning object"),
                        raw_lines[at_line - 1]))

    for statement, at_line, scopes, end in iter_statements(stripped_lines):
        current = scopes[-1] if scopes else "namespace"
        if end == ";":
            analyze(statement, at_line, current)
        elif _classify_scope(statement) == "init" and current == "namespace":
            # An init brace at namespace scope still carries the declarator:
            # analyze it now so `Foo x = {...};` is seen.
            analyze(statement.rstrip().rstrip("=").rstrip(), at_line, current)
        elif current in static_scopes and _STATIC_LOCAL_RE.match(statement.strip()):
            # Likewise a static initialized by braces or a lambda
            # (`static Foo x{...};`, `static Foo x = [] {...}();`).
            analyze(statement, at_line, current)


def check_perf01_token(rel, raw_lines, stripped_lines, suppressed, findings):
    for statement, at_line, scopes, _ in iter_statements(stripped_lines):
        if "function" not in scopes:
            continue
        stmt = statement.strip()
        m = FLAT_ID_MAP_DECL_RE.match(stmt)
        if not m:
            continue
        # Skip the template argument list; a declarator name right after it
        # is a new table (a reference or pointer alias is not).
        depth, i = 0, m.end() - 1
        while i < len(stmt):
            depth += {"<": 1, ">": -1}.get(stmt[i], 0)
            if depth == 0:
                break
            i += 1
        dm = re.match(r"\s*([A-Za-z_]\w*)", stmt[i + 1:])
        if dm and not is_suppressed(suppressed, at_line, "PERF-01"):
            findings.append(Finding(
                rel, at_line, "PERF-01",
                f"function-local common::FlatIdMap '{dm.group(1)}': its table "
                "is as long as the largest task id, so building one per call "
                "zeroes memory for every id ever handed out — use "
                "common::SmallIdMap, or keep the FlatIdMap as long-lived "
                "owner state", raw_lines[at_line - 1]))


# ---------------------------------------------------------------------------
# Optional libclang engine (AST-exact DET-01/SHARD-01); falls back to the
# token engine on any failure so environments without libclang lose nothing.

def try_libclang():
    try:
        from clang import cindex  # type: ignore
        cindex.Index.create()
        return cindex
    except Exception:
        return None


def check_det01_libclang(cindex, rel, path, raw_lines, suppressed, findings):
    index = cindex.Index.create()
    tu = index.parse(str(path), args=["-std=c++20", "-I", str(path.parents[1])])
    for cur in tu.cursor.walk_preorder():
        if cur.kind != cindex.CursorKind.CXX_FOR_RANGE_STMT:
            continue
        if not cur.location.file or Path(cur.location.file.name) != path:
            continue
        children = list(cur.get_children())
        if not children:
            continue
        range_type = children[-2].type.spelling if len(children) >= 2 else ""
        if "unordered_" in range_type:
            no = cur.location.line
            if not is_suppressed(suppressed, no, "DET-01"):
                findings.append(Finding(
                    rel, no, "DET-01",
                    f"range-for over '{range_type}': hash order is "
                    "nondeterministic — use a sorted snapshot or "
                    "common::FlatIdMap", raw_lines[no - 1]))


def scan_file(path: Path, root: Path, engine) -> list[Finding]:
    rel = path.relative_to(root).as_posix()
    raw = path.read_text(errors="replace")
    raw_lines = raw.splitlines()
    stripped = strip_comments_and_strings(raw)
    stripped_lines = stripped.splitlines()
    findings: list[Finding] = []
    suppressed = collect_markers(raw_lines, rel, findings)

    if in_layer(rel, DET_LAYERS):
        if engine is not None:
            try:
                check_det01_libclang(engine, rel, path, raw_lines, suppressed,
                                     findings)
            except Exception:
                check_det01_token(rel, raw_lines, stripped_lines, stripped,
                                  path, suppressed, findings)
        else:
            check_det01_token(rel, raw_lines, stripped_lines, stripped, path,
                              suppressed, findings)
        check_regex_rule(
            rel, raw_lines, stripped_lines, "DET-02", DET02_RE,
            "host randomness/wall-clock read in a deterministic layer — host "
            "time lives behind obs::PhaseStopwatch/obs::host_now_us(), "
            "randomness behind common::rng", suppressed, findings)

    if not rel.startswith("src/common/config."):
        check_regex_rule(
            rel, raw_lines, stripped_lines, "ENV-01", ENV01_RE,
            "raw getenv bypasses the fail-loud common::env_* wrappers and the "
            "check_docs.py knob cross-check", suppressed, findings)

    if rel.startswith("src/") and not rel.startswith("src/obs/"):
        check_regex_rule(
            rel, raw_lines, stripped_lines, "OBS-01", OBS01_RE,
            "direct stdout/stderr tracing outside obs/ — emit through the "
            "flight recorder (obs::Tracer) or return data to the caller",
            suppressed, findings)

    if rel.startswith("src/") and not rel.startswith("src/common/thread_pool."):
        check_regex_rule(
            rel, raw_lines, stripped_lines, "FORK-01", FORK01_RE,
            "host-thread primitive outside common/thread_pool — fork work "
            "with common::parallel_for, the one fork/join", suppressed,
            findings)

    if in_layer(rel, BARRIER_LAYERS):
        check_shard01_token(rel, raw_lines, stripped_lines, suppressed, findings)

    if rel.startswith("src/") and path.suffix == ".cpp":
        check_perf01_token(rel, raw_lines, stripped_lines, suppressed, findings)

    return findings


def gather_files(root: Path, paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        full = (root / p).resolve()
        if full.is_file():
            files.append(full)
        elif full.is_dir():
            files.extend(f for f in sorted(full.rglob("*"))
                         if f.suffix in CPP_SUFFIXES and f.is_file())
    return files


def load_baseline(path: Path) -> set[str]:
    if not path.exists():
        return set()
    data = json.loads(path.read_text())
    return set(data.get("findings", []))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=None,
                    help="files/directories relative to --root "
                         "(default: src bench examples)")
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parents[1],
                    help="repository root the rule scopes are resolved against")
    ap.add_argument("--baseline", type=Path, default=None,
                    help="suppression baseline JSON "
                         "(default: <root>/tools/synpa_lint_baseline.json)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline to the current findings")
    ap.add_argument("--report", type=Path, default=None,
                    help="also write the findings report to this file")
    ap.add_argument("--engine", choices=("auto", "token", "libclang"),
                    default="token",
                    help="DET-01/SHARD-01 analysis engine (default: token; "
                         "auto upgrades to libclang when importable)")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule}  {desc}")
        return 0

    root = args.root.resolve()
    paths = args.paths or ["src", "bench", "examples"]
    baseline_path = args.baseline or root / "tools" / "synpa_lint_baseline.json"

    engine = None
    if args.engine == "libclang":
        engine = try_libclang()
        if engine is None:
            print("synpa-lint: libclang unavailable, falling back to the "
                  "token engine", file=sys.stderr)
    elif args.engine == "auto":
        engine = try_libclang()

    findings: list[Finding] = []
    for f in gather_files(root, paths):
        findings.extend(scan_file(f, root, engine))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))

    if args.update_baseline:
        baseline_path.write_text(json.dumps(
            {"version": 1, "findings": sorted(f.key() for f in findings)},
            indent=2) + "\n")
        print(f"synpa-lint: baseline updated with {len(findings)} finding(s) "
              f"-> {baseline_path}")
        return 0

    baseline = load_baseline(baseline_path)
    new = [f for f in findings if f.key() not in baseline]
    seen_keys = {f.key() for f in findings}
    stale = sorted(k for k in baseline if k not in seen_keys)

    lines = [str(f) for f in new]
    report = "\n".join(lines)
    if args.report:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(report + ("\n" if report else ""))
    if new:
        print(report)
        print(f"synpa-lint: {len(new)} new finding(s) "
              f"({len(findings) - len(new)} baselined)", file=sys.stderr)
        return 1
    if stale:
        print(f"synpa-lint: clean; {len(stale)} stale baseline entr"
              f"{'y' if len(stale) == 1 else 'ies'} can be removed "
              f"(--update-baseline)", file=sys.stderr)
    suffix = f" ({len(findings)} baselined)" if findings else ""
    print(f"synpa-lint: clean{suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
