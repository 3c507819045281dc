#!/usr/bin/env python3
"""Docs consistency checks (run by the CI docs job).

1. Every intra-repo markdown link in every *.md file must resolve to an
   existing file or directory.
2. Every policy name registered in src/sched/registry.cpp and every fleet
   policy registered in src/fleet/policy.cpp (the tables between the
   registry-table-begin/end markers) must be documented in
   docs/REFERENCE.md as an inline-code `name`.
3. Every SYNPA_* environment knob read anywhere in src/, bench/, or
   examples/ (via common::env_int/env_double/env_string or raw getenv)
   must be documented in docs/REFERENCE.md as an inline-code `NAME`.
4. Every inline-code qualified name (`ns::name`, `Type::member`; `std::`
   names excluded; a trailing `*` makes the last part a prefix) and every
   inline-code call (`name()`, `ns::name(args)`) in README.md and
   docs/*.md must name identifiers that occur in the code under src/, with
   comments and string literals stripped — so a doc cannot keep naming an
   API after it is deleted.

Exits nonzero listing every violation; prints a summary on success.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SKIP_DIRS = {"build", ".git", ".claude"}

# [text](target) — excluding images is unnecessary (same resolution rules).
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
REGISTRY_NAME_RE = re.compile(r'^\s*\{"([^"]+)"')
ENV_KNOB_RE = re.compile(r'(?:env_(?:int|double|string)\(\s*|getenv\(\s*)"(SYNPA_[A-Z0-9_]+)"')
SOURCE_DIRS = ("src", "bench", "examples")


def markdown_files():
    for path in sorted(REPO.rglob("*.md")):
        if not any(part in SKIP_DIRS for part in path.parts):
            yield path


def check_links():
    errors = []
    for md in markdown_files():
        for lineno, line in enumerate(md.read_text().splitlines(), 1):
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                resolved = (md.parent / target.split("#", 1)[0]).resolve()
                if not resolved.exists():
                    errors.append(
                        f"{md.relative_to(REPO)}:{lineno}: broken link '{target}'"
                    )
    return errors


REGISTRY_SOURCES = ("src/sched/registry.cpp", "src/fleet/policy.cpp")


def registry_names():
    names = []
    for rel in REGISTRY_SOURCES:
        source = (REPO / rel).read_text()
        try:
            table = source.split("registry-table-begin", 1)[1].split(
                "registry-table-end", 1
            )[0]
        except IndexError:
            sys.exit(f"{rel}: registry-table markers not found")
        parsed = [
            m.group(1)
            for line in table.splitlines()
            if (m := REGISTRY_NAME_RE.match(line))
        ]
        if not parsed:
            sys.exit(f"{rel}: no policy names parsed from the table")
        names.extend(parsed)
    return names


def check_policy_docs():
    reference = (REPO / "docs/REFERENCE.md").read_text()
    return [
        f"docs/REFERENCE.md: registered policy '{name}' is undocumented"
        for name in registry_names()
        if f"`{name}`" not in reference
    ]


def env_knobs():
    """Every SYNPA_* knob read from the environment, mapped to one usage site."""
    knobs = {}
    for dir_name in SOURCE_DIRS:
        for source in sorted((REPO / dir_name).rglob("*.[ch]pp")):
            for lineno, line in enumerate(source.read_text().splitlines(), 1):
                for name in ENV_KNOB_RE.findall(line):
                    knobs.setdefault(name, f"{source.relative_to(REPO)}:{lineno}")
    if not knobs:
        sys.exit("no SYNPA_* env knobs found in the source tree")
    return knobs


def check_env_knob_docs():
    reference = (REPO / "docs/REFERENCE.md").read_text()
    return [
        f"docs/REFERENCE.md: env knob '{name}' (read at {site}) is undocumented"
        for name, site in sorted(env_knobs().items())
        if f"`{name}`" not in reference
    ]


CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
QUALIFIED_RE = re.compile(r"(?<![\w:])([A-Za-z_]\w*(?:::[A-Za-z_]\w*)+)(\*?)")
CALL_SPAN_RE = re.compile(r"([A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)\(.*\)")
# C++14 digit separators (2'000, 0xffff'ffff) would otherwise open a
# character literal.
DIGIT_SEPARATOR_RE = re.compile(r"(?<=[0-9A-Fa-f])'(?=[0-9A-Fa-f])")
COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)
LITERAL_RE = re.compile(r'"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'')
IDENTIFIER_RE = re.compile(r"[A-Za-z_]\w*")


def source_identifiers(root):
    """Every identifier in the code under root/src (comments and literals stripped)."""
    names = set()
    for source in sorted((root / "src").rglob("*.[ch]pp")):
        code = DIGIT_SEPARATOR_RE.sub("", source.read_text())
        code = LITERAL_RE.sub(" ", COMMENT_RE.sub(" ", code))
        names.update(IDENTIFIER_RE.findall(code))
    return names


def code_names(span):
    """(name, is_prefix) for each qualified name or call an inline-code span names."""
    found = [(name, star == "*") for name, star in QUALIFIED_RE.findall(span)]
    call = CALL_SPAN_RE.fullmatch(span.strip())
    if call:
        found.append((call.group(1), False))
    return [(name, prefix) for name, prefix in found if not name.startswith("std::")]


def check_code_names(root=REPO):
    identifiers = source_identifiers(root)
    errors = []
    for md in [root / "README.md"] + sorted((root / "docs").glob("*.md")):
        for lineno, line in enumerate(md.read_text().splitlines(), 1):
            for span in CODE_SPAN_RE.findall(line):
                for name, prefix in code_names(span):
                    *scopes, last = name.split("::")
                    known = all(s in identifiers for s in scopes) and (
                        any(i.startswith(last) for i in identifiers)
                        if prefix
                        else last in identifiers
                    )
                    if not known:
                        errors.append(
                            f"{md.relative_to(root)}:{lineno}: `{span}` names"
                            f" '{name}', which nothing in src/ declares"
                        )
    return errors


def main():
    errors = (
        check_links() + check_policy_docs() + check_env_knob_docs() + check_code_names()
    )
    if errors:
        print("\n".join(errors), file=sys.stderr)
        sys.exit(1)
    md_count = sum(1 for _ in markdown_files())
    print(
        f"docs OK: {md_count} markdown files, {len(registry_names())} policies"
        f" and {len(env_knobs())} env knobs documented; code names resolve in src/"
    )


if __name__ == "__main__":
    main()
