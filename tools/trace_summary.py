#!/usr/bin/env python3
"""Summarize (or validate) a SYNPA flight-recorder Chrome-trace JSON.

Summary mode prints the run timeline (quantum span, live-task range), the
per-quantum policy-latency percentiles (p50/p90/p99 of the observe/decide/
bind wall-clock from the policy_wall_us counter track), the simulate-phase
latency, a count of every structured event kind, and the cycle-loop split
from the metrics-registry CSV next to the trace: the core-cycles stepped
busy (uarch.cycles_ticked), applied in bulk as idle (uarch.cycles_skipped)
and, of the ticked ones, applied as one lane's steady stretch
(uarch.cycles_jumped), with the jumped and stepped shares of the ticked.

Usage:
    tools/trace_summary.py trace.json            # human summary
    tools/trace_summary.py trace.json --validate # structural checks, exit 1
                                                 # on any violation

--validate asserts the shape the CI trace-smoke job relies on: the file
parses as JSON, every traceEvents entry carries ph/ts/pid, the "quantum"
X-slices have strictly increasing timestamps, at least one counter track is
present, and the metrics-registry CSV the recorder writes next to the trace
("t.json" -> "t.registry.csv") exists with its header row.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter

REGISTRY_HEADER = "name,kind,count,value,mean,p50,p90,p99,min,max"


def percentile(values: list[float], p: float) -> float:
    """Order-statistic percentile with linear interpolation (p in [0, 1])."""
    if not values:
        return 0.0
    xs = sorted(values)
    rank = max(0.0, min(1.0, p)) * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    frac = rank - lo
    return xs[lo] + frac * (xs[hi] - xs[lo])


def load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def registry_path(trace_path: str) -> str:
    """Where the recorder writes the metrics registry for `trace_path`."""
    base = trace_path[: -len(".json")] if trace_path.endswith(".json") else trace_path
    return base + ".registry.csv"


def validate_registry(path: str) -> list[str]:
    try:
        with open(path) as f:
            header = f.readline().strip()
    except OSError as err:
        return [f"metrics registry missing: {err}"]
    if header != REGISTRY_HEADER:
        return [f"{path}: unexpected header {header!r}"]
    return []


def registry_counters(path: str) -> dict[str, int]:
    """The counter rows of a metrics-registry CSV, by name ({} if absent)."""
    try:
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
    except OSError:
        return {}
    return {r["name"]: int(r["value"]) for r in rows if r.get("kind") == "counter"}


def cycle_split(counters: dict[str, int]) -> list[str]:
    """Report lines for the cycle-loop counters, [] when the run has none."""
    if "uarch.cycles_ticked" not in counters:
        return []
    ticked = counters["uarch.cycles_ticked"]
    skipped = counters.get("uarch.cycles_skipped", 0)
    jumped = counters.get("uarch.cycles_jumped", 0)
    lines = [
        "cycle loop (core-cycles):",
        f"  ticked {ticked}, skipped {skipped}, jumped {jumped}",
    ]
    if ticked:
        lines.append(
            f"  of ticked: jumped {jumped / ticked:.1%}, "
            f"stepped {(ticked - jumped) / ticked:.1%}"
        )
    return lines


def validate(doc: dict) -> list[str]:
    errors = []
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    last_quantum_ts = None
    counters = 0
    for i, e in enumerate(events):
        for key in ("ph", "ts", "pid"):
            if key not in e:
                errors.append(f"traceEvents[{i}]: missing required key '{key}'")
        if e.get("ph") == "C":
            counters += 1
        if e.get("ph") == "X" and e.get("name") == "quantum":
            ts = e.get("ts")
            if last_quantum_ts is not None and ts <= last_quantum_ts:
                errors.append(
                    f"traceEvents[{i}]: quantum slice ts {ts} not strictly "
                    f"increasing (previous {last_quantum_ts})"
                )
            last_quantum_ts = ts
    if last_quantum_ts is None:
        errors.append("no 'quantum' X-slices found")
    if counters == 0:
        errors.append("no counter ('C') events found")
    return errors


def summarize(doc: dict) -> None:
    events = doc.get("traceEvents", [])
    quanta = [e for e in events if e.get("ph") == "X" and e.get("name") == "quantum"]
    policy_lat = []  # observe + decide + bind, per quantum
    decide_lat = []
    simulate_lat = []
    for e in events:
        if e.get("ph") != "C":
            continue
        args = e.get("args", {})
        if e.get("name") == "policy_wall_us":
            decide_lat.append(args.get("decide", 0.0))
            policy_lat.append(
                args.get("observe", 0.0) + args.get("decide", 0.0) + args.get("bind", 0.0)
            )
        elif e.get("name") == "simulate_wall_us":
            simulate_lat.append(args.get("simulate", 0.0))

    instants = Counter(
        e.get("name", "?") for e in events if e.get("ph") == "i"
    )
    chip_slices = sum(
        1 for e in events if e.get("ph") == "X" and e.get("name") == "chip_quantum"
    )

    if quanta:
        first = quanta[0]["args"].get("quantum", quanta[0]["ts"] // 1000)
        last = quanta[-1]["args"].get("quantum", quanta[-1]["ts"] // 1000)
        lives = [q["args"].get("live", 0) for q in quanta if "args" in q]
        print(f"timeline: {len(quanta)} quanta (quantum {first} .. {last})")
        if lives:
            print(f"  live tasks: min {min(lives)}, max {max(lives)}")
    if chip_slices:
        print(f"  chip quantum slices: {chip_slices}")

    def lat_line(label: str, xs: list[float]) -> None:
        if xs:
            print(
                f"  {label}: p50 {percentile(xs, 0.50):.1f} us, "
                f"p90 {percentile(xs, 0.90):.1f} us, "
                f"p99 {percentile(xs, 0.99):.1f} us"
            )

    print("per-quantum latency:")
    lat_line("policy (observe+decide+bind)", policy_lat)
    lat_line("decide only", decide_lat)
    lat_line("simulate", simulate_lat)

    if instants:
        print("events:")
        for name, count in sorted(instants.items()):
            print(f"  {name}: {count}")

    dropped = doc.get("otherData", {}).get("dropped_events", 0)
    if dropped:
        print(f"warning: {dropped} events dropped (raise SYNPA_TRACE_CAPACITY)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="Chrome-trace JSON written by the flight recorder")
    ap.add_argument(
        "--validate",
        action="store_true",
        help="run structural checks instead of printing a summary",
    )
    args = ap.parse_args()

    try:
        doc = load(args.trace)
    except (OSError, json.JSONDecodeError) as err:
        sys.stderr.write(f"error: cannot load {args.trace}: {err}\n")
        return 1

    if args.validate:
        errors = validate(doc) + validate_registry(registry_path(args.trace))
        if errors:
            sys.stderr.write("\n".join(errors) + "\n")
            return 1
        print(
            f"trace OK: {len(doc['traceEvents'])} events, "
            f"{doc.get('otherData', {}).get('dropped_events', 0)} dropped"
        )
        return 0

    summarize(doc)
    for line in cycle_split(registry_counters(registry_path(args.trace))):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
