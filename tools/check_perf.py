#!/usr/bin/env python3
"""Perf regression gate: bench reports against committed floors.

Every perf bench writes one report through bench_util.hh's
PerfReport: {"schema": 2, "metrics": {...}}, a flat object of
dotted metric names ("fleet.requests_per_sec") to numbers. The gate
takes the union of the reports' metrics (a key in two reports is an
error naming both files) and checks every floor of the baseline
(bench/perf_baseline.json):

    current >= floor * (1 - tolerance)

Metrics named in the baseline's "lower_is_better" list (memory
ceilings such as driver_loop.peak_rss_mb) gate the other way:

    current <= ceiling * (1 + tolerance)

A floored metric no report carries is MISSING and fails the gate.
Reported metrics without a floor are listed as untracked; adding a
floor is a hand edit of the baseline.

A floor may hold only on some hosts. It is then written as
{"floor": F, "requires": {"other.key": V, ...}}: on a run whose
reports carry other.key == V it gates as a plain floor; on a run
with another value it is SKIPPED (never ok, never failed); a run
whose reports lack other.key fails it as MISSING, since the gate
cannot tell which case holds.

Usage (the CI perf job; each report comes from its bench's --json
flag, bench_perf writes BENCH_perf.json in its working directory):
    tools/check_perf.py bench/perf_baseline.json BENCH_perf.json \
        BENCH_longrun.json BENCH_fleet.json BENCH_faults.json \
        BENCH_policies.json BENCH_sessions.json [--tolerance T]

--update rewrites the floors the baseline already has from the
reports instead of checking; it adds none, and keeps (with a note)
a floor whose metric no report carries or whose precondition the
reports do not meet.
"""

import argparse
import json
import sys

SCHEMA = 2


def load_json(path, role):
    """One file, or exit with one readable line (file and reason)
    instead of a traceback: the usual CI failure is a bench that
    never ran or wrote a truncated file."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        sys.exit(f"check_perf: cannot read {role} '{path}': "
                 f"{e.strerror or e}")
    except json.JSONDecodeError as e:
        sys.exit(f"check_perf: {role} '{path}' is not valid JSON "
                 f"(line {e.lineno}: {e.msg}); was its producer "
                 f"interrupted?")


def union_of(paths):
    """The reports' metrics in one dict; a key in two reports is an
    error naming both files."""
    metrics, owner = {}, {}
    for path in paths:
        report = load_json(path, "report")
        schema = report.get("schema") if isinstance(report, dict) else None
        if schema != SCHEMA or not isinstance(report.get("metrics"), dict):
            sys.exit(f"check_perf: report '{path}' is not a schema-"
                     f"{SCHEMA} perf report (schema {schema}); rerun "
                     f"its bench")
        for key, value in report["metrics"].items():
            if key in owner:
                sys.exit(f"check_perf: metric '{key}' is in both "
                         f"'{owner[key]}' and '{path}'")
            metrics[key], owner[key] = value, path
    return metrics


def floor_of(entry):
    """(floor, requires) of a baseline entry: a plain number, or
    {"floor": F, "requires": {key: value}}."""
    if isinstance(entry, dict):
        return entry["floor"], entry.get("requires", {})
    return entry, {}


def precondition(requires, current):
    """None when every required key has its value; otherwise why
    not, and whether a key is missing from every report."""
    for key, want in sorted(requires.items()):
        if key not in current:
            return f"needs {key} == {want}; no report has it", True
        if current[key] != want:
            return f"needs {key} == {want}", False
    return None


def main():
    parser = argparse.ArgumentParser(
        description="perf regression gate over bench perf reports")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("reports", nargs="+", metavar="REPORT",
                        help="perf reports the benches wrote")
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help="allowed fractional regression (default: the "
             "baseline's own tolerance field, else 0.25)")
    parser.add_argument(
        "--update", action="store_true",
        help="refresh the baseline's floors from the reports "
             "instead of checking")
    args = parser.parse_args()

    current = union_of(args.reports)
    baseline = load_json(args.baseline, "baseline")
    floors = baseline.get("metrics") if isinstance(baseline, dict) else None
    if not isinstance(floors, dict) or not floors:
        sys.exit(f"check_perf: baseline '{args.baseline}' has no "
                 f"'metrics' object; see bench/perf_baseline.json")

    if args.update:
        for key, entry in floors.items():
            unmet = precondition(floor_of(entry)[1], current)
            if key not in current or unmet:
                why = unmet[0] if unmet else "is in no report"
                print(f"note: {key} {why}; keeping its committed "
                      f"floor")
            elif isinstance(entry, dict):
                entry["floor"] = round(current[key], 3)
            else:
                floors[key] = round(current[key], 3)
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"updated {args.baseline} from {len(args.reports)} "
              f"report(s)")
        return 0

    tolerance = args.tolerance
    if tolerance is None:
        tolerance = baseline.get("tolerance", 0.25)
    lower_is_better = set(baseline.get("lower_is_better", []))

    failures = 0
    width = max(len(k) for k in floors)
    print(f"perf gate: tolerance {tolerance:.0%}")
    for key, entry in sorted(floors.items()):
        floor, requires = floor_of(entry)
        unmet = precondition(requires, current)
        if unmet and unmet[1]:
            failures += 1
            print(f"  {key:<{width}}  MISSING precondition ({unmet[0]})")
            continue
        if unmet:
            print(f"  {key:<{width}}  SKIPPED ({unmet[0]})")
            continue
        have = current.get(key)
        if have is None:
            failures += 1
            print(f"  {key:<{width}}  MISSING from every report")
            continue
        if key in lower_is_better:
            allowed, direction = floor * (1.0 + tolerance), "<="
            ok = have <= allowed
        else:
            allowed, direction = floor * (1.0 - tolerance), ">="
            ok = have >= allowed
        failures += not ok
        print(f"  {key:<{width}}  baseline {floor:12.3f}  "
              f"current {have:12.3f}  ({have / floor:6.2f}x, "
              f"want {direction} {allowed:.3f})  "
              f"{'ok' if ok else 'REGRESSED'}")

    untracked = len(set(current) - set(floors))
    print(f"  ({untracked} reported metric(s) have no floor)")

    if failures:
        print(f"FAIL: {failures} metric(s) missing or regressed more "
              f"than {tolerance:.0%} beyond baseline")
        return 1
    print("PASS: no tracked metric regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
