#!/usr/bin/env python3
"""Perf regression gate over BENCH_perf.json.

Compares the tracked throughput metrics of a fresh bench_perf run
against the committed baseline (bench/perf_baseline.json) and fails
when any metric regresses beyond the tolerance. Most tracked
metrics are higher-is-better:

    current >= baseline * (1 - tolerance)

Metrics named in the baseline's "lower_is_better" list (memory
footprints such as driver_loop.peak_rss_mb) gate in the other
direction:

    current <= baseline * (1 + tolerance)

Additional producer files (bench_longrun writes its driver_loop
section to its own JSON so its RSS number is not polluted by the
bench_perf process) are overlaid with --merge.

Usage (the gate needs both producers — without --merge the
driver_loop floors report MISSING):
    tools/check_perf.py BENCH_perf.json bench/perf_baseline.json \
        --merge BENCH_longrun.json
    tools/check_perf.py BENCH_perf.json bench/perf_baseline.json \
        --merge BENCH_longrun.json --tolerance 0.25
    tools/check_perf.py BENCH_perf.json bench/perf_baseline.json \
        --merge BENCH_longrun.json \
        --update   # refresh the baseline floors from this run

--update refreshes only the metrics the current (merged) run
produced; floors owned by a producer that did not run are kept,
with a notice, so a bench_perf-only refresh cannot silently disarm
the bench_longrun gate.

Reproduce the CI perf job locally:
    cmake -B build-release -S . -G Ninja -DCMAKE_BUILD_TYPE=Release
    cmake --build build-release --target bench_perf bench_longrun
    (cd build-release && ./bench_perf)
    (cd build-release && ./bench_longrun --requests=200000 \
        --json=BENCH_longrun.json)
    python3 tools/check_perf.py build-release/BENCH_perf.json \
        bench/perf_baseline.json \
        --merge build-release/BENCH_longrun.json
"""

import argparse
import json
import sys


def tracked_metrics(perf):
    """Flatten the tracked metrics of a (merged) BENCH_perf dict."""
    metrics = {}
    if "cost_model" in perf:
        metrics["cost_model.speedup"] = perf["cost_model"]["speedup"]
    for name, value in perf.get("stage_exec", {}).items():
        metrics[f"stage_exec.{name}"] = value
    for name, value in perf.get("workload_gen", {}).items():
        metrics[f"workload_gen.{name}"] = value
    for name, value in perf.get("moe_draw", {}).items():
        metrics[f"moe_draw.{name}"] = value
    for sweep in perf.get("figure_sweeps", []):
        key = f"figure_sweeps.{sweep['name']}.stages_per_sec"
        metrics[key] = sweep["stages_per_sec"]
    driver = perf.get("driver_loop", {})
    for name in ("requests_per_sec", "peak_rss_mb"):
        if name in driver:
            metrics[f"driver_loop.{name}"] = driver[name]
    for section in ("fleet", "faults", "policies", "sessions"):
        values = perf.get(section, {})
        if "requests_per_sec" in values:
            metrics[f"{section}.requests_per_sec"] = (
                values["requests_per_sec"])
    cache = perf.get("prefix_cache", {})
    if "ops_per_sec" in cache:
        metrics["prefix_cache.ops_per_sec"] = cache["ops_per_sec"]
    return metrics


def load_json(path, role):
    """Load one producer/baseline file, dying with a single
    readable line (file and reason) instead of a traceback when it
    is missing or not JSON — the usual CI failure mode is a bench
    that never ran or wrote a truncated file."""
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


def main():
    parser = argparse.ArgumentParser(
        description="perf regression gate over BENCH_perf.json")
    parser.add_argument("current", help="BENCH_perf.json from bench_perf")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument(
        "--merge", action="append", default=[], metavar="JSON",
        help="overlay another producer's JSON (e.g. bench_longrun's "
             "driver_loop section) before checking")
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help="allowed fractional regression (default: the "
             "baseline's own tolerance field, else 0.25)")
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline's metrics from the current run "
             "instead of checking")
    args = parser.parse_args()

    perf = load_json(args.current, "current run")
    for extra in args.merge:
        merged = load_json(extra, "--merge file")
        if not isinstance(merged, dict):
            sys.exit(f"check_perf: --merge file '{extra}' must "
                     f"hold a JSON object of metric sections")
        perf.update(merged)
    current = tracked_metrics(perf)

    baseline = load_json(args.baseline, "baseline")
    if "metrics" not in baseline or not isinstance(
            baseline["metrics"], dict):
        sys.exit(f"check_perf: baseline '{args.baseline}' has no "
                 f"'metrics' object; see bench/perf_baseline.json")
    lower_is_better = set(baseline.get("lower_is_better", []))

    if args.update:
        # Refresh in place: update/add what this run measured, keep
        # floors owned by producers that did not run (dropping them
        # would silently disarm their gate).
        merged = dict(baseline.get("metrics", {}))
        merged.update({k: round(v, 3) for k, v in current.items()})
        for key in sorted(set(merged) - set(current)):
            print(f"note: {key} not in this run; keeping the "
                  f"committed floor (run its producer and --merge "
                  f"to refresh it)")
        baseline["metrics"] = merged
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"updated {args.baseline} from {args.current}")
        return 0

    tolerance = args.tolerance
    if tolerance is None:
        tolerance = baseline.get("tolerance", 0.25)

    failures = []
    width = max(len(k) for k in baseline["metrics"])
    print(f"perf gate: tolerance {tolerance:.0%}")
    for key, floor in sorted(baseline["metrics"].items()):
        have = current.get(key)
        if have is None:
            failures.append(key)
            print(f"  {key:<{width}}  MISSING from current run")
            continue
        if key in lower_is_better:
            allowed = floor * (1.0 + tolerance)
            ok = have <= allowed
        else:
            allowed = floor * (1.0 - tolerance)
            ok = have >= allowed
        direction = "<=" if key in lower_is_better else ">="
        status = "ok" if ok else "REGRESSED"
        print(f"  {key:<{width}}  baseline {floor:12.3f}  "
              f"current {have:12.3f}  ({have / floor:6.2f}x, "
              f"want {direction} {allowed:.3f})  {status}")
        if not ok:
            failures.append(key)

    extra = sorted(set(current) - set(baseline["metrics"]))
    for key in extra:
        print(f"  {key:<{width}}  untracked (add to baseline "
              f"via --update)")

    if failures:
        print(f"FAIL: {len(failures)} metric(s) regressed more "
              f"than {tolerance:.0%} beyond baseline")
        return 1
    print("PASS: no tracked metric regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
