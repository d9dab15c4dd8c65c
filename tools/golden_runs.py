#!/usr/bin/env python3
"""Deterministic runs whose stdout must not change.

One list of command lines over the simulator's binaries. Identical
seeds must give identical output, so every command's stdout (and
exit status) is diffed:

  --twice BUILD_DIR          run each command twice from one build
                             and diff the two outputs (CI job
                             `determinism`)
  --compare PARENT CHANGE    run each command once from each build
                             and diff the builds (a refactor that
                             must not move any output)

Each pass over the list runs in a fresh working directory, in list
order, so a command may read a file an earlier one wrote (the trace
save-then-replay pair). Exits 1 on any diff.

Usage: python3 tools/golden_runs.py --twice build-release
       python3 tools/golden_runs.py --compare parent/build build
"""

import difflib
import os
import shlex
import subprocess
import sys
import tempfile
import time

# (name, command line); the first word is a binary in the build dir.
RUNS = [
    ("split-closed-loop",
     "quickstart --system=duplex-split --batch=16 --stages=400 "
     "--lin=256 --lout=64"),
    ("split-open-loop",
     "quickstart --system=duplex-split --qps=4 --batch=16 "
     "--stages=2000 --lin=256 --lout=64"),
    ("fig16-registry-sweep", "bench_fig16_split"),
    ("trace-save",
     "quickstart --system=duplex --qps=4 --batch=16 --stages=1500 "
     "--lin=256 --lout=64 --save-trace=trace.csv"),
    ("trace-replay",
     "quickstart --system=duplex --trace=trace.csv --batch=16 "
     "--stages=1500"),
    ("bursty-open-loop",
     "quickstart --workload=bursty --batch=16 --stages=2500 "
     "--lin=256 --lout=64"),
    ("longrun-streaming", "bench_longrun --requests=50000"),
    ("fleet-least-loaded",
     "quickstart --fleet=4 --policy=least-loaded --qps=8 "
     "--stages=100000"),
    ("fleet-policy-sweep", "bench_fleet --requests=48"),
    ("fleet-random-faults",
     "quickstart --fleet=4 --policy=least-loaded --qps=8 --mtbf=1.5 "
     "--mttr=0.5 --straggler-frac=0.3"),
    ("fleet-domain-faults",
     "quickstart --fleet=4 --policy=domain-spread --qps=8 --domains=2 "
     "--domain-mtbf=3 --domain-mttr=0.5"),
    ("availability-sweep", "bench_faults --requests=48"),
    ("sched-priority-chunked",
     "quickstart --sched=priority --prefill-chunk=256 --qps=8"),
    ("sched-policy-sweep", "bench_policies --requests=48"),
    ("sched-priority-session-cache",
     "quickstart --workload=session --qps=4 --prefix-cache=512 "
     "--sched=priority --priority-frac=0.3 --batch=8"),
    ("session-fleet-cache",
     "quickstart --workload=session --qps=4 --prefix-cache=512 "
     "--evict=lru --fleet=2 --policy=session-affinity"),
    ("session-cache-sweep", "bench_sessions --requests=48"),
    ("fig11-throughput", "bench_fig11_throughput"),
    ("fig05-hetero", "bench_fig05_hetero"),
    ("fig14-bankpim", "bench_fig14_bankpim"),
    ("fig15-energy", "bench_fig15_energy"),
    ("ablation", "bench_ablation"),
    ("expert-skew", "expert_skew --batch=16"),
    ("dense-llama3-hetero",
     "quickstart --model=llama3 --system=hetero --batch=16 --stages=400 "
     "--lin=256 --lout=64"),
    ("list-systems", "quickstart --list-systems"),
    ("list-workloads", "quickstart --list-workloads"),
    ("list-policies", "quickstart --list-policies"),
    ("list-scheds", "quickstart --list-scheds"),
    ("list-evictions", "quickstart --list-evictions"),
]


def run_all(build_dir, label):
    """Run every command from @p build_dir; return {name: output}."""
    build_dir = os.path.abspath(build_dir)
    outputs = {}
    with tempfile.TemporaryDirectory(prefix="golden-") as cwd:
        for name, line in RUNS:
            argv = shlex.split(line)
            argv[0] = os.path.join(build_dir, argv[0])
            start = time.monotonic()
            proc = subprocess.run(argv, cwd=cwd, capture_output=True,
                                  text=True)
            outputs[name] = (proc.returncode, proc.stdout)
            print(f"  [{label}] {name}: exit {proc.returncode}, "
                  f"{time.monotonic() - start:.1f} s", flush=True)
    return outputs


def diff(a, b, a_label, b_label):
    """Print every command that failed or whose (exit, stdout)
    differs; return their count."""
    bad = 0
    for name, line in RUNS:
        if a[name] == b[name] and a[name][0] == 0:
            continue
        bad += 1
        print(f"{'DIFF' if a[name] != b[name] else 'FAILED'} {name}: "
              f"{line}")
        if a[name][0] != b[name][0]:
            print(f"  exit {a[name][0]} ({a_label}) vs "
                  f"{b[name][0]} ({b_label})")
        sys.stdout.writelines(difflib.unified_diff(
            a[name][1].splitlines(keepends=True),
            b[name][1].splitlines(keepends=True),
            fromfile=f"{name} ({a_label})",
            tofile=f"{name} ({b_label})", n=1))
    return bad


def main(argv):
    if len(argv) == 2 and argv[0] == "--twice":
        a = run_all(argv[1], "run 1")
        b = run_all(argv[1], "run 2")
        labels = ("run 1", "run 2")
    elif len(argv) == 3 and argv[0] == "--compare":
        a = run_all(argv[1], "parent")
        b = run_all(argv[2], "change")
        labels = ("parent", "change")
    else:
        print(__doc__, file=sys.stderr)
        return 2
    bad = diff(a, b, *labels)
    print(f"{len(RUNS) - bad}/{len(RUNS)} runs identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
