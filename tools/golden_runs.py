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
  --record BUILD_DIR         run each command once and write the
                             build's toolchain, then each run's name,
                             exit status and the SHA-256 of its
                             stdout, to tools/golden_hashes.txt
  --check BUILD_DIR          run each command once and name every
                             run whose exit status or stdout hash
                             differs from tools/golden_hashes.txt, or
                             that it lacks (CI job `golden`); refuses,
                             exit 2, a build whose toolchain differs
                             from the recorded one

Each pass over the list runs in a fresh working directory, in list
order, so a command may read a file an earlier one wrote (the trace
save-then-replay pair). Exits 1 on any diff.

The hashes hold only for the toolchain they were recorded with: the
figure and energy runs print doubles computed through libm, whose
last bits may differ between compiler or C library versions. So the
file's first line names the compiler (as CMake found it when it
configured the build directory) and the running glibc, and --check
compares those before it runs anything rather than report a false
MOVED.

Usage: python3 tools/golden_runs.py --twice build-release
       python3 tools/golden_runs.py --compare parent/build build
       python3 tools/golden_runs.py --check build-release
"""

import difflib
import glob
import hashlib
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


HASHES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_hashes.txt")


def digests(outputs):
    """{name: (exit status, SHA-256 of stdout)} of run_all's outputs."""
    return {name: (status, hashlib.sha256(out.encode()).hexdigest())
            for name, (status, out) in outputs.items()}


def toolchain(build_dir):
    """`CXX_ID VERSION glibc VERSION` of @p build_dir's compiler and
    the running C library, or None outside a configured CMake build
    directory."""
    found = glob.glob(os.path.join(build_dir, "CMakeFiles", "*",
                                   "CMakeCXXCompiler.cmake"))
    if not found:
        return None
    fields = {}
    with open(found[0], encoding="utf-8") as f:
        for line in f:
            for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                if line.startswith(f'set({key} "'):
                    fields[key] = line.split('"')[1]
    libc = os.confstr("CS_GNU_LIBC_VERSION") or "libc unknown"
    return (f"{fields.get('CMAKE_CXX_COMPILER_ID', '?')} "
            f"{fields.get('CMAKE_CXX_COMPILER_VERSION', '?')} {libc}")


TOOLCHAIN = "# toolchain "


def record(build_dir):
    """Write the toolchain line and one `name exit sha256` line per
    run to HASHES."""
    tools = toolchain(build_dir)
    if tools is None:
        print(f"{build_dir} is not a configured CMake build directory")
        return 2
    got = digests(run_all(build_dir, "record"))
    with open(HASHES, "w", encoding="utf-8") as f:
        f.write(f"{TOOLCHAIN}{tools}\n")
        for name, _ in RUNS:
            f.write(f"{name} {got[name][0]} {got[name][1]}\n")
    print(f"recorded {len(RUNS)} runs ({tools}) in {HASHES}")
    return 0


def check(build_dir):
    """Name every run whose exit status or hash moved from HASHES, or
    that HASHES lacks; return 1 if any, 2 (running nothing) if the
    build's toolchain is not the recorded one."""
    recorded = None
    want = {}
    with open(HASHES, encoding="utf-8") as f:
        for line in f:
            if line.startswith(TOOLCHAIN):
                recorded = line[len(TOOLCHAIN):].strip()
                continue
            name, status, digest = line.split()
            want[name] = (int(status), digest)
    tools = toolchain(build_dir)
    if tools != recorded:
        print(f"REFUSED: {HASHES} was recorded with {recorded}, "
              f"{build_dir} has {tools}.\nA moved hash would not tell "
              "a changed output from a changed libm; check with the "
              "recorded toolchain, or re-record on purpose.")
        return 2
    got = digests(run_all(build_dir, "check"))
    bad = 0
    for name, line in RUNS:
        if name not in want:
            print(f"MISSING {name}: not in {HASHES}")
            bad += 1
        elif got[name] != want[name]:
            print(f"MOVED {name}: {line}\n  exit {want[name][0]} "
                  f"sha256 {want[name][1]} recorded\n  exit "
                  f"{got[name][0]} sha256 {got[name][1]} now")
            bad += 1
    print(f"{len(RUNS) - bad}/{len(RUNS)} runs match {HASHES} ({tools})")
    return 1 if bad else 0


def main(argv):
    if len(argv) == 2 and argv[0] in ("--record", "--check"):
        return (record if argv[0] == "--record" else check)(argv[1])
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
