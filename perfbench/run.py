#!/usr/bin/env python3
"""The simulator benchmark: build, set up, measure, check.

Run from the repository root:

    python3 perfbench/run.py --workload moe-longrun --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The script configures and builds the standalone CMake project in
perfbench/ (Release) under $CARGO_TARGET_DIR, or .bench_build when it is
unset, then:

  1. runs the measuring program, which repeats the workload for
     --seconds and checks every repetition (see perfbench/README.md);
  2. with --trace 0, times the workload's one-time set-up SETUP_SAMPLES
     times, each in a fresh process, half before the measuring run and
     half after it, and takes the median (setup_s);
  3. prints the program's output, and as the last line one JSON object
     with the keys correct, attempted, failed and metrics.

With --trace 1 the metrics are the per-layer ones, and the spans of the
last traced repetition are written to <build dir>/trace-<workload>.json
(Chrome trace-event format).

Exit status: 0 when every repetition passed its checks, 1 when a check
failed or the build or a run did not complete (no result line then),
2 on bad arguments.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROJECT = os.path.join(ROOT, "perfbench")
SETUP_SAMPLES = 9
BUILD_TIMEOUT_S = 840
SETUP_TIMEOUT_S = 20
RUN_TIMEOUT_S = 140


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=timeout)
    except (OSError, subprocess.SubprocessError) as err:
        fail("build step failed: %s (%s)" % (" ".join(cmd), err))


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "engine.hh")):
        fail("simulator sources not found under %s/src" % ROOT)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", PROJECT, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"] + generator,
                   BUILD_TIMEOUT_S)
    jobs = str(min(os.cpu_count() or 1, 8))
    run_logged(["cmake", "--build", out, "--target", target, "-j", jobs],
               BUILD_TIMEOUT_S)
    return os.path.join(out, target)


def source_id():
    """Git commit when the checkout is a repository, else a hash of the
    sources the program is built from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=10)
            return "git:" + head.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(
                os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_program(cmd, timeout):
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))


def setup_samples(program, args, count):
    samples = []
    for _ in range(count):
        proc = run_program([program, "--workload", args.workload,
                            "--seed", str(args.seed), "--setup-only"],
                           SETUP_TIMEOUT_S)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 2 or \
                fields[0] != "setup_s":
            sys.stderr.write(proc.stderr)
            fail("set-up run failed")
        samples.append(float(fields[1]))
    return samples


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        tests = build("perfbench_tests")
        sys.exit(subprocess.run([tests]).returncode)
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    program = build("perfbench_run")
    # Half the set-up samples go before the measuring run and half
    # after it, so one slow stretch of a shared host cannot set them all.
    samples = []
    if args.trace == 0:
        samples += setup_samples(program, args, SETUP_SAMPLES // 2)

    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.trace == 1:
        cmd += ["--trace-out",
                os.path.join(build_dir(), "trace-%s.json" % args.workload)]
    proc = run_program(cmd, RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if args.trace == 0 and proc.returncode == 0:
        samples += setup_samples(program, args,
                                 SETUP_SAMPLES - len(samples))
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("\n".join(lines), file=sys.stderr)
        fail("the measuring program printed no result (exit %d)"
             % proc.returncode)

    for line in lines[:-1]:
        print(line)
    if args.trace == 0:
        setup_s = statistics.median(samples)
        print("setup samples: " + " ".join("%.4f" % s for s in samples))
        print("metric setup_s = %.6g s" % setup_s)
        result["metrics"] = dict(
            [("setup_s", {"value": setup_s, "unit": "s"})] +
            list(result["metrics"].items()))
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result.get("correct") else 1)


if __name__ == "__main__":
    main()
