#!/usr/bin/env python3
"""Tests for the golden-run hashes (tools/golden_runs.py --record and
--check): a check must pass on the recorded outputs and be able to
fail.

Each case builds a fake build directory of shell scripts, one per
binary the runs name, each printing its name and arguments, records
their hashes and runs the check as the CI golden job does. It runs a
copy of golden_runs.py in a temporary directory, so the hashes file
the copy reads and writes is a temporary one.

Usage: python3 tools/test_golden_runs.py
"""

import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(TOOLS, "golden_runs.py")
sys.path.insert(0, TOOLS)
from golden_runs import RUNS  # noqa: E402


class GoldenCase(unittest.TestCase):
    """A fake build directory, its recorded hashes, and the check."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.script = shutil.copy(SCRIPT, self.tmp.name)
        self.hashes = os.path.join(self.tmp.name, "golden_hashes.txt")
        self.build = os.path.join(self.tmp.name, "build")
        os.mkdir(self.build)
        for binary in {shlex.split(line)[0] for _, line in RUNS}:
            self.fake(binary)
        self.compiler("12.2.0")
        run = self.golden("--record")
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)

    def tearDown(self):
        self.tmp.cleanup()

    def fake(self, binary, body='echo "$(basename "$0") $*"'):
        path = os.path.join(self.build, binary)
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"#!/bin/sh\n{body}\n")
        os.chmod(path, 0o755)

    def compiler(self, version):
        """Configure the fake build as CMake does, with g++ @p version."""
        path = os.path.join(self.build, "CMakeFiles", "3.25.1")
        os.makedirs(path, exist_ok=True)
        with open(os.path.join(path, "CMakeCXXCompiler.cmake"), "w",
                  encoding="utf-8") as f:
            f.write('set(CMAKE_CXX_COMPILER "/usr/bin/c++")\n'
                    'set(CMAKE_CXX_COMPILER_ID "GNU")\n'
                    f'set(CMAKE_CXX_COMPILER_VERSION "{version}")\n')

    def golden(self, mode):
        return subprocess.run(
            [sys.executable, self.script, mode, self.build],
            capture_output=True, text=True, check=False)


class GoldenRunsTest(GoldenCase):
    def test_recorded_outputs_pass(self):
        run = self.golden("--check")
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        self.assertIn(f"{len(RUNS)}/{len(RUNS)} runs match", run.stdout)

    def test_toolchain_then_one_line_per_run(self):
        with open(self.hashes, encoding="utf-8") as f:
            lines = f.readlines()
        self.assertTrue(lines[0].startswith("# toolchain GNU 12.2.0 "),
                        lines[0])
        self.assertEqual([line.split()[0] for line in lines[1:]],
                         [name for name, _ in RUNS])

    def test_other_compiler_is_refused(self):
        self.compiler("12.3.0")
        self.fake("bench_ablation", 'echo "bench_ablation $*."')
        run = self.golden("--check")
        self.assertEqual(run.returncode, 2)
        self.assertIn("REFUSED", run.stdout)
        self.assertIn("GNU 12.3.0", run.stdout)
        self.assertNotIn("MOVED", run.stdout)

    def test_record_needs_a_configured_build(self):
        shutil.rmtree(os.path.join(self.build, "CMakeFiles"))
        run = self.golden("--record")
        self.assertEqual(run.returncode, 2)
        self.assertIn("not a configured CMake build directory", run.stdout)

    def test_changed_byte_fails(self):
        self.fake("bench_ablation", 'echo "bench_ablation $*."')
        run = self.golden("--check")
        self.assertEqual(run.returncode, 1)
        self.assertIn("MOVED ablation", run.stdout)
        self.assertNotIn("MOVED expert-skew", run.stdout)

    def test_changed_exit_status_fails(self):
        self.fake("expert_skew", 'echo "$(basename "$0") $*"; exit 3')
        run = self.golden("--check")
        self.assertEqual(run.returncode, 1)
        self.assertIn("MOVED expert-skew", run.stdout)
        self.assertIn("exit 3", run.stdout)

    def test_run_missing_from_file_fails(self):
        with open(self.hashes, encoding="utf-8") as f:
            lines = f.readlines()
        with open(self.hashes, "w", encoding="utf-8") as f:
            f.writelines(l for l in lines if not l.startswith("list-scheds "))
        run = self.golden("--check")
        self.assertEqual(run.returncode, 1)
        self.assertIn("MISSING list-scheds", run.stdout)


if __name__ == "__main__":
    unittest.main()
