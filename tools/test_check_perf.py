#!/usr/bin/env python3
"""Tests for the perf gate (tools/check_perf.py): it must pass on
complete reports and be able to fail.

Each case writes a baseline and reports into a temporary directory
and runs the gate as the CI perf job does.

Usage: python3 tools/test_check_perf.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "check_perf.py")

BASELINE = {
    "schema": 1,
    "tolerance": 0.25,
    "lower_is_better": ["driver_loop.peak_rss_mb"],
    "metrics": {
        "driver_loop.requests_per_sec": 100.0,
        "driver_loop.peak_rss_mb": 16.0,
        "fleet.requests_per_sec": 50.0,
    },
}


class CheckPerfTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.baseline = self.write("baseline.json", BASELINE)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, content):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(content, f)
        return path

    def report(self, name, **metrics):
        return self.write(name, {"schema": 2, "metrics": metrics})

    def reports(self, requests=100.0, rss=16.0, fleet=50.0):
        """The two reports the baseline floors, one per bench."""
        longrun = {"driver_loop.requests_per_sec": requests,
                   "driver_loop.peak_rss_mb": rss}
        return [self.report("longrun.json", **longrun),
                self.report("fleet.json",
                            **{"fleet.requests_per_sec": fleet})]

    def gate(self, *args):
        return subprocess.run(
            [sys.executable, GATE, self.baseline, *args],
            capture_output=True, text=True, check=False)

    def test_complete_reports_pass(self):
        run = self.gate(*self.reports())
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        self.assertIn("PASS", run.stdout)

    def test_missing_floored_key_fails(self):
        longrun, _ = self.reports()
        run = self.gate(longrun)
        self.assertEqual(run.returncode, 1)
        self.assertIn("fleet.requests_per_sec", run.stdout)
        self.assertIn("MISSING", run.stdout)

    def test_within_tolerance_passes(self):
        run = self.gate(*self.reports(requests=76.0, rss=19.9))
        self.assertEqual(run.returncode, 0, run.stdout)

    def test_below_floor_regresses(self):
        run = self.gate(*self.reports(requests=74.0))
        self.assertEqual(run.returncode, 1)
        self.assertRegex(run.stdout,
                         r"driver_loop.requests_per_sec .*REGRESSED")

    def test_above_lower_is_better_ceiling_regresses(self):
        run = self.gate(*self.reports(rss=20.1))
        self.assertEqual(run.returncode, 1)
        self.assertRegex(run.stdout,
                         r"driver_loop.peak_rss_mb .*REGRESSED")

    def test_key_in_two_reports_names_both_files(self):
        longrun, fleet = self.reports()
        again = self.report("again.json",
                            **{"fleet.requests_per_sec": 60.0})
        run = self.gate(longrun, fleet, again)
        self.assertEqual(run.returncode, 1)
        self.assertIn(fleet, run.stderr)
        self.assertIn(again, run.stderr)

    def test_schema_1_report_is_one_line_error(self):
        old = self.write("old.json", {
            "schema": 1, "fleet": {"requests_per_sec": 50.0}})
        run = self.gate(self.reports()[0], old)
        self.assertEqual(run.returncode, 1)
        self.assertEqual(len(run.stderr.strip().splitlines()), 1)
        self.assertIn(old, run.stderr)
        self.assertIn("schema 1", run.stderr)

    def test_update_refreshes_existing_floors_and_adds_none(self):
        longrun, _ = self.reports(requests=123.4567)
        extra = self.report("extra.json",
                            **{"fleet.requests_per_sec": 61.0,
                               "fleet.wall_sec": 2.5})
        run = self.gate(longrun, extra, "--update")
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        with open(self.baseline, encoding="utf-8") as f:
            updated = json.load(f)
        self.assertEqual(updated["metrics"], {
            "driver_loop.requests_per_sec": 123.457,
            "driver_loop.peak_rss_mb": 16.0,
            "fleet.requests_per_sec": 61.0,
        })
        self.assertEqual(updated["tolerance"], 0.25)
        self.assertEqual(updated["lower_is_better"],
                         BASELINE["lower_is_better"])


if __name__ == "__main__":
    unittest.main()
