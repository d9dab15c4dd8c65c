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


class GateCase(unittest.TestCase):
    """A temporary directory with the baseline, and the gate's run."""

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


class CheckPerfTest(GateCase):
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


LANE_FLOOR = {"floor": 80.0, "requires": {"moe_draw.lane_width": 8}}


class PreconditionTest(GateCase):
    """A floor that holds only where another report key has a value
    (the AVX-512 expert-draw floors need moe_draw.lane_width == 8)."""

    def setUp(self):
        super().setUp()
        baseline = dict(BASELINE)
        baseline["metrics"] = dict(BASELINE["metrics"],
                                   **{"moe_draw.mixtral_164": LANE_FLOOR})
        self.baseline = self.write("baseline.json", baseline)

    def draw_report(self, rate, **lane):
        return self.report("perf.json", **{"moe_draw.mixtral_164": rate},
                           **lane)

    def line(self, run):
        return next(l for l in run.stdout.splitlines()
                    if "moe_draw.mixtral_164" in l)

    def test_met_precondition_gates_the_floor(self):
        lane = {"moe_draw.lane_width": 8}
        run = self.gate(*self.reports(), self.draw_report(81.0, **lane))
        self.assertEqual(run.returncode, 0, run.stdout)
        self.assertTrue(self.line(run).endswith("ok"), run.stdout)
        run = self.gate(*self.reports(), self.draw_report(59.0, **lane))
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("REGRESSED", self.line(run))

    def test_unmet_precondition_skips_never_passes(self):
        run = self.gate(*self.reports(),
                        self.draw_report(1.0, **{"moe_draw.lane_width": 1}))
        self.assertEqual(run.returncode, 0, run.stdout)
        self.assertIn("SKIPPED (needs moe_draw.lane_width == 8)",
                      self.line(run))
        self.assertNotIn("ok", self.line(run))

    def test_missing_precondition_key_fails(self):
        run = self.gate(*self.reports(), self.draw_report(81.0))
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("MISSING precondition", self.line(run))
        self.assertIn("moe_draw.lane_width", self.line(run))

    def test_update_refreshes_only_a_met_floor(self):
        unmet = self.draw_report(1.0, **{"moe_draw.lane_width": 1})
        run = self.gate(*self.reports(), unmet, "--update")
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        with open(self.baseline, encoding="utf-8") as f:
            kept = json.load(f)["metrics"]["moe_draw.mixtral_164"]
        self.assertEqual(kept, LANE_FLOOR)
        met = self.draw_report(90.5, **{"moe_draw.lane_width": 8})
        run = self.gate(*self.reports(), met, "--update")
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        with open(self.baseline, encoding="utf-8") as f:
            updated = json.load(f)["metrics"]["moe_draw.mixtral_164"]
        self.assertEqual(updated, dict(LANE_FLOOR, floor=90.5))


if __name__ == "__main__":
    unittest.main()
