#!/usr/bin/env python3
"""Tests for bench/check_gates.py and the gate table bench/gates.json.

    python3 bench/test_gates.py
"""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import check_gates  # noqa: E402

SPEEDUP = {"bench": "toy", "key": "speedup", "op": ">=", "value": 2.0,
           "why": "a numeric row"}
IDENTICAL = {"bench": "toy", "key": "identical", "op": "==", "value": True,
             "why": "a boolean row"}
SCALING = {"bench": "toy", "key": "scaling", "op": ">=", "value": 1.5,
           "min_physical_cores": 4, "why": "a row with a precondition"}


class CheckGatesTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.count = 0

    def report(self, bench="toy", cores=4, **summary):
        """Writes one BENCH file and returns its path."""
        self.count += 1
        path = os.path.join(self.tmp.name, f"BENCH_{self.count}.json")
        doc = {"bench": bench, "fingerprint": {"physical_cores": cores}}
        doc.update(summary)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def check(self, rows, paths):
        """(exit status, printed lines) of the checker over `rows`."""
        table = os.path.join(self.tmp.name, "gates.json")
        with open(table, "w") as f:
            json.dump(rows, f)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = check_gates.main(paths, table)
        return status, out.getvalue().splitlines()

    def test_pass_and_fail_below_the_bar(self):
        status, lines = self.check(
            [SPEEDUP], [self.report(speedup=s) for s in (2.0, 2.5, 3.0)])
        self.assertEqual(status, 0)
        self.assertTrue(lines[0].startswith("PASS"), lines)
        self.assertIn("median 2.5  min-max 2-3  n=3", lines[0])
        status, lines = self.check(
            [SPEEDUP], [self.report(speedup=s) for s in (1.9, 1.8, 3.0)])
        self.assertEqual(status, 1)
        self.assertTrue(lines[0].startswith("FAIL"), lines)

    def test_the_median_of_five_decides(self):
        one_low = [self.report(speedup=s) for s in (0.5, 2.1, 2.2, 2.3, 2.4)]
        status, lines = self.check([SPEEDUP], one_low)
        self.assertEqual(status, 0, lines)
        low_median = [self.report(speedup=s)
                      for s in (0.5, 0.6, 1.9, 2.3, 2.4)]
        status, lines = self.check([SPEEDUP], low_median)
        self.assertEqual(status, 1)
        self.assertIn("median 1.9", lines[0])

    def test_a_boolean_must_hold_in_every_file(self):
        paths = [self.report(identical=True) for _ in range(4)]
        paths.append(self.report(identical=False))
        status, lines = self.check([IDENTICAL], paths)
        self.assertEqual(status, 1)
        self.assertTrue(lines[0].startswith("FAIL"), lines)
        self.assertIn("holds in 4 of 5", lines[0])
        status, lines = self.check([IDENTICAL], paths[:4])
        self.assertEqual(status, 0, lines)

    def test_a_missing_or_null_metric_fails(self):
        for row in (SPEEDUP, IDENTICAL):
            good = {row["key"]: row["value"]}
            paths = [self.report(**good) for _ in range(4)]
            for broken in ({}, {row["key"]: None}, {row["key"]: "yes"}):
                status, lines = self.check(
                    [row], paths + [self.report(**broken)])
                self.assertEqual(status, 1, (row["key"], broken))
                self.assertIn("missing, null or mistyped in 1 of 5",
                              lines[0])
        # A boolean is not a number (true would clear a bar of 1), nor a
        # number a boolean.
        status, _ = self.check(
            [dict(SPEEDUP, value=1.0)],
            [self.report(speedup=True) for _ in range(3)])
        self.assertEqual(status, 1)
        status, _ = self.check(
            [IDENTICAL], [self.report(identical=1) for _ in range(3)])
        self.assertEqual(status, 1)

    def test_no_file_for_a_rows_bench_fails(self):
        other = [self.report(bench="other", speedup=3.0) for _ in range(3)]
        status, lines = self.check([SPEEDUP], other)
        self.assertEqual(status, 1)
        self.assertIn("no file for bench 'toy'", lines[0])
        status, lines = self.check([SPEEDUP], [])
        self.assertEqual(status, 1)

    def test_files_of_benches_without_rows_are_ignored(self):
        paths = [self.report(speedup=3.0) for _ in range(3)]
        paths.append(self.report(bench="other"))
        status, lines = self.check([SPEEDUP], paths)
        self.assertEqual(status, 0, lines)
        self.assertIn("n=3", lines[0])

    def test_one_or_two_files_skip_a_numeric_row(self):
        for count in (1, 2):
            paths = [self.report(speedup=0.1, identical=True)
                     for _ in range(count)]
            status, lines = self.check([SPEEDUP, IDENTICAL], paths)
            self.assertEqual(status, 0, lines)
            self.assertTrue(lines[0].startswith("SKIP"), lines)
            self.assertIn("needs >= 3 runs for a median", lines[0])
            self.assertTrue(lines[1].startswith("PASS"), lines)

    def test_the_physical_cores_precondition_skips_with_its_reason(self):
        paths = [self.report(cores=2, scaling=1.0) for _ in range(3)]
        status, lines = self.check([SCALING], paths)
        self.assertEqual(status, 0)
        self.assertTrue(lines[0].startswith("SKIP"), lines)
        self.assertIn("needs >= 4 physical cores, fingerprint has 2",
                      lines[0])
        paths = [self.report(cores=4, scaling=1.0) for _ in range(3)]
        status, lines = self.check([SCALING], paths)
        self.assertEqual(status, 1)
        # Without the fingerprint the precondition cannot be read.
        path = os.path.join(self.tmp.name, "BENCH_bare.json")
        with open(path, "w") as f:
            json.dump({"bench": "toy", "scaling": 2.0}, f)
        status, lines = self.check([SCALING], paths[:2] + [path])
        self.assertEqual(status, 1)
        self.assertIn("fingerprint has no physical_cores", lines[0])

    def test_a_file_that_is_not_a_report_fails(self):
        path = os.path.join(self.tmp.name, "BENCH_garbage.json")
        with open(path, "w") as f:
            f.write("{not json")
        paths = [self.report(speedup=3.0) for _ in range(3)]
        status, lines = self.check([SPEEDUP], paths + [path])
        self.assertEqual(status, 1)
        self.assertTrue(lines[0].startswith("FAIL  " + path), lines)

    def test_exit_status_of_the_script(self):
        script = os.path.join(HERE, "check_gates.py")
        status = subprocess.run([sys.executable, script],
                                capture_output=True).returncode
        self.assertEqual(status, 1)
        status = subprocess.run(
            [sys.executable, script, os.path.join(HERE, "..",
                                                  "BENCH_scaling.json")],
            capture_output=True).returncode
        self.assertEqual(status, 0)


class GateTableTest(unittest.TestCase):
    def setUp(self):
        with open(check_gates.TABLE) as f:
            self.rows = json.load(f)

    def test_every_row_is_well_formed(self):
        allowed = {"bench", "key", "op", "value", "min_physical_cores", "why"}
        for row in self.rows:
            self.assertLessEqual(set(row), allowed, row)
            self.assertIn(row["op"], check_gates.OPS, row)
            if isinstance(row["value"], bool):
                self.assertEqual(row["op"], "==", row)
            else:
                self.assertTrue(check_gates.is_number(row["value"]), row)
            self.assertTrue(row["why"].strip(), row)

    def test_every_key_is_in_the_checked_in_report(self):
        # Drift between the table and bench_scaling fails here.
        with open(os.path.join(HERE, "..", "BENCH_scaling.json")) as f:
            report = json.load(f)
        for row in self.rows:
            self.assertEqual(row["bench"], report["bench"], row)
            self.assertIn(row["key"], report, row)
            if isinstance(row["value"], bool):
                self.assertIsInstance(report[row["key"]], bool, row)
            else:
                self.assertTrue(check_gates.is_number(report[row["key"]]),
                                row)


if __name__ == "__main__":
    unittest.main()
