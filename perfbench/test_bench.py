"""Tests of the benchmark itself.

    python3 perfbench/test_bench.py      # from the root of a checkout

The pure tests (tail percentile, metric names) need nothing; the program
tests build the repository under .bench_build/ first, as run.py does.
"""

import json
import os
import random
import re
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SWEEP_SMALL = run.ROOT / "examples" / "specs" / "sweep_small.json"


class TailPercentileTest(unittest.TestCase):
    def test_below_eleven_samples_there_is_no_tail(self):
        self.assertEqual(run.tail_percentile([3.0, 1.0, 2.0]), (1.0, 0.0))
        self.assertEqual(run.tail_percentile(list(range(10))), (0, 0.0))

    def test_eleven_samples(self):
        value, percentile = run.tail_percentile(list(range(11)))
        self.assertEqual(value, 0)
        self.assertAlmostEqual(percentile, 100 / 11)

    def test_twenty_samples_give_the_median(self):
        self.assertEqual(run.tail_percentile(list(range(20))), (9, 50.0))

    def test_thousand_samples_give_p99(self):
        values = list(range(1000))
        random.Random(7).shuffle(values)
        self.assertEqual(run.tail_percentile(values), (989, 99.0))

    def test_exactly_ten_samples_lie_beyond(self):
        for n in range(11, 80):
            rng = random.Random(n)
            values = [rng.random() for _ in range(n)]
            value, _ = run.tail_percentile(values)
            self.assertEqual(sum(v > value for v in values), 10, n)


class MetricNamesTest(unittest.TestCase):
    manifest = run.load_manifest()

    def test_names_and_units(self):
        names = [w["name"] for w in self.manifest["workloads"]]
        for kind in ("end_to_end", "per_layer"):
            for metric in self.manifest[kind]:
                names.append(metric["name"])
                self.assertRegex(metric["unit"], UNIT)
                self.assertIn(metric["better"], ("higher", "lower"))
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_workloads_match_run_py(self):
        self.assertEqual([w["name"] for w in self.manifest["workloads"]],
                         run.WORKLOADS)

    def test_setup_metric(self):
        setup = [m for m in self.manifest["end_to_end"]
                 if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(
            m["bound"] for m in self.manifest["end_to_end"]))

    def test_serve_layers_are_declared(self):
        declared = {m["name"] for m in self.manifest["per_layer"]}
        self.assertLessEqual(set(run.SERVE_LAYERS), declared)


class ProgramTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.tmp = tempfile.TemporaryDirectory(dir=run.BUILD)
        cls.dir = Path(cls.tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_replay_is_byte_identical_to_sweep_runner(self):
        out = run.check_output([run.PEF_BENCH, "replay", "--spec", SWEEP_SMALL,
                                "--threads", 4,
                                "--cache-dir", self.dir / "cache"])
        metrics = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(metrics["replay.identical"], 1)
        self.assertEqual(metrics["replay.cells"], 48)
        # Every per-layer metric outside the service comes from the replay.
        for metric in run.load_manifest()["per_layer"]:
            if metric["name"] not in run.SERVE_LAYERS:
                self.assertIn(metric["name"], metrics)

    def test_flipped_total_moves_digit_is_a_failure(self):
        expected = run.write_reference(SWEEP_SMALL, self.dir / "ref.json")
        out = self.dir / "out.json"
        _, _, ok = run.sweep_request(SWEEP_SMALL, out, expected)
        self.assertTrue(ok)
        # pef_sweep's own fault injection: one total_moves digit flipped.
        flip = dict(os.environ, PEF_FAULT_SPEC="flip=1")
        _, _, ok = run.sweep_request(SWEEP_SMALL, out, expected, env=flip)
        self.assertFalse(ok)


if __name__ == "__main__":
    unittest.main()
