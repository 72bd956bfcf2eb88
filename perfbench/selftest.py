"""Self-tests of the benchmark itself (not of interpolab).

    python3 perfbench/selftest.py

Checks that inputs follow the seed and open with a fixed op, that the
deterministic metrics repeat exactly between two runs with the same
seed, the self-time arithmetic of the tracer, the scaling of op times
by the calibration kernel, and that every metric name is well formed
and declared in BENCHMARK.json.
"""

import json
import os
import re
import shutil
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402
from calibration import REF_KERNEL_S, scaled  # noqa: E402
from tracing import self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
DETERMINISTIC = ("ops.failed_frac", "verify.window_max", "norm.relerr_max")


def _inputs(workload, seed):
    """The op list and the bytes of every generated file."""
    work = tempfile.mkdtemp(dir=os.path.join(run.ROOT, ".bench_work"))
    try:
        ops = workloads.generate(workload, seed, work)
        files = {}
        for d, _, names in os.walk(work):
            for n in names:
                p = os.path.join(d, n)
                with open(p, "rb") as fh:
                    files[os.path.relpath(p, work)] = fh.read()
        return ops, files
    finally:
        shutil.rmtree(work)


def _declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        b = json.load(fh)
    return ({m["name"]: m["unit"] for m in b["end_to_end"]},
            {m["name"]: m["unit"] for m in b["per_layer"]})


class Inputs(unittest.TestCase):
    def setUp(self):
        os.makedirs(os.path.join(run.ROOT, ".bench_work"), exist_ok=True)

    def test_same_seed_same_inputs(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(_inputs(w, 7), _inputs(w, 7), w)

    def test_other_seed_other_inputs(self):
        for w in workloads.WORKLOADS:
            self.assertNotEqual(_inputs(w, 7), _inputs(w, 8), w)

    def test_fixed_first_op(self):
        for w in workloads.WORKLOADS:
            firsts = {_inputs(w, seed)[0][0]["id"] for seed in (7, 8, 9)}
            self.assertEqual(len(firsts), 1, w)


class Calibration(unittest.TestCase):
    def test_scaled(self):
        r = REF_KERNEL_S
        # an op between kernels at reference speed keeps its time; one
        # between kernels 1x and 16x slow is scaled by 1 / sqrt(16)
        got = scaled([0.5, 2.0], [r, r, 16.0 * r])
        self.assertAlmostEqual(got[0], 0.5)
        self.assertAlmostEqual(got[1], 2.0 / 4.0)


class SelfTime(unittest.TestCase):
    def test_nested_tree(self):
        # 0 root [0,10]; 1 [1,4] and 2 [3,6] overlap; 3 [2,3] inside 1;
        # 4 [8,12] runs past its parent and is clipped to [8,10]
        start = [0.0, 1.0, 3.0, 2.0, 8.0]
        end = [10.0, 4.0, 6.0, 3.0, 12.0]
        parent = [-1, 0, 0, 1, 0]
        got = list(self_times(start, end, parent))
        self.assertEqual(got, [10.0 - 5.0 - 2.0, 3.0 - 1.0, 3.0, 1.0, 4.0])

    def test_leaves_only(self):
        self.assertEqual(list(self_times([0.0, 2.0], [1.0, 5.0], [-1, -1])),
                         [1.0, 3.0])


class Runs(unittest.TestCase):
    """Short traced runs on a few ops of each fine workload."""

    @classmethod
    def setUpClass(cls):
        cls.runs = {}
        for w, limit in (("oracle-fine", 4), ("norm-fine", 40)):
            cls.runs[w] = [run.run(w, 3, 0.1, True, limit=limit)
                           for _ in range(2)]

    def test_deterministic_metrics_repeat(self):
        for w, pair in self.runs.items():
            (m1, r1), (m2, r2) = pair
            self.assertEqual(m1["failed_ops"], m2["failed_ops"], w)
            for key, v in r1["metrics"].items():
                if key in DETERMINISTIC or key.endswith(".calls") \
                        or ".cuts_" in key or key.endswith(".builds"):
                    self.assertEqual(v, r2["metrics"][key], f"{w} {key}")

    def test_metric_names(self):
        _, per_layer = _declared()
        for w, pair in self.runs.items():
            metrics = pair[0][1]["metrics"]
            self.assertEqual(sorted(metrics), sorted(per_layer), w)
            for key, v in metrics.items():
                self.assertTrue(NAME.fullmatch(key), key)
                self.assertEqual(v["unit"], per_layer[key], key)

    def test_untraced_metric_names(self):
        end_to_end, _ = _declared()
        meta, result = run.run("norm-fine", 3, 0.1, False, limit=20)
        self.assertEqual(sorted(result["metrics"]), sorted(end_to_end))
        for key, v in result["metrics"].items():
            self.assertTrue(NAME.fullmatch(key), key)
            self.assertEqual(v["unit"], end_to_end[key], key)
            self.assertGreater(v["value"], 0, key)


if __name__ == "__main__":
    unittest.main()
