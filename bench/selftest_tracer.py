"""Self-tests of the benchmark's tracer, on real forked CLI operations.

Run from the repository root:

    python3 bench/selftest_tracer.py

The file name keeps these out of the repository's own pytest run; pass the
file to pytest explicitly to run them there.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from ops import run_op  # noqa: E402
from tracer import LAYER_METRICS, NAMES, load_spans, op_summary, self_times  # noqa: E402
from workloads import make_ops  # noqa: E402


def _op(workload: str, name: str):
    return next(op for op in make_ops(workload, 7, "p") if op.name == name)


class TracerSelfTest(unittest.TestCase):
    def setUp(self):
        os.makedirs(os.path.join(ROOT, run.WORK_DIR), exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, run.WORK_DIR))
        os.mkdir(os.path.join(self.dir, "p"))

    def tearDown(self):
        shutil.rmtree(self.dir)

    def traced(self, workload: str, name: str, tag: str):
        op = _op(workload, name)
        spans_path = os.path.join(self.dir, f"{tag}.spans.npz")
        r = run_op(list(op.argv), self.dir, f"p/{tag}", spans_path)
        self.assertEqual(r.exit_code, 0, f"{op.argv} failed")
        return r, load_spans(spans_path)

    def test_from_import_binding_is_counted(self):
        # pathfind calls trial_rng through its own `from .walks import` name
        _, spans = self.traced("walk-streams", "path1", "path")
        s = op_summary(spans)
        step1, step2, _ = s["pathfind.find_path.counts"]
        self.assertGreater(step1 + step2, 0)
        self.assertEqual(s["walks.trial_rng.calls"], step1 + step2)
        self.assertEqual(s["pathfind.find_path.calls"], 1)

    def test_self_times_sum_to_traced_wall_time(self):
        r, spans = self.traced("walk-streams", "path1", "path")
        roots = spans["parent"] < 0
        self.assertEqual(int(roots.sum()), 1)
        self.assertEqual(NAMES[int(spans["name"][roots][0])], "cli.main")
        wall = float((spans["end"] - spans["start"])[roots][0])
        self.assertAlmostEqual(float(self_times(spans).sum()), wall, delta=1e-9 * len(NAMES))
        self.assertLessEqual(wall, r.wall_s)

    def test_counts_repeat_for_one_seed(self):
        def counts(tag):
            totals = {}
            for workload, name in (("walk-streams", "path2"), ("isogeny-cap", "dlpdemo")):
                s = op_summary(self.traced(workload, name, f"{tag}-{name}")[1])
                totals.update({k: v for k, v in s.items() if k.endswith((".calls", ".counts"))})
            return totals

        first = counts("a")
        self.assertGreater(first["ecgraph.curve.calls"], 0)
        self.assertGreater(first["fppoly.poly_divmod.calls"], 0)
        self.assertEqual(first, counts("b"))

    def test_benchmark_json_matches_the_harness(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
                         LAYER_METRICS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
