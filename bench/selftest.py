"""Self-test of the benchmark's gate and tracing.

    python3 bench/selftest.py

Takes about 15 s: three pipeline calls on one 10x20 dataset.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import unittest
from pathlib import Path

# Pinned as run.py pins them, before NumPy is imported.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

# workload puts the checkout's src/ on sys.path, so it is imported first.
from workload import COUNT_KEYS, ROOT, SELF_TIME_TOL, Runner  # noqa: E402, I001

import gate  # noqa: E402
import hostspeed  # noqa: E402
import numpy as np  # noqa: E402
from tracing import Span, replaced, self_times  # noqa: E402


class GateChecks(unittest.TestCase):
    def test_distance_invariants(self):
        good = np.array([[0.0, 1.0], [1.0, 0.0]])
        self.assertEqual(gate.check_distances(good, 3, 6), [])
        self.assertTrue(gate.check_distances(np.array([[0.0, 1.0], [1.5, 0.0]]), 3, 6))
        self.assertTrue(gate.check_distances(np.array([[0.1, 1.0], [1.0, 0.0]]), 3, 6))
        self.assertTrue(gate.check_distances(good * 6.0, 3, 6))  # above 2n - 2n/m = 5
        self.assertTrue(gate.check_dominates(good, good * 2.0))
        self.assertEqual(gate.check_dominates(good * 2.0, good), [])

    def test_stress_trace(self):
        self.assertEqual(gate.check_stress_trace([3.0, 2.0, 2.0, 1.0]), [])
        self.assertTrue(gate.check_stress_trace([3.0, 2.0, 2.5]))


class HostSpeed(unittest.TestCase):
    def test_each_time_is_taken_at_the_reference_speed(self):
        # Calls of 2, 2 and 1.5 s while a unit took 2, 1 and 0.5 UNIT_S are
        # 1, 2 and 3 s at the reference speed; the median is 2 s.
        unit = hostspeed.UNIT_S
        got = hostspeed.at_reference_speed([2.0, 2.0, 1.5], [2 * unit, unit, unit / 2])
        self.assertAlmostEqual(got, 2.0, places=12)
        with self.assertRaises(ValueError):
            hostspeed.at_reference_speed([1.0, 2.0], [unit])

    def test_bracket_averages_the_samples_around_a_call(self):
        bracket = hostspeed.Bracket(1)
        before = bracket.last
        wall, cpu = bracket.after(0.0)
        self.assertEqual(wall, (before[0] + bracket.last[0]) / 2.0)
        self.assertEqual(cpu, (before[1] + bracket.last[1]) / 2.0)
        self.assertGreater(wall, 0.0)


class SelfTimes(unittest.TestCase):
    def test_children_subtract_from_parent(self):
        spans = [
            (0, Span("pipeline.run", 0.0, 10.0, None, "r")),
            (1, Span("dataio.ingest", 1.0, 4.0, 0, "r")),
            (2, Span("dataio.read_dataset", 1.5, 3.0, 1, "r")),
            (3, Span("render.render_svg", 5.0, 6.0, 0, "r")),
        ]
        selfs = self_times(spans)
        self.assertEqual(selfs, {0: 6.0, 1: 1.5, 2: 1.5, 3: 1.0})
        self.assertEqual(sum(selfs.values()), 10.0)


class PipelineRun(unittest.TestCase):
    """Gate and trace on real artifacts of one pipeline-10x20 dataset."""

    @classmethod
    def setUpClass(cls):
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        cls.work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_out"))
        cls.runner = Runner("pipeline-10x20", 11, cls.work)
        cls.ds = cls.runner.make_dataset(0)
        cls.first = cls.runner.call(cls.ds)
        cls.traced = [cls.runner.call(cls.ds, traced=True) for _ in range(2)]

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def test_runs_pass_the_gate(self):
        self.assertIsNotNone(self.first, self.runner.problems)
        self.assertEqual(self.runner.failed, 0, self.runner.problems)
        self.assertEqual(len(self.ds.digests), 10)

    def test_flipped_byte_fails_the_gate(self):
        out = self.work / "flipped"
        sink: list = []
        with replaced(self.runner._replacements(sink, traced=False)):
            self.runner._invoke(self.ds, out)
        self.assertEqual(self.runner.gate(self.ds, out, sink), [])
        for name in sorted(self.ds.digests):
            path = out / name
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0x01
            original = path.read_bytes()
            path.write_bytes(bytes(data))
            problems = self.runner.gate(self.ds, out, sink)
            path.write_bytes(original)
            self.assertTrue(problems, f"a flipped byte in {name} passed the gate")
            self.assertIn(name, problems[0])
        shutil.rmtree(out)

    def test_self_times_add_up_to_the_traced_total(self):
        for sample in self.traced:
            spans = self.runner.tracer.run(sample["run_id"])
            root_idx, root = spans[0]
            self.assertIsNone(root.parent)
            selfs = self_times(spans)
            glue = selfs.pop(root_idx)
            self.assertLessEqual(abs(glue + sum(selfs.values()) - root.duration), SELF_TIME_TOL)
            metrics = self.runner.layer_metrics(sample["run_id"])
            self.assertEqual(metrics["pipeline.glue_s"], glue)

    def test_repeated_traced_runs_give_identical_counts(self):
        counts = [
            {k: self.runner.layer_metrics(s["run_id"])[k] for k in COUNT_KEYS}
            for s in self.traced
        ]
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0]["distance.pairs"], 171 * 170 // 2)
        self.assertGreater(counts[0]["embedding.iterations"], 0)


if __name__ == "__main__":
    unittest.main()
