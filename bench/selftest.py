"""Self-tests of the benchmark itself, on seconds-long versions of the workloads.

    python3 bench/selftest.py

They check that a tiny run of every workload passes all its checks, that a
corrupted answer or a failing command counts as a failed op, and that a fixed
seed reproduces the instance files and the counts.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import unittest
from fractions import Fraction

import instances
import run

SEED = 7


def _prepare(workload: str, seed: int = SEED) -> run.Workload:
    return run.prepare(workload, seed, run.WORK / "selftest" / f"{workload}-{seed}", instances.TINY)


class BenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(run.ROOT)
        cls.lib = instances.import_library()
        cls.ready = {w: _prepare(w) for w in instances.WORKLOADS}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(run.WORK / "selftest", ignore_errors=True)

    def test_tiny_run_of_every_workload_passes(self):
        for workload, wl in self.ready.items():
            with self.subTest(workload=workload):
                self.assertTrue(wl.files_reproduced)
                first = run.run_batch(wl.main, wl.ops, wl.refs)
                second = run.run_batch(wl.main, wl.ops, wl.refs)
                self.assertEqual(first.failures, [])
                self.assertEqual(first.counts, second.counts)
                self.assertEqual(first.digest, second.digest)
                self.assertEqual({op.kind for op in wl.ops}, {
                    "reduction-exact": {"exact", "threshold", "lk", "equiv", "pa-witness"},
                    "cyclic-bounded": {"bounded", "equiv"},
                    "acyclic-sample": {"sample"},
                }[workload])

    def test_traced_batch_reports_every_layer_and_restores_the_library(self):
        wl = self.ready["cyclic-bounded"]
        original = self.lib.floatk.fp_mul
        tracer = run.Tracer()
        tracer.install()
        try:
            batch = run.run_batch(wl.main, wl.ops, wl.refs, tracer)
        finally:
            tracer.uninstall()
        self.assertIs(self.lib.floatk.fp_mul, original)
        self.assertEqual(batch.failures, [])
        metrics = tracer.metrics()
        self.assertGreater(metrics["floatk.fp_mul_calls"], 0)
        self.assertGreater(metrics["approx.self_s"], 0)
        self.assertEqual(metrics["model.word_probability_calls"], 0)
        roots = [s for s in tracer.spans if s[4] is None]
        self.assertEqual(len(roots), len(wl.ops))

    def _failed_ops(self, workload: str, corrupt) -> tuple[int, int]:
        """(ops failed, ops corrupted) when ``corrupt`` rewrites answers."""
        corrupted = []

        def tamper(op, text):
            payload = json.loads(text)
            if corrupt(op, payload["results"]):
                corrupted.append(op.op_id)
            return json.dumps(payload)

        wl = self.ready[workload]
        batch = run.run_batch(wl.main, wl.ops, wl.refs, tamper=tamper)
        return batch.failed, len(corrupted)

    def test_estimate_shifted_by_eps_fails(self):
        def shift(op, res):
            ref = self.ready["acyclic-sample"].refs[op.instance].distance
            est = Fraction(res["estimate"]["rational"])
            est += op.params["eps"] if est >= ref else -op.params["eps"]
            res["estimate"]["rational"] = str(est)
            return True

        failed, corrupted = self._failed_ops("acyclic-sample", shift)
        self.assertGreater(corrupted, 0)
        self.assertEqual(failed, corrupted)

    def test_flipped_decisions_fail(self):
        def flip(op, res):
            for key in ("decision", "equivalent"):
                if key in res:
                    res[key] = not res[key]
                    return True
            if res.get("witness") is not None:
                res["witness"] = None
                return True
            return False

        for workload in ("reduction-exact", "cyclic-bounded"):
            with self.subTest(workload=workload):
                failed, corrupted = self._failed_ops(workload, flip)
                self.assertGreater(corrupted, 0)
                self.assertEqual(failed, corrupted)

    def test_times_are_scaled_by_the_nearest_probes(self):
        slow, steady = 2 * run.REFERENCE_S, run.REFERENCE_S
        batch = run.Batch([1.0] * 8, [slow] * 4 + [steady] * 4, 0, {}, "")
        scaled = batch.scaled_op_times()
        self.assertAlmostEqual(scaled[0], 0.5)
        self.assertAlmostEqual(scaled[-1], 1.0)

    def test_nonzero_exit_fails(self):
        wl = self.ready["reduction-exact"]
        op = dataclasses.replace(wl.ops[0], argv=("exact", "missing.json", "x", "y", "--json"))
        batch = run.run_batch(wl.main, [op], wl.refs)
        self.assertEqual(batch.failed, 1)

    def test_fixed_seed_reproduces_files_and_counts(self):
        wl = self.ready["reduction-exact"]
        files = run.WORK / "selftest" / f"reduction-exact-{SEED}" / "setup0"
        before = run.tree_bytes(files)
        counts = run.run_batch(wl.main, wl.ops, wl.refs).counts
        again = _prepare("reduction-exact")
        self.assertEqual(run.tree_bytes(files), before)
        self.assertEqual(run.run_batch(again.main, again.ops, again.refs).counts, counts)
        _prepare("reduction-exact", SEED + 1)
        other = run.WORK / "selftest" / f"reduction-exact-{SEED + 1}" / "setup0"
        self.assertNotEqual(run.tree_bytes(other), before)


if __name__ == "__main__":
    unittest.main()
