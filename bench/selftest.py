"""Fast self-tests of the benchmark: corrupted outputs must count as failed
ops, and self times must partition span time.

    python3 bench/selftest.py

Run from the root of a source checkout.  The file name keeps these tests
out of a plain ``pytest`` run of the repository; they finish in seconds.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from shockline.front_tracking import StepFunction  # noqa: E402


def run_op(wl, i):
    """One op through the worker's own accounting: (failed?, counts)."""
    latencies, failures = [], []
    counts = worker._timed_op(wl, i, latencies, failures)
    return len(failures) == 1, counts


class CorruptedOutputsFail(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="bench-selftest-")

    def tearDown(self):
        import shutil
        shutil.rmtree(self.tmp, ignore_errors=True)

    def test_fine_solve(self):
        wl = workloads.FineSolve(0, self.tmp)
        failed, counts = run_op(wl, 1)
        self.assertFalse(failed)
        self.assertIn("l12.events", counts)

        def shift_one_value(out):
            s = out["slices"][0]
            vals = s.values.copy()
            vals[len(vals) // 2] += 2.0 ** -12
            out["slices"][0] = StepFunction(s.breakpoints, vals)

        wl.corrupt = shift_one_value
        self.assertTrue(run_op(wl, 1)[0])

        def reverse_track(out):
            out["track"].times = out["track"].times[::-1].copy()

        wl.corrupt = reverse_track
        self.assertTrue(run_op(wl, 1)[0])

    def test_fine_solve_repeat_with_other_counts_fails(self):
        wl = workloads.FineSolve(0, self.tmp)
        self.assertFalse(run_op(wl, 0)[0])
        wl.seen[0] = dict(wl.seen[0], **{"track.nodes": -1})
        self.assertTrue(run_op(wl, 0)[0])

    def test_pcn_posterior(self):
        wl = workloads.PcnPosterior(0, self.tmp)
        wl.chain_length = 4
        self.assertFalse(run_op(wl, 0)[0])

        def nan_potential(out):
            out["run"].potentials[2] = np.nan

        wl.corrupt = nan_potential
        self.assertTrue(run_op(wl, 0)[0])

    def test_cli_roundtrip(self):
        wl = workloads.CliRoundtrip(0, self.tmp)
        try:
            failed, counts = run_op(wl, 0)  # solve, first cycle: the reference
            self.assertFalse(failed)
            self.assertGreater(counts["config.bytes_written"], 0)
            self.assertFalse(run_op(wl, 0)[0])  # same config again: identical bytes

            def flip_one_byte(out):
                name = sorted(out["artifacts"])[0]
                data = bytearray(out["artifacts"][name])
                data[len(data) // 2] ^= 1
                out["artifacts"][name] = bytes(data)

            wl.corrupt = flip_one_byte
            self.assertTrue(run_op(wl, 0)[0])

            def check_failed(out):
                out["code"] = 4

            wl.corrupt = check_failed
            self.assertTrue(run_op(wl, 4)[0])  # synth, first cycle
        finally:
            wl.close()


class SelfTime(unittest.TestCase):
    def test_self_times_partition_the_root(self):
        tr = tracing.Tracer()
        inner = tracing._wrap(tr, "front_tracking.inner", lambda: time.sleep(0.01))

        def outer_fn():
            inner()
            time.sleep(0.01)
            inner()

        outer = tracing._wrap(tr, "flux.outer", outer_fn)
        op = tr.begin_op(0)
        outer()
        tr.finish(op)
        sp = tr.arrays()
        self.assertAlmostEqual(float(np.sum(sp["self"])), float(sp["dur"][0]), places=9)
        m = tracing.layer_metrics(tr, n_ops=1, window=1)
        self.assertAlmostEqual(m["share.flux"] + m["share.front_tracking"] + m["share.bench"],
                               1.0, places=9)
        self.assertGreater(m["share.front_tracking"], m["share.flux"])

    def test_disabled_wrapper_records_nothing(self):
        tr = tracing.Tracer()
        fn = tracing._wrap(tr, "flux.f", lambda x: x + 1)
        tr.enabled = False
        self.assertEqual(fn(1), 2)
        self.assertEqual(len(tr.start), 0)


if __name__ == "__main__":
    unittest.main()
