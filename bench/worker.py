"""Run one workload in this process and write its raw result as JSON.

Started by ``run.py``, one process per set-up or timed phase, so that the
peak resident set belongs to that workload alone.  Set-up is everything
from process start to the first timed op: imports, inputs, and one
untimed warm-up op.  The timed phase is a closed loop, one op after
another, until ``--seconds`` have passed, at least ``--min-ops`` ops have
run and the last cycle is whole (or twice ``--seconds`` have passed).  With
``--trace 1`` every op runs twice, untraced and traced.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy as np

import shockline
import tracing
import workloads


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--min-ops", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() in the parent just before this process started")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    wl.warm_up()
    if tracer is not None:
        tracer.reset()
    t_first = time.monotonic()
    result = {
        "setup_s": t_first - args.spawned,
        "numpy": np.__version__,
        "shockline": os.path.dirname(os.path.abspath(shockline.__file__)),
    }
    if args.setup_only:
        wl.close()
        return _write(args.result, result)

    latencies, plain, failures, counts = [], [], [], {}
    min_ops = max(args.min_ops, wl.window)
    hard_stop = 2.0 * args.seconds
    t_start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - t_start
        if elapsed >= hard_stop or (
            elapsed >= args.seconds and i >= min_ops and i % wl.cycle == 0
        ):
            break
        if tracer is None:
            op_counts = _timed_op(wl, i, latencies, failures)
        else:
            # the same op untraced and traced, alternating which goes first
            for traced in ((True, False) if i % 2 == 0 else (False, True)):
                tracer.enabled = traced
                if traced:
                    span = tracer.begin_op(i)
                    op_counts = _timed_op(wl, i, latencies, failures)
                    tracer.finish(span)
                else:
                    _timed_op(wl, i, plain, failures)
        if i < wl.window and op_counts is not None:
            for key, value in op_counts.items():
                counts[key] = counts.get(key, 0) + value
        i += 1
    elapsed = time.perf_counter() - t_start
    wl.close()

    result.update(
        ops=i,
        elapsed_s=elapsed,
        latencies_ms=[1e3 * t for t in latencies],
        failed=len(failures),
        failures=failures[:10],
        window=wl.window,
        window_complete=i >= wl.window,
        counts=counts,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        result["untraced_latencies_ms"] = [1e3 * t for t in plain]
        result["layers"] = tracing.layer_metrics(tracer, i, wl.window)
        if args.spans:
            tracer.save(args.spans)
    return _write(args.result, result)


def _timed_op(wl, i: int, latencies: list, failures: list):
    """Run op ``i``; record its latency, and its failure if it fails."""
    t0 = time.perf_counter()
    try:
        op_counts = wl.op(i)
    except workloads.CheckError as exc:
        op_counts = None
        failures.append(f"op {i}: {exc}")
    except Exception as exc:  # an op that raises counts as failed; keep going
        op_counts = None
        failures.append(f"op {i}: {type(exc).__name__}: {exc}")
    latencies.append(time.perf_counter() - t0)
    return op_counts


def _write(path: str, result: dict) -> int:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
