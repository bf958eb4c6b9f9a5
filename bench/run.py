"""The shockline benchmark: one seeded workload per invocation.

    python3 bench/run.py --workload fine_solve --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the workload runs untraced and the end-to-end
metrics are reported: ops_per_s, op_p50_ms, op_p90_ms, setup_s (median of
several set-ups) and peak_rss_mb.  With ``--trace 1`` every op runs twice,
once untraced and once traced, and the per-layer metrics of the traced
runs are reported with the tracing overhead between the two.

Every op's outputs are checked.  The counts that must repeat exactly for a
seed are kept under ``.bench_out/counts`` per source hash; a later run of
the same code and seed with other counts is an error.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when every check held.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("fine_solve", "pcn_posterior", "cli_roundtrip")
# later performance claims must also hold on this seed, which is kept out
# of tuning
HELD_OUT_SEED = 20230727
SETUPS = 5  # set-ups per untraced run; setup_s is their median
BUDGET_S = 170.0  # the whole invocation ends within this

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def source_hash() -> str:
    """sha256 over the package and benchmark sources, by relative path."""
    h = hashlib.sha256()
    for base in (os.path.join(ROOT, "src", "shockline"), BENCH_DIR):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


class WorkerError(RuntimeError):
    pass


def spawn(args, deadline: float, tag: str, seconds: float, min_ops: int,
          setup_only: bool = False, trace: int = 0) -> dict:
    result = os.path.join(OUT_DIR, "tmp", f"{args.workload}-{args.seed}-{tag}-{os.getpid()}.json")
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--min-ops", str(min_ops), "--trace", str(trace),
        "--workdir", os.path.join(OUT_DIR, "tmp"), "--result", result,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--spans", os.path.join(OUT_DIR, "spans", f"{args.workload}-seed{args.seed}.npz")]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("SHOCKLINE_OUT", None)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError(f"no time left for the {tag} phase")
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{tag} phase did not finish in time") from exc
    if proc.returncode != 0 or not os.path.exists(result):
        raise WorkerError(f"{tag} phase exited with {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        data = json.load(fh)
    os.unlink(result)
    if os.path.commonpath([data["shockline"], os.path.join(ROOT, "src")]) != os.path.join(ROOT, "src"):
        raise WorkerError(f"imported shockline from {data['shockline']}, not from this checkout")
    return data


def end_to_end(run: dict, setups: list) -> dict:
    lat = run["latencies_ms"]
    return {
        "ops_per_s": run["ops"] / run["elapsed_s"],
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": statistics.quantiles(lat, n=10)[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def check_counts(args, code: str, kind: str, counts: dict) -> list:
    """Compare exact counts with an earlier run of the same code and seed."""
    path = os.path.join(OUT_DIR, "counts", code[:16], f"{args.workload}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    record = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    errors = []
    if kind in record and record[kind] != counts:
        diff = sorted(k for k in set(record[kind]) | set(counts)
                      if record[kind].get(k) != counts.get(k))
        errors.append(f"{kind} counts differ from an earlier run of this code and seed: {diff}")
    else:
        record[kind] = counts
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    return errors


def main() -> int:
    p = argparse.ArgumentParser(description="shockline benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "shockline", "__init__.py")):
        print(f"error: no shockline sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    for sub in ("tmp", "spans", "counts", "results"):
        os.makedirs(os.path.join(OUT_DIR, sub), exist_ok=True)
    code = source_hash()

    errors: list[str] = []
    try:
        if args.trace:
            run = spawn(args, deadline, "traced", args.seconds, 0, trace=1)
        else:
            setups = [spawn(args, deadline, f"setup{k}", 0, 0, setup_only=True)["setup_s"]
                      for k in range(SETUPS - 1)]
            # at least 100 ops, so that ten samples lie beyond the 90th percentile
            run = spawn(args, deadline, "run", args.seconds, 100)
            setups.append(run["setup_s"])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    attempted = run["ops"] * (2 if args.trace else 1)
    failed = run["failed"]
    errors += run["failures"]
    if not run["window_complete"]:
        errors.append(f"fewer than {run['window']} ops ran; counts are incomplete")
    counts = run["counts"]
    errors += check_counts(args, code, "outputs", counts)

    env = {
        "git_sha": git_sha(),
        "source_sha256": code,
        "python": platform.python_version(),
        "numpy": run["numpy"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))

    if args.trace:
        layers = run["layers"]
        n = run["ops"]
        t_plain = sum(run["untraced_latencies_ms"])
        t_traced = sum(run["latencies_ms"])
        layers["trace.overhead_frac"] = t_traced / t_plain - 1.0
        layers["trace.ops_per_s_untraced"] = 1e3 * n / t_plain
        layers["trace.ops_per_s_traced"] = 1e3 * n / t_traced
        errors += check_counts(args, code, "layers", {
            k: v for k, v in layers.items() if isinstance(v, int)})
        units = _units()
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in units}
        print_layer_table(layers, n, t_plain / n, t_traced / n, run["window"])
    else:
        values = end_to_end(run, setups)
        metrics = {k: {"value": values[k], "unit": END_TO_END_UNITS[k]} for k in END_TO_END_UNITS}
        lat = run["latencies_ms"]
        beyond = sum(1 for x in lat if x > values["op_p90_ms"])
        print(f"ops_per_s    {values['ops_per_s']:10.4f} 1/s  ({run['ops']} ops in "
              f"{run['elapsed_s']:.2f} s, closed loop, 1 caller)")
        print(f"op_p50_ms    {values['op_p50_ms']:10.4f} ms   (n={len(lat)})")
        print(f"op_p90_ms    {values['op_p90_ms']:10.4f} ms   (n={len(lat)}, {beyond} beyond)")
        print(f"setup_s      {values['setup_s']:10.4f} s    (median of {len(setups)}: "
              + ", ".join(f"{s:.3f}" for s in setups) + ")")
        print(f"failed_frac  {failed / max(attempted, 1):10.4f}      ({failed}/{attempted})")
        print(f"peak_rss_mb  {values['peak_rss_mb']:10.4f} MB")
    print(f"# exact counts over the first {run['window']} ops: "
          + json.dumps(counts, sort_keys=True))
    for e in errors[:10]:
        print(f"# FAILED: {e}")

    correct = not errors and failed == 0
    record = {"env": env, "correct": correct, "attempted": attempted, "failed": failed,
              "errors": errors, "metrics": metrics, "counts": counts}
    if not args.trace:
        record["setups_s"] = setups
    path = os.path.join(OUT_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def print_layer_table(layers: dict, n: int, op_plain: float, op_traced: float,
                      window: int) -> None:
    print(f"# traced run: self time by layer, as a share of traced op time "
          f"({n} ops, each run once untraced and once traced)")
    print(f"#   untraced op {op_plain:.3f} ms, traced op {op_traced:.3f} ms, "
          f"tracing overhead {100 * layers['trace.overhead_frac']:+.1f}%")
    total = 0.0
    for key in sorted(k for k in layers if k.startswith("share.")):
        total += layers[key]
        print(f"#   {key[6:]:<15} {100 * layers[key]:6.2f}%  "
              f"{layers[key] * op_traced:9.3f} ms/op")
    print(f"#   {'sum':<15} {100 * total:6.2f}%  (bench = the benchmark's own code: "
          f"input handling and output checks)")
    for key in sorted(layers):
        if not key.startswith("share."):
            value = layers[key]
            text = f"{value}" if isinstance(value, int) else f"{value:.6g}"
            print(f"{key:<40} {text}")
    print(f"# counts are totals over the first {window} ops; times are per op or per call")


if __name__ == "__main__":
    sys.exit(main())
