"""Span tracing at the module boundaries of ``shockline``, from outside.

Only the traced run installs this, and it runs every op twice, once with
the wrappers switched off, so that the tracing overhead is measured on the
same ops at nearly the same time.  ``install`` replaces the public
functions of each layer with wrappers that record one span per call:
name, start, end, parent span and op id.  The replacement happens in every
``shockline`` module that holds the function, so calls through imported
names (``front_tracking``'s ``convex_envelope``, ``bayes``'s ``evolve``,
``cli``'s ``track`` ...) are traced too.  Methods are wrapped on their
class.  Spans stay in memory, in flat arrays, until the run ends.

Some wrappers also take a note after the call returns (events of an
``evolve``, nodes of a ``track``, bytes of a write ...).  Notes are taken
after the span's end time is read, so their cost lands in the parent's
self time and shows up as tracing overhead, not as layer time.
"""

from __future__ import annotations

import functools
import sys
from array import array
from math import log2
from time import perf_counter

import numpy as np

LAYERS = (
    "flux", "front_tracking", "filippov", "viscous", "experiments",
    "bayes", "cli", "config", "bench",
)


class Tracer:
    """In-memory span store plus per-span notes."""

    def __init__(self):
        self.names: list[str] = []  # span names
        self._ids: dict[str, int] = {}
        self.note_names: list[str] = []
        self._note_ids: dict[str, int] = {}
        # while False the wrappers call straight through and record nothing
        self.enabled = True
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.note_span = array("i")
        self.note_key = array("i")
        self.note_val = array("d")
        # envelope arguments, so node counts are computed once at the end
        self.env_span = array("i")
        self.env_flux = array("i")
        self.env_a = array("d")
        self.env_b = array("d")
        # fluxes are kept alive so that their ids are not reused
        self.env_fluxes: list = []
        self._flux_index: dict[int, int] = {}
        self.seen_pairs: set = set()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def note(self, span: int, key: str, value: float) -> None:
        if key not in self._note_ids:
            self._note_ids[key] = len(self.note_names)
            self.note_names.append(key)
        self.note_span.append(span)
        self.note_key.append(self._note_ids[key])
        self.note_val.append(float(value))

    def note_envelope(self, span: int, flux, a: float, b: float) -> None:
        k = self._flux_index.get(id(flux))
        if k is None:
            k = self._flux_index[id(flux)] = len(self.env_fluxes)
            self.env_fluxes.append(flux)
        self.env_span.append(span)
        self.env_flux.append(k)
        self.env_a.append(float(a))
        self.env_b.append(float(b))

    def begin_op(self, op_id: int) -> int:
        """Open the root span of op ``op_id``."""
        self.op_id = op_id
        self.seen_pairs.clear()
        return self.begin(self.intern("bench.op"))

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict:
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = end - start
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": start,
            "end": end,
            "parent": parent,
            "dur": dur,
            "self": dur - child,
        }

    def envelope_nodes(self) -> np.ndarray:
        """Flux nodes inside [a, b] for each traced envelope call."""
        nodes = np.zeros(len(self.env_span), dtype=np.int64)
        flux_of = np.frombuffer(self.env_flux, dtype=np.int32)
        a = np.frombuffer(self.env_a, dtype=float)
        b = np.frombuffer(self.env_b, dtype=float)
        for k, fl in enumerate(self.env_fluxes):
            sel = flux_of == k
            bp = fl.breakpoints
            nodes[sel] = np.searchsorted(bp, b[sel], side="right") - np.searchsorted(
                bp, a[sel], side="left"
            )
        return nodes

    def save(self, path: str) -> None:
        sp = self.arrays()
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=sp["name"], op=sp["op"], start=sp["start"], end=sp["end"],
            parent=sp["parent"],
        )


# ---------------------------------------------------------------------------
# wrappers


def _wrap(tracer: Tracer, name: str, fn, note=None):
    nid = tracer.intern(name)
    begin, finish = tracer.begin, tracer.finish

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        idx = begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            finish(idx)
        if note is not None:
            note(tracer, idx, args, kwargs, result)
        return result

    return traced


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _flux_level(breakpoints: np.ndarray) -> int:
    return int(round(-log2(float(np.min(np.diff(breakpoints))))))


def _note_envelope(tr, idx, args, kwargs, result):
    tr.note_envelope(idx, _arg(args, kwargs, 0, "flux"), _arg(args, kwargs, 1, "a"),
                     _arg(args, kwargs, 2, "b"))


def _note_evolve(tr, idx, args, kwargs, result):
    tr.note(idx, "evolve.events", len(result.events))
    tr.note(idx, "evolve.collisions", result.collision_count)
    tr.note(idx, "evolve.fronts", result.front_count)
    tr.note(idx, "evolve.level", _flux_level(result.flux.breakpoints))


def _note_track(tr, idx, args, kwargs, result):
    tr.note(idx, "track.nodes", result.times.size)
    tr.note(idx, "track.sticking_spans", len(result.sticking))


def _note_viscous(tr, idx, args, kwargs, result):
    steps = round(result.horizon / result.dt)
    tr.note(idx, "viscous.cell_steps", result.x.size * steps)


def _note_ladder(tr, idx, args, kwargs, result):
    tr.note(idx, "ladder.rungs", len(result.errors))


def _note_pcn(tr, idx, args, kwargs, result):
    tr.note(idx, "pcn.steps", result.chain_length)
    tr.note(idx, "pcn.accepted", int(np.sum(result.accepted)))


def _note_hellinger(tr, idx, args, kwargs, result):
    n = result.n_samples if hasattr(result, "n_samples") else result.meta["n_samples"]
    tr.note(idx, "hellinger.samples", n)


def _note_forward_batch(tr, idx, args, kwargs, result):
    forward = _arg(args, kwargs, 1, "forward")
    latents = _arg(args, kwargs, 2, "latents")
    key = repr(forward)
    fresh = 0
    for row in np.asarray(latents):
        pair = (key, row.tobytes())
        if pair not in tr.seen_pairs:
            tr.seen_pairs.add(pair)
            fresh += 1
    tr.note(idx, "hellinger.forward_evals", len(latents))
    tr.note(idx, "hellinger.distinct_evals", fresh)


def _note_write(tr, idx, args, kwargs, result):
    tr.note(idx, "config.bytes_written", len(_arg(args, kwargs, 1, "text").encode("utf-8")))


def _targets():
    """(owner module or class, attribute, span name, note) for every boundary."""
    from shockline import bayes, config, experiments, filippov, flux, front_tracking, viscous

    functions = [
        (flux, "convex_envelope", "flux.envelope", _note_envelope),
        (flux, "concave_envelope", "flux.envelope", _note_envelope),
        (flux, "traffic_flux_from_velocity", "flux.linearize", None),
        (flux, "piecewise_linearize", "flux.linearize", None),
        (front_tracking, "evolve", "front_tracking.evolve", _note_evolve),
        (front_tracking, "quantize_step", "front_tracking.quantize_step", None),
        (front_tracking, "l1_distance", "front_tracking.l1_distance", None),
        (filippov, "track", "filippov.track", _note_track),
        (filippov, "check_speed_inclusion", "filippov.speed_inclusion", None),
        (viscous, "solve_viscous", "viscous.solve", _note_viscous),
        (viscous, "track_smooth", "viscous.track_smooth", None),
        (experiments, "initial_field_stability", "experiments.ladder", _note_ladder),
        (experiments, "flux_stability", "experiments.ladder", _note_ladder),
        (experiments, "trajectory_convergence_study", "experiments.ladder", _note_ladder),
        (experiments, "viscous_convergence_study", "experiments.ladder", _note_ladder),
        (bayes, "run_pcn", "bayes.pcn", _note_pcn),
        (bayes, "hellinger_between", "bayes.hellinger", _note_hellinger),
        (bayes, "posterior_convergence_study", "bayes.hellinger", _note_hellinger),
        (bayes, "evaluate_forward_on_samples", "bayes.forward_batch", _note_forward_batch),
        (bayes, "synth_observations", "bayes.synth", None),
        (config, "load_scenario", "config.load", None),
        (config, "read_observations_json", "config.load", None),
        (config, "read_slice_csv", "config.load", None),
        (config, "write_text_atomic", "config.write", _note_write),
        (config, "write_json", "config.write", None),
        (config, "write_csv", "config.write", None),
        (config, "write_slice_csv", "config.write", None),
        (config, "write_trajectory_csv", "config.write", None),
        (config, "write_snapshot_csv", "config.write", None),
        (config, "write_events_json", "config.write", None),
        (config, "write_rate_report", "config.write", None),
        (config, "write_chain_csv", "config.write", None),
        (config, "write_observations_json", "config.write", None),
    ]
    methods = [
        (front_tracking.FrontTrackingSolution, "slice", "front_tracking.slice", None),
        (front_tracking.FrontTrackingSolution, "evaluate_field",
         "front_tracking.evaluate_field", None),
        (bayes.PriorSpec, "transform", "bayes.transform", None),
    ]
    for cls in (bayes.TrajectoryForward, bayes.PointwiseForward, bayes.BallAverageForward,
                bayes.VelocityTrajectoryForward, bayes.ViscousTrajectoryForward):
        methods.append((cls, "__call__", "bayes.forward", None))
    return functions, methods


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary, and every CLI subcommand."""
    from shockline import cli

    functions, methods = _targets()
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "shockline" or n.startswith("shockline."))]
    for owner, attr, span, note in functions:
        original = getattr(owner, attr)
        wrapped = _wrap(tracer, span, original, note)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    for cls, attr, span, note in methods:
        setattr(cls, attr, _wrap(tracer, span, cls.__dict__[attr], note))
    for name, fn in list(cli.COMMANDS.items()):
        cli.COMMANDS[name] = _wrap(tracer, f"cli.{name}", fn)


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer, n_ops: int, window: int) -> dict:
    """Per-layer metrics of a traced run.

    Times are per op over all ``n_ops`` timed ops, or per call; counts are
    totals over the first ``window`` ops, which repeat exactly for a given
    seed.  Shares are self time over the summed op time.
    """
    sp = tracer.arrays()
    k = len(tracer.names)
    nid = sp["name"]
    in_window = sp["op"] < window
    self_by = np.bincount(nid, weights=sp["self"], minlength=k)
    dur_by = np.bincount(nid, weights=sp["dur"], minlength=k)
    calls_by = np.bincount(nid, minlength=k)
    calls_win_by = np.bincount(nid[in_window], minlength=k)
    ops = max(n_ops, 1)

    def ids(prefix):
        return [i for i, n in enumerate(tracer.names) if n == prefix or n.startswith(prefix + ".")]

    def calls(name):
        return int(sum(calls_win_by[i] for i in ids(name)))

    def self_ms(prefix):
        return float(sum(self_by[i] for i in ids(prefix))) * 1e3 / ops

    def per_call(name, scale):
        c = sum(calls_by[i] for i in ids(name))
        return float(sum(dur_by[i] for i in ids(name))) * scale / c if c else 0.0

    note_span = np.frombuffer(tracer.note_span, dtype=np.int32)
    note_key = np.frombuffer(tracer.note_key, dtype=np.int32)
    note_val = np.frombuffer(tracer.note_val, dtype=float)

    def noted(key, window_only=True):
        m = note_key == tracer._note_ids.get(key, -1)
        if window_only:
            m = m & in_window[note_span]
        return note_val[m], note_span[m]

    def total(key):
        return int(np.sum(noted(key)[0]))

    def rate(key):
        """Noted amount per second of the noting spans, over the whole run."""
        vals, spans = noted(key, window_only=False)
        secs = float(np.sum(sp["dur"][spans]))
        return float(np.sum(vals)) / secs if secs > 0 else 0.0

    out: dict[str, float] = {}
    env_span = np.frombuffer(tracer.env_span, dtype=np.int32)
    env_nodes = tracer.envelope_nodes()
    out["flux.envelope.calls"] = calls("flux.envelope")
    out["flux.envelope.nodes"] = int(np.sum(env_nodes[in_window[env_span]]))
    out["flux.envelope.self_ms"] = self_ms("flux.envelope")
    out["flux.envelope.us_per_call"] = per_call("flux.envelope", 1e6)

    out["front_tracking.evolve.calls"] = calls("front_tracking.evolve")
    out["front_tracking.evolve.self_ms"] = self_ms("front_tracking.evolve")
    out["front_tracking.evolve.events"] = total("evolve.events")
    out["front_tracking.evolve.collisions"] = total("evolve.collisions")
    out["front_tracking.evolve.fronts"] = total("evolve.fronts")
    levels, lvl_span = noted("evolve.level", window_only=False)
    events, ev_span = noted("evolve.events", window_only=False)
    events_of = dict(zip(ev_span.tolist(), events.tolist()))
    for level in (6, 8, 10, 12):
        spans = lvl_span[levels == level]
        secs = float(np.sum(sp["dur"][spans]))
        n_ev = sum(events_of[s] for s in spans.tolist())
        out[f"front_tracking.events_per_s.l{level}"] = n_ev / secs if secs > 0 else 0.0
    out["front_tracking.slice.calls"] = calls("front_tracking.slice")
    out["front_tracking.slice.us_per_call"] = per_call("front_tracking.slice", 1e6)
    out["front_tracking.evaluate_field.calls"] = calls("front_tracking.evaluate_field")

    out["filippov.track.calls"] = calls("filippov.track")
    out["filippov.track.self_ms"] = self_ms("filippov.track")
    out["filippov.track.nodes"] = total("track.nodes")
    out["filippov.track.nodes_per_s"] = rate("track.nodes")
    out["filippov.track.sticking_spans"] = total("track.sticking_spans")
    out["filippov.speed_inclusion.self_ms"] = self_ms("filippov.speed_inclusion")

    out["viscous.solve.self_ms"] = self_ms("viscous.solve")
    out["viscous.cell_steps"] = total("viscous.cell_steps")
    out["viscous.cell_steps_per_s"] = rate("viscous.cell_steps")

    out["experiments.ladder.self_ms"] = self_ms("experiments.ladder")
    out["experiments.ladder.rungs"] = total("ladder.rungs")

    out["bayes.forward.calls"] = calls("bayes.forward")
    out["bayes.forward.ms_per_call"] = per_call("bayes.forward", 1e3)
    out["bayes.transform.us_per_call"] = per_call("bayes.transform", 1e6)
    out["bayes.pcn.steps"] = total("pcn.steps")
    out["bayes.pcn.steps_per_s"] = rate("pcn.steps")
    out["bayes.pcn.accepted"] = total("pcn.accepted")
    steps = out["bayes.pcn.steps"]
    out["bayes.pcn.accept_ratio"] = out["bayes.pcn.accepted"] / steps if steps else 0.0
    out["bayes.hellinger.samples"] = total("hellinger.samples")
    out["bayes.hellinger.samples_per_s"] = rate("hellinger.samples")
    evals = total("hellinger.forward_evals")
    out["bayes.hellinger.forward_evals"] = evals
    out["bayes.hellinger.useful_ratio"] = total("hellinger.distinct_evals") / evals if evals else 0.0

    for cmd in ("solve", "track", "stability", "viscous", "synth", "invert"):
        out[f"cli.{cmd}.ms"] = per_call(f"cli.{cmd}", 1e3)
    out["config.load.ms"] = self_ms("config.load")
    out["config.write.ms"] = self_ms("config.write")
    out["config.bytes_written"] = total("config.bytes_written")

    op_time = float(sum(dur_by[i] for i in ids("bench.op")))
    for layer in LAYERS:
        layer_self = float(sum(self_by[i] for i in ids(layer)))
        out[f"share.{layer}"] = layer_self / op_time if op_time else 0.0
    return out
