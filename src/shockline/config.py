"""Scenario configuration and file output.

Configs are JSON; bulk numeric series go to CSV.  This module alone reads
the scenario format, ``FORMAT``: JSON numbers only, integers where a field
needs one, and no key a block does not know.  ``load_scenario`` reads a
whole file in that format, then, for one command, checks the scenario core
and every block that command uses with the solvers' own ``check_*``
functions and builds what the command solves with, so a config a solver
would reject fails before any solve.  Floats are written with repr so
identical runs produce byte-identical files, and every file is written
atomically (temp file + rename).
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, replace
from math import isfinite
from typing import Optional, Sequence

import numpy as np

from . import experiments
from .bayes import (
    BallAverageForward,
    ObservationSet,
    PointwiseForward,
    PosteriorRun,
    PriorSpec,
    TrajectoryForward,
    VelocityTrajectoryForward,
    ViscousTrajectoryForward,
    check_hellinger_samples,
    check_noise_std,
    check_observations_fit,
    check_pcn_settings,
)
from .filippov import Trajectory
from .flux import (
    BurgersQuadraticFlux,
    FluxFunction,
    LinearTrafficVelocity,
    PiecewiseLinearFlux,
    TableVelocity,
    TrafficQuadraticFlux,
    VelocityFunction,
    check_level,
    piecewise_linearize,
    traffic_flux_from_velocity,
)
from .front_tracking import FrontTrackingSolution, StepFunction, check_in_domain, quantize_step
from .viscous import march_grid, viscous_flux


class ConfigError(ValueError):
    """A scenario file is malformed or inconsistent."""


# The flux and velocity kinds a scenario can name, and the class each builds
# from the other keys of its block.
LAW_KINDS = {
    "flux": {"traffic-quadratic": TrafficQuadraticFlux,
             "burgers-quadratic": BurgersQuadraticFlux,
             "piecewise-linear": PiecewiseLinearFlux},
    "velocity": {"linear-traffic": LinearTrafficVelocity, "table": TableVelocity},
}


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario as one command reads it: the core, then the blocks that
    command uses, built; the blocks it does not use keep their defaults."""

    flux: Optional[FluxFunction]
    velocity: Optional[VelocityFunction]
    initial: StepFunction
    horizon: float
    level: int
    seed: int = 0
    particle: Optional[tuple[float, float]] = None  # (x0, t0)
    times: tuple = ()
    stability: Optional[tuple] = None  # (target, family, epsilons, window)
    viscous: Optional[tuple] = None  # (snapshot times, solve_viscous's arguments by name)
    # the inversion block, for synth and invert
    prior: Optional[PriorSpec] = None
    forward: object = None
    observations: Optional[ObservationSet] = None  # None: synthesized from the recipe
    synthetic: Optional[tuple] = None  # synth_observations's arguments after the forward
    sampler: tuple = ()  # (chain_length, beta, burn_in, thin)
    ladder: Optional[tuple] = None  # (rungs as (level, forward), reference forward, n_samples)

    def tracking_flux(self) -> PiecewiseLinearFlux:
        """The piecewise-linear flux the event loop runs on."""
        if self.velocity is not None:
            return traffic_flux_from_velocity(self.velocity, self.level)
        if isinstance(self.flux, PiecewiseLinearFlux):
            return self.flux
        return piecewise_linearize(self.flux, self.level)

    def smooth_flux(self):
        """The flux the viscous solver runs on; smooth where one is known."""
        if self.flux is not None and not isinstance(self.flux, PiecewiseLinearFlux):
            return self.flux
        return self.flux if self.velocity is None else viscous_flux(self.velocity, self.level)


@contextmanager
def _naming(where: str):
    """Report an error raised inside as a ConfigError about ``where``."""
    try:
        yield
    except ConfigError:
        raise
    except (ArithmeticError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


# ---------------------------------------------------------------------------
# the scenario format

_JSON_TYPES = {bool: "a boolean", str: "a string", list: "an array", dict: "an object",
               type(None): "null"}


def _describe(value) -> str:
    """A JSON value as an error names it: its type, or the number itself."""
    return _JSON_TYPES.get(type(value), repr(value))


def _number(value) -> float:
    """A JSON number, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"must be a number, not {_describe(value)}")
    return float(value)


def _integer(value) -> int:
    """A JSON number with an integral value, such as 8 or 8.0, as an int."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"must be an integer, not {_describe(value)}")
    return value


def _level(value) -> int:
    level = _integer(value)
    check_level(level)
    return level


def _seed(value) -> int:
    seed = _integer(value)
    if seed < 0:
        raise ValueError("a seed must be nonnegative")
    return seed


def _instance(kind: type, name: str):
    """Converter that passes a JSON value of type ``kind`` through."""
    def read(value):
        if not isinstance(value, kind):
            raise TypeError(f"must be {name}, not {_describe(value)}")
        return value
    return read


def _array(item):
    """Converter of a JSON array, each element read by ``item``, to a tuple."""
    def read(value) -> tuple:
        if not isinstance(value, list):
            raise TypeError(f"must be an array, not {_describe(value)}")
        return tuple(map(item, value))
    return read


_text, _object = _instance(str, "a string"), _instance(dict, "an object")
_numbers = _array(_number)
_NODES = {"breakpoints": _numbers, "values": _numbers}
_LAW = {"kind": _text, "w_max": _number, "rho_max": _number, **_NODES}

# The scenario format: the keys of each block and how each value reads, a
# string naming the format of a nested block.  "scenario" is the root.
# Every block of a file keeps to it, also the blocks the command does not
# build.  An observations file holds one observations block; its "meta" is
# free-form.
FORMAT = {
    "scenario": {"velocity": "velocity", "flux": "flux", "initial": "initial",
                 "horizon": _number, "level": _level, "seed": _seed, "particle": "particle",
                 "times": _numbers, "stability": "stability", "viscous": "viscous",
                 "inversion": "inversion"},
    "velocity": _LAW,
    "flux": _LAW,
    "initial": _NODES,
    "particle": {"x0": _number, "t0": _number},
    "stability": {"target": _text, "family": _text, "epsilons": _numbers, "window": _numbers},
    "viscous": {"epsilon": _number, "window": _numbers, "n_cells": _integer,
                "cfl_safety": _number, "store_every": _integer, "snapshot_times": _numbers},
    "inversion": {"prior": "prior", "forward": "forward", "synthetic": "synthetic",
                  "sampler": "sampler", "observations": "observations",
                  "observations_file": _text, "ladder": "ladder"},
    "prior": {"kind": _text, "n": _integer, "length_scale": _number, "amplitude": _number,
              "window": _numbers, "mean": _number, "w_max": _number},
    "forward": {"kind": _text, "times": _numbers, "x0": _number, "t0": _number,
                "level": _level, "positions": _numbers, "radius": _number,
                "epsilon": _number, "n_cells": _integer, "store_every": _integer},
    "synthetic": {"truth": "truth", "truth_latent": _numbers, "noise_std": _number,
                  "seed": _seed},
    "truth": _NODES,
    "sampler": {"chain_length": _integer, "beta": _number, "burn_in": _integer,
                "thin": _integer},
    "observations": {"kind": _text, "values": _numbers, "noise_std": _number,
                     "times": _numbers, "positions": _numbers, "radius": _number,
                     "meta": _object},
    "ladder": {"levels": _array(_level), "reference": _level, "n_samples": _integer},
}


def _read_block(data, name: str) -> dict:
    """``data`` as block ``name``: every key read by its FORMAT converter.

    A value of the wrong JSON type or range, or a key the block does not
    know, is a ConfigError that names the block and the field.
    """
    where = "scenario" if name == "scenario" else f"{name} block"
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object, not {_describe(data)}")
    fmt = FORMAT[name]
    unknown = data.keys() - fmt
    if unknown:
        raise ConfigError(f"bad {where}: unknown key {min(unknown)!r}; it knows {', '.join(fmt)}")
    fields = {}
    for key, value in data.items():
        with _naming(f"{key!r} in the {where}"):
            read = fmt[key]
            fields[key] = _read_block(value, read) if isinstance(read, str) else read(value)
    return fields


def _need(fields: dict, key: str, where: str):
    """``fields[key]``, or a ConfigError when the ``where`` block lacks it."""
    if key not in fields:
        raise ConfigError(f"{where} is missing required key {key!r}")
    return fields[key]


def _reject_non_numbers(node, path: tuple = ()) -> None:
    """ConfigError at the first non-finite number, or null in an array, under ``node``.

    Python's JSON reader accepts ``NaN``, ``Infinity`` and ``-Infinity``,
    and reads a literal such as ``1e400`` as infinity; standard JSON has no
    such numbers.  ``path`` holds the keys and indices from the config root
    down to ``node``; the error names the innermost object as the block and
    the field in it, with any array indices.
    """
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        at = path + (key,)
        if (isinstance(value, float) and not isfinite(value)) or (
            value is None and isinstance(node, list)
        ):
            k = max(i for i, part in enumerate(at) if isinstance(part, str))
            block = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in at[:k])[1:]
            where = f"{block} block" if block else "scenario"
            field = repr(at[k]) + "".join(f"[{p}]" for p in at[k + 1:])
            raise ConfigError(f"bad {where}: {field} is {json.dumps(value)}, not a JSON number")
        _reject_non_numbers(value, at)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        _reject_non_numbers(data)
    return data


# ---------------------------------------------------------------------------
# building what a command runs on


def _law(top: dict, key: str):
    """The flux or velocity that the scenario's ``key`` block names, or None."""
    if key not in top:
        return None
    args, kinds = dict(top[key]), LAW_KINDS[key]
    kind = args.pop("kind", None)
    if kind not in kinds:
        raise ConfigError(f"bad {key} block: kind {kind!r} is not one of {', '.join(kinds)}")
    with _naming(f"{key} block"):
        return kinds[kind](**args)


def _core(top: dict, command: str) -> ScenarioConfig:
    velocity, flux = _law(top, "velocity"), _law(top, "flux")
    if flux is None and velocity is None:
        raise ConfigError("scenario needs a flux spec or a velocity spec")

    with _naming("initial block"):
        initial = StepFunction(**_need(top, "initial", "scenario"))
    horizon = _need(top, "horizon", "scenario")
    if not (isfinite(horizon) and horizon > 0):
        raise ConfigError("horizon must be positive and finite")
    level = top.get("level", 8)

    particle = None
    if "particle" in top:
        x0, t0 = (_need(top["particle"], key, "particle block") for key in ("x0", "t0"))
        if not 0 < t0 <= horizon:
            raise ConfigError("particle t0 must be in (0, horizon]; paths from 0 may not be unique")
        particle = (x0, t0)

    times = top.get("times", ())
    if any(t < 0 or t > horizon for t in times):
        raise ConfigError("output times must lie in [0, horizon]")

    with _naming("initial block"):
        # front tracking runs on quantized data, the viscous solver on the data itself
        data_q = initial if command == "viscous" else quantize_step(initial, level)
        check_in_domain(data_q.min_value(), data_q.max_value(), (velocity or flux).domain)

    return ScenarioConfig(
        flux=flux,
        velocity=velocity,
        initial=initial,
        horizon=horizon,
        level=level,
        seed=top.get("seed", 0),
        particle=particle,
        times=times,
    )


def _stability(blk: dict, cfg: ScenarioConfig, seed: Optional[int]) -> tuple:
    """(target, family, epsilons, window); ``seed`` overrides the scenario's."""
    target = blk.get("target", "initial")
    families = experiments.STABILITY_FAMILIES.get(target)
    if families is None:
        raise ConfigError(f"unknown stability target {target!r}")
    family = blk.get("family", families[0])
    if family not in families:
        raise ConfigError(f"unknown {target} perturbation family {family!r}; one of {families}")
    epsilons, window = blk.get("epsilons", ()), blk.get("window")
    with _naming("stability block"):
        experiments.check_stability_ladder(cfg.initial, cfg.velocity, cfg.level, cfg.horizon,
                                           epsilons, family, window,
                                           cfg.seed if seed is None else seed)
    return target, family, epsilons, window


def _viscous(blk: dict, cfg: ScenarioConfig) -> tuple:
    times = blk.get("snapshot_times") or cfg.times or (cfg.horizon,)
    # solve_viscous's arguments after the flux, by name; a size the block
    # leaves out takes the solver's default
    settings = {key: blk[key] for key in ("window", "n_cells", "cfl_safety", "store_every")
                if key in blk}
    settings.update(epsilon=blk.get("epsilon", 0.05), horizon=cfg.horizon,
                    keep_times=(*times, 0.0, cfg.horizon))  # the only levels the command reads
    with _naming("viscous block"):
        march_grid(cfg.initial, cfg.smooth_flux(), **settings)
    return times, settings


def _forward(blk: dict, cfg: ScenarioConfig) -> tuple[type, dict]:
    """The forward map class a forward block names, and its arguments."""
    kind = blk.get("kind", "trajectory")
    if kind != "velocity-trajectory" and cfg.velocity is None:
        raise ConfigError(f"{kind} forward needs a velocity spec")
    args = {"times": blk.get("times") or cfg.times}
    if kind in ("trajectory", "viscous-trajectory", "velocity-trajectory"):
        if "x0" in blk or "t0" in blk:  # a car of its own needs both
            args["x0"], args["t0"] = (_need(blk, key, "forward block") for key in ("x0", "t0"))
        elif cfg.particle is not None:
            args["x0"], args["t0"] = cfg.particle
        else:
            raise ConfigError("trajectory forward needs x0 and t0")
    if kind == "viscous-trajectory":  # the only forward without a level
        sizes = {key: blk[key] for key in ("n_cells", "store_every") if key in blk}
        return ViscousTrajectoryForward, dict(
            args, velocity=cfg.velocity, flux=cfg.smooth_flux(),
            epsilon=_need(blk, "epsilon", "forward block"), **sizes,
        )
    args["level"] = blk.get("level", cfg.level)
    if kind == "velocity-trajectory":
        return VelocityTrajectoryForward, dict(args, initial=cfg.initial)
    args["velocity"] = cfg.velocity
    if kind == "trajectory":
        return TrajectoryForward, args
    if kind not in ("pointwise", "ball-average"):
        raise ConfigError(f"unknown forward kind {kind!r}")
    args["positions"] = _need(blk, "positions", "forward block")
    if kind == "pointwise":
        return PointwiseForward, args
    return BallAverageForward, dict(args, radius=_need(blk, "radius", "forward block"))


def _synthetic(inv: dict, cfg: ScenarioConfig, seed: Optional[int]) -> tuple:
    """(truth, noise_std, seed) of the inversion block's synthetic recipe, the
    arguments of ``synth_observations`` after the forward; ``seed``
    overrides the recipe's seed."""
    synth = _need(inv, "synthetic", "inversion block")
    if seed is None:
        seed = synth.get("seed", cfg.seed)
    noise_std = synth.get("noise_std", 0.0)
    with _naming("synthetic block"):
        check_noise_std(noise_std)
    if "truth" in synth and cfg.prior.kind == "initial-field":
        with _naming("truth block"):
            truth = StepFunction(**synth["truth"])
            check_in_domain(truth.min_value(), truth.max_value(), (cfg.velocity or cfg.flux).domain)
    elif "truth_latent" in synth:
        with _naming("'truth_latent' in the synthetic block"):
            truth = cfg.prior.transform(np.asarray(synth["truth_latent"]))
    else:
        raise ConfigError("synthetic block needs 'truth_latent', or 'truth' for a field prior")
    return truth, noise_std, seed


def _inversion(inv: dict, cfg: ScenarioConfig, command: str, seed: Optional[int]):
    """``cfg`` with the inversion block as ``command`` (synth or invert) reads it."""
    with _naming("prior block"):
        cfg = replace(cfg, prior=PriorSpec(**inv.get("prior", {})))
        if cfg.prior.kind == "initial-field":  # its samples take values in (0, 1)
            check_in_domain(0.0, 1.0, (cfg.velocity or cfg.flux).domain)
    make, args = _forward(inv.get("forward", {}), cfg)
    if (cfg.prior.kind == "velocity") != (make is VelocityTrajectoryForward):
        raise ConfigError("a velocity prior needs a velocity-trajectory forward, and only it")
    with _naming("forward block"):
        cfg = replace(cfg, forward=make(**args))
    if command == "synth":
        return replace(cfg, synthetic=_synthetic(inv, cfg, seed))

    sampler = inv.get("sampler", {})
    chain_length, beta = sampler.get("chain_length", 1000), sampler.get("beta", 0.1)
    burn_in, thin = sampler.get("burn_in", 0), sampler.get("thin", 1)
    with _naming("sampler block"):
        check_pcn_settings(chain_length, beta, burn_in, cfg.prior.n)
    if thin < 1:
        raise ConfigError("bad sampler block: thin must be positive")
    cfg = replace(cfg, sampler=(chain_length, beta, burn_in, thin))

    with _naming("observations block"):
        if "observations_file" in inv:
            cfg = replace(cfg, observations=read_observations_json(inv["observations_file"]))
        elif "observations" in inv:
            cfg = replace(cfg, observations=ObservationSet(**inv["observations"]))
        elif "synthetic" in inv:
            cfg = replace(cfg, synthetic=_synthetic(inv, cfg, None))
        else:
            raise ConfigError("inversion block needs observations, observations_file, "
                              "or a synthetic recipe")
        if cfg.observations is not None:
            check_observations_fit(cfg.observations, cfg.forward)

    if "ladder" in inv:
        blk = inv["ladder"]
        levels = blk.get("levels", ())
        if not levels:
            raise ConfigError("ladder block needs a nonempty levels list")
        if "level" not in args:
            raise ConfigError("a ladder needs a forward with a level; viscous-trajectory has none")
        n_samples, reference = blk.get("n_samples", 500), blk.get("reference", 12)
        with _naming("ladder block"):
            check_hellinger_samples(n_samples, cfg.prior.n)
            rungs = [(n, make(**dict(args, level=n))) for n in levels]
            cfg = replace(cfg, ladder=(rungs, make(**dict(args, level=reference)), n_samples))
    return cfg


def load_scenario(path: str, command: str, seed: Optional[int] = None) -> ScenarioConfig:
    """The scenario at ``path`` as ``command`` reads it: the whole file read
    in the scenario format, then the core and every block the command uses
    checked and built.

    ``seed`` (the command line's ``--seed``) overrides the seed the command
    draws from: the synthetic recipe's for ``synth``, the scenario's for the
    other commands.
    """
    if seed is not None and seed < 0:
        raise ConfigError("--seed must be nonnegative")
    top = _read_block(load_config(path), "scenario")
    cfg = _core(top, command)
    if command in ("track", "stability") and cfg.velocity is None:
        raise ConfigError(f"{command} needs a velocity spec")
    if command in ("track", "stability") and cfg.particle is None:
        raise ConfigError(f"{command} needs a particle block with x0 and t0")
    if command == "stability":
        cfg = replace(cfg, stability=_stability(_need(top, "stability", "scenario"), cfg, seed))
    if command == "viscous":
        cfg = replace(cfg, viscous=_viscous(_need(top, "viscous", "scenario"), cfg))
    if command in ("synth", "invert"):
        cfg = _inversion(_need(top, "inversion", "scenario"), cfg, command, seed)
    if seed is not None and command != "synth":
        cfg = replace(cfg, seed=seed)
    return cfg


# ---------------------------------------------------------------------------
# atomic writers


def write_text_atomic(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _numpy_json(obj):
    """``json.dumps`` hook: numpy scalars and arrays as Python numbers and lists."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path: str, obj) -> None:
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True, default=_numpy_json) + "\n")


def write_csv(path: str, header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else repr(float(v)) for v in row))
    write_text_atomic(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# format conventions


def slice_rows(step: StepFunction):
    """Rows (x_break, value); the first row has no x_break and carries the
    far-left value, so k breakpoints give k+1 rows."""
    yield (None, step.values[0])
    for x, v in zip(step.breakpoints, step.values[1:]):
        yield (x, v)


def write_slice_csv(path: str, step: StepFunction) -> None:
    write_csv(path, ("x_break", "value"), slice_rows(step))


def read_slice_csv(path: str) -> StepFunction:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "x_break,value":
        raise ConfigError(f"{path} is not a slice CSV")
    bps, vals = [], []
    for ln in lines[1:]:
        x, v = ln.split(",")
        vals.append(float(v))
        if x:
            bps.append(float(x))
    if len(vals) != len(bps) + 1:
        raise ConfigError(f"{path}: expected exactly one value row without x_break")
    return StepFunction(np.asarray(bps), np.asarray(vals))


def write_trajectory_csv(path: str, traj: Trajectory) -> None:
    # one row per node; the last node repeats the final segment speed
    speeds = list(traj.speeds) + [traj.speeds[-1] if len(traj.speeds) else 0.0]
    rows = zip(traj.times, traj.positions, speeds)
    write_csv(path, ("t", "z", "speed"), rows)


def write_snapshot_csv(path: str, x: np.ndarray, v: np.ndarray) -> None:
    write_csv(path, ("x", "v"), zip(x, v))


def write_events_json(path: str, sol: FrontTrackingSolution) -> None:
    events = [
        {
            "time": e.time,
            "position": e.position,
            "incoming": list(e.incoming),
            "outgoing": list(e.outgoing),
        }
        for e in sol.events
    ]
    write_json(path, {"events": events, "collisions": sol.collision_count})


def write_rate_report(json_path: str, csv_path: str, report) -> None:
    write_json(json_path, report.to_dict())
    write_csv(csv_path, ("epsilon", "error", "bound", "bound_holds"), report.rows())


def write_chain_csv(path: str, run: PosteriorRun, thin: int = 1) -> None:
    n = run.latent_chain.shape[1]
    header = ["step", "potential", "accepted"] + [f"v{i}" for i in range(n)]
    rows = (
        [m, run.potentials[m], float(run.accepted[m])] + list(run.latent_chain[m])
        for m in range(0, run.chain_length, thin)
    )
    write_csv(path, header, rows)


def write_observations_json(path: str, obs: ObservationSet) -> None:
    """``obs`` as an observations block: its fields, those that are set."""
    write_json(path, {key: value for key, value in vars(obs).items() if value is not None})


def read_observations_json(path: str) -> ObservationSet:
    return ObservationSet(**_read_block(load_config(path), "observations"))
