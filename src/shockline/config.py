"""Scenario configuration and file output.

Configs are JSON; bulk numeric series go to CSV.  ``load_scenario`` reads,
for one command, the scenario core and every block that command uses,
checks them with the solvers' own ``check_*`` functions and builds what the
command solves with, so a config a solver would reject fails before any
solve.  Floats are written with repr so identical runs produce
byte-identical files, and every file is written atomically (temp file +
rename).
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
from .experiments import check_stability_ladder
from .filippov import Trajectory
from .flux import (
    FluxFunction,
    LinearTrafficVelocity,
    PiecewiseLinearFlux,
    TrafficQuadraticFlux,
    VelocityFunction,
    flux_from_spec,
    piecewise_linearize,
    traffic_flux_from_velocity,
    velocity_from_spec,
)
from .front_tracking import FrontTrackingSolution, StepFunction, check_in_domain, quantize_step
from .viscous import CFL_SAFETY, check_viscous_settings


class ConfigError(ValueError):
    """A scenario file is malformed or inconsistent."""


# The perturbation families each stability target knows, its default first.
STABILITY_FAMILIES = {"initial": ("shift", "dither", "steps"),
                      "velocity": ("scale", "tilt", "curve")}


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
    viscous: Optional[tuple] = None  # (snapshot times, solve_viscous's arguments after the flux)
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
        if isinstance(self.velocity, LinearTrafficVelocity):
            return TrafficQuadraticFlux(self.velocity.w_max, self.velocity.rho_max)
        return self.tracking_flux()


def float_tuple(values) -> tuple:
    return tuple(float(v) for v in values)


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError("must be an object")
    return value


def _seed(value) -> int:
    seed = int(value)
    if seed < 0:
        raise ValueError("a seed must be nonnegative")
    return seed


@contextmanager
def _naming(where: str):
    """Report an error raised inside as a ConfigError about ``where``."""
    try:
        yield
    except ConfigError:
        raise
    except (ArithmeticError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


_REQUIRED = object()


def read_field(data: dict, key: str, convert, default=_REQUIRED, where: str = "scenario"):
    """``convert(data[key])``, or ``convert(default)`` when the key is absent.

    A missing key without a default, or a value ``convert`` rejects, is a
    ConfigError that names the field.
    """
    if key not in data and default is _REQUIRED:
        raise ConfigError(f"{where} is missing required key {key!r}")
    with _naming(f"{key!r} in the {where}"):
        return convert(data.get(key, default))


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


def _core(data: dict, command: str) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    velocity = read_field(data, "velocity", velocity_from_spec) if "velocity" in data else None
    flux = read_field(data, "flux", flux_from_spec) if "flux" in data else None
    if flux is None and velocity is None:
        raise ConfigError("scenario needs a flux spec or a velocity spec")

    initial = read_field(data, "initial", StepFunction.from_spec)
    horizon = read_field(data, "horizon", float)
    if not (isfinite(horizon) and horizon > 0):
        raise ConfigError("horizon must be positive and finite")
    level = read_field(data, "level", int, 8)
    if level < 0:
        raise ConfigError("level must be nonnegative")

    particle = None
    if "particle" in data:
        blk = read_field(data, "particle", _object)
        x0 = read_field(blk, "x0", float, where="particle block")
        t0 = read_field(blk, "t0", float, where="particle block")
        if not 0 < t0 <= horizon:
            raise ConfigError("particle t0 must be in (0, horizon]; paths from 0 may not be unique")
        particle = (x0, t0)

    times = read_field(data, "times", float_tuple, ())
    if any(t < 0 or t > horizon for t in times):
        raise ConfigError("output times must lie in [0, horizon]")

    # front tracking runs on quantized data, the viscous solver on the data itself
    data_q = initial if command == "viscous" else quantize_step(initial, level)
    with _naming("initial block"):
        check_in_domain(data_q.min_value(), data_q.max_value(), (velocity or flux).domain)

    return ScenarioConfig(
        flux=flux,
        velocity=velocity,
        initial=initial,
        horizon=horizon,
        level=level,
        seed=read_field(data, "seed", _seed, 0),
        particle=particle,
        times=times,
    )


def _stability(blk: dict, cfg: ScenarioConfig) -> tuple:
    where = "stability block"
    target = read_field(blk, "target", str, "initial", where)
    families = STABILITY_FAMILIES.get(target)
    if families is None:
        raise ConfigError(f"unknown stability target {target!r}")
    family = read_field(blk, "family", str, families[0], where)
    if family not in families:
        raise ConfigError(f"unknown {target} perturbation family {family!r}; one of {families}")
    epsilons = read_field(blk, "epsilons", float_tuple, (), where)
    window = read_field(blk, "window", float_tuple, where=where) if "window" in blk else None
    with _naming(where):
        check_stability_ladder(cfg.initial, cfg.velocity, cfg.level, epsilons, family, window)
    return target, family, epsilons, window


def _viscous(blk: dict, cfg: ScenarioConfig) -> tuple:
    where = "viscous block"
    times = read_field(blk, "snapshot_times", float_tuple, (), where) or cfg.times or (cfg.horizon,)
    settings = (  # solve_viscous's arguments after the flux, in order
        read_field(blk, "epsilon", float, 0.05, where),
        cfg.horizon,
        read_field(blk, "window", float_tuple, where=where) if "window" in blk else None,
        read_field(blk, "n_cells", int, 2000, where),
        read_field(blk, "cfl_safety", float, CFL_SAFETY, where),
        read_field(blk, "store_every", int, 1, where),
        (*times, 0.0, cfg.horizon),  # the only levels the command reads
    )
    with _naming(where):
        check_viscous_settings(*settings)
    return times, settings


def _forward(blk: dict, cfg: ScenarioConfig) -> tuple[type, dict]:
    """The forward map class a forward block names, and its arguments."""
    where = "forward block"
    kind = read_field(blk, "kind", str, "trajectory", where)
    if kind != "velocity-trajectory" and cfg.velocity is None:
        raise ConfigError(f"{kind} forward needs a velocity spec")
    args = {"times": read_field(blk, "times", lambda ts: float_tuple(ts or cfg.times), None, where)}
    if kind in ("trajectory", "viscous-trajectory", "velocity-trajectory"):
        if "x0" in blk or "t0" in blk:  # a car of its own needs both
            args["x0"] = read_field(blk, "x0", float, where=where)
            args["t0"] = read_field(blk, "t0", float, where=where)
        elif cfg.particle is not None:
            args["x0"], args["t0"] = cfg.particle
        else:
            raise ConfigError("trajectory forward needs x0 and t0")
    if kind == "viscous-trajectory":  # the only forward without a level
        return ViscousTrajectoryForward, dict(
            args, velocity=cfg.velocity, flux=cfg.smooth_flux(),
            epsilon=read_field(blk, "epsilon", float, where=where),
            n_cells=read_field(blk, "n_cells", int, 400, where),
            store_every=read_field(blk, "store_every", int, 4, where),
        )
    args["level"] = read_field(blk, "level", int, cfg.level, where)
    if kind == "velocity-trajectory":
        return VelocityTrajectoryForward, dict(args, initial=cfg.initial)
    args["velocity"] = cfg.velocity
    if kind == "trajectory":
        return TrajectoryForward, args
    if kind not in ("pointwise", "ball-average"):
        raise ConfigError(f"unknown forward kind {kind!r}")
    args["positions"] = read_field(blk, "positions", float_tuple, where=where)
    if kind == "pointwise":
        return PointwiseForward, args
    return BallAverageForward, dict(args, radius=read_field(blk, "radius", float, where=where))


def _synthetic(inv: dict, cfg: ScenarioConfig, seed: Optional[int]) -> tuple:
    """(truth, noise_std, seed) of the inversion block's synthetic recipe, the
    arguments of ``synth_observations`` after the forward; ``seed``
    overrides the recipe's seed."""
    synth = read_field(inv, "synthetic", _object, where="inversion block")
    where = "synthetic block"
    if seed is None:
        seed = read_field(synth, "seed", _seed, cfg.seed, where)
    noise_std = read_field(synth, "noise_std", float, 0.0, where)
    with _naming(where):
        check_noise_std(noise_std)
    if "truth" in synth and cfg.prior.kind == "initial-field":
        truth = read_field(synth, "truth", StepFunction.from_spec, where=where)
        with _naming(where):
            check_in_domain(truth.min_value(), truth.max_value(), (cfg.velocity or cfg.flux).domain)
    elif "truth_latent" in synth:
        truth = read_field(
            synth, "truth_latent", lambda v: cfg.prior.transform(np.asarray(v, dtype=float)),
            where=where,
        )
    else:
        raise ConfigError("synthetic block needs 'truth_latent', or 'truth' for a field prior")
    return truth, noise_std, seed


def _inversion(inv: dict, cfg: ScenarioConfig, command: str, seed: Optional[int]):
    """``cfg`` with the inversion block as ``command`` (synth or invert) reads it."""
    cfg = replace(cfg, prior=read_field(inv, "prior", PriorSpec.from_spec, {}, "inversion block"))
    with _naming("prior block"):
        if cfg.prior.kind == "initial-field":  # its samples take values in (0, 1)
            check_in_domain(0.0, 1.0, (cfg.velocity or cfg.flux).domain)
    make, args = _forward(read_field(inv, "forward", _object, {}, "inversion block"), cfg)
    if (cfg.prior.kind == "velocity") != (make is VelocityTrajectoryForward):
        raise ConfigError("a velocity prior needs a velocity-trajectory forward, and only it")
    with _naming("forward block"):
        cfg = replace(cfg, forward=make(**args))
    if command == "synth":
        return replace(cfg, synthetic=_synthetic(inv, cfg, seed))

    sampler = read_field(inv, "sampler", _object, {}, "inversion block")
    where = "sampler block"
    chain_length = read_field(sampler, "chain_length", int, 1000, where)
    beta = read_field(sampler, "beta", float, 0.1, where)
    burn_in = read_field(sampler, "burn_in", int, 0, where)
    thin = read_field(sampler, "thin", int, 1, where)
    with _naming(where):
        check_pcn_settings(chain_length, beta, burn_in)
    if thin < 1:
        raise ConfigError("bad sampler block: thin must be positive")
    cfg = replace(cfg, sampler=(chain_length, beta, burn_in, thin))

    with _naming("observations"):
        if "observations_file" in inv:
            cfg = replace(cfg, observations=read_observations_json(str(inv["observations_file"])))
        elif "observations" in inv:
            cfg = replace(cfg, observations=ObservationSet.from_spec(inv["observations"]))
        elif "synthetic" in inv:
            cfg = replace(cfg, synthetic=_synthetic(inv, cfg, None))
        else:
            raise ConfigError("inversion block needs observations, observations_file, "
                              "or a synthetic recipe")
        if cfg.observations is not None:
            check_observations_fit(cfg.observations, cfg.forward)

    if inv.get("ladder"):
        blk, where = read_field(inv, "ladder", _object, where="inversion block"), "ladder block"
        levels = read_field(blk, "levels", lambda ns: [int(n) for n in ns], (), where)
        if not levels:
            raise ConfigError("ladder block needs a nonempty levels list")
        if "level" not in args:
            raise ConfigError("a ladder needs a forward with a level; viscous-trajectory has none")
        n_samples = read_field(blk, "n_samples", int, 500, where)
        reference = read_field(blk, "reference", int, 12, where)
        with _naming(where):
            check_hellinger_samples(n_samples)
            rungs = [(n, make(**dict(args, level=n))) for n in levels]
            cfg = replace(cfg, ladder=(rungs, make(**dict(args, level=reference)), n_samples))
    return cfg


def load_scenario(path: str, command: str, seed: Optional[int] = None) -> ScenarioConfig:
    """The scenario at ``path`` as ``command`` reads it: the core and every
    block the command uses, checked and built.

    ``seed`` (the command line's ``--seed``) overrides the seed the command
    draws from: the synthetic recipe's for ``synth``, the scenario's for the
    other commands.
    """
    if seed is not None and seed < 0:
        raise ConfigError("--seed must be nonnegative")
    data = load_config(path)
    cfg = _core(data, command)
    if command in ("track", "stability") and cfg.velocity is None:
        raise ConfigError(f"{command} needs a velocity spec")
    if command in ("track", "stability") and cfg.particle is None:
        raise ConfigError(f"{command} needs a particle block with x0 and t0")
    if command == "stability":
        cfg = replace(cfg, stability=_stability(read_field(data, "stability", _object), cfg))
    if command == "viscous":
        cfg = replace(cfg, viscous=_viscous(read_field(data, "viscous", _object), cfg))
    if command in ("synth", "invert"):
        cfg = _inversion(read_field(data, "inversion", _object), cfg, command, seed)
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
    write_json(path, obs.to_spec())


def read_observations_json(path: str) -> ObservationSet:
    return ObservationSet.from_spec(load_config(path))
