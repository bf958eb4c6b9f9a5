"""Scenario configuration and file output.

Configs are JSON; bulk numeric series go to CSV.  Floats are written with
repr so identical runs produce byte-identical files, and every file is
written atomically (temp file + rename).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from math import isfinite
from typing import Optional, Sequence

import numpy as np

from .bayes import ObservationSet, PosteriorRun, PriorSpec
from .filippov import Trajectory
from .flux import (
    FluxFunction,
    VelocityFunction,
    flux_from_spec,
    velocity_from_spec,
)
from .front_tracking import FrontTrackingSolution, StepFunction


class ConfigError(ValueError):
    """A scenario file is malformed or inconsistent."""


@dataclass
class ScenarioConfig:
    """Parsed scenario: what to solve plus optional experiment blocks."""

    flux: Optional[FluxFunction]
    velocity: Optional[VelocityFunction]
    initial: StepFunction
    horizon: float
    level: int
    seed: int = 0
    particle: Optional[tuple[float, float]] = None  # (x0, t0)
    times: tuple = ()
    raw: dict = field(default_factory=dict)

    def block(self, name: str) -> dict:
        blk = self.raw.get(name)
        if blk is None:
            raise ConfigError(f"scenario is missing the {name!r} block")
        if not isinstance(blk, dict):
            raise ConfigError(f"the {name!r} block must be an object")
        return blk


def float_tuple(values) -> tuple:
    return tuple(float(v) for v in values)


_REQUIRED = object()


def read_field(data: dict, key: str, convert, default=_REQUIRED, where: str = "scenario"):
    """``convert(data[key])``, or ``convert(default)`` when the key is absent.

    A block that is not an object, a missing key without a default, or a
    value ``convert`` rejects is a ConfigError that names the field.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object")
    if key not in data and default is _REQUIRED:
        raise ConfigError(f"{where} is missing required key {key!r}")
    try:
        return convert(data.get(key, default))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where} has a bad {key!r}: {exc}") from exc


class _Constant(str):
    """``NaN``, ``Infinity`` or ``-Infinity`` as the JSON text spells it.

    Python's JSON reader accepts these tokens, but standard JSON has no
    such numbers; ``load_config`` parses them to this marker and rejects
    them with the field that holds them.
    """


def _reject_non_numbers(node, path: tuple = ()) -> None:
    """ConfigError at the first NaN or infinity, or null in an array, under ``node``.

    ``path`` holds the keys and indices from the config root down to
    ``node``; the error names the innermost object as the block and the
    field in it, with any array indices.
    """
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        at = path + (key,)
        if isinstance(value, _Constant) or (value is None and isinstance(node, list)):
            k = max(i for i, part in enumerate(at) if isinstance(part, str))
            block = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in at[:k])[1:]
            where = f"{block} block" if block else "scenario"
            field = repr(at[k]) + "".join(f"[{p}]" for p in at[k + 1:])
            raise ConfigError(f"bad {where}: {field} is {value or 'null'}, not a JSON number")
        _reject_non_numbers(value, at)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=_Constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        _reject_non_numbers(data)
    return data


def parse_scenario(data: dict) -> ScenarioConfig:
    """Validate and build a ScenarioConfig from a parsed JSON object."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")

    velocity = None
    if "velocity" in data:
        try:
            velocity = velocity_from_spec(data["velocity"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"bad velocity spec: {exc}") from exc

    flux = None
    if "flux" in data:
        try:
            flux = flux_from_spec(data["flux"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"bad flux spec: {exc}") from exc
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
        blk = data["particle"]
        x0 = read_field(blk, "x0", float, where="particle block")
        t0 = read_field(blk, "t0", float, where="particle block")
        if t0 <= 0:
            raise ConfigError("particle t0 must be positive (paths from t0 = 0 "
                              "through a discontinuity need not be unique)")
        particle = (x0, t0)

    times = read_field(data, "times", float_tuple, ())
    if any(t < 0 or t > horizon for t in times):
        raise ConfigError("output times must lie in [0, horizon]")

    # traffic-specific consistency: experiment blocks assume a positive
    # density floor, which several bound constants divide by
    if velocity is not None and ("stability" in data or "particle" in data):
        if initial.min_value() <= 0:
            raise ConfigError(
                "traffic scenarios with particles or stability blocks need "
                "strictly positive initial densities (density floor m > 0)"
            )

    return ScenarioConfig(
        flux=flux,
        velocity=velocity,
        initial=initial,
        horizon=horizon,
        level=level,
        seed=read_field(data, "seed", int, 0),
        particle=particle,
        times=times,
        raw=data,
    )


def load_scenario(path: str) -> ScenarioConfig:
    return parse_scenario(load_config(path))


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
        for m in range(0, run.chain_length, max(thin, 1))
    )
    write_csv(path, header, rows)


def write_observations_json(path: str, obs: ObservationSet) -> None:
    write_json(path, obs.to_spec())


def read_observations_json(path: str) -> ObservationSet:
    try:
        return ObservationSet.from_spec(load_config(path))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad observation file {path}: {exc}") from exc


def prior_from_block(blk: dict) -> PriorSpec:
    try:
        return PriorSpec.from_spec(blk)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"bad prior spec: {exc}") from exc
