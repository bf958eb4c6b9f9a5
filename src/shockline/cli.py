"""Command-line front end.

Exit codes: 0 success, 2 config error, 3 solver error, 4 failed --check
assertion.  Identical config and seed produce byte-identical outputs;
SHOCKLINE_OUT overrides --out when set.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

import numpy as np

from . import config as cfgio
from .bayes import (
    BallAverageForward,
    PointwiseForward,
    TrajectoryForward,
    VelocityTrajectoryForward,
    ViscousTrajectoryForward,
    check_hellinger_samples,
    check_noise_std,
    check_observations_fit,
    check_pcn_settings,
    posterior_convergence_study,
    run_pcn,
    synth_observations,
)
from .config import ConfigError, ScenarioConfig, float_tuple, read_field
from .experiments import flux_stability, initial_field_stability
from .filippov import check_speed_inclusion, track
from .flux import (
    LinearTrafficVelocity,
    PiecewiseLinearFlux,
    TrafficQuadraticFlux,
    piecewise_linearize,
    traffic_flux_from_velocity,
)
from .front_tracking import evolve, quantize_step
from .viscous import CFL_SAFETY, check_viscous_settings, solve_viscous


# The perturbation families each stability target knows, its default first.
STABILITY_FAMILIES = {"initial": ("shift", "dither", "steps"),
                      "velocity": ("scale", "tilt", "curve")}


class CheckFailure(RuntimeError):
    """An embedded --check assertion did not hold."""


def _tracking_flux(cfg: ScenarioConfig) -> PiecewiseLinearFlux:
    """The piecewise-linear flux the event loop runs on."""
    if cfg.velocity is not None:
        return traffic_flux_from_velocity(cfg.velocity, cfg.level)
    if isinstance(cfg.flux, PiecewiseLinearFlux):
        return cfg.flux
    return piecewise_linearize(cfg.flux, cfg.level)


def _smooth_flux(cfg: ScenarioConfig):
    """The flux the viscous solver runs on; smooth where one is known."""
    if cfg.flux is not None and not isinstance(cfg.flux, PiecewiseLinearFlux):
        return cfg.flux
    if isinstance(cfg.velocity, LinearTrafficVelocity):
        return TrafficQuadraticFlux(cfg.velocity.w_max, cfg.velocity.rho_max)
    return _tracking_flux(cfg)


def _solution(cfg: ScenarioConfig):
    rho0 = quantize_step(cfg.initial, cfg.level)
    return rho0, evolve(rho0, _tracking_flux(cfg), cfg.horizon)


def _conservation_window(cfg: ScenarioConfig, flux: PiecewiseLinearFlux) -> tuple[float, float]:
    reach = flux.lipschitz_norm * cfg.horizon + 1.0
    bp = cfg.initial.breakpoints
    lo = (bp[0] if bp.size else 0.0) - reach
    hi = (bp[-1] if bp.size else 0.0) + reach
    return float(lo), float(hi)


def cmd_solve(cfg: ScenarioConfig, args, out: str) -> int:
    rho0, sol = _solution(cfg)
    times = list(cfg.times) if cfg.times else [cfg.horizon]
    names = []
    for i, t in enumerate(times):
        name = f"slice_{i:02d}.csv"
        cfgio.write_slice_csv(os.path.join(out, name), sol.slice(t))
        names.append(name)
    cfgio.write_events_json(os.path.join(out, "events.json"), sol)
    window = _conservation_window(cfg, sol.flux)
    summary = {
        "times": times,
        "slices": names,
        "events": "events.json",
        "collisions": sol.collision_count,
        "level": cfg.level,
        "mass_window": list(window),
        "mass_initial": rho0.integral(*window),
    }
    cfgio.write_json(os.path.join(out, "summary.json"), summary)
    if args.check:
        tv0 = rho0.total_variation()
        m0 = rho0.integral(*window)
        # mass in a window all waves stay inside changes at exactly the
        # far-field flux imbalance
        rate = sol.flux(rho0.far_left) - sol.flux(rho0.far_right)
        lo, hi = rho0.min_value(), rho0.max_value()
        for t in times:
            s = sol.slice(t)
            if abs(s.integral(*window) - m0 - rate * t) > 1e-10:
                raise CheckFailure(f"mass drift at t={t} exceeds 1e-10")
            if s.total_variation() > tv0 + 1e-10:
                raise CheckFailure(f"total variation grew by t={t}")
            if s.min_value() < lo - 1e-12 or s.max_value() > hi + 1e-12:
                raise CheckFailure(f"new extremum at t={t}")
    return 0


def cmd_track(cfg: ScenarioConfig, args, out: str) -> int:
    if cfg.particle is None:
        raise ConfigError("track needs a particle block with x0 and t0")
    if cfg.velocity is None:
        raise ConfigError("track needs a velocity spec")
    x0, t0 = cfg.particle
    _, sol = _solution(cfg)
    traj = track(sol, cfg.velocity, x0, t0, cfg.horizon)
    cfgio.write_trajectory_csv(os.path.join(out, "trajectory.csv"), traj)
    cfgio.write_json(
        os.path.join(out, "summary.json"),
        {
            "nodes": len(traj.times),
            "start": [x0, t0],
            "final_position": traj.positions[-1],
            "sticking_spans": [[a, b] for a, b, _ in traj.sticking],
        },
    )
    if args.check:
        worst = check_speed_inclusion(traj, sol, cfg.velocity)
        if worst > 1e-10:
            raise CheckFailure(f"speed-inclusion violation {worst:.3e} > 1e-10")
    return 0


def cmd_stability(cfg: ScenarioConfig, args, out: str) -> int:
    blk = cfg.block("stability")
    where = "stability block"
    if cfg.velocity is None:
        raise ConfigError("stability needs a velocity spec")
    if cfg.particle is None:
        raise ConfigError("stability needs a particle block")
    target = read_field(blk, "target", str, "initial", where)
    families = STABILITY_FAMILIES.get(target)
    if families is None:
        raise ConfigError(f"unknown stability target {target!r}")
    family = read_field(blk, "family", str, families[0], where)
    if family not in families:
        raise ConfigError(f"unknown {target} perturbation family {family!r}; one of {families}")
    epsilons = read_field(blk, "epsilons", float_tuple, (), where)
    if not epsilons:
        raise ConfigError("stability block needs a nonempty epsilons ladder")
    x0, t0 = cfg.particle
    if target == "initial":
        report = initial_field_stability(
            cfg.initial, cfg.velocity, x0, t0, cfg.horizon, epsilons, family, cfg.level,
            window=read_field(blk, "window", float_tuple, where=where) if "window" in blk else None,
            seed=cfg.seed if args.seed is None else args.seed,
        )
    else:
        report = flux_stability(
            cfg.initial, cfg.velocity, x0, t0, cfg.horizon, epsilons, family, cfg.level
        )
    cfgio.write_rate_report(
        os.path.join(out, "rate_report.json"),
        os.path.join(out, "rate_report.csv"),
        report,
    )
    if args.check and not report.all_bounds_hold:
        raise CheckFailure("a measured error exceeds its stability bound")
    return 0


def _config_checked(where: str, fn, *args):
    """``fn(*args)``; a ValueError it raises for a value of ``where`` is a ConfigError."""
    try:
        return fn(*args)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def _forward_from_block(blk: dict, cfg: ScenarioConfig):
    """The forward map of a forward block; a value its constructor rejects is a ConfigError."""
    return _config_checked("forward block", _forward_map, blk, cfg)


def _forward_map(blk: dict, cfg: ScenarioConfig):
    where = "forward block"
    kind = read_field(blk, "kind", str, "trajectory", where)
    level = read_field(blk, "level", int, cfg.level, where)
    times = read_field(blk, "times", lambda ts: float_tuple(ts or cfg.times), None, where)
    if not times:
        raise ConfigError("forward block needs observation times")
    if kind in ("trajectory", "viscous-trajectory", "velocity-trajectory"):
        if "x0" in blk and "t0" in blk:
            x0 = read_field(blk, "x0", float, where=where)
            t0 = read_field(blk, "t0", float, where=where)
        elif cfg.particle is not None:
            x0, t0 = cfg.particle
        else:
            raise ConfigError("trajectory forward needs x0 and t0")
        if t0 <= 0:
            raise ConfigError("forward t0 must be positive")
    if kind != "velocity-trajectory" and cfg.velocity is None:
        raise ConfigError(f"{kind} forward needs a velocity spec")
    if kind == "trajectory":
        return TrajectoryForward(cfg.velocity, level, x0, t0, times)
    if kind == "velocity-trajectory":
        return VelocityTrajectoryForward(cfg.initial, level, x0, t0, times)
    if kind == "viscous-trajectory":
        return ViscousTrajectoryForward(
            cfg.velocity, _smooth_flux(cfg), read_field(blk, "epsilon", float, where=where),
            x0, t0, times,
            n_cells=read_field(blk, "n_cells", int, 400, where),
            store_every=read_field(blk, "store_every", int, 4, where),
        )
    if kind == "pointwise":
        return PointwiseForward(
            cfg.velocity, level, read_field(blk, "positions", float_tuple, where=where), times
        )
    if kind == "ball-average":
        return BallAverageForward(
            cfg.velocity, level, read_field(blk, "positions", float_tuple, where=where), times,
            read_field(blk, "radius", float, where=where),
        )
    raise ConfigError(f"unknown forward kind {kind!r}")


def _synthetic(blk: dict, cfg: ScenarioConfig, seed=None) -> tuple:
    """(truth, noise_std, seed) of the inversion block's synthetic recipe, the
    arguments of ``synth_observations`` after the forward; ``seed`` overrides
    the recipe's seed."""
    synth = blk["synthetic"]
    where = "synthetic block"
    if seed is None:
        seed = read_field(synth, "seed", int, cfg.seed, where)
    noise_std = read_field(synth, "noise_std", float, 0.0, where)
    _config_checked(where, check_noise_std, noise_std)
    prior = cfgio.prior_from_block(blk.get("prior", {}))
    if "truth" in synth:
        truth = read_field(synth, "truth", cfgio.StepFunction.from_spec, where=where)
    elif "truth_latent" in synth:
        truth = read_field(
            synth, "truth_latent", lambda v: prior.transform(np.asarray(v, dtype=float)),
            where=where,
        )
    else:
        raise ConfigError("synthetic block needs 'truth' or 'truth_latent'")
    return truth, noise_std, seed


def cmd_synth(cfg: ScenarioConfig, args, out: str) -> int:
    blk = cfg.block("inversion")
    if blk.get("synthetic") is None:
        raise ConfigError("synth needs an inversion.synthetic block")
    recipe = _synthetic(blk, cfg, args.seed)
    forward = _forward_from_block(blk.get("forward", {}), cfg)
    obs = synth_observations(forward, *recipe)
    cfgio.write_observations_json(os.path.join(out, "observations.json"), obs)
    if args.check and not np.array_equal(obs.values, synth_observations(forward, *recipe).values):
        raise CheckFailure("synthetic data not reproducible under its seed")
    return 0


def _observations(blk: dict, cfg: ScenarioConfig):
    """The inversion block's observations, or its synthetic recipe (a tuple)."""
    if "observations_file" in blk:
        return cfgio.read_observations_json(blk["observations_file"])
    if "observations" in blk:
        try:
            return cfgio.ObservationSet.from_spec(blk["observations"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad observations block: {exc}") from exc
    if "synthetic" in blk:
        return _synthetic(blk, cfg)
    raise ConfigError("inversion block needs observations, observations_file, "
                      "or a synthetic recipe")


def cmd_invert(cfg: ScenarioConfig, args, out: str) -> int:
    blk = cfg.block("inversion")
    # the sampler and the observations are read before any forward is built,
    # and every block is checked before the chain runs
    prior = cfgio.prior_from_block(blk.get("prior", {}))
    sampler = blk.get("sampler", {})
    chain_length = read_field(sampler, "chain_length", int, 1000, "sampler block")
    beta = read_field(sampler, "beta", float, 0.1, "sampler block")
    burn_in = read_field(sampler, "burn_in", int, 0, "sampler block")
    thin = read_field(sampler, "thin", int, 1, "sampler block")
    _config_checked("sampler block", check_pcn_settings, chain_length, beta, burn_in)
    obs = _observations(blk, cfg)
    forward = _forward_from_block(blk.get("forward", {}), cfg)
    if isinstance(obs, tuple):
        obs = synth_observations(forward, *obs)
    _config_checked("observations", check_observations_fit, obs, forward)
    ladder_blk = blk.get("ladder")
    if ladder_blk:
        where = "ladder block"
        levels = read_field(ladder_blk, "levels", lambda ns: [int(n) for n in ns], (), where)
        if not levels:
            raise ConfigError("ladder block needs a nonempty levels list")
        n_samples = read_field(ladder_blk, "n_samples", int, 500, where)
        _config_checked(where, check_hellinger_samples, n_samples)

        def forward_at(level):
            return _forward_from_block(dict(blk.get("forward", {}), level=level), cfg)

        rungs = [(n, forward_at(n)) for n in levels]
        reference = forward_at(read_field(ladder_blk, "reference", int, 12, where))
    seed = cfg.seed if args.seed is None else args.seed
    run = run_pcn(prior, obs, forward, chain_length, beta, seed, burn_in=burn_in)
    cfgio.write_chain_csv(os.path.join(out, "chain.csv"), run, thin=thin)
    band_lo, band_hi = run.credible_band()
    summary = {
        "acceptance_rate": run.acceptance_rate,
        "chain_length": run.chain_length,
        "beta": beta,
        "seed": seed,
        "posterior_mean_values": run.mean_values,
        "credible_band_low": band_lo,
        "credible_band_high": band_hi,
        "grid": prior.grid,
    }
    if ladder_blk:
        study = posterior_convergence_study(
            prior, obs, rungs, reference, n_samples, seed=seed, jobs=args.jobs
        )
        summary["hellinger_table"] = [
            {"level": n, **row.estimate.to_dict()} for n, row in zip(levels, study.rows)
        ]
    cfgio.write_json(os.path.join(out, "summary.json"), summary)
    if args.check:
        if not 0.0 < run.acceptance_rate < 1.0:
            raise CheckFailure(
                f"degenerate acceptance rate {run.acceptance_rate}"
            )
        if ladder_blk and not study.monotone_nonincreasing:
            raise CheckFailure("Hellinger ladder is not nonincreasing")
    return 0


def cmd_viscous(cfg: ScenarioConfig, args, out: str) -> int:
    blk = cfg.block("viscous")
    where = "viscous block"
    times = read_field(blk, "snapshot_times", float_tuple, (), where) or list(cfg.times) or [
        cfg.horizon
    ]
    settings = (  # solve_viscous's arguments after the flux, in order
        read_field(blk, "epsilon", float, 0.05, where),
        cfg.horizon,
        read_field(blk, "window", float_tuple, where=where) if "window" in blk else None,
        read_field(blk, "n_cells", int, 2000, where),
        read_field(blk, "cfl_safety", float, CFL_SAFETY, where),
        read_field(blk, "store_every", int, 1, where),
        (*times, 0.0, cfg.horizon),  # the only levels read below
    )
    _config_checked(where, check_viscous_settings, *settings)
    epsilon = settings[0]
    fld = solve_viscous(cfg.initial, _smooth_flux(cfg), *settings)
    names = []
    for i, t in enumerate(times):
        name = f"snapshot_{i:02d}.csv"
        cfgio.write_snapshot_csv(os.path.join(out, name), fld.x, fld.snapshot(t))
        names.append(name)
    cfgio.write_json(
        os.path.join(out, "summary.json"),
        {
            "epsilon": epsilon,
            "dx": fld.dx,
            "dt": fld.dt,
            "times": times,
            "snapshots": names,
            "mass_initial": fld.mass(0.0),
            "mass_final": fld.mass(cfg.horizon),
            "boundary_account": fld.boundary_account,
        },
    )
    if args.check:
        drift = abs(
            fld.mass(cfg.horizon) - fld.mass(0.0) - fld.boundary_account
        )
        if drift > 1e-8:
            raise CheckFailure(f"mass accounting off by {drift:.3e} > 1e-8")
        lo, hi = cfg.initial.min_value(), cfg.initial.max_value()
        final = fld.snapshot(cfg.horizon)
        if final.min() < lo - 1e-12 or final.max() > hi + 1e-12:
            raise CheckFailure("viscous solution left the initial value hull")
    return 0


COMMANDS = {
    "solve": cmd_solve,
    "track": cmd_track,
    "stability": cmd_stability,
    "invert": cmd_invert,
    "viscous": cmd_viscous,
    "synth": cmd_synth,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shockline",
        description="Front-tracking conservation-law solver, particle "
        "trajectories, stability experiments, and Bayesian inversion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "evolve a scenario and export slices plus an event log"),
        ("track", "follow a particle through a solved scenario"),
        ("stability", "run a perturbation ladder and export the rate report"),
        ("invert", "sample a posterior with pCN and export the chain"),
        ("viscous", "solve the viscous regularization and export snapshots"),
        ("synth", "generate synthetic observations from a known truth"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--check", action="store_true",
                       help="run embedded acceptance assertions")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for sample batches")
    return parser


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = cfgio.load_scenario(args.config)
        out = os.environ.get("SHOCKLINE_OUT") or args.out
        os.makedirs(out, exist_ok=True)
        return COMMANDS[args.command](cfg, args, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # solver-level failure
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
