"""Command-line front end.

Exit codes: 0 success, 2 anything raised while the config loads, 3 anything
the command raises, 4 a failed --check assertion.  Identical config and seed
produce byte-identical outputs; SHOCKLINE_OUT overrides --out when set.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

import numpy as np

from . import config as cfgio
from .bayes import posterior_convergence_study, run_pcn, synth_observations
from .config import ScenarioConfig
from .experiments import flux_stability, initial_field_stability
from .filippov import check_speed_inclusion, track
from .flux import PiecewiseLinearFlux
from .front_tracking import evolve, quantize_step
from .viscous import solve_viscous


class CheckFailure(RuntimeError):
    """An embedded --check assertion did not hold."""


def _solution(cfg: ScenarioConfig):
    rho0 = quantize_step(cfg.initial, cfg.level)
    return rho0, evolve(rho0, cfg.tracking_flux(), cfg.horizon)


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
    target, family, epsilons, window = cfg.stability
    x0, t0 = cfg.particle
    study = (cfg.initial, cfg.velocity, x0, t0, cfg.horizon, epsilons, family, cfg.level)
    if target == "initial":
        report = initial_field_stability(*study, window=window, seed=cfg.seed)
    else:
        report = flux_stability(*study)
    cfgio.write_rate_report(
        os.path.join(out, "rate_report.json"),
        os.path.join(out, "rate_report.csv"),
        report,
    )
    if args.check and not report.all_bounds_hold:
        raise CheckFailure("a measured error exceeds its stability bound")
    return 0


def cmd_synth(cfg: ScenarioConfig, args, out: str) -> int:
    recipe = (cfg.forward, *cfg.synthetic)
    obs = synth_observations(*recipe)
    cfgio.write_observations_json(os.path.join(out, "observations.json"), obs)
    if args.check and not np.array_equal(obs.values, synth_observations(*recipe).values):
        raise CheckFailure("synthetic data not reproducible under its seed")
    return 0


def cmd_invert(cfg: ScenarioConfig, args, out: str) -> int:
    obs = cfg.observations or synth_observations(cfg.forward, *cfg.synthetic)
    chain_length, beta, burn_in, thin = cfg.sampler
    run = run_pcn(cfg.prior, obs, cfg.forward, chain_length, beta, cfg.seed, burn_in=burn_in)
    cfgio.write_chain_csv(os.path.join(out, "chain.csv"), run, thin=thin)
    band_lo, band_hi = run.credible_band()
    summary = {
        "acceptance_rate": run.acceptance_rate,
        "chain_length": run.chain_length,
        "beta": beta,
        "seed": cfg.seed,
        "posterior_mean_values": run.mean_values,
        "credible_band_low": band_lo,
        "credible_band_high": band_hi,
        "grid": cfg.prior.grid,
    }
    if cfg.ladder:
        rungs, reference, n_samples = cfg.ladder
        study = posterior_convergence_study(
            cfg.prior, obs, rungs, reference, n_samples, seed=cfg.seed, jobs=args.jobs
        )
        summary["hellinger_table"] = [
            {"level": n, **row.estimate.to_dict()} for (n, _), row in zip(rungs, study.rows)
        ]
    cfgio.write_json(os.path.join(out, "summary.json"), summary)
    if args.check:
        if not 0.0 < run.acceptance_rate < 1.0:
            raise CheckFailure(
                f"degenerate acceptance rate {run.acceptance_rate}"
            )
        if cfg.ladder and not study.monotone_nonincreasing:
            raise CheckFailure("Hellinger ladder is not nonincreasing")
    return 0


def cmd_viscous(cfg: ScenarioConfig, args, out: str) -> int:
    times, settings = cfg.viscous
    fld = solve_viscous(cfg.initial, cfg.smooth_flux(), **settings)
    names = []
    for i, t in enumerate(times):
        name = f"snapshot_{i:02d}.csv"
        cfgio.write_snapshot_csv(os.path.join(out, name), fld.x, fld.snapshot(t))
        names.append(name)
    cfgio.write_json(
        os.path.join(out, "summary.json"),
        {
            "epsilon": settings["epsilon"],
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
        cfg = cfgio.load_scenario(args.config, args.command, args.seed)
    except Exception as exc:  # everything a config determines is checked while it loads
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        out = os.environ.get("SHOCKLINE_OUT") or args.out
        os.makedirs(out, exist_ok=True)
        return COMMANDS[args.command](cfg, args, out)
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # solver-level failure
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
