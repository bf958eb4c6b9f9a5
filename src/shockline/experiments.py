"""Quantitative reproductions of the stability and convergence results.

Each study builds matched pairs (or ladders) of front-tracking runs,
measures trajectory or field distances exactly, and compares them against
the predicted Holder-type envelopes with all constants computed from
measured quantities (Lipschitz norms, BV norms, density floors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Optional, Sequence

import numpy as np

from .filippov import Trajectory, track
from .flux import (
    BurgersQuadraticFlux,
    TableVelocity,
    TrafficQuadraticFlux,
    VelocityFunction,
    dyadic_points,
    piecewise_linearize,
    traffic_flux_from_velocity,
)
from .front_tracking import (
    FrontTrackingSolution,
    StepFunction,
    evolve,
    l1_distance,
    quantize_step,
)
from .viscous import solve_viscous, track_smooth, viscous_flux


def fit_rate(eps_values: Sequence[float], errors: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope and intercept of log(error) against log(eps).

    Requires at least three strictly positive pairs; exact power data
    c * eps**p returns (p, log(c)) up to rounding.
    """
    eps = np.asarray(eps_values, dtype=float)
    err = np.asarray(errors, dtype=float)
    # errors at the exactness floor carry no rate information
    keep = (eps > 0) & (err > 1e-12)
    if int(np.sum(keep)) < 3:
        raise ValueError(
            f"need at least 3 positive (eps, error) pairs for a rate fit, got {int(np.sum(keep))}"
        )
    slope, intercept = np.polyfit(np.log(eps[keep]), np.log(err[keep]), 1)
    return float(slope), float(intercept)


@dataclass
class RateReport:
    """One perturbation ladder: measured sizes, errors, and envelope check."""

    label: str
    epsilons: np.ndarray
    errors: np.ndarray
    slope: float
    intercept: float
    bound_constants: np.ndarray
    bound_values: np.ndarray
    bound_satisfied: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def all_bounds_hold(self) -> bool:
        return bool(np.all(self.bound_satisfied))

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "epsilons": [float(x) for x in self.epsilons],
            "errors": [float(x) for x in self.errors],
            "slope": self.slope,
            "intercept": self.intercept,
            "bound_constants": [float(x) for x in self.bound_constants],
            "bound_values": [float(x) for x in self.bound_values],
            "bound_satisfied": [bool(x) for x in self.bound_satisfied],
            "meta": self.meta,
        }

    def rows(self):
        """(epsilon, error, bound, bound holds) per rung."""
        return zip(self.epsilons, self.errors, self.bound_values, self.bound_satisfied)


def _rate_ladder(label: str, traj: Trajectory, rungs, epsilons, meta: dict) -> RateReport:
    """Sup-distances of perturbed paths from ``traj`` against C * sqrt(size).

    ``rungs`` yields (measured perturbation size, bound constant C,
    perturbed trajectory) per ladder value.  Adds to ``meta`` whether no
    path sticks and the requested ladder ``epsilons``.
    """
    sizes, consts, errors, stick_free = [], [], [], not traj.sticking
    for size, c, traj_p in rungs:
        sizes.append(size)
        consts.append(c)
        errors.append(traj.sup_distance(traj_p))
        stick_free = stick_free and not traj_p.sticking
    slope, intercept = fit_rate(sizes, errors)
    sizes, consts, errors = np.asarray(sizes), np.asarray(consts), np.asarray(errors)
    bounds = consts * np.sqrt(sizes)
    meta.update(sticking_free=stick_free, requested_epsilons=[float(e) for e in epsilons])
    return RateReport(
        label, sizes, errors, slope, intercept, consts, bounds, errors <= bounds, meta
    )


@dataclass
class LadderReport:
    """Errors against a reference along a discrete refinement ladder."""

    labels: np.ndarray
    errors: np.ndarray
    reference_label: float
    monotone_nonincreasing: bool
    meta: dict = field(default_factory=dict)


def _snap(value: float, level: int) -> float:
    """Round to the dyadic grid, at least one grid cell."""
    scale = 2.0 ** level
    return max(round(value * scale), 1) / scale


def stability_window(velocity: VelocityFunction, horizon: float) -> tuple[float, float]:
    """Perturbation-norm window (-2 L_w T, 3 L_w T) used by the stability bounds."""
    lw = velocity.lipschitz_norm * horizon
    return (-2.0 * lw, 3.0 * lw)


def perturb_initial_field(
    base: StepFunction,
    eps: float,
    family: str,
    level: int,
    window: tuple[float, float],
    seed: int = 0,
) -> StepFunction:
    """Perturbation of ``base`` with L1-window size close to ``eps``.

    Families: 'shift' moves every jump location, 'dither' nudges interior
    cell values on the dyadic grid, 'steps' adds small grid-valued
    rectangles.  Values are clipped to [2**-level, 1], so the density
    floor stays positive on the grid.
    """
    if family == "shift":
        tv = base.total_variation()
        if tv == 0:
            raise ValueError("shift family needs at least one jump")
        return base.translate(eps / tv)
    rng = np.random.default_rng(seed)
    floor = 2.0 ** -level
    if family == "dither":
        vals = base.values.copy()
        if vals.size < 3:
            raise ValueError("dither family needs at least two jumps")
        widths = np.diff(base.breakpoints)
        total = float(np.sum(widths)) if widths.size else 1.0
        amp = _snap(eps / max(total, 1e-9), level)
        for k in range(1, vals.size - 1):
            vals[k] = min(max(vals[k] + amp * (1 if k % 2 else -1), floor), 1.0)
        return StepFunction(base.breakpoints.copy(), vals)
    if family == "steps":
        lo, hi = window
        span = hi - lo
        starts = lo + span * rng.uniform(0.1, 0.8, size=3)
        widths = span * rng.uniform(0.05, 0.12, size=3)
        total = float(np.sum(widths))
        amp = _snap(eps / total, level)
        bumps = []
        for s, wd, sign in zip(starts, widths, (1, -1, 1)):
            bumps.append((float(s), float(s + wd), sign * amp))
        xs = np.unique(
            np.concatenate((base.breakpoints, [b[0] for b in bumps], [b[1] for b in bumps]))
        )
        sample_pts = np.concatenate((
            [xs[0] - 1.0], 0.5 * (xs[:-1] + xs[1:]), [xs[-1] + 1.0]
        ))
        vals = base.sample(sample_pts)
        for a, b, h in bumps:
            inside = (sample_pts > a) & (sample_pts < b)
            vals[inside] = np.clip(vals[inside] + h, floor, 1.0)
        return StepFunction(xs, vals)
    raise ValueError(f"unknown perturbation family {family!r}")


# The perturbation families of each stability target, its default first.
STABILITY_FAMILIES = {"initial": ("shift", "dither", "steps"),
                      "velocity": ("scale", "tilt", "curve")}


def check_stability_ladder(
    base: StepFunction,
    velocity: VelocityFunction,
    level: int,
    horizon: float,
    epsilons: Sequence[float],
    family: str,
    window: Optional[tuple[float, float]] = None,
    seed: int = 0,
) -> list[tuple[float, object]]:
    """The rungs (measured size, perturbed field or velocity) of a ladder on
    ``base``, sized in L1 over ``window`` (default ``stability_window``) for
    an initial family.  ValueError unless the ladder can run: an admissible
    velocity, positive finite sizes, positive density floors after
    quantization to ``level``, and a window (when given) of positive length."""
    if not velocity.is_admissible():
        raise ValueError("velocity must be strictly decreasing with w(rho_max) = 0")
    if not epsilons or not all(0 < e < inf for e in epsilons):
        raise ValueError("epsilons must be a nonempty list of positive finite numbers")
    base_q = quantize_step(base, level)
    if base_q.min_value() <= 0:
        raise ValueError("density floor must stay positive after quantization")
    if window is not None and not (len(window) == 2 and window[0] < window[1]):
        raise ValueError("window must be an interval (lo, hi) with lo < hi")
    if family in STABILITY_FAMILIES["velocity"]:
        rungs = [perturb_velocity(velocity, eps, family, level) for eps in epsilons]
        if not all(w_p.is_admissible() for w_p in rungs):
            raise ValueError("perturbed velocity left the admissible class")
        return [(velocity_lip_distance(velocity, w_p, level), w_p) for w_p in rungs]
    if window is None:
        window = stability_window(velocity, horizon)
    rungs = [quantize_step(perturb_initial_field(base, eps, family, level, window, seed), level)
             for eps in epsilons]
    if min(pert_q.min_value() for pert_q in rungs) <= 0:
        raise ValueError("perturbed density floor must stay positive")
    return [(l1_distance(base_q, pert_q, window), pert_q) for pert_q in rungs]


def initial_field_stability(
    base: StepFunction,
    velocity: VelocityFunction,
    x0: float,
    t0: float,
    horizon: float,
    epsilons: Sequence[float],
    family: str,
    level: int = 12,
    window: Optional[tuple[float, float]] = None,
    seed: int = 0,
) -> RateReport:
    """Trajectory sup-error against initial-field perturbation size.

    For each ladder value the base and perturbed data are quantized to the
    dyadic value grid, evolved with the same flux, and tracked from
    (x0, t0).  The report checks error <= C * sqrt(eps) with the stability
    constant C = 1 + (T - t0)(1 + 2/m) L_w + (TV + TV_pert)/m computed from
    measured quantities, and fits the log-log rate.
    """
    if family not in STABILITY_FAMILIES["initial"]:
        raise ValueError(f"{family!r} is not an initial-field family")
    if window is None:
        window = stability_window(velocity, horizon)
    rungs = check_stability_ladder(base, velocity, level, horizon, epsilons, family, window, seed)
    flux = traffic_flux_from_velocity(velocity, level)
    base_q = quantize_step(base, level)
    traj = track(evolve(base_q, flux, horizon), velocity, x0, t0, horizon)
    lw = velocity.lipschitz_norm

    def runs():
        for e_meas, pert_q in rungs:
            traj_p = track(evolve(pert_q, flux, horizon), velocity, x0, t0, horizon)
            m_rho = min(base_q.min_value(), pert_q.min_value())
            tv = base_q.total_variation() + pert_q.total_variation()
            c = 1.0 + (horizon - t0) * (1.0 + 2.0 / m_rho) * lw + tv / m_rho
            yield e_meas, c, traj_p

    meta = {"family": family, "level": level, "window": [float(window[0]), float(window[1])]}
    return _rate_ladder(f"initial-field/{family}", traj, runs(), epsilons, meta)


def perturb_velocity(
    base: VelocityFunction, eps: float, family: str, level: int
) -> TableVelocity:
    """Admissible velocity with Lipschitz distance ``eps`` from ``base``.

    All families keep the perturbed velocity strictly decreasing and
    vanishing at rho_max.
    """
    lo, hi = base.domain
    grid = dyadic_points(level, lo, hi)
    w_vals = np.asarray(base(grid), dtype=float)
    if family == "scale":
        rel = eps / base.lipschitz_norm
        if rel >= 1.0:
            raise ValueError("scale perturbation would destroy monotonicity")
        return TableVelocity(grid, (1.0 - rel) * w_vals)
    if family == "tilt":
        amp = eps * hi
        return TableVelocity(grid, w_vals + amp * (1.0 - grid / hi))
    if family == "curve":
        amp = eps * hi
        return TableVelocity(grid, w_vals + 0.5 * amp * (1.0 - (grid / hi) ** 2))
    raise ValueError(f"unknown velocity family {family!r}")


def velocity_lip_distance(a: VelocityFunction, b: VelocityFunction, level: int) -> float:
    """Max slope difference of a - b on the dyadic grid (exact for tables)."""
    lo = max(a.domain[0], b.domain[0])
    hi = min(a.domain[1], b.domain[1])
    grid = dyadic_points(level, lo, hi)
    diff = np.asarray(a(grid), dtype=float) - np.asarray(b(grid), dtype=float)
    return float(np.max(np.abs(np.diff(diff) / np.diff(grid))))


def flux_stability(
    initial: StepFunction,
    velocity: VelocityFunction,
    x0: float,
    t0: float,
    horizon: float,
    epsilons: Sequence[float],
    family: str,
    level: int = 12,
) -> RateReport:
    """Trajectory sup-error against velocity-function perturbation size.

    Both runs share the quantized initial data; each uses the chord flux of
    rho * w(rho) for its own velocity.  Checks error <= C * sqrt(eps) with
    C = 1 + 2 (T - t0)(1 + 2/m) L_w + 2 TV / m.
    """
    if family not in STABILITY_FAMILIES["velocity"]:
        raise ValueError(f"{family!r} is not a velocity family")
    rungs = check_stability_ladder(initial, velocity, level, horizon, epsilons, family)
    rho_q = quantize_step(initial, level)
    m_rho = rho_q.min_value()
    flux = traffic_flux_from_velocity(velocity, level)
    traj = track(evolve(rho_q, flux, horizon), velocity, x0, t0, horizon)
    lw = velocity.lipschitz_norm
    tv = rho_q.total_variation()
    c = 1.0 + 2.0 * (horizon - t0) * (1.0 + 2.0 / m_rho) * lw + 2.0 * tv / m_rho

    def runs():
        for e_meas, w_p in rungs:
            sol_p = evolve(rho_q, traffic_flux_from_velocity(w_p, level), horizon)
            yield e_meas, c, track(sol_p, w_p, x0, t0, horizon)

    meta = {"family": family, "level": level}
    return _rate_ladder(f"flux/{family}", traj, runs(), epsilons, meta)


@dataclass
class BurgersCheck:
    """Agreement between a traffic run and its Burgers change of variables."""

    l1_difference: float
    max_breakpoint_gap: float
    horizon: float
    level: int


def burgers_transform_check(initial: StepFunction, level: int, horizon: float) -> BurgersCheck:
    """Run traffic flow and its Burgers image; compare slices at T/2 and T.

    The substitution u = 1 - 2 rho turns the chord flux of rho (1 - rho)
    into the chord flux of u^2/2 on the image grid (up to a constant), so
    fronts of the two runs coincide; the check measures the leftover
    floating-point discrepancy.
    """
    if level < 1:
        raise ValueError("need level >= 1 so the image grid is dyadic")
    rho_q = quantize_step(initial, level)
    traffic_flux = piecewise_linearize(TrafficQuadraticFlux(1.0, 1.0), level)
    # image states 1 - 2 j/2**level are exactly the level-1 dyadic points of [-1, 1]
    burgers_flux = piecewise_linearize(BurgersQuadraticFlux(), level - 1)
    sol_rho = evolve(rho_q, traffic_flux, horizon)
    u0 = StepFunction(rho_q.breakpoints.copy(), 1.0 - 2.0 * rho_q.values)
    sol_u = evolve(u0, burgers_flux, horizon)
    worst_l1 = 0.0
    worst_gap = 0.0
    for t in (0.5 * horizon, horizon):
        a = sol_rho.slice(t)
        b = sol_u.slice(t)
        mapped = StepFunction(b.breakpoints.copy(), 0.5 * (1.0 - b.values))
        pts = np.concatenate((a.breakpoints, mapped.breakpoints))
        window = (float(np.min(pts)) - 1.0, float(np.max(pts)) + 1.0) if pts.size else (-1.0, 1.0)
        worst_l1 = max(worst_l1, l1_distance(a, mapped, window))
        if a.breakpoints.size == mapped.breakpoints.size and a.breakpoints.size:
            worst_gap = max(
                worst_gap, float(np.max(np.abs(a.breakpoints - mapped.breakpoints)))
            )
        elif a.breakpoints.size != mapped.breakpoints.size:
            worst_gap = np.inf
    return BurgersCheck(worst_l1, worst_gap, horizon, level)


def traffic_speed_margin(sol: FrontTrackingSolution, velocity: VelocityFunction) -> float:
    """min over fronts of min(w(left), w(right)) - speed.

    Positive margin means no front can carry a particle (no sticking for
    traffic flow).
    """
    slowest = np.minimum(velocity(sol.left_values), velocity(sol.right_values))
    return float(np.min(slowest - sol.speeds, initial=np.inf))


def trajectory_convergence_study(
    initial: StepFunction,
    velocity: VelocityFunction,
    x0: float,
    t0: float,
    horizon: float,
    levels: Sequence[int],
    ref_level: int,
) -> LadderReport:
    """Sup-error of tracked paths against a fine-level reference.

    Each ladder run quantizes the data and linearizes the flux at its own
    level, mirroring how the approximation is refined.
    """

    def run(level: int) -> Trajectory:
        flux = traffic_flux_from_velocity(velocity, level)
        sol = evolve(quantize_step(initial, level), flux, horizon)
        return track(sol, velocity, x0, t0, horizon)

    ref = run(ref_level)
    errors = [run(n).sup_distance(ref) for n in levels]
    err = np.asarray(errors)
    return LadderReport(
        labels=np.asarray(levels, dtype=float),
        errors=err,
        reference_label=float(ref_level),
        monotone_nonincreasing=bool(np.all(np.diff(err) <= 1e-14)),
        meta={"kind": "linearization-level"},
    )


def viscous_convergence_study(
    initial: StepFunction,
    velocity: VelocityFunction,
    x0: float,
    t0: float,
    horizon: float,
    epsilons: Sequence[float],
    ref_level: int = 12,
    n_cells: int = 2000,
    store_every: int = 4,
) -> LadderReport:
    """Sup-error of viscous paths against the front-tracking path.

    Also records the smallest speed separation between shocks and adjacent
    particle speeds of the reference run (the transversality margin the
    convergence statement assumes).
    """
    flux_ref = traffic_flux_from_velocity(velocity, ref_level)
    rho_ref = quantize_step(initial, ref_level)
    sol_ref = evolve(rho_ref, flux_ref, horizon)
    traj_ref = track(sol_ref, velocity, x0, t0, horizon)
    margin = traffic_speed_margin(sol_ref, velocity)

    flux_smooth = viscous_flux(velocity, ref_level)
    errors = []
    for eps in epsilons:
        fld = solve_viscous(
            rho_ref, flux_smooth, eps, horizon, n_cells=n_cells, store_every=store_every
        )
        traj_eps = track_smooth(fld, velocity, x0, t0, horizon)
        errors.append(traj_eps.sup_distance(traj_ref))
    err = np.asarray(errors)
    order = np.argsort(-np.asarray(epsilons))
    monotone = bool(np.all(np.diff(err[order]) <= 1e-14))
    return LadderReport(
        labels=np.asarray(epsilons, dtype=float),
        errors=err,
        reference_label=float(ref_level),
        monotone_nonincreasing=monotone,
        meta={"kind": "viscosity", "transversality_margin": margin},
    )
