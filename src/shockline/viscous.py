"""Viscous regularization v_t + f(v)_x = eps * v_xx on a uniform grid.

Engquist-Osher upwind flux plus centered diffusion, explicit Euler in time.
The time step obeys a combined convection-diffusion condition that keeps
the update monotone, so discrete solutions inherit the maximum principle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf, sqrt
from typing import Callable, Optional

import numpy as np

from .filippov import Trajectory
from .flux import (
    BurgersQuadraticFlux,
    FluxFunction,
    PiecewiseLinearFlux,
    TrafficQuadraticFlux,
    VelocityFunction,
)
from .front_tracking import StepFunction

# the solver's default safety factor on the stable time step
CFL_SAFETY = 0.9


def _eo_split(flux: FluxFunction) -> tuple[Callable, Callable]:
    """Engquist-Osher splitting f = f(0-ref) + fplus + fminus.

    fplus integrates max(f', 0), fminus integrates min(f', 0); both are
    exact for the supported flux kinds.
    """
    if isinstance(flux, TrafficQuadraticFlux):
        crest = 0.5 * flux.rho_max
        f_crest = flux._values(np.asarray(crest))

        def fplus(v):
            return flux._values(np.minimum(v, crest))

        def fminus(v):
            return flux._values(np.maximum(v, crest)) - f_crest

        return fplus, fminus
    if isinstance(flux, BurgersQuadraticFlux):
        return (
            lambda v: 0.5 * np.maximum(v, 0.0) ** 2,
            lambda v: 0.5 * np.minimum(v, 0.0) ** 2,
        )
    if isinstance(flux, PiecewiseLinearFlux):
        bp = flux.breakpoints
        seg = np.diff(bp)
        slopes = flux.slopes
        pos = np.concatenate(([0.0], np.cumsum(np.maximum(slopes, 0.0) * seg)))
        neg = np.concatenate(([0.0], np.cumsum(np.minimum(slopes, 0.0) * seg)))
        return (
            lambda v: np.interp(v, bp, pos),
            lambda v: np.interp(v, bp, neg),
        )
    raise TypeError(f"unsupported flux type {type(flux).__name__}")


@dataclass
class GridField:
    """Space-time grid samples of a viscous solution.

    values[k] is the field at times[k] on cell centers x; queries between
    stored levels interpolate bilinearly in (x, t).
    """

    x: np.ndarray
    times: np.ndarray
    values: np.ndarray
    epsilon: float
    flux: FluxFunction
    dx: float
    dt: float
    boundary_account: float

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def _time_bracket(self, t: float) -> tuple[int, float]:
        if not self.times[0] - 1e-12 <= t <= self.times[-1] + 1e-12:
            raise ValueError(f"time {t} outside stored range")
        k = int(np.searchsorted(self.times, t, side="right")) - 1
        k = min(max(k, 0), self.times.size - 2)
        span = self.times[k + 1] - self.times[k]
        frac = 0.0 if span == 0 else (t - self.times[k]) / span
        return k, min(max(float(frac), 0.0), 1.0)

    def _blend(self, t: float, cells: slice) -> np.ndarray:
        """Stored cells ``cells`` at time t (linear in t between levels)."""
        if self.times.size == 1:
            return self.values[0, cells].copy()
        k, frac = self._time_bracket(t)
        return (1.0 - frac) * self.values[k, cells] + frac * self.values[k + 1, cells]

    def snapshot(self, t: float) -> np.ndarray:
        """Field on cell centers at time t (linear in t between levels)."""
        return self._blend(t, slice(None))

    def value_at(self, x: float, t: float) -> float:
        """Bilinear interpolation in (x, t); x clamps to the window.

        Only the two cells that bracket x are blended in time; np.interp on
        them returns what it would on the whole snapshot row.
        """
        j = int(np.searchsorted(self.x, x, side="right")) - 1
        j = min(max(j, 0), self.x.size - 2)
        cells = slice(j, j + 2)
        return float(np.interp(x, self.x[cells], self._blend(t, cells)))

    def mass(self, t: float) -> float:
        """dx-weighted sum over interior cells at a stored-time interpolant."""
        return float(np.sum(self.snapshot(t)[1:-1]) * self.dx)


def default_window(
    initial: StepFunction, flux: FluxFunction, epsilon: float, horizon: float
) -> tuple[float, float]:
    """Window wide enough that waves, particles, and diffusive tails stay
    interior: data span plus (sup|w| + Lip(f)) T + 4 sqrt(eps T) and a unit
    buffer, with 2 Lip(f) standing in for the first sum (exact for traffic
    with linear velocity)."""
    if initial.breakpoints.size:
        lo, hi = float(initial.breakpoints[0]), float(initial.breakpoints[-1])
    else:
        lo = hi = 0.0
    margin = (
        2.0 * flux.lipschitz_norm * horizon
        + 4.0 * sqrt(max(epsilon * horizon, 0.0))
        + 1.0
    )
    return lo - margin, hi + margin


def check_viscous_settings(
    epsilon: float,
    horizon: float,
    window: Optional[tuple[float, float]],
    n_cells: int,
    cfl_safety: float,
    store_every: int,
) -> None:
    """Raise ValueError unless the viscous solver settings are usable."""
    if not 0 < epsilon < inf:
        raise ValueError("epsilon must be positive and finite")
    if not 0 < horizon < inf:
        raise ValueError("horizon must be positive and finite")
    if window is not None and not (len(window) == 2 and -inf < window[0] < window[1] < inf):
        raise ValueError("window must be a finite interval (lo, hi) with lo < hi")
    if n_cells < 4:
        raise ValueError("need at least 4 cells")
    if not 0 < cfl_safety <= 1:
        raise ValueError("cfl_safety must be in (0, 1]")
    if store_every < 1:
        raise ValueError("store_every must be positive")


def solve_viscous(
    initial: StepFunction,
    flux: FluxFunction,
    epsilon: float,
    horizon: float,
    window: Optional[tuple[float, float]] = None,
    n_cells: int = 2000,
    cfl_safety: float = CFL_SAFETY,
    store_every: int = 1,
) -> GridField:
    """March the viscous problem to ``horizon`` with far-field Dirichlet ends.

    The step is dt = cfl_safety / (2L/dx + 2 eps/dx^2), shrunk to land on
    the horizon, which satisfies both dt <= cfl_safety * min(dx/(2L),
    dx^2/(2 eps)) and the monotonicity bound dt * (L/dx + 2 eps/dx^2) <= 1.
    """
    check_viscous_settings(epsilon, horizon, window, n_cells, cfl_safety, store_every)
    if window is None:
        window = default_window(initial, flux, epsilon, horizon)
    x_lo, x_hi = window
    lip = flux.lipschitz_norm
    dx = (x_hi - x_lo) / n_cells
    x = x_lo + dx * (np.arange(n_cells) + 0.5)
    dt = cfl_safety / (2.0 * lip / dx + 2.0 * epsilon / (dx * dx))
    n_steps = max(1, ceil(horizon / dt))
    dt = horizon / n_steps  # land exactly on the horizon; only shrinks dt

    v = np.asarray(initial.sample(x), dtype=float)  # a fresh array, updated in place
    fplus, fminus = _eo_split(flux)
    lam = dt / dx
    mu = epsilon * dt / (dx * dx)

    n_rows = -(-n_steps // store_every) + 1  # the sample, then each stored step
    values, times = np.empty((n_rows, n_cells)), np.empty(n_rows)
    values[0], times[0], row = v, 0.0, 0
    boundary_account = 0.0
    for step in range(1, n_steps + 1):
        interface = fplus(v[:-1]) + fminus(v[1:])
        diff = v[2:] - 2.0 * v[1:-1] + v[:-2]
        boundary_account += dt * (interface[0] - interface[-1]) + mu * dx * (
            (v[-1] - v[-2]) - (v[1] - v[0])
        )
        v[1:-1] += -lam * np.diff(interface) + mu * diff
        if step % store_every == 0 or step == n_steps:
            row += 1
            values[row], times[row] = v, step * dt

    return GridField(
        x=x,
        times=times,
        values=values,
        epsilon=epsilon,
        flux=flux,
        dx=dx,
        dt=dt,
        boundary_account=boundary_account,
    )


def track_smooth(
    field: GridField,
    velocity: VelocityFunction,
    x0: float,
    t0: float,
    horizon: Optional[float] = None,
) -> Trajectory:
    """RK4 particle path through a grid field, one step per stored level.

    The velocity is read at the field's own bilinear query ``value_at``.
    """
    T = field.horizon if horizon is None else float(horizon)
    if t0 < 0 or T < t0 or T > field.horizon + 1e-12:
        raise ValueError("need 0 <= t0 <= horizon <= field horizon")
    w = velocity.at
    times = field.times

    def speed(x: float, t: float) -> float:
        return w(field.value_at(x, t))

    grid = np.unique(np.concatenate(([t0], times[(times > t0) & (times < T)], [T])))
    z = float(x0)
    nodes_t = [float(grid[0])]
    nodes_z = [z]
    for t_a, t_b in zip(grid[:-1], grid[1:]):
        h = float(t_b - t_a)
        k1 = speed(z, t_a)
        k2 = speed(z + 0.5 * h * k1, t_a + 0.5 * h)
        k3 = speed(z + 0.5 * h * k2, t_a + 0.5 * h)
        k4 = speed(z + h * k3, t_b)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        nodes_t.append(float(t_b))
        nodes_z.append(z)
    t_arr = np.asarray(nodes_t)
    z_arr = np.asarray(nodes_z)
    speeds = np.diff(z_arr) / np.diff(t_arr) if t_arr.size > 1 else np.empty(0)
    return Trajectory(t_arr, z_arr, speeds, [])
