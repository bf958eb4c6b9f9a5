"""Viscous regularization v_t + f(v)_x = eps * v_xx on a uniform grid.

Engquist-Osher upwind flux plus centered diffusion, explicit Euler in time.
The time step obeys a combined convection-diffusion condition that keeps
the update monotone, so discrete solutions inherit the maximum principle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf, sqrt
from typing import Callable, Optional, Sequence

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
# Most cells of a viscous grid: each float row of 2**20 cells is 8 MB, and
# the march holds several work rows besides every level it stores.
MAX_CELLS = 2 ** 20


def _eo_split(flux: FluxFunction) -> tuple[Callable, Callable]:
    """Engquist-Osher splitting f = f(0-ref) + fplus + fminus.

    fplus integrates max(f', 0), fminus integrates min(f', 0); both are
    exact for the supported flux kinds.  Each part is called as part(v) or
    part(v, out); given ``out``, shaped like v, it writes its values there.
    The quadratic parts repeat the closed forms operation by operation, so
    both calls give the same bits and the second makes no new array.
    """
    if isinstance(flux, TrafficQuadraticFlux):
        crest = 0.5 * flux.rho_max
        f_crest = flux._values(np.asarray(crest))
        work = [np.empty(0)]  # the clipped states, kept while v keeps its shape

        def values(v, clip, out):
            # flux._values(m) = m * w_max * (1.0 - m / rho_max), m = clip(v, crest)
            if work[0].shape != v.shape:
                work[0] = np.empty(v.shape)
            m = clip(v, crest, out=work[0])
            out = np.divide(m, flux.rho_max, out=out)
            np.subtract(1.0, out, out=out)
            np.multiply(m, flux.w_max, out=m)
            return np.multiply(m, out, out=out)

        def fplus(v, out=None):
            return values(v, np.minimum, out)

        def fminus(v, out=None):
            part = values(v, np.maximum, out)
            return np.subtract(part, f_crest, out=part)

        return fplus, fminus
    if isinstance(flux, BurgersQuadraticFlux):

        def burgers_part(clip):
            def part(v, out=None):
                # 0.5 * clip(v, 0.0) ** 2; numpy squares for ** 2
                out = clip(v, 0.0, out=out)
                np.square(out, out=out)
                return np.multiply(0.5, out, out=out)

            return part

        return burgers_part(np.maximum), burgers_part(np.minimum)
    if isinstance(flux, PiecewiseLinearFlux):
        bp = flux.breakpoints
        seg = np.diff(bp)
        slopes = flux.slopes
        pos = np.concatenate(([0.0], np.cumsum(np.maximum(slopes, 0.0) * seg)))
        neg = np.concatenate(([0.0], np.cumsum(np.minimum(slopes, 0.0) * seg)))

        def interp_part(table):
            def part(v, out=None):
                vals = np.interp(v, bp, table)  # np.interp takes no out
                if out is None:
                    return vals
                np.copyto(out, vals)
                return out

            return part

        return interp_part(pos), interp_part(neg)
    raise TypeError(f"unsupported flux type {type(flux).__name__}")


def _bracket(times: np.ndarray, t: float) -> int:
    """Row k whose level pair [times[k], times[k + 1]] holds t, clamped to
    the first and last pair; t may lie 1e-12 outside the stored range."""
    if not times[0] - 1e-12 <= t <= times[-1] + 1e-12:
        raise ValueError(f"time {t} outside stored range")
    k = int(np.searchsorted(times, t, side="right")) - 1
    return min(max(k, 0), times.size - 2)


@dataclass
class GridField:
    """Space-time grid samples of a viscous solution.

    values[k] is the field at times[k] on cell centers x; queries between
    stored levels interpolate bilinearly in (x, t).  A field solved with
    ``keep_times`` holds only the levels those times read, plus the first
    and the last: at a kept time it answers bit for bit as the full field
    would, but elsewhere it blends the two kept levels around t, which may
    lie many steps apart.
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
        k = _bracket(self.times, t)
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
    keep_times: Optional[Sequence[float]] = None,
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
    if n_cells > MAX_CELLS:
        raise ValueError(f"n_cells must be at most {MAX_CELLS}, got {n_cells}")
    if not 0 < cfl_safety <= 1:
        raise ValueError("cfl_safety must be in (0, 1]")
    if store_every < 1:
        raise ValueError("store_every must be positive")
    for t in () if keep_times is None else keep_times:
        if not -1e-12 <= t <= horizon + 1e-12:
            raise ValueError(f"time {t} outside [0, {horizon}]")


def solve_viscous(
    initial: StepFunction,
    flux: FluxFunction,
    epsilon: float,
    horizon: float,
    window: Optional[tuple[float, float]] = None,
    n_cells: int = 2000,
    cfl_safety: float = CFL_SAFETY,
    store_every: int = 1,
    keep_times: Optional[Sequence[float]] = None,
) -> GridField:
    """March the viscous problem to ``horizon`` with far-field Dirichlet ends.

    The step is dt = cfl_safety / (2L/dx + 2 eps/dx^2), shrunk to land on
    the horizon, which satisfies both dt <= cfl_safety * min(dx/(2L),
    dx^2/(2 eps)) and the monotonicity bound dt * (L/dx + 2 eps/dx^2) <= 1.

    The stored levels are the initial sample, every ``store_every``-th step
    and the last step.  Given ``keep_times``, only the levels that
    ``snapshot`` and ``mass`` read at those times are kept, with the first
    and the last; each such query then returns the bits of the full field.
    """
    check_viscous_settings(
        epsilon, horizon, window, n_cells, cfl_safety, store_every, keep_times
    )
    if window is None:
        window = default_window(initial, flux, epsilon, horizon)
    x_lo, x_hi = window
    lip = flux.lipschitz_norm
    dx = (x_hi - x_lo) / n_cells
    x = x_lo + dx * (np.arange(n_cells) + 0.5)
    dt = cfl_safety / (2.0 * lip / dx + 2.0 * epsilon / (dx * dx))
    n_steps = max(1, ceil(horizon / dt))
    dt = horizon / n_steps  # land exactly on the horizon; only shrinks dt

    stored = np.arange(0, n_steps + 1, store_every)
    if stored[-1] != n_steps:
        stored = np.append(stored, n_steps)
    times = stored * dt
    if keep_times is not None:
        rows = {0, stored.size - 1}
        for t in keep_times:
            k = _bracket(times, t)
            rows.update((k, k + 1))
        kept = sorted(rows)
        stored, times = stored[kept], times[kept]

    v = np.asarray(initial.sample(x), dtype=float)  # a fresh array, updated in place
    fplus, fminus = _eo_split(flux)
    lam = dt / dx
    mu = epsilon * dt / (dx * dx)

    values = np.empty((stored.size, n_cells))
    values[0], row = v, 1
    # work rows made once: per step the march computes, in this order,
    #   interface = fplus(v[:-1]) + fminus(v[1:])
    #   diff = v[2:] - 2.0 * v[1:-1] + v[:-2]
    #   v[1:-1] += -lam * np.diff(interface) + mu * diff
    interface, minus = np.empty(n_cells - 1), np.empty(n_cells - 1)
    diff, update = np.empty(n_cells - 2), np.empty(n_cells - 2)
    inner = v[1:-1]
    boundary_account = 0.0
    for step in range(1, n_steps + 1):
        fplus(v[:-1], interface)
        interface += fminus(v[1:], minus)
        np.multiply(2.0, inner, out=diff)
        np.subtract(v[2:], diff, out=diff)
        diff += v[:-2]
        boundary_account += dt * (interface[0] - interface[-1]) + mu * dx * (
            (v[-1] - v[-2]) - (v[1] - v[0])
        )
        np.subtract(interface[1:], interface[:-1], out=update)
        update *= -lam
        diff *= mu
        update += diff
        inner += update
        if step == stored[row]:  # the last step is stored, so row stays in range
            values[row] = v
            row += 1

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
