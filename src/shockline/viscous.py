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
    LinearTrafficVelocity,
    PiecewiseLinearFlux,
    TrafficQuadraticFlux,
    VelocityFunction,
    check_at_most,
    traffic_flux_from_velocity,
)
from .front_tracking import StepFunction

# the solver's defaults: the safety factor on the stable time step, the
# number of cells and the stride of the stored levels
CFL_SAFETY = 0.9
N_CELLS = 2000
STORE_EVERY = 1
# Most cells of a viscous grid: each float row of 2**20 cells is 8 MB, and
# the march holds several work rows besides every level it stores.
MAX_CELLS = 2 ** 20
# Most time steps of one march: the stored-step index alone holds
# n_steps + 1 int64 (32 MB here), and a step makes 11 to 16 numpy calls,
# about 8 us even on four cells (20 us on 2,000; 2-core x86_64 VM), so a
# march at the bound takes over half a minute on any grid.
MAX_STEPS = 2 ** 22
# Most floats in the stored levels of one march (stored levels x cells):
# solve_viscous allocates them all at once, 1 GB here.
MAX_LEVEL_VALUES = 2 ** 27


def _eo_interface(flux: FluxFunction, v: np.ndarray, interface: np.ndarray) -> Callable[[], None]:
    """Writer of the Engquist-Osher interface fluxes of ``v`` into ``interface``.

    With the splitting f = f(0-ref) + fplus + fminus, where fplus integrates
    max(f', 0) and fminus integrates min(f', 0), each call writes
    fplus(v[:-1]) + fminus(v[1:]) into ``interface`` (one entry shorter
    than v) from the values v holds at that call.  Both parts are exact for
    the supported flux kinds.  The quadratic parts repeat their closed
    forms operation by operation, over one stacked array whose two rows are
    the two clipped states, so each call gives the bits of the plain
    expressions and makes no new array.
    """
    left, right = v[:-1], v[1:]
    if isinstance(flux, TrafficQuadraticFlux):
        # flux._values(m) = m * w_max * (1.0 - m / rho_max), with m = min(v, crest)
        # for fplus and m = max(v, crest) for fminus, which subtracts f(crest)
        crest, one, rho_max, w_max = map(np.asarray, (0.5 * flux.rho_max, 1.0, flux.rho_max,
                                                       flux.w_max))
        f_crest = np.asarray(flux._values(crest))
        m, vals = np.empty((2, interface.size)), np.empty((2, interface.size))
        (m_plus, m_minus), (plus, minus) = m, vals

        def write() -> None:
            np.minimum(left, crest, out=m_plus)
            np.maximum(right, crest, out=m_minus)
            np.divide(m, rho_max, out=vals)
            np.subtract(one, vals, out=vals)
            np.multiply(m, w_max, out=m)
            np.multiply(m, vals, out=vals)
            np.subtract(minus, f_crest, out=minus)
            np.add(plus, minus, out=interface)

        return write
    if isinstance(flux, BurgersQuadraticFlux):
        # 0.5 * max(v, 0.0) ** 2 and 0.5 * min(v, 0.0) ** 2; numpy squares for ** 2
        zero, half = np.asarray(0.0), np.asarray(0.5)
        parts = np.empty((2, interface.size))
        plus, minus = parts

        def write() -> None:
            np.maximum(left, zero, out=plus)
            np.minimum(right, zero, out=minus)
            np.square(parts, out=parts)
            np.multiply(half, parts, out=parts)
            np.add(plus, minus, out=interface)

        return write
    if isinstance(flux, PiecewiseLinearFlux):
        bp = flux.breakpoints
        seg = np.diff(bp)
        slopes = flux.slopes
        pos = np.concatenate(([0.0], np.cumsum(np.maximum(slopes, 0.0) * seg)))
        neg = np.concatenate(([0.0], np.cumsum(np.minimum(slopes, 0.0) * seg)))

        def write() -> None:
            np.add(np.interp(left, bp, pos), np.interp(right, bp, neg), out=interface)

        return write
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


def viscous_flux(velocity: VelocityFunction, level: int) -> FluxFunction:
    """Viscous traffic flux: exact for linear traffic, else the chord flux at ``level``."""
    if isinstance(velocity, LinearTrafficVelocity):
        return TrafficQuadraticFlux(velocity.w_max, velocity.rho_max)
    return traffic_flux_from_velocity(velocity, level)


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


def march_grid(
    initial: StepFunction,
    flux: FluxFunction,
    epsilon: float,
    horizon: float,
    window: Optional[tuple[float, float]] = None,
    n_cells: int = N_CELLS,
    cfl_safety: float = CFL_SAFETY,
    store_every: int = STORE_EVERY,
    keep_times: Optional[Sequence[float]] = None,
) -> tuple[float, float, float, int]:
    """(x_lo, dx, dt, n_steps) of the march ``solve_viscous`` makes with
    these arguments.  Builds no array.

    Raises ValueError unless the settings are usable and the march takes
    at most MAX_STEPS steps and stores at most MAX_LEVEL_VALUES values.

    The step is dt = cfl_safety / (2L/dx + 2 eps/dx^2), shrunk to land on
    the horizon, which satisfies both dt <= cfl_safety * min(dx/(2L),
    dx^2/(2 eps)) and the monotonicity bound dt * (L/dx + 2 eps/dx^2) <= 1.
    """
    if not 0 < epsilon < inf:
        raise ValueError("epsilon must be positive and finite")
    if not 0 < horizon < inf:
        raise ValueError("horizon must be positive and finite")
    if window is not None and not (len(window) == 2 and -inf < window[0] < window[1] < inf):
        raise ValueError("window must be a finite interval (lo, hi) with lo < hi")
    if n_cells < 4:
        raise ValueError("need at least 4 cells")
    check_at_most("n_cells", n_cells, MAX_CELLS)
    if not 0 < cfl_safety <= 1:
        raise ValueError("cfl_safety must be in (0, 1]")
    if store_every < 1:
        raise ValueError("store_every must be positive")
    for t in () if keep_times is None else keep_times:
        if not -1e-12 <= t <= horizon + 1e-12:
            raise ValueError(f"time {t} outside [0, {horizon}]")
    if window is None:
        window = default_window(initial, flux, epsilon, horizon)
    x_lo, x_hi = window
    dx = (x_hi - x_lo) / n_cells
    dt = cfl_safety / (2.0 * flux.lipschitz_norm / dx + 2.0 * epsilon / (dx * dx))
    n_steps = max(1, ceil(horizon / dt))
    check_at_most("time steps", n_steps, MAX_STEPS)
    # the levels solve_viscous stores: every store_every-th step, the first
    # and the last, or at most two per kept time besides the first and last
    rows = -(-n_steps // store_every) + 1
    if keep_times is not None:
        rows = min(rows, 2 + 2 * len(keep_times))
    check_at_most("stored levels x cells", rows * n_cells, MAX_LEVEL_VALUES)
    return x_lo, dx, horizon / n_steps, n_steps  # dt lands on the horizon; it only shrinks


def solve_viscous(
    initial: StepFunction,
    flux: FluxFunction,
    epsilon: float,
    horizon: float,
    window: Optional[tuple[float, float]] = None,
    n_cells: int = N_CELLS,
    cfl_safety: float = CFL_SAFETY,
    store_every: int = STORE_EVERY,
    keep_times: Optional[Sequence[float]] = None,
) -> GridField:
    """March the viscous problem to ``horizon`` with far-field Dirichlet ends,
    in the steps ``march_grid`` sets.

    The stored levels are the initial sample, every ``store_every``-th step
    and the last step.  Given ``keep_times``, only the levels that
    ``snapshot`` and ``mass`` read at those times are kept, with the first
    and the last; each such query then returns the bits of the full field.
    """
    x_lo, dx, dt, n_steps = march_grid(
        initial, flux, epsilon, horizon, window, n_cells, cfl_safety, store_every, keep_times
    )
    x = x_lo + dx * (np.arange(n_cells) + 0.5)

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
    lam = dt / dx
    mu = epsilon * dt / (dx * dx)

    values = np.empty((stored.size, n_cells))
    values[0], row, due = v, 1, int(stored[1])
    # Work rows, views and constants are made once.  Per step the march
    # computes, in this order,
    #   interface = fplus(v[:-1]) + fminus(v[1:])
    #   diff = v[2:] - 2.0 * v[1:-1] + v[:-2]
    #   v[1:-1] += -lam * np.diff(interface) + mu * diff
    # The Dirichlet ends v[0] and v[-1] never change.
    interface = np.empty(n_cells - 1)
    write_interface = _eo_interface(flux, v, interface)
    diff, update = np.empty(n_cells - 2), np.empty(n_cells - 2)
    inner, ahead, behind = v[1:-1], v[2:], v[:-2]
    upper, lower = interface[1:], interface[:-1]
    two, neg_lam, mu_ = np.asarray(2.0), np.asarray(-lam), np.asarray(mu)
    v_first, v_last, mu_dx = v.item(0), v.item(-1), mu * dx
    boundary_account = 0.0
    for step in range(1, n_steps + 1):
        write_interface()
        np.multiply(two, inner, out=diff)
        np.subtract(ahead, diff, out=diff)
        np.add(diff, behind, out=diff)
        boundary_account += dt * (interface.item(0) - interface.item(-1)) + mu_dx * (
            (v_last - v.item(-2)) - (v.item(1) - v_first)
        )
        np.subtract(upper, lower, out=update)
        np.multiply(update, neg_lam, out=update)
        np.multiply(diff, mu_, out=diff)
        np.add(update, diff, out=update)
        np.add(inner, update, out=inner)
        if step == due:
            values[row] = v
            row += 1
            if row < stored.size:
                due = int(stored[row])

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
