"""Flux and velocity functions for 1-D scalar conservation laws.

Fluxes are either smooth quadratics (traffic, Burgers) or piecewise-linear
interpolants on dyadic grids.  Piecewise-linear fluxes are what the front
tracker consumes; the quadratic kinds exist to be linearized and to anchor
Lipschitz-distance computations against their exact derivatives.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from math import copysign, isfinite
from typing import NamedTuple, Sequence, Union

import numpy as np

# Slopes closer than this are merged into one envelope segment.
COLLINEAR_TOL = 1e-12
# Slack when checking that an evaluation point lies in the flux domain.
DOMAIN_TOL = 1e-9
# Most waves the Riemann table of one piecewise-linear flux holds; once a
# solution no longer fits, it is still solved but not stored.
RIEMANN_TABLE_WAVES = 4096
# Finest dyadic level: 2**20 + 1 = 1,048,577 grid points (8 MB per float
# array) on each unit of a domain.  Every level doubles that, so a level
# of 30 would ask for about 8.6 GB per node array.
MAX_LEVEL = 20

ArrayLike = Union[float, Sequence[float], np.ndarray]


def check_level(level: int) -> None:
    """Raise ValueError unless ``level`` is a dyadic level from 0 to MAX_LEVEL."""
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [0, {MAX_LEVEL}], got {level}")


def check_at_most(name: str, value: int, bound: int) -> None:
    """Raise ValueError when the size ``name`` exceeds its ``bound``."""
    if value > bound:
        raise ValueError(f"{name} must be at most {bound}, got {value}")


def dyadic_points(level: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Grid j/2**level intersected with [lo, hi], endpoints included."""
    check_level(level)
    step = 2.0 ** (-level)
    j_lo = int(np.ceil(lo / step - 1e-12))
    j_hi = int(np.floor(hi / step + 1e-12))
    pts = np.arange(j_lo, j_hi + 1, dtype=float) * step
    if pts.size == 0 or pts[0] > lo + 1e-15:
        pts = np.concatenate(([lo], pts))
    if pts[-1] < hi - 1e-15:
        pts = np.concatenate((pts, [hi]))
    pts[0] = lo
    pts[-1] = hi
    return pts


def _check_domain(v: np.ndarray, lo: float, hi: float) -> None:
    bad_lo = float(np.min(v, initial=np.inf))
    bad_hi = float(np.max(v, initial=-np.inf))
    if bad_lo < lo - DOMAIN_TOL or bad_hi > hi + DOMAIN_TOL:
        raise ValueError(
            f"flux argument outside domain [{lo}, {hi}]: "
            f"range of input is [{bad_lo}, {bad_hi}]"
        )


class _RiemannTable(dict):
    """Riemann solutions of one flux by state-pair key, RIEMANN_TABLE_WAVES waves at most.

    Each value is one solution's ``(speeds, lefts, rights)`` columns.
    ``_riemann_waves`` picks the keys and computes the waves; the table only
    counts them, by column length, so a long-lived flux cannot grow without
    bound.
    """

    __slots__ = ("waves",)

    def __init__(self):
        super().__init__()
        self.waves = 0

    def store(self, key: tuple, columns: tuple) -> None:
        n = len(columns[0])
        if self.waves + n <= RIEMANN_TABLE_WAVES:
            self[key] = columns
            self.waves += n


class _Chain(NamedTuple):
    """Ends and kinks of one sign of a flux, with what ``_riemann_waves`` reads off them."""

    xs: list
    ys: list
    slopes: list
    bad: list


class _FluxBase:
    """Common evaluation plumbing; subclasses define _values and domain."""

    domain: tuple[float, float]

    def __call__(self, v: ArrayLike) -> ArrayLike:
        arr = np.asarray(v, dtype=float)
        _check_domain(arr, *self.domain)
        out = self._values(np.clip(arr, self.domain[0], self.domain[1]))
        if np.isscalar(v) or (isinstance(v, np.ndarray) and v.ndim == 0):
            return float(out)
        return out


@dataclass(frozen=True)
class TrafficQuadraticFlux(_FluxBase):
    """f(rho) = rho * w_max * (1 - rho / rho_max) on [0, rho_max]."""

    w_max: float = 1.0
    rho_max: float = 1.0

    def __post_init__(self):
        if self.w_max <= 0 or self.rho_max <= 0:
            raise ValueError("w_max and rho_max must be positive")

    @property
    def domain(self) -> tuple[float, float]:
        return (0.0, self.rho_max)

    @property
    def lipschitz_norm(self) -> float:
        return self.w_max

    def _values(self, v: np.ndarray) -> np.ndarray:
        return v * self.w_max * (1.0 - v / self.rho_max)

    def deriv_right(self, x: float) -> float:
        return self.w_max * (1.0 - 2.0 * x / self.rho_max)

    deriv_left = deriv_right


@dataclass(frozen=True)
class BurgersQuadraticFlux(_FluxBase):
    """f(v) = v**2 / 2 on [-1, 1]."""

    @property
    def domain(self) -> tuple[float, float]:
        return (-1.0, 1.0)

    @property
    def lipschitz_norm(self) -> float:
        return 1.0

    def _values(self, v: np.ndarray) -> np.ndarray:
        return 0.5 * v * v

    def deriv_right(self, x: float) -> float:
        return x

    deriv_left = deriv_right


@dataclass(frozen=True)
class _NodeTable(_FluxBase):
    """Continuous piecewise-linear function given by node values.

    Breakpoints must be finite and strictly increasing with at least two
    entries, and values finite.  Both node arrays are read-only copies of
    the caller's, so nothing derived from them can drift from the stored
    geometry: the slopes, the Lipschitz norm (the largest absolute slope)
    and the cached node lists.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.array(self.breakpoints, dtype=float)
        vals = np.array(self.values, dtype=float)
        if bp.ndim != 1 or vals.shape != bp.shape:
            raise ValueError("breakpoints and values must be 1-D arrays of equal length")
        if bp.size < 2:
            raise ValueError("need at least two breakpoints")
        # increasing between finite ends means finite throughout
        if not (isfinite(bp[0]) and isfinite(bp[-1]) and (bp[1:] > bp[:-1]).all()):
            raise ValueError("breakpoints must be finite and strictly increasing")
        if not np.isfinite(vals).all():
            raise ValueError("values must be finite")
        bp.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def __reduce__(self):
        # copies and pickles are rebuilt through __post_init__: read-only and
        # without caches
        return (type(self), (self.breakpoints, self.values))

    @property
    def domain(self) -> tuple[float, float]:
        return (float(self.breakpoints[0]), float(self.breakpoints[-1]))

    @cached_property
    def _nodes(self) -> tuple[list, list]:
        """Breakpoints and values as float lists, for scalar evaluation."""
        return self.breakpoints.tolist(), self.values.tolist()

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.values) / np.diff(self.breakpoints)

    @property
    def lipschitz_norm(self) -> float:
        return float(np.max(np.abs(self.slopes)))

    def _values(self, v: np.ndarray) -> np.ndarray:
        return np.interp(v, self.breakpoints, self.values)

    def at(self, x: float) -> float:
        """``float(np.interp(x, breakpoints, values))`` for a finite float x.

        The node value at a node, the end value past either end, and
        elsewhere np.interp's own arithmetic on the bracketing segment, so
        it agrees with a call bit for bit inside the domain.
        """
        bx, by = self._nodes
        k = bisect_left(bx, x)
        if k == len(bx):
            return by[-1]
        if bx[k] == x or k == 0:
            return by[k]
        x0, x1, y0, y1 = bx[k - 1], bx[k], by[k - 1], by[k]
        return (y1 - y0) / (x1 - x0) * (x - x0) + y0


@dataclass(frozen=True)
class PiecewiseLinearFlux(_NodeTable):
    """Continuous piecewise-linear flux given by node values.

    Besides the node table it caches the envelope chains (``_chains``) and
    the table of its Riemann solutions; every copy or pickle starts without
    them.
    """

    @cached_property
    def _chains(self) -> dict:
        """The envelope chain of each sign, built on first use with array ops.

        Key 1.0 chains the ends and the convex kinks (the slope strictly
        increases), key -1.0 the ends and the concave ones (it strictly
        decreases).  Each value holds the chain's x and y lists, the slopes
        between consecutive chain nodes (``_riemann_waves``'s difference
        quotient), and a prefix count: ``bad[k]`` is the number of chain
        nodes before index k that ``_hull`` would not keep as they stand,
        because its turn test pops the node off its two chain neighbours or
        ``_merge_collinear`` merges the two slopes at it.  Elementwise
        float64 ``-``, ``*``, ``/`` and comparisons round as the scalar
        operations do, so every flag is the scalar test's outcome.
        """
        s = self.slopes
        chains = {}
        for sign, turn in ((1.0, s[1:] > s[:-1]), (-1.0, s[1:] < s[:-1])):
            keep = np.concatenate(([True], turn, [True]))
            x, y = self.breakpoints[keep], self.values[keep]
            slopes = np.diff(y) / np.diff(x)
            pops = sign * ((y[1:-1] - y[:-2]) * (x[2:] - x[:-2])) >= sign * (
                (y[2:] - y[:-2]) * (x[1:-1] - x[:-2])
            )
            merges = np.abs(np.diff(slopes)) <= COLLINEAR_TOL
            bad = np.concatenate(([0, 0], np.cumsum(pops | merges)))
            chains[sign] = _Chain(x.tolist(), y.tolist(), slopes.tolist(), bad.tolist())
        return chains

    @cached_property
    def _riemann_table(self) -> _RiemannTable:
        """Riemann solutions, as columns, that ``_riemann_waves`` stores for this flux."""
        return _RiemannTable()

    def deriv_right(self, x: float) -> float:
        i = int(np.searchsorted(self.breakpoints, x, side="right")) - 1
        i = min(max(i, 0), self.breakpoints.size - 2)
        return float(self.slopes[i])

    def deriv_left(self, x: float) -> float:
        i = int(np.searchsorted(self.breakpoints, x, side="left")) - 1
        i = min(max(i, 0), self.breakpoints.size - 2)
        return float(self.slopes[i])


FluxFunction = Union[TrafficQuadraticFlux, BurgersQuadraticFlux, PiecewiseLinearFlux]


def piecewise_linearize(flux: FluxFunction, level: int) -> PiecewiseLinearFlux:
    """Interpolate ``flux`` at the dyadic points j/2**level of its domain.

    The result agrees with ``flux`` at every grid point; between points it
    is the chord.  Linear fluxes are reproduced exactly at any level.
    """
    lo, hi = flux.domain
    grid = dyadic_points(level, lo, hi)
    return PiecewiseLinearFlux(grid, np.asarray(flux(grid), dtype=float))


def _merge_collinear(xs: list, ys: list) -> tuple[list, list]:
    out_x = [xs[0]]
    out_y = [ys[0]]
    last_slope = None
    for k in range(1, len(xs)):
        slope = (ys[k] - out_y[-1]) / (xs[k] - out_x[-1])
        if last_slope is not None and abs(slope - last_slope) <= COLLINEAR_TOL:
            out_x[-1] = xs[k]
            out_y[-1] = ys[k]
            last_slope = (out_y[-1] - out_y[-2]) / (out_x[-1] - out_x[-2])
        else:
            out_x.append(xs[k])
            out_y.append(ys[k])
            last_slope = slope
    return out_x, out_y


def _hull(flux: PiecewiseLinearFlux, a: float, b: float, sign: float) -> tuple[list, list]:
    """Envelope nodes on [a, b] as float lists: convex for sign 1, concave for -1.

    A vertex of the convex minorant (concave majorant) is an end point or a
    node where the slope strictly increases (decreases), so a monotone chain
    runs over the ends and the kinks of ``sign`` strictly inside (a, b),
    which it bisects out of the interior of the flux's chain of that sign;
    with none there, the envelope is the chord.  An end at a node
    takes the node's value, which is what ``np.interp`` returns there; other
    ends are interpolated.  Ends within DOMAIN_TOL outside the domain are
    clamped onto it; two that clamp onto the same end leave no interval.

    Multiplying both sides of the turn test by -1 is exact, so the concave
    hull is the convex hull's loop with the comparison reversed bit for bit.
    """
    lo, hi = flux.domain
    if not (lo - DOMAIN_TOL <= a < b <= hi + DOMAIN_TOL):
        raise ValueError(f"need domain lo <= a < b <= hi, got a={a}, b={b}")
    if b <= lo or a >= hi:
        raise ValueError(f"a={a} and b={b} clamp onto the same end of the domain [{lo}, {hi}]")
    a = float(min(max(a, lo), hi))
    b = float(min(max(b, lo), hi))
    cx, cy, _, _ = flux._chains[sign]
    i = bisect_right(cx, a, 1, len(cx) - 1)
    j = bisect_left(cx, b, 1, len(cx) - 1)
    ya, yb = flux.at(a), flux.at(b)
    if i == j:
        return [a, b], [ya, yb]
    hull_x = [a]
    hull_y = [ya]
    for x, y in zip([*cx[i:j], b], [*cy[i:j], yb]):
        # pop while the previous node sits on or above the new chord (below, for -1)
        while len(hull_x) >= 2:
            x0, y0 = hull_x[-2], hull_y[-2]
            if sign * ((hull_y[-1] - y0) * (x - x0)) >= sign * ((y - y0) * (hull_x[-1] - x0)):
                hull_x.pop()
                hull_y.pop()
            else:
                break
        hull_x.append(x)
        hull_y.append(y)
    return _merge_collinear(hull_x, hull_y)


def convex_envelope(flux: PiecewiseLinearFlux, a: float, b: float) -> tuple[list, list]:
    """Largest convex minorant of ``flux`` on [a, b], as node lists (xs, ys)."""
    return _hull(flux, a, b, 1.0)


def concave_envelope(flux: PiecewiseLinearFlux, a: float, b: float) -> tuple[list, list]:
    """Smallest concave majorant of ``flux`` on [a, b], as node lists (xs, ys)."""
    return _hull(flux, a, b, -1.0)


def _columns(speeds: list, lefts: list, rights: list, sign: float) -> tuple:
    """Waves listed by increasing state as ``(speeds, lefts, rights)`` tuples
    in wave order: as they are for sign 1, reversed with the two states
    swapped for -1."""
    if sign > 0:
        return tuple(speeds), tuple(lefts), tuple(rights)
    return tuple(reversed(speeds)), tuple(reversed(rights)), tuple(reversed(lefts))


def _riemann_waves(flux: PiecewiseLinearFlux, v_l: float, v_r: float) -> tuple:
    """Waves of the Riemann solution, left to right, as three columns:
    ``(speeds, lefts, rights)``, tuples of equal length.

    Increasing data ride the convex envelope, decreasing data the concave
    one; either way the speeds strictly increase, and each speed is the
    difference quotient of two neighbouring envelope nodes.

    When both states are nodes of the flux's chain of that sign and no node
    strictly between them is flagged bad, ``_hull`` would keep that run of
    the chain as it is, so the columns are slices of the cached chain
    lists, reversed for the concave sign.  The outermost states are the
    caller's, so a signed zero survives.

    When both states lie in the domain and no chain node lies strictly
    between them, the envelope is their chord, as in ``_hull``'s chord
    branch: one wave whose speed is the difference quotient of ``at`` at the
    two states.  Every other miss calls the envelope once, through its
    module-level name, so a wrapper put there sees each of those solves.

    The solution depends only on the flux and the two states, so it is kept
    in the flux's capped Riemann table and the stored columns themselves
    are returned.  A zero state is keyed with its sign too: ``0.0 == -0.0``,
    but the sign reaches the wave states.
    """
    if v_l and v_r:
        key = (v_l, v_r)
    else:
        key = (v_l, v_r, copysign(1.0, v_l), copysign(1.0, v_r))
    table = flux._riemann_table
    waves = table.get(key)
    if waves is not None:
        return waves
    if v_l < v_r:
        sign, a, b, envelope = 1.0, v_l, v_r, convex_envelope
    else:
        sign, a, b, envelope = -1.0, v_r, v_l, concave_envelope
    xs, _, slopes, bad = flux._chains[sign]
    p = bisect_left(xs, a)
    q = bisect_left(xs, b)
    if p < q < len(xs) and xs[p] == a and xs[q] == b and bad[q] == bad[p + 1]:
        lefts = xs[p:q]
        rights = xs[p + 1:q + 1]
        lefts[0], rights[-1] = float(a), float(b)
        waves = _columns(slopes[p:q], lefts, rights, sign)
    elif xs[0] <= a < b <= xs[-1] and q == p + (xs[p] == a):
        a, b = float(a), float(b)
        speed = (flux.at(b) - flux.at(a)) / (b - a)
        waves = ((speed,), (a,), (b,)) if sign > 0 else ((speed,), (b,), (a,))
    else:
        xs, ys = envelope(flux, a, b)
        speeds = [(ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k]) for k in range(len(xs) - 1)]
        waves = _columns(speeds, xs[:-1], xs[1:], sign)
    table.store(key, waves)
    return waves


def lipschitz_distance(f: FluxFunction, g: FluxFunction) -> float:
    """sup |(f - g)(u) - (f - g)(v)| / |u - v| over the common domain.

    Exact for any mix of the supported kinds: on each segment of the union
    breakpoint grid the difference has a linear derivative, so the sup of
    |f' - g'| is attained at segment endpoints (one-sided).
    """
    lo = max(f.domain[0], g.domain[0])
    hi = min(f.domain[1], g.domain[1])
    if not lo < hi:
        raise ValueError("flux domains do not overlap")
    knots = {lo, hi}
    for h in (f, g):
        if isinstance(h, PiecewiseLinearFlux):
            knots.update(float(x) for x in h.breakpoints if lo < x < hi)
    grid = sorted(knots)
    best = 0.0
    for x0, x1 in zip(grid[:-1], grid[1:]):
        d0 = f.deriv_right(x0) - g.deriv_right(x0)
        d1 = f.deriv_left(x1) - g.deriv_left(x1)
        best = max(best, abs(d0), abs(d1))
    return best


# ---------------------------------------------------------------------------
# velocity functions


@dataclass(frozen=True)
class LinearTrafficVelocity:
    """w(rho) = w_max * (1 - rho / rho_max)."""

    w_max: float = 1.0
    rho_max: float = 1.0

    def __post_init__(self):
        if self.w_max <= 0 or self.rho_max <= 0:
            raise ValueError("w_max and rho_max must be positive")

    @property
    def domain(self) -> tuple[float, float]:
        return (0.0, self.rho_max)

    @property
    def lipschitz_norm(self) -> float:
        return self.w_max / self.rho_max

    def __call__(self, rho: ArrayLike) -> ArrayLike:
        arr = np.asarray(rho, dtype=float)
        out = self.w_max * (1.0 - arr / self.rho_max)
        if np.isscalar(rho) or (isinstance(rho, np.ndarray) and rho.ndim == 0):
            return float(out)
        return out

    def at(self, rho: float) -> float:
        """Scalar twin of a call, with the same arithmetic."""
        return self.w_max * (1.0 - rho / self.rho_max)

    def is_admissible(self) -> bool:
        """Strictly decreasing, vanishing at rho_max, finite Lipschitz norm."""
        return True


@dataclass(frozen=True)
class TableVelocity(_NodeTable):
    """Piecewise-linear velocity given by node values on [0, rho_max]."""

    def is_admissible(self) -> bool:
        """Strictly decreasing with w(rho_max) = 0 (within 1e-14)."""
        return bool(np.all(np.diff(self.values) < 0)) and abs(self.values[-1]) <= 1e-14


VelocityFunction = Union[LinearTrafficVelocity, TableVelocity]


def traffic_flux_from_velocity(w: VelocityFunction, level: int) -> PiecewiseLinearFlux:
    """Chord interpolant of rho * w(rho) on the dyadic grid of [0, rho_max]."""
    lo, hi = w.domain
    grid = dyadic_points(level, lo, hi)
    vals = grid * np.asarray(w(grid), dtype=float)
    return PiecewiseLinearFlux(grid, vals)
