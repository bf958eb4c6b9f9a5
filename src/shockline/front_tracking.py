"""Exact front tracking for 1-D scalar conservation laws.

Piecewise-constant initial data plus a piecewise-linear flux evolve as a
finite set of straight-line discontinuities (fronts).  Collisions are the
only events; each one is resolved by a fresh Riemann solution of the outer
states, so the evolution is exact up to floating-point rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappush, heappop
from itertools import compress, count
from math import inf, isfinite
from operator import sub
from typing import NamedTuple, Optional

import numpy as np

from .flux import PiecewiseLinearFlux, _riemann_waves, check_level

# Fronts within this distance of a collision point at the collision time
# join it as one multi-front collision; slices merge fronts this close into
# one jump.
EVENT_SPACE_TOL = 1e-12
# Outgoing fronts with a smaller jump than this are dropped.
ZERO_STRENGTH_TOL = 1e-14
# Elements per temporary array (points x fronts) in a batched field lookup.
FIELD_BLOCK_ELEMENTS = 2 ** 14


class EventCapError(RuntimeError):
    """Raised when a run exceeds its collision-event budget."""


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function: k breakpoints, k+1 values.

    Jumps with exactly equal neighbouring values are removed on
    construction, so every stored jump has positive strength.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.atleast_1d(np.asarray(self.breakpoints, dtype=float))
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if bp.size + 1 != vals.size:
            raise ValueError(
                f"need len(values) == len(breakpoints) + 1, got {vals.size} and {bp.size}"
            )
        # increasing between finite ends means finite throughout
        if bp.size and not ((bp[1:] > bp[:-1]).all() and isfinite(bp[0]) and isfinite(bp[-1])):
            raise ValueError("breakpoints must be finite and strictly increasing")
        if not np.isfinite(vals).all():
            raise ValueError("values must be finite")
        keep = (vals[:-1] != vals[1:]).nonzero()[0]
        if keep.size != bp.size:
            bp = bp[keep]
            vals = vals[np.concatenate((keep, [vals.size - 1]))] if keep.size else vals[-1:]
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, value: float) -> "StepFunction":
        return cls(np.empty(0), np.asarray([value]))

    @property
    def far_left(self) -> float:
        return float(self.values[0])

    @property
    def far_right(self) -> float:
        return float(self.values[-1])

    def value_at(self, x: float) -> tuple[float, float]:
        """One-sided limits (left, right) at x."""
        i = int(np.searchsorted(self.breakpoints, x, side="left"))
        j = int(np.searchsorted(self.breakpoints, x, side="right"))
        return float(self.values[i]), float(self.values[j])

    def sample(self, xs: np.ndarray) -> np.ndarray:
        """Right-continuous evaluation on an array."""
        idx = np.searchsorted(self.breakpoints, xs, side="right")
        return self.values[idx]

    def total_variation(self) -> float:
        return float(np.sum(np.abs(np.diff(self.values)))) if self.values.size > 1 else 0.0

    def min_value(self) -> float:
        return float(self.values.min())

    def max_value(self) -> float:
        return float(self.values.max())

    def integral(self, lo: float, hi: float) -> float:
        """Exact integral over [lo, hi]."""
        if hi < lo:
            raise ValueError("need lo <= hi")
        edges = np.concatenate(([lo], np.clip(self.breakpoints, lo, hi), [hi]))
        mids = 0.5 * (edges[:-1] + edges[1:])
        return float(np.sum(np.diff(edges) * self.sample(mids)))

    def translate(self, dx: float) -> "StepFunction":
        return StepFunction(self.breakpoints + dx, self.values.copy())


def quantize_step(v: StepFunction, level: int) -> StepFunction:
    """Snap values down to the grid j/2**level (floor rule)."""
    check_level(level)
    scale = 2.0 ** level
    return StepFunction(v.breakpoints.copy(), np.floor(v.values * scale) / scale)


def check_in_domain(lo: float, hi: float, domain: tuple[float, float]) -> None:
    """Raise ValueError unless values in [lo, hi] lie in the flux ``domain``, up to 1e-12."""
    if lo < domain[0] - 1e-12 or hi > domain[1] + 1e-12:
        raise ValueError(f"values in [{lo}, {hi}] leave the flux domain [{domain[0]}, {domain[1]}]")


def l1_distance(a: StepFunction, b: StepFunction, window: Optional[tuple] = None) -> float:
    """Exact L1 distance, over ``window`` or the whole line.

    Without a window both functions must share far-field values, otherwise
    the whole-line distance is infinite and a ValueError is raised.
    """
    if window is None:
        if a.far_left != b.far_left or a.far_right != b.far_right:
            raise ValueError("far fields differ; L1 distance on the line is infinite")
        pts = np.concatenate((a.breakpoints, b.breakpoints))
        if pts.size == 0:
            return 0.0
        window = (float(np.min(pts)) - 1.0, float(np.max(pts)) + 1.0)
    lo, hi = window
    if hi <= lo:
        raise ValueError("window must have positive length")
    edges = np.unique(
        np.concatenate(([lo], np.clip(a.breakpoints, lo, hi), np.clip(b.breakpoints, lo, hi), [hi]))
    )
    mids = 0.5 * (edges[:-1] + edges[1:])
    return float(np.sum(np.diff(edges) * np.abs(a.sample(mids) - b.sample(mids))))


class FrontEvent(NamedTuple):
    """Fan emission (no incoming) or collision, in causal order.

    A named tuple: its fields cannot be reassigned, and it compares equal
    to a plain tuple of the same four values.
    """

    time: float
    position: float
    incoming: tuple[int, ...]
    outgoing: tuple[int, ...]


def solve_riemann(flux: PiecewiseLinearFlux, v_left: float, v_right: float) -> tuple:
    """Waves emitted by a single jump, left to right: ``(speed, left, right)`` rows.

    The rows are the flux's stored Riemann solution, the one ``evolve``
    emits, read row by row out of its ``(speeds, lefts, rights)`` columns
    into a new tuple of tuples.
    """
    if not isinstance(flux, PiecewiseLinearFlux):
        raise TypeError("front tracking needs a piecewise-linear flux; linearize first")
    if not (isfinite(v_left) and isfinite(v_right)):
        raise ValueError(f"Riemann states must be finite, got {v_left} and {v_right}")
    if v_left == v_right:
        raise ValueError("degenerate Riemann datum: left and right states are equal")
    return tuple(zip(*_riemann_waves(flux, v_left, v_right)))


@dataclass
class ShockCatalog:
    """Fronts stronger than a threshold, as space-time segments.

    Segment k is front ``index[k]`` from (``x0[k]``, ``t0[k]``) to
    (``x1[k]``, ``t1[k]``), its death or the horizon, with jump
    ``strength[k]``; one array per quantity.
    """

    index: np.ndarray
    t0: np.ndarray
    x0: np.ndarray
    t1: np.ndarray
    x1: np.ndarray
    strength: np.ndarray

    def __len__(self) -> int:
        return self.index.size

    def min_distance(self, x: float, t: float) -> float:
        """Euclidean distance from (x, t) to the nearest segment in the plane."""
        if not self.index.size:
            return inf
        dx, dt = self.x1 - self.x0, self.t1 - self.t0
        denom = dx * dx + dt * dt
        with np.errstate(divide="ignore", invalid="ignore"):
            s = ((x - self.x0) * dx + (t - self.t0) * dt) / denom
        # a zero-length segment measures from its start point
        s = np.where(denom == 0.0, 0.0, np.clip(s, 0.0, 1.0))
        # the foot point first, as in x - (x0 + s dx); (x - x0) - s dx rounds otherwise
        ex = x - (self.x0 + s * dx)
        et = t - (self.t0 + s * dt)
        return float(np.sqrt(np.min(ex * ex + et * et)))

    def covers(self, x: float, t: float, delta: float) -> bool:
        """True when (x, t) lies within delta of some cataloged shock."""
        return self.min_distance(x, t) <= delta


class FrontLists(NamedTuple):
    """The six front columns of a solution as float lists, indexed by front number."""

    birth_times: list
    birth_positions: list
    speeds: list
    left_values: list
    right_values: list
    death_times: list


def _column_array(index: int) -> cached_property:
    """Front list ``index`` as a read-only float array, built on first access and cached."""

    def column(solution) -> np.ndarray:
        values = solution.front_lists[index]
        array = np.fromiter(values, dtype=float, count=len(values))
        array.setflags(write=False)
        return array

    return cached_property(column)


class FrontTrackingSolution:
    """Event-complete front-tracking solution on [0, horizon].

    Fronts are stored once, as ``front_lists``: one float list per quantity,
    indexed by front number (``birth_times``, ``birth_positions``,
    ``speeds``, ``left_values``, ``right_values`` and ``death_times``, inf
    while the front lives to the horizon).  The attributes of those names
    are read-only float arrays of the lists, built on first access.  The
    constructor converts any six 1-D columns of equal length to float lists
    once; ``evolve`` hands over its own lists.
    """

    birth_times = _column_array(0)
    birth_positions = _column_array(1)
    speeds = _column_array(2)
    left_values = _column_array(3)
    right_values = _column_array(4)
    death_times = _column_array(5)

    def __init__(
        self, initial, flux, horizon, events, *,
        birth_times, birth_positions, speeds, left_values, right_values, death_times,
    ):
        columns = [
            np.asarray(c, dtype=float)
            for c in (birth_times, birth_positions, speeds, left_values, right_values, death_times)
        ]
        if any(c.ndim != 1 for c in columns):
            raise ValueError("front columns must be 1-D")
        self._store(initial, flux, horizon, events, FrontLists(*(c.tolist() for c in columns)))

    @classmethod
    def _of_lists(cls, initial, flux, horizon, events, front_lists: FrontLists):
        """A solution that keeps ``front_lists`` as its store, without a copy."""
        solution = cls.__new__(cls)
        solution._store(initial, flux, horizon, events, front_lists)
        return solution

    def _store(self, initial, flux, horizon, events, front_lists: FrontLists) -> None:
        if len({len(c) for c in front_lists}) > 1:
            raise ValueError(f"front columns differ in length: {[len(c) for c in front_lists]}")
        self.initial: StepFunction = initial
        self.flux: PiecewiseLinearFlux = flux
        self.horizon: float = horizon
        self.events: list[FrontEvent] = events
        self.front_lists = front_lists

    @property
    def front_count(self) -> int:
        return len(self.front_lists.speeds)

    @property
    def collision_count(self) -> int:
        return sum(1 for e in self.events if e.incoming)

    def _check_time(self, t: float) -> None:
        if not 0.0 <= t <= self.horizon + 1e-12:
            raise ValueError(f"time {t} outside [0, {self.horizon}]")

    def _alive_sorted(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Fronts alive at t and their positions, left to right."""
        idx = np.flatnonzero((self.birth_times <= t) & (t < self.death_times))
        pos = self.birth_positions[idx] + self.speeds[idx] * (t - self.birth_times[idx])
        order = np.argsort(pos, kind="stable")
        return idx[order], pos[order]

    def slice(self, t: float) -> StepFunction:
        """Field at time t as a StepFunction (outgoing states at event times)."""
        return self._jumps(t)

    def evaluate_field(self, x: float, t: float) -> tuple[float, float]:
        """One-sided limits (left, right) of the field at (x, t): ``slice(t).value_at(x)``."""
        return self._jumps(t).value_at(x)

    def _field_limits(self, xs: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``evaluate_field(xs[k], ts[k])`` for every k, as arrays of left and right limits.

        Raises ``evaluate_field``'s ValueError for the first time outside
        [0, horizon] before any point is looked up.  The points go in blocks
        of at most FIELD_BLOCK_ELEMENTS points x fronts, each against the
        fronts alive at some time of the block; the rest is ``_block_limits``.
        Every point it cannot answer exactly is answered by ``evaluate_field``.
        """
        xs = np.asarray(xs, dtype=float)
        ts = np.asarray(ts, dtype=float)
        bad = ~((0.0 <= ts) & (ts <= self.horizon + 1e-12))
        if bad.any():
            self._check_time(ts[bad.argmax()])
        at = np.minimum(ts, self.horizon)
        n = xs.size
        value = np.empty(n)
        exact = np.empty(n, dtype=bool)
        start, rows = 0, FIELD_BLOCK_ELEMENTS // max(self.front_count, 1)
        while start < n:
            stop = min(n, start + max(rows, 1))
            fronts = self._alive_during(at[start:stop])
            if (stop - start) * fronts.size > FIELD_BLOCK_ELEMENTS and stop - start > 1:
                # a shorter time range keeps no more fronts, so this block fits
                stop = start + max(FIELD_BLOCK_ELEMENTS // fronts.size, 1)
                fronts = self._alive_during(at[start:stop])
            value[start:stop], exact[start:stop] = self._block_limits(
                xs[start:stop], at[start:stop], fronts
            )
            rows = FIELD_BLOCK_ELEMENTS // max(fronts.size, 1)
            start = stop
        left, right = value, value.copy()
        for k in np.flatnonzero(~exact).tolist():
            left[k], right[k] = self.evaluate_field(xs[k], ts[k])
        return left, right

    def _alive_during(self, ts: np.ndarray) -> np.ndarray:
        """Ids of the fronts that may be alive at some time in [min(ts), max(ts)]."""
        return np.flatnonzero((self.birth_times <= ts.max()) & (ts.min() < self.death_times))

    def _block_limits(
        self, xs: np.ndarray, ts: np.ndarray, fronts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The field at each point (xs[k], ts[k]) on both sides, and where it is exact.

        ``fronts`` must hold every front alive at the points' times, which
        must lie in [0, horizon].  The value is ``far_left`` where no front
        is alive.  Otherwise it is the right state of the nearest alive front
        below the point, or, with none below, the left state of the slice's
        first front (lowest position, then lowest id).  It is exact, that is
        ``slice(t).value_at(x)`` on both sides, where no alive front sits on
        the point, the front below has no twin at its position and lies more
        than EVENT_SPACE_TOL below the next front, so no grouping joins the
        two (the difference of their positions is at most the difference to
        the first of its group), and the value is not zero: the slice keeps
        the last of a run of equal values, which may be the other zero.
        """
        far_left = self.initial.far_left
        n = xs.size
        if not fronts.size:
            return np.full(n, far_left), np.ones(n, dtype=bool)
        t, x = ts[:, None], xs[:, None]
        birth = self.birth_times[fronts]
        alive = (birth <= t) & (t < self.death_times[fronts])
        pos = self.birth_positions[fronts] + self.speeds[fronts] * (t - birth)
        vacant = ~alive.any(axis=1)
        if not isfinite(pos.sum()):
            # the slice of a non-finite position raises, so evaluate_field answers
            return np.full(n, far_left), vacant
        rows = np.arange(n)
        upper = np.where(alive, pos, inf)
        below = upper < x
        has_below = below.any(axis=1)
        lower = np.where(below, upper, -inf)
        lo = lower.argmax(axis=1)
        p_lo = lower[rows, lo]
        lower[rows, lo] = -inf
        unique = lower.max(axis=1) < p_lo
        # with none below, the nearest alive front at or above is the first one
        np.copyto(upper, inf, where=below)
        hi = upper.argmin(axis=1)
        p_hi = upper[rows, hi]
        value = np.where(has_below, self.right_values[fronts[lo]], self.left_values[fronts[hi]])
        separated = ~has_below | (unique & (p_hi - p_lo > EVENT_SPACE_TOL))
        exact = (p_hi > xs) & separated & (value != 0.0)
        value[vacant] = far_left
        return value, exact | vacant

    def _jumps(self, t: float) -> StepFunction:
        """``slice(t)``: sorted fronts within EVENT_SPACE_TOL of the last jump merge into it."""
        self._check_time(t)
        t = min(t, self.horizon)
        idx, pos = self._alive_sorted(t)
        if idx.size == 0:
            return StepFunction.constant(self.initial.far_left)
        rv = self.right_values
        if not (np.diff(pos) <= EVENT_SPACE_TOL).any():
            # every front is a jump of its own, as the loop below would find
            return StepFunction(pos, np.concatenate(([self.left_values[idx[0]]], rv[idx])))
        bps: list[float] = []
        vals = [float(self.left_values[idx[0]])]
        for r, p in zip(rv[idx].tolist(), pos.tolist()):
            if bps and p - bps[-1] <= EVENT_SPACE_TOL:
                vals[-1] = r
            else:
                bps.append(p)
                vals.append(r)
        return StepFunction(np.asarray(bps), np.asarray(vals))

    def shock_catalog(self, threshold: float = 0.0) -> ShockCatalog:
        """Space-time segments of all fronts with strength > threshold."""
        strength = np.abs(self.left_values - self.right_values)
        k = np.flatnonzero(strength > threshold)
        t0, x0 = self.birth_times[k], self.birth_positions[k]
        t1 = np.minimum(self.death_times[k], self.horizon)
        return ShockCatalog(k, t0, x0, t1, x0 + self.speeds[k] * (t1 - t0), strength[k])


class _LiveFronts:
    """Doubly linked list of the live fronts, left to right.

    ``nxt``/``prv`` hold each front's neighbours (-1 past either end) and
    ``head``/``tail`` the ends; the links of a front that has left the list
    are stale.  ``apply`` grows ``nxt``/``prv`` in place, so callers may
    hold on to the two lists.  ``evolve`` keeps it while it builds a
    solution; ``track`` rebuilds it by replaying the event log, since the
    links change from event to event.
    """

    def __init__(self):
        self.nxt: list[int] = []
        self.prv: list[int] = []
        self.head = -1
        self.tail = -1

    def apply(self, event: FrontEvent) -> None:
        """Link the event's outgoing fronts in place of its incoming ones.

        A t = 0 fan has no incoming fronts and goes after the tail, since
        fans are emitted left to right.  Outgoing fronts are the newest,
        numbered consecutively after every front seen so far, so each one's
        links are its neighbours in ``outgoing``, or the outer neighbours
        at the two ends.
        """
        nxt, prv = self.nxt, self.prv
        _, _, incoming, outgoing = event
        if incoming:
            lo, hi = prv[incoming[0]], nxt[incoming[-1]]
        else:
            lo, hi = self.tail, -1
        if outgoing:
            first, last = outgoing[0], outgoing[-1]
            prv.append(lo)
            prv.extend(outgoing[:-1])
            nxt.extend(outgoing[1:])
            nxt.append(hi)
        else:  # nothing comes out: the outer neighbours meet
            first, last = hi, lo
        if lo == -1:
            self.head = first
        else:
            nxt[lo] = first
        if hi == -1:
            self.tail = last
        else:
            prv[hi] = last


def evolve(
    initial: StepFunction,
    flux: PiecewiseLinearFlux,
    horizon: float,
    event_cap: int = 5_000_000,
) -> FrontTrackingSolution:
    """Run front tracking from ``initial`` up to ``horizon``.

    The event loop pops collision candidates from a heap keyed by
    (time, position), so simultaneous collisions at distinct positions are
    handled left to right.  At a popped collision, neighbouring fronts within
    EVENT_SPACE_TOL of its position join it as one multi-front collision.
    Outgoing waves with strength below ZERO_STRENGTH_TOL are dropped.
    """
    if not isinstance(flux, PiecewiseLinearFlux):
        raise TypeError("front tracking needs a piecewise-linear flux; linearize first")
    if not (isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be positive and finite")
    check_in_domain(initial.min_value(), initial.max_value(), flux.domain)

    birth_t: list[float] = []
    birth_x: list[float] = []
    spd: list[float] = []
    lv: list[float] = []
    rv: list[float] = []
    events: list[FrontEvent] = []
    heap: list = []
    counter = count()

    def push_pair(i: int, j: int, now: float) -> None:
        si, sj = spd[i], spd[j]
        if si <= sj:
            return
        ci = birth_x[i] - si * birth_t[i]
        cj = birth_x[j] - sj * birth_t[j]
        tc = (cj - ci) / (si - sj)
        if tc < now:
            tc = now
        if tc > horizon:
            return
        heappush(heap, (tc, ci + si * tc, next(counter), i, j))

    # the t = 0 fans, jump by jump, left to right, keep every wave; each
    # fan's columns extend the front lists, and its first front is a
    # candidate with the last front of the fan before
    values = initial.values.tolist()
    for x0, a, b in zip(initial.breakpoints.tolist(), values, values[1:]):
        speeds, lefts, rights = _riemann_waves(flux, a, b)
        k = len(spd)
        spd.extend(speeds)
        lv.extend(lefts)
        rv.extend(rights)
        birth_t.extend((0.0,) * len(speeds))
        birth_x.extend((x0,) * len(speeds))
        events.append(FrontEvent(0.0, x0, (), tuple(range(k, len(spd)))))
        if k:
            push_pair(k - 1, k, 0.0)
    death = [inf] * len(spd)
    # the fans lie left to right in id order, so one run of ids links them all
    live = _LiveFronts()
    live.apply(FrontEvent(0.0, 0.0, (), tuple(range(len(spd)))))
    nxt, prv = live.nxt, live.prv

    while heap:
        t, x, _, i, j = heappop(heap)
        if t > horizon:
            break
        if death[i] != inf or death[j] != inf or nxt[i] != j:
            continue  # stale candidate
        group = [i, j]
        m = prv[i]
        while m != -1 and abs(birth_x[m] + spd[m] * (t - birth_t[m]) - x) <= EVENT_SPACE_TOL:
            group.insert(0, m)
            m = prv[m]
        m = nxt[j]
        while m != -1 and abs(birth_x[m] + spd[m] * (t - birth_t[m]) - x) <= EVENT_SPACE_TOL:
            group.append(m)
            m = nxt[m]
        v_l = lv[group[0]]
        v_r = rv[group[-1]]
        for k in group:
            death[k] = t
        k = len(spd)
        if abs(v_l - v_r) > ZERO_STRENGTH_TOL:
            speeds, lefts, rights = _riemann_waves(flux, v_l, v_r)
            if min(map(abs, map(sub, lefts, rights))) <= ZERO_STRENGTH_TOL:
                strong = [abs(a - b) > ZERO_STRENGTH_TOL for a, b in zip(lefts, rights)]
                speeds, lefts, rights = (list(compress(c, strong)) for c in (speeds, lefts, rights))
            n = len(speeds)
            spd.extend(speeds)
            lv.extend(lefts)
            rv.extend(rights)
            birth_t.extend((t,) * n)
            birth_x.extend((x,) * n)
            death.extend((inf,) * n)
        incoming = tuple(group)
        event = FrontEvent(t, x, incoming, tuple(range(k, len(spd))))
        events.append(event)
        live.apply(event)
        # the new fronts pair with the outer neighbours, left first; when
        # nothing comes out, the stale links of the dead incoming fronts
        # name the neighbours, which now meet
        if k < len(spd):
            last = len(spd) - 1
            if prv[k] != -1:
                push_pair(prv[k], k, t)
            if nxt[last] != -1:
                push_pair(last, nxt[last], t)
        else:
            left_outer, right_outer = prv[incoming[0]], nxt[incoming[-1]]
            if left_outer != -1 and right_outer != -1:
                push_pair(left_outer, right_outer, t)
        if len(events) > event_cap:
            raise EventCapError(
                f"more than {event_cap} events before t={t:.6g}; "
                "raise event_cap or coarsen the flux level"
            )

    return FrontTrackingSolution._of_lists(
        initial, flux, horizon, events, FrontLists(birth_t, birth_x, spd, lv, rv, death)
    )
