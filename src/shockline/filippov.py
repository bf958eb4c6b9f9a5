"""Particle paths through front-tracking fields (Filippov solutions).

Away from fronts the particle follows dz/dt = w(v(z, t)).  When it meets a
front it either crosses (the downstream flow carries it away) or sticks
(the front speed lies between the one-sided flow speeds), in which case it
travels with the front until the front dies in a collision.

The tracker reads the solution's front lists and replays its event log
once through the same live-front list that ``evolve`` keeps, maintaining
the two fronts bracketing the particle, so its cost is linear in the
number of events plus crossings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, log
from typing import Optional

import numpy as np

from .flux import VelocityFunction
from .front_tracking import FrontTrackingSolution, _LiveFronts


@dataclass
class Trajectory:
    """Piecewise-linear particle path.

    Nodes sit exactly at front crossings and at field-event times, so
    positions[k+1] == positions[k] + speeds[k] * (times[k+1] - times[k])
    holds by construction.
    """

    times: np.ndarray
    positions: np.ndarray
    speeds: np.ndarray
    sticking: list = field(default_factory=list)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        z = np.asarray(self.positions, dtype=float)
        s = np.asarray(self.speeds, dtype=float)
        if t.size != z.size or s.size != max(t.size - 1, 0):
            raise ValueError("need len(speeds) == len(times) - 1 == len(positions) - 1")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("node times must be strictly increasing")
        self.times, self.positions, self.speeds = t, z, s

    @property
    def start_time(self) -> float:
        return float(self.times[0])

    @property
    def end_time(self) -> float:
        return float(self.times[-1])

    def position_at(self, t):
        """Evaluate the path; accepts scalars or arrays inside [t0, T]."""
        ts = np.asarray(t, dtype=float)
        if not np.all((ts >= self.times[0] - 1e-12) & (ts <= self.times[-1] + 1e-12)):
            raise ValueError("query time is NaN or outside the tracked interval")
        if self.times.size == 1:
            out = np.full(ts.shape, self.positions[0])
        else:
            k = np.clip(np.searchsorted(self.times, ts, side="right") - 1, 0, self.times.size - 2)
            out = self.positions[k] + self.speeds[k] * (ts - self.times[k])
        if np.isscalar(t) or (isinstance(t, np.ndarray) and t.ndim == 0):
            return float(out)
        return out

    def observe(self, times) -> np.ndarray:
        return np.atleast_1d(self.position_at(np.asarray(times, dtype=float)))

    def sup_distance(self, other: "Trajectory") -> float:
        """Exact sup-norm distance on the overlap of the two time ranges.

        Both paths are piecewise linear, so the sup is attained at a node
        of one of them.
        """
        lo = max(self.start_time, other.start_time)
        hi = min(self.end_time, other.end_time)
        if hi < lo:
            raise ValueError("trajectories do not overlap in time")
        ts = np.concatenate((self.times, other.times, [lo, hi]))
        ts = np.unique(np.clip(ts, lo, hi))
        return float(np.max(np.abs(self.position_at(ts) - other.position_at(ts))))


def track(
    solution: FrontTrackingSolution,
    velocity: VelocityFunction,
    x0: float,
    t0: float,
    horizon: Optional[float] = None,
) -> Trajectory:
    """Track the particle from (x0, t0) to ``horizon``.

    Requires 0 < t0 <= horizon <= solution.horizon; starting at t0 = 0 on
    a discontinuity has no unique path, so t0 must be positive.
    """
    T = solution.horizon if horizon is None else float(horizon)
    if not (isfinite(x0) and isfinite(t0)):
        raise ValueError(f"x0 and t0 must be finite, got x0={x0}, t0={t0}")
    if t0 <= 0.0:
        raise ValueError("t0 must be positive: paths started at t0 = 0 need not be unique")
    if not t0 <= T <= solution.horizon + 1e-12:
        raise ValueError(f"need t0 <= horizon <= {solution.horizon}, got t0={t0}, horizon={T}")
    T = min(T, solution.horizon)

    w = velocity.at
    bt, bx, spd, lv, rv, _ = solution.front_lists
    far_left = solution.initial.far_left

    live = _LiveFronts()
    nxt, prv = live.nxt, live.prv
    events = solution.events
    ei = 0
    while ei < len(events) and events[ei].time <= t0:
        live.apply(events[ei])
        ei += 1

    # locate the particle among the alive fronts at t0; afterwards its two
    # neighbours are only ever read off the live-front links
    left_id, right_id = -1, live.head
    while right_id != -1 and bx[right_id] + spd[right_id] * (t0 - bt[right_id]) < x0:
        left_id = right_id
        right_id = nxt[right_id]

    # the path's nodes; t_cur and z_cur hold the last one
    nodes_t = [t0]
    nodes_z = [x0]
    seg_speed: list[float] = []
    t_cur, z_cur = t0, x0
    sticking: list[tuple[float, float, int]] = []
    stick, stick_start = -1, t0  # the front the particle rides, -1 while free

    def end_stick(t: float) -> None:
        nonlocal stick
        if stick != -1 and t > stick_start:
            sticking.append((stick_start, t, stick))
        stick = -1

    # starting exactly on a front: same crossing/sticking rule as a contact,
    # so a tie w(rv) == s crosses
    if right_id != -1 and bx[right_id] + spd[right_id] * (t0 - bt[right_id]) == x0:
        f = right_id
        if w(rv[f]) >= spd[f]:
            left_id, right_id = f, nxt[f]
        elif w(lv[f]) > spd[f]:
            stick = f

    def reanchor(e) -> None:
        """Re-anchor the particle sitting at an event point among the outgoing fan."""
        nonlocal left_id, right_id, stick, stick_start
        if not e.outgoing:
            # annihilation: the stale links of the dead fronts name the neighbours
            left_id, right_id = prv[e.incoming[0]], nxt[e.incoming[-1]]
            return
        for f in e.outgoing:
            if w(lv[f]) <= spd[f]:
                left_id, right_id = prv[f], f
                return
            if w(rv[f]) < spd[f]:
                stick, stick_start = f, e.time
                return
        left_id, right_id = e.outgoing[-1], nxt[e.outgoing[-1]]

    # advance to each event time up to T, then replay the event; last, to T
    n_events = len(events)
    while True:
        if ei < n_events and events[ei].time <= T:
            e = events[ei]
            t_end = e.time
        else:
            e, t_end = None, T
        while t_cur < t_end:
            if stick != -1:  # ride the front to t_end
                s_p = spd[stick]
                z_cur = z_cur + s_p * (t_end - t_cur)
                t_cur = t_end
                nodes_t.append(t_cur)
                nodes_z.append(z_cur)
                seg_speed.append(s_p)
                break
            s_p = w(rv[left_id] if left_id != -1 else lv[right_id] if right_id != -1 else far_left)
            tau, hit = t_end, -1
            if right_id != -1 and s_p > spd[right_id]:
                s = spd[right_id]
                cand = t_cur + (bx[right_id] + s * (t_cur - bt[right_id]) - z_cur) / (s_p - s)
                if cand <= tau:
                    tau, hit = cand, right_id
            if left_id != -1 and spd[left_id] > s_p:
                s = spd[left_id]
                cand = t_cur + (z_cur - (bx[left_id] + s * (t_cur - bt[left_id]))) / (s - s_p)
                if cand < tau:
                    tau, hit = cand, left_id
            if tau > t_cur:
                z_cur = z_cur + s_p * (tau - t_cur)
                t_cur = tau
                nodes_t.append(t_cur)
                nodes_z.append(z_cur)
                seg_speed.append(s_p)
            if tau >= t_end:  # also when nothing is hit, since then tau == t_end
                break
            if hit == right_id and w(rv[hit]) >= spd[hit]:
                left_id, right_id = hit, nxt[hit]
            elif hit == left_id and w(lv[hit]) <= spd[hit]:
                left_id, right_id = prv[hit], hit
            else:
                stick, stick_start = hit, tau
        if e is None:
            break
        live.apply(e)
        ei += 1
        if stick != -1:
            if stick in e.incoming:
                end_stick(e.time)
                reanchor(e)
        elif left_id in e.incoming and right_id in e.incoming:
            reanchor(e)
        elif left_id in e.incoming:
            left_id = prv[right_id] if right_id != -1 else live.tail
        elif right_id in e.incoming:
            right_id = nxt[left_id] if left_id != -1 else live.head

    end_stick(T)
    return Trajectory(
        np.asarray(nodes_t), np.asarray(nodes_z), np.asarray(seg_speed), sticking
    )


def check_speed_inclusion(
    traj: Trajectory, solution: FrontTrackingSolution, velocity: VelocityFunction
) -> float:
    """Largest violation of the one-sided speed inclusion at segment midpoints.

    For each sampled segment (all of them, or 1000 drawn with seed 0) the
    speed must lie within [min, max] of the velocities of the one-sided
    field limits at the midpoint; the return value is max(0, violation)
    over samples and is 0 for an admissible path.
    """
    nseg = traj.speeds.size
    if nseg == 0:
        return 0.0
    idx = np.arange(nseg)
    if nseg > 1000:
        idx = np.random.default_rng(0).choice(nseg, size=1000, replace=False)
        idx.sort()
    worst = 0.0
    for k in idx:
        tm = 0.5 * (traj.times[k] + traj.times[k + 1])
        zm = traj.positions[k] + traj.speeds[k] * (tm - traj.times[k])
        vl, vr = solution.evaluate_field(zm, tm)
        wl, wr = velocity.at(vl), velocity.at(vr)
        lo, hi = min(wl, wr), max(wl, wr)
        worst = max(worst, lo - traj.speeds[k], traj.speeds[k] - hi)
    return max(worst, 0.0)


def riemann_comparison(
    flux,
    flux_bar,
    velocity: VelocityFunction,
    velocity_bar: VelocityFunction,
    rho_left: float,
    rho_right: float,
    rho_left_bar: float,
    rho_right_bar: float,
    jump_position: float,
    jump_position_bar: float,
    start: float,
    start_bar: float,
    t0: float,
    t: float,
) -> float:
    """Closed-form displacement difference for two single-shock problems.

    ``jump_position`` is where each shock sits at time ``t0``, when both
    particles are released.  Each particle starts left of its shock,
    crosses it, and afterwards moves with the downstream speed; valid once
    t - t0 exceeds both hitting times.  Returns z_bar(t) - z(t).
    """
    if t0 <= 0 or t <= t0:
        raise ValueError("need 0 < t0 < t")
    for name, (rl, rr) in {
        "base": (rho_left, rho_right),
        "perturbed": (rho_left_bar, rho_right_bar),
    }.items():
        if rr <= 0:
            raise ValueError(f"{name} downstream density must be positive")
        if rl > rr:
            raise ValueError(f"{name} states do not form an admissible up-jump shock")

    def hitting_time(f, w, rl, rr, a, z0):
        if rl == rr:
            return 0.0
        lam = (f(rl) - f(rr)) / (rl - rr)
        gap = a - z0
        if gap < 0:
            raise ValueError("particle must start on the left of the jump")
        rel = float(w(rl)) - lam
        if rel <= 0:
            raise ValueError("particle never reaches the shock (no speed excess)")
        return gap / rel

    tau = hitting_time(flux, velocity, rho_left, rho_right, jump_position, start)
    tau_bar = hitting_time(
        flux_bar, velocity_bar, rho_left_bar, rho_right_bar, jump_position_bar, start_bar
    )
    if t - t0 < max(tau, tau_bar) - 1e-14:
        raise ValueError(
            f"t - t0 = {t - t0} is below the larger hitting time {max(tau, tau_bar)}"
        )
    drift = (float(velocity_bar(rho_right_bar)) - float(velocity(rho_right))) * (t - t0)
    geom_bar = (1.0 - rho_left_bar / rho_right_bar) * (jump_position_bar - start_bar)
    geom = (1.0 - rho_left / rho_right) * (jump_position - start)
    return drift + geom_bar - geom + (start_bar - start)


@dataclass
class SpreadReport:
    """Spread between two paths started at the same time, and its growth fit."""

    times: np.ndarray
    spread: np.ndarray
    initial_spread: float
    fitted_exponent: float
    envelope_ok: bool


def initial_position_spread(
    solution: FrontTrackingSolution,
    velocity: VelocityFunction,
    x0: float,
    y0: float,
    t0: float,
    horizon: Optional[float] = None,
) -> SpreadReport:
    """Track from two starting points and fit |x-y|^2 <= |x0-y0|^2 (t/t0)^C.

    The fitted exponent is the smallest C >= 0 for which the envelope holds
    at the evaluation times (trajectory nodes plus 1000 uniform times).
    """
    a = track(solution, velocity, x0, t0, horizon)
    b = track(solution, velocity, y0, t0, horizon)
    T = a.end_time
    ts = np.unique(np.concatenate((a.times, b.times, np.linspace(t0, T, 1000))))
    spread = np.abs(a.position_at(ts) - b.position_at(ts))
    d0 = abs(x0 - y0)
    if d0 == 0.0:
        c_fit = 0.0
        ok = bool(np.all(spread == 0.0))
    else:
        c_fit = 0.0
        for t, d in zip(ts, spread):
            if t <= t0 * (1.0 + 1e-12) or d <= d0:
                continue
            c_fit = max(c_fit, 2.0 * log(d / d0) / log(t / t0))
        ok = bool(np.all(spread ** 2 <= d0 * d0 * (ts / t0) ** c_fit + 1e-12))
    return SpreadReport(ts, spread, d0, c_fit, ok)
