"""Particle paths through front-tracking fields.

Oracles: hand-integrated single-shock paths (hitting time tau =
(a - z0)/(w(rho_l) - s), downstream drift afterwards), the closed
comparison formula checked against differenced track() runs, and the
one-sided speed inclusion sampled along every path.
"""

import math

import numpy as np
import pytest

from shockline import filippov
from shockline.filippov import (
    Trajectory,
    check_speed_inclusion,
    initial_position_spread,
    riemann_comparison,
    track,
)
from shockline.flux import (
    BurgersQuadraticFlux,
    LinearTrafficVelocity,
    PiecewiseLinearFlux,
    TableVelocity,
    TrafficQuadraticFlux,
    piecewise_linearize,
    traffic_flux_from_velocity,
)
from shockline.front_tracking import (
    EVENT_SPACE_TOL,
    FrontEvent,
    FrontTrackingSolution,
    StepFunction,
    _LiveFronts,
    evolve,
)

W = LinearTrafficVelocity(1.0, 1.0)

# f(0.2) = f(0.8) = 0.16 here, so the 0.2 -> 0.8 shock sits still exactly
STILL_FLUX = PiecewiseLinearFlux(
    np.array([0.0, 0.2, 0.8, 1.0]), np.array([0.0, 0.16, 0.16, 0.0])
)


def test_constant_field_straight_line():
    sol = evolve(StepFunction.constant(0.5), STILL_FLUX, 3.0)
    traj = track(sol, W, -1.0, 0.5)
    assert np.array_equal(traj.times, [0.5, 3.0])
    assert traj.positions[0] == -1.0
    assert traj.positions[-1] == pytest.approx(-1.0 + 0.5 * 2.5, abs=1e-14)
    assert traj.speeds[0] == 0.5
    assert traj.sticking == []


def test_t0_at_or_below_zero_rejected():
    sol = evolve(StepFunction.constant(0.5), STILL_FLUX, 3.0)
    with pytest.raises(ValueError):
        track(sol, W, -1.0, 0.0)
    with pytest.raises(ValueError):
        track(sol, W, -1.0, -0.5)


@pytest.mark.parametrize(
    "x0, t0", [(np.nan, 0.5), (np.inf, 0.5), (-np.inf, 0.5), (-1.0, np.nan), (-1.0, np.inf)]
)
def test_track_rejects_non_finite_start(x0, t0):
    sol = evolve(StepFunction([0.0], [0.2, 0.8]), STILL_FLUX, 2.0)
    with pytest.raises(ValueError):
        track(sol, W, x0, t0)


def test_position_at_rejects_nan():
    traj = track(evolve(StepFunction.constant(0.5), STILL_FLUX, 3.0), W, -1.0, 0.5)
    with pytest.raises(ValueError):
        traj.position_at(np.nan)
    with pytest.raises(ValueError):
        traj.position_at(np.array([1.0, np.nan]))


def test_stationary_shock_hitting_time_oracle():
    # tau = (a - z0)/(w(rho_l) - s) = 1/0.8 = 1.25; z(2) = 0.2 * 0.75 = 0.15
    sol = evolve(StepFunction([0.0], [0.2, 0.8]), STILL_FLUX, 2.0)
    traj = track(sol, W, -1.0, 1e-14, 2.0)
    assert len(traj.times) == 3
    assert traj.times[1] == pytest.approx(1.25, abs=1e-12)
    assert traj.positions[1] == pytest.approx(0.0, abs=1e-12)
    assert traj.positions[-1] == pytest.approx(0.15, abs=1e-12)
    assert traj.sticking == []  # traffic never sticks


def test_crossing_node_lies_on_front():
    rng = np.random.default_rng(8)
    flux = traffic_flux_from_velocity(W, 6)
    total_crossings = 0
    for _ in range(10):
        k = int(rng.integers(1, 6))
        bps = np.sort(rng.uniform(-1.0, 1.0, k))
        vals = rng.choice(np.arange(4, 64) / 64.0, k + 1)
        try:
            s = StepFunction(bps, vals)
        except ValueError:
            continue
        sol = evolve(s, flux, 2.0)
        traj = track(sol, W, float(rng.uniform(-2, -1)), 0.01, 2.0)
        for k in range(1, traj.times.size - 1):
            # nodes with unchanged speed are field-event bookkeeping, not crossings
            if abs(traj.speeds[k] - traj.speeds[k - 1]) <= 1e-15:
                continue
            total_crossings += 1
            t, z = traj.times[k], traj.positions[k]
            alive = (sol.birth_times <= t) & (t <= sol.death_times)
            dists = np.abs(sol.birth_positions + sol.speeds * (t - sol.birth_times) - z)[alive]
            assert dists.size and dists.min() < 1e-12
    assert total_crossings > 0


def test_speed_inclusion_on_random_traffic_runs():
    rng = np.random.default_rng(21)
    flux = traffic_flux_from_velocity(W, 6)
    for _ in range(10):
        k = int(rng.integers(1, 8))
        bps = np.sort(rng.uniform(-1.0, 1.0, k))
        vals = rng.choice(np.arange(4, 64) / 64.0, k + 1)
        try:
            s = StepFunction(bps, vals)
        except ValueError:
            continue
        sol = evolve(s, flux, 2.0)
        traj = track(sol, W, float(rng.uniform(-2, 0)), 0.01, 2.0)
        assert check_speed_inclusion(traj, sol, W) <= 1e-10
        assert traj.sticking == []


def test_track_is_deterministic():
    s = StepFunction([0.0, 0.4], [0.25, 0.625, 0.4375])
    flux = traffic_flux_from_velocity(W, 5)
    sol = evolve(s, flux, 2.0)
    a = track(sol, W, -0.8, 0.02, 2.0)
    b = track(sol, W, -0.8, 0.02, 2.0)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.speeds, b.speeds)


def test_start_exactly_on_front_enters_downstream_cell():
    sol = evolve(StepFunction([0.0], [0.2, 0.8]), STILL_FLUX, 2.0)
    traj = track(sol, W, 0.0, 0.5, 2.0)
    # w(right) = 0.2 > s = 0, so the particle leaves through the right cell
    assert traj.positions[-1] == pytest.approx(0.2 * 1.5, abs=1e-14)


def test_sticking_on_nonmonotone_velocity():
    # Burgers shock 0.5 -> -0.5 at x = 0 has speed 0; with an increasing
    # velocity table both sides push inward, so the particle rides the front
    flux = piecewise_linearize(  # Burgers chord flux, spacing 0.25
        __import__("shockline.flux", fromlist=["BurgersQuadraticFlux"]).BurgersQuadraticFlux(),
        2,
    )
    w = TableVelocity(np.array([-1.0, 1.0]), np.array([-0.3, 0.3]))
    sol = evolve(StepFunction([0.0], [0.5, -0.5]), flux, 5.0)
    traj = track(sol, w, -0.3, 0.5, 5.0)
    # approach speed w(0.5) = 0.15, contact at t = 0.5 + 0.3/0.15 = 2.5
    t_hit = 2.5
    assert traj.times[1] == pytest.approx(t_hit, abs=1e-10)
    assert traj.positions[-1] == pytest.approx(0.0, abs=1e-12)
    assert len(traj.sticking) == 1
    lo, hi, _ = traj.sticking[0]
    assert lo == pytest.approx(t_hit, abs=1e-10)
    assert hi == 5.0
    assert check_speed_inclusion(traj, sol, w) <= 1e-10


# Level-0 Burgers: nodes -1, 0, 1 with f = 1/2, 0, 1/2, so every front is a
# chord and its speed is (f(l) - f(r)) / (l - r) in {-1/2, 0, 1/2}.
BURGERS0 = piecewise_linearize(BurgersQuadraticFlux(), 0)


def line_velocity(w_minus, w_plus):
    """w(u) linear on [-1, 1] with w(-1) = w_minus and w(1) = w_plus."""
    return TableVelocity(np.array([-1.0, 1.0]), np.array([w_minus, w_plus]))


PARKED = line_velocity(0.0, 0.0)  # w = 0: fronts pass the car
STICKY = line_velocity(-1.0, 1.0)  # w(u) = u: Lax shocks hold the car


# The level-3 traffic flux for w(u) = 1 - u: its 0 -> 0.375 shock runs at
# (f(0.375) - f(0)) / 0.375 = 0.625 = w(0.375), a tie for a car right of it.
TRAFFIC3 = traffic_flux_from_velocity(W, 3)

# (breakpoints, values, velocity, x0, t0, horizon,
#  node times, node positions, segment speeds, sticking spans);
# the flux is BURGERS0 unless EVENT_FLUX names another
EVENT_CASES = {
    # the 1 -> 0 front at speed 1/2 reaches the car at t = 0.5 + 0.75/0.5 = 2
    # and, since w(1) = 0 <= 1/2, passes it to the left
    "front_behind_crosses_a_parked_car": (
        [0.0], [1.0, 0.0], PARKED, 1.0, 0.5, 3.0,
        [0.5, 2.0, 3.0], [1.0, 1.0, 1.0], [0.0, 0.0], []),
    # same contact, but w(1) = 1 > 1/2: the car rides the front to x = 1.5
    "front_behind_catches_a_sticky_car": (
        [0.0], [1.0, 0.0], STICKY, 1.0, 0.5, 3.0,
        [0.5, 2.0, 3.0], [1.0, 1.0, 1.5], [0.0, 0.5], [(2.0, 3.0, 0)]),
    # started on the front: w(0) = 0 <= 1/2 and w(1) = 0 < 1/2, so the car
    # stays in the left cell and the front moves away
    "parked_car_on_a_front_stays_left": (
        [0.0], [1.0, 0.0], PARKED, 0.25, 0.5, 3.0,
        [0.5, 3.0], [0.25, 0.25], [0.0], []),
    # the car sticks to front 0 at (2, 1); fronts 4 and 5 collide at (3, 11.5)
    # while it is stuck (an event time, so a node); front 0 dies at (4, 2)
    # against front 1 and the car sticks to the outgoing still shock 7
    # (w(1) = 1 > 0 > w(-1) = -1)
    "stuck_car_outlives_an_event_then_its_front": (
        [0.0, 4.0, 8.0, 10.0, 13.0], [1.0, 0.0, -1.0, 1.0, 0.0, -1.0], STICKY, 1.0, 0.5, 6.0,
        [0.5, 2.0, 3.0, 4.0, 6.0], [1.0, 1.0, 1.5, 2.0, 2.0], [0.0, 0.5, 0.5, 0.0],
        [(2.0, 4.0, 0), (4.0, 6.0, 7)]),
    # the cell of the car collapses onto it at (2, 1); the outgoing still
    # shock 1 -> -1 has w(1) = -1 <= 0 on its left, so the car leaves in the
    # left cell at speed -1
    "collapsing_cell_leaves_the_car_left_of_the_outgoing_shock": (
        [0.0, 2.0], [1.0, 0.0, -1.0], line_velocity(1.0, -1.0), 1.0, 0.5, 3.0,
        [0.5, 2.0, 3.0], [1.0, 1.0, 0.0], [0.0, -1.0], []),
    # stuck from the start on the still front 1 (w(-1) = -1/4 <= 0 <= w(1));
    # it dies at (2, 1) and the outgoing 0 -> -1 shock runs left at -1/2,
    # faster than w(0) = 3/8 and w(-1) = -1/4, so the car ends up right of it
    "stuck_car_falls_through_the_outgoing_shock": (
        [0.0, 1.0], [0.0, 1.0, -1.0], line_velocity(-0.25, 1.0), 1.0, 0.5, 4.0,
        [0.5, 2.0, 4.0], [1.0, 1.0, 0.5], [0.0, -0.25], [(0.5, 2.0, 1)]),
    # stuck from the start on the still front 2 (w(-1) = -1/4 < 0 < w(1));
    # fronts 1, 2, 3 annihilate at (2, 0), leaving the car in the 0 cell
    # between fronts 0 and 4, where it drives on at w(0) = 1/2
    "stuck_car_survives_an_annihilation": (
        [-3.0, -1.0, 0.0, 1.0, 3.0], [-1.0, 0.0, 1.0, -1.0, 0.0, 1.0], line_velocity(-0.25, 1.25),
        0.0, 0.5, 4.0,
        [0.5, 2.0, 4.0], [0.0, 0.0, 1.0], [0.0, 0.5], [(0.5, 2.0, 2)]),
    # the same start with w(-1) = 0, the front's speed: the tie crosses, so
    # the car rides beside front 2 in its right cell, on the same path
    "car_started_on_a_still_front_of_its_downstream_speed_survives_an_annihilation": (
        [-3.0, -1.0, 0.0, 1.0, 3.0], [-1.0, 0.0, 1.0, -1.0, 0.0, 1.0], line_velocity(0.0, 1.0),
        0.0, 0.5, 4.0,
        [0.5, 2.0, 4.0], [0.0, 0.0, 1.0], [0.0, 0.5], []),
    # no front lies right of the car, which drives left at w(-1) = -1 and
    # meets its left front, the 0 -> -1 shock at speed -1/2, at (2, -1):
    # exactly where that front collides with the 1 -> 0 shock coming at
    # speed 1/2; the outgoing 1 -> -1 still shock 2 holds the car there
    # (w(1) = 1 > 0 > w(-1) = -1)
    "car_right_of_all_fronts_sticks_where_its_left_front_dies": (
        [-2.0, 0.0], [1.0, 0.0, -1.0], STICKY, 0.5, 0.5, 4.0,
        [0.5, 2.0, 4.0], [0.5, -1.0, -1.0], [-1.0, 0.0], [(2.0, 4.0, 2)]),
    # the mirror image: no front lies left of the car, which drives right at
    # w(1) = 1 and meets its right front at (2, 1), where that front dies;
    # the car sticks to the outgoing still shock 2
    "car_left_of_all_fronts_sticks_where_its_right_front_dies": (
        [0.0, 2.0], [1.0, 0.0, -1.0], STICKY, -0.5, 0.5, 4.0,
        [0.5, 2.0, 4.0], [-0.5, 1.0, 1.0], [1.0, 0.0], [(2.0, 4.0, 2)]),
    # the car drives at w(0) = 1 and meets the 0 -> 0.375 front at (1, 0.625);
    # w(0.375) = 0.625 >= 0.625 crosses on the tie, and it drives on beside it
    "car_crosses_a_front_of_its_own_downstream_speed": (
        [0.0], [0.0, 0.375], W, 0.125, 0.5, 2.0,
        [0.5, 1.0, 2.0], [0.125, 0.625, 1.25], [1.0, 0.625], []),
    # started on the same front at (0.3125, 0.5): the contact's tie rule
    # crosses it too, with no sticking span
    "car_started_on_a_front_of_its_own_downstream_speed_crosses": (
        [0.0], [0.0, 0.375], W, 0.3125, 0.5, 2.0,
        [0.5, 2.0], [0.3125, 1.25], [0.625], []),
}
EVENT_FLUX = {
    "car_crosses_a_front_of_its_own_downstream_speed": TRAFFIC3,
    "car_started_on_a_front_of_its_own_downstream_speed_crosses": TRAFFIC3,
}


@pytest.mark.parametrize("name", sorted(EVENT_CASES))
def test_hand_derived_paths_through_front_contacts_and_events(name):
    bps, vals, w, x0, t0, horizon, times, positions, speeds, sticking = EVENT_CASES[name]
    sol = evolve(StepFunction(bps, vals), EVENT_FLUX.get(name, BURGERS0), horizon)
    traj = track(sol, w, x0, t0)
    assert traj.times.tolist() == times
    assert traj.positions.tolist() == positions
    assert traj.speeds.tolist() == speeds
    assert traj.sticking == sticking
    assert check_speed_inclusion(traj, sol, w) == 0.0


def test_riemann_comparison_identical_inputs_zero():
    f = TrafficQuadraticFlux(1.0, 1.0)
    val = riemann_comparison(
        f, f, W, W, 0.2, 0.8, 0.2, 0.8, 0.0, 0.0, -1.0, -1.0, 0.1, 2.0
    )
    assert val == 0.0


def test_riemann_comparison_frozen_example():
    # identical states and velocities, shock moved from 0 to 0.1:
    # (0.6/0.8) * 1.1 - (0.6/0.8) * 1.0 = 0.075
    f = TrafficQuadraticFlux(1.0, 1.0)
    val = riemann_comparison(
        f, f, W, W, 0.2, 0.8, 0.2, 0.8, 0.0, 0.1, -1.0, -1.0, 0.1, 2.0
    )
    assert val == pytest.approx(0.075, abs=1e-14)


def test_riemann_comparison_degenerate_no_jump_side():
    # base side constant at 0.5: pure straight line; formula must reduce to
    # the drift difference plus the perturbed geometric term
    f = TrafficQuadraticFlux(1.0, 1.0)
    t0, t = 0.1, 3.0
    val = riemann_comparison(
        f, f, W, W, 0.5, 0.5, 0.2, 0.8, 0.3, 0.1, -1.0, -1.0, t0, t
    )
    want = (W(0.8) - W(0.5)) * (t - t0) + (1 - 0.2 / 0.8) * (0.1 - (-1.0))
    assert val == pytest.approx(want, abs=1e-14)


def test_riemann_comparison_rejects_vacuum_downstream():
    f = TrafficQuadraticFlux(1.0, 1.0)
    with pytest.raises(ValueError):
        riemann_comparison(
            f, f, W, W, 0.0, 0.0, 0.2, 0.8, 0.0, 0.0, -1.0, -1.0, 0.1, 2.0
        )


def test_riemann_comparison_matches_differenced_tracks():
    rng = np.random.default_rng(123)
    level = 6
    flux = traffic_flux_from_velocity(W, level)
    grid = np.arange(1, 65) / 64.0
    done = 0
    while done < 50:
        rl, rr = np.sort(rng.choice(grid, 2, replace=False))
        rlb, rrb = np.sort(rng.choice(grid, 2, replace=False))
        a, ab = rng.uniform(0.0, 0.5, 2)
        z0 = float(rng.uniform(-2.0, -0.5))
        z0b = float(rng.uniform(-2.0, -0.5))
        t0 = float(rng.uniform(0.01, 0.2))
        # hitting times from the formula, then pick t safely beyond both
        lam = (flux(rl) - flux(rr)) / (rl - rr)
        lamb = (flux(rlb) - flux(rrb)) / (rlb - rrb)
        tau = t0 + (a - z0) / (W(rl) - lam)
        taub = t0 + (ab - z0b) / (W(rlb) - lamb)
        t = max(tau, taub) + 0.5
        closed = riemann_comparison(
            flux, flux, W, W, rl, rr, rlb, rrb, a, ab, z0, z0b, t0, t
        )
        # the formula reads the jump position at t0, so birth the front
        # early enough that it sits at `a` when the particle is released
        sol = evolve(StepFunction([a - lam * t0], [rl, rr]), flux, t)
        solb = evolve(StepFunction([ab - lamb * t0], [rlb, rrb]), flux, t)
        za = track(sol, W, z0, t0, t).position_at(t)
        zb = track(solb, W, z0b, t0, t).position_at(t)
        assert closed == pytest.approx(zb - za, abs=1e-10)
        done += 1


def test_spread_constant_field():
    sol = evolve(StepFunction.constant(0.5), STILL_FLUX, 2.0)
    rep = initial_position_spread(sol, W, -1.0, -0.4, 0.1, 2.0)
    assert np.allclose(rep.spread, rep.initial_spread, atol=1e-12)
    assert abs(rep.fitted_exponent) < 1e-10
    assert rep.envelope_ok


def test_spread_same_start_is_zero():
    sol = evolve(StepFunction.constant(0.5), STILL_FLUX, 2.0)
    rep = initial_position_spread(sol, W, -1.0, -1.0, 0.1, 2.0)
    assert np.all(rep.spread == 0.0)
    assert rep.envelope_ok


def test_spread_grows_through_rarefaction_fan():
    flux = traffic_flux_from_velocity(W, 4)
    sol = evolve(StepFunction([0.0], [0.875, 0.125]), flux, 2.0)
    rep = initial_position_spread(sol, W, -0.05, 0.05, 0.01, 2.0)
    assert rep.spread[-1] > rep.initial_spread
    diffs = np.diff(rep.spread)
    assert np.all(diffs >= -1e-12)
    assert rep.envelope_ok
    assert rep.fitted_exponent >= 0.0


# ---------------------------------------------------------------------------
# track's fast paths against references: the t = 0 fans linked as one run,
# the path built without re-checks, and position_at's segment lookup


def path_hex(traj):
    return [[x.hex() for x in a.tolist()] for a in (traj.times, traj.positions, traj.speeds)]


def reference_positions(traj, t):
    """position_at's expression before its segment lookup lost the np.clip."""
    ts = np.asarray(t, dtype=float)
    if traj.times.size == 1:
        return np.full(ts.shape, traj.positions[0])
    k = np.clip(np.searchsorted(traj.times, ts, side="right") - 1, 0, traj.times.size - 2)
    return traj.positions[k] + traj.speeds[k] * (ts - traj.times[k])


def random_paths(rng):
    """Paths of 1 to 40 nodes whose positions need not follow their speeds,
    so a query read off the wrong segment moves."""
    for n in (1, 1, 2, 2, 3, 5, 17, 40):
        times = np.cumsum(rng.uniform(1e-3, 1.0, n)) + rng.uniform(-1.0, 1.0)
        yield Trajectory(times, rng.uniform(-2.0, 2.0, n), rng.uniform(-1.0, 1.0, n - 1))


def queries(rng, traj):
    lo, hi = traj.start_time, traj.end_time
    return np.concatenate(([lo - 1e-12, lo, hi, hi + 1e-12], traj.times, rng.uniform(lo, hi, 7)))


def test_position_at_and_observe_match_the_reference_expression():
    rng = np.random.default_rng(27)
    paths = list(random_paths(rng))
    sol = evolve(random_traffic_data(rng, 12, 6), traffic_flux_from_velocity(W, 6), 2.0)
    paths += [track(sol, W, x0, 0.01) for x0 in rng.uniform(-2.0, 1.0, 4)]
    paths.append(track(sol, W, -0.5, 2.0))  # a one-node path
    for traj in paths:
        ts = queries(rng, traj)
        want = [x.hex() for x in reference_positions(traj, ts).tolist()]
        got = traj.position_at(ts)
        assert isinstance(got, np.ndarray) and got.shape == ts.shape
        assert [x.hex() for x in got.tolist()] == want
        assert [x.hex() for x in traj.observe(ts).tolist()] == want
        assert [x.hex() for x in traj.observe(ts.tolist()).tolist()] == want
        grid = ts[:6].reshape(2, 3)
        assert [x.hex() for x in traj.position_at(grid).ravel().tolist()] == want[:6]
        for t in ts[:6].tolist():  # Python float, 0-d array, numpy scalar
            for query in (t, np.asarray(t), np.float64(t)):
                z = traj.position_at(query)
                assert type(z) is float and z.hex() == reference_positions(traj, t).item().hex()
            assert traj.observe(np.asarray(t)).shape == (1,)
        empty = traj.position_at(np.empty(0))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)
        assert traj.observe([]).shape == (0,)


def test_position_at_rejects_nan_and_out_of_range_queries():
    rng = np.random.default_rng(28)
    for traj in random_paths(rng):
        lo, hi = traj.start_time, traj.end_time
        for bad in (np.nan, lo - 2e-12, hi + 2e-12, -np.inf, np.inf):
            for query in (bad, np.asarray(bad), np.array([lo, bad]), [[hi], [bad]]):
                with pytest.raises(ValueError, match="NaN or outside"):
                    traj.position_at(query)
            with pytest.raises(ValueError, match="NaN or outside"):
                traj.observe([bad])


def test_track_returns_what_the_public_constructor_builds_on_its_nodes():
    rng = np.random.default_rng(29)
    flux = traffic_flux_from_velocity(W, 6)
    for _ in range(6):
        sol = evolve(random_traffic_data(rng, 12, 6), flux, 2.0)
        for x0, t0 in zip(rng.uniform(-2.0, 1.0, 3), (0.01, 0.7, 2.0)):
            traj = track(sol, W, x0, t0)
            public = Trajectory(traj.times.tolist(), traj.positions.tolist(), traj.speeds.tolist(),
                                traj.sticking)
            assert path_hex(traj) == path_hex(public) and traj.sticking == public.sticking
            for a in (traj.times, traj.positions, traj.speeds):
                assert type(a) is np.ndarray and a.dtype == float and a.ndim == 1
            assert traj.speeds.size == traj.times.size - 1 == traj.positions.size - 1
            # the nodes run from the start to the horizon, each the last one moved
            # along its segment, as track computes them
            assert (traj.start_time, traj.end_time, traj.positions[0]) == (t0, 2.0, x0)
            moved = traj.positions[:-1] + traj.speeds * np.diff(traj.times)
            assert [x.hex() for x in moved.tolist()] == path_hex(traj)[1][1:]
    # integer starts, also a one-node path of them, give float nodes as the public one does
    sol = evolve(StepFunction([0.0], [0.25, 0.75]), flux, 2.0)
    for x0, t0 in ((0, 2), (-1, 1), (np.int64(1), np.int64(2))):
        traj = track(sol, W, x0, t0)
        public = Trajectory(*(np.asarray(a) for a in (traj.times, traj.positions, traj.speeds)))
        assert path_hex(traj) == path_hex(public)
        assert traj.times.dtype == traj.positions.dtype == traj.speeds.dtype == float


def test_public_trajectory_constructor_still_checks_its_nodes():
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory([0.0, 1.0, 1.0], [0.0, 1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory([0.0, 2.0, 1.0], [0.0, 1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="len"):
        Trajectory([0.0, 1.0], [0.0, 1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="len"):
        Trajectory([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="len"):
        Trajectory([0.0], [0.0], [1.0])


def random_traffic_data(rng, max_jumps, level):
    """Step data on [-2, 2] with dyadic values, mostly rarefaction fans of many waves."""
    while True:
        k = int(rng.integers(1, max_jumps + 1))
        bps = np.sort(rng.uniform(-2.0, 2.0, k))
        vals = rng.integers(0, 2 ** level + 1, k + 1) / 2 ** level
        try:
            return StepFunction(bps, vals)
        except ValueError:
            continue


def track_replaying_each_fan(monkeypatch, sol, *args):
    """``track`` with the reference replay: each t = 0 fan event goes
    through ``apply`` on its own, as every later event does."""
    fans = [e for e in sol.events if not e.incoming]

    class ApplyEachFan(_LiveFronts):
        def apply(self, event):
            if event.incoming:
                return super().apply(event)
            assert event.outgoing == tuple(f for e in fans for f in e.outgoing)
            for e in fans:
                super().apply(e)

    with monkeypatch.context() as patch:
        patch.setattr(filippov, "_LiveFronts", ApplyEachFan)
        return track(sol, *args)


def fan_cases():
    """(solution, velocity): constant data, one many-wave fan, a still
    shock, and random data full of fans at levels 3 to 8."""
    rng = np.random.default_rng(30)
    yield evolve(StepFunction.constant(0.5), traffic_flux_from_velocity(W, 6), 2.0), W
    yield evolve(StepFunction([0.0], [0.875, 0.125]), traffic_flux_from_velocity(W, 6), 2.0), W
    yield evolve(StepFunction([0.0], [0.2, 0.8]), STILL_FLUX, 2.0), W
    for level in (3, 4, 6, 8):
        for _ in range(4):
            yield evolve(random_traffic_data(rng, 12, level), traffic_flux_from_velocity(W, level), 2.0), W
    yield evolve(StepFunction([0.0, 4.0, 8.0, 10.0, 13.0], [1.0, 0.0, -1.0, 1.0, 0.0, -1.0]),
                 BURGERS0, 6.0), STICKY


def test_fans_linked_as_one_run_give_the_links_of_one_apply_per_fan():
    for sol, _ in fan_cases():
        fans = [e for e in sol.events if not e.incoming]
        assert all(e.time == 0.0 for e in fans) and sol.events[:len(fans)] == fans
        n = sum(len(e.outgoing) for e in fans)
        assert [f for e in fans for f in e.outgoing] == list(range(n))
        ref = _LiveFronts()
        for e in fans:
            ref.apply(e)
        live = _LiveFronts()
        live.apply(FrontEvent(0.0, 0.0, (), tuple(range(n))))
        assert (live.nxt, live.prv, live.head, live.tail) == (ref.nxt, ref.prv, ref.head, ref.tail)


def test_track_matches_a_replay_that_applies_one_event_at_a_time(monkeypatch):
    rng = np.random.default_rng(31)
    cases = checked = 0
    for sol, w in fan_cases():
        collisions = [e.time for e in sol.events if e.incoming]
        first = collisions[0] if collisions else sol.horizon / 2
        # cars started before, at and after the first collision, and at the horizon
        starts = [0.01, first / 2, first, (first + sol.horizon) / 2, sol.horizon]
        for t0 in starts:
            for x0 in rng.uniform(-2.5, 2.0, 3).tolist():
                want = track_replaying_each_fan(monkeypatch, sol, w, x0, t0)
                got = track(sol, w, x0, t0)
                assert path_hex(got) == path_hex(want) and got.sticking == want.sticking
                checked += got.times.size
        cases += bool(collisions)
    assert cases >= 12 and checked > 10000, (cases, checked)


# ---------------------------------------------------------------------------
# the speed-inclusion check reads the field through one batched lookup


def speed_inclusion_by_segment(traj, solution, velocity):
    """check_speed_inclusion as one evaluate_field call per sampled segment."""
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


class SignedVelocity:
    """w(v) = 4 + 2v + copysign(1, v), or 10 minus that when mirrored.

    Positive and one to one on the states below, 0.0 and -0.0 apart, so
    the violation of a still segment, min(w(left), w(right)), names the
    one-sided limits the check read: the smaller state, or mirrored the
    larger one.
    """

    def __init__(self, mirrored: bool):
        self.mirrored = mirrored

    def at(self, v: float) -> float:
        w = 4.0 + 2.0 * v + math.copysign(1.0, v)
        return 10.0 - w if self.mirrored else w


# still fronts, id order as listed: one plain jump; twins whose slice keeps
# the right state of the higher id; two fronts exactly EVENT_SPACE_TOL apart,
# which the slice merges; and a 0.0 -> -0.0 front, whose run of zeros the
# slice reads as -0.0 on both sides
PROBE_FRONTS = [(-0.5, 0.25, 0.5), (-0.25, 0.5, 0.25), (-0.25, 0.25, 0.75),
                (0.0, 0.75, 0.5), (EVENT_SPACE_TOL, 0.5, 0.25),
                (0.25, 0.25, 0.0), (0.5, 0.0, -0.0), (0.75, -0.0, 0.5)]
PROBE_POINTS = [-1.0, -0.5, -0.375, -0.25, -0.2, 0.0, 0.5 * EVENT_SPACE_TOL, EVENT_SPACE_TOL,
                0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 1.0]


def test_speed_inclusion_reads_the_limits_evaluate_field_reads():
    pos, left, right = (np.array(c) for c in zip(*PROBE_FRONTS))
    n = pos.size
    sol = FrontTrackingSolution(
        StepFunction.constant(0.25), None, 1.0, [], birth_times=np.zeros(n),
        birth_positions=pos, speeds=np.zeros(n), left_values=left, right_values=right,
        death_times=np.full(n, np.inf),
    )
    h = 2.0 ** -10
    for x in PROBE_POINTS:
        for t in (0.25, 0.5, 1.0):
            still = Trajectory([t - h, t + h], [x, x], [0.0])  # its midpoint is (x, t)
            for velocity in (SignedVelocity(False), SignedVelocity(True)):
                want = speed_inclusion_by_segment(still, sol, velocity)
                got = check_speed_inclusion(still, sol, velocity)
                assert got.hex() == want.hex(), (x, t, velocity.mirrored)


def test_speed_inclusion_equals_the_per_segment_loop_on_tracks():
    # Burgers with w(u) = u: the car sticks to every shock it meets, so many
    # midpoints lie on a live front or one rounding beside it; the whole
    # track takes the 1000-segment sample, and each segment is checked alone
    # too, since one segment's reading hides under the track's maximum
    rng = np.random.default_rng(5)
    flux = piecewise_linearize(BurgersQuadraticFlux(), 6)
    w = TableVelocity(np.array([-1.0, 1.0]), np.array([-1.0, 1.0]))
    values = rng.choice(np.arange(-64, 65) / 64.0, 65)
    values[1:][values[1:] == values[:-1]] += 1.0 / 64.0
    sol = evolve(StepFunction(np.arange(-32, 32) / 8.0, np.clip(values, -1.0, 1.0)), flux, 6.0)
    traj = track(sol, w, -2.0, 0.01)
    assert traj.speeds.size > 1000 and len(traj.sticking) > 20
    assert check_speed_inclusion(traj, sol, w) == speed_inclusion_by_segment(traj, sol, w)
    for k in range(traj.speeds.size):
        one = Trajectory(traj.times[k:k + 2], traj.positions[k:k + 2], traj.speeds[k:k + 1])
        assert check_speed_inclusion(one, sol, w) == speed_inclusion_by_segment(one, sol, w), k
    # a car crosses the 0 -> 0.875 shock and rides it at w(0.875), its speed,
    # one rounding upstream of the front, so both read 0.875 (ROADMAP item 1
    # is to judge such a segment by both sides)
    sol = evolve(StepFunction([0.0], [0.0, 0.875]), traffic_flux_from_velocity(W, 3), 2.0)
    traj = track(sol, W, -1.0, 0.1)
    assert check_speed_inclusion(traj, sol, W) == speed_inclusion_by_segment(traj, sol, W) == 0.875


def test_speed_inclusion_raises_evaluate_fields_error_before_any_lookup(monkeypatch):
    flux = traffic_flux_from_velocity(W, 4)
    data = StepFunction([0.0, 0.5], [0.25, 0.75, 0.375])
    traj = track(evolve(data, flux, 2.0), W, -0.5, 0.1)
    short = evolve(data, flux, 1.0)
    with pytest.raises(ValueError) as want:
        speed_inclusion_by_segment(traj, short, W)

    def no_block(*args):
        raise AssertionError("a block was computed")

    monkeypatch.setattr(FrontTrackingSolution, "_block_limits", no_block)
    with pytest.raises(ValueError) as got:
        check_speed_inclusion(traj, short, W)
    assert str(got.value) == str(want.value) and "outside [0, 1.0]" in str(got.value)


def test_speed_inclusion_of_a_public_path_with_a_nan_position():
    sol = evolve(StepFunction([0.0], [0.25, 0.75]), traffic_flux_from_velocity(W, 4), 2.0)
    traj = Trajectory([0.1, 0.5, 1.0, 1.5], [-0.5, np.nan, 0.25, 0.5], [0.75, 0.5, 0.5])
    want = speed_inclusion_by_segment(traj, sol, W)
    assert check_speed_inclusion(traj, sol, W) == want > 0.0


@pytest.mark.parametrize("kind", [np.float32, np.float64, int])
def test_track_starts_from_python_floats(kind):
    # a float32 start used to round every node of the path to float32
    sol = evolve(StepFunction([0.0, 0.5], [0.2, 0.7, 0.3]), traffic_flux_from_velocity(W, 6), 2.0)
    start = (kind(-0.5), kind(0.01)) if kind is not int else (-1, 1)
    traj = track(sol, W, *start)
    want = track(sol, W, *(float(v) for v in start))
    assert path_hex(traj) == path_hex(want) and traj.sticking == want.sticking
