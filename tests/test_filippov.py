"""Particle paths through front-tracking fields.

Oracles: hand-integrated single-shock paths (hitting time tau =
(a - z0)/(w(rho_l) - s), downstream drift afterwards), the closed
comparison formula checked against differenced track() runs, and the
one-sided speed inclusion sampled along every path.
"""

import numpy as np
import pytest

from shockline.filippov import (
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
from shockline.front_tracking import StepFunction, evolve

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
