"""Event-driven front tracking: Riemann fans, collisions, field slices.

Oracles: Rankine-Hugoniot speeds evaluated directly from the flux, a
hand-solved two-shock merge, and conservation/TVD/contraction properties
on seeded random step data.
"""

import copy
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shockline.flux import (
    DOMAIN_TOL,
    RIEMANN_TABLE_WAVES,
    BurgersQuadraticFlux,
    LinearTrafficVelocity,
    PiecewiseLinearFlux,
    TableVelocity,
    TrafficQuadraticFlux,
    _riemann_waves,
    concave_envelope,
    convex_envelope,
    dyadic_points,
    piecewise_linearize,
    traffic_flux_from_velocity,
)
from shockline import flux as flux_module
from shockline.filippov import track
from shockline.front_tracking import (
    EVENT_SPACE_TOL,
    FIELD_BLOCK_ELEMENTS,
    EventCapError,
    FrontEvent,
    FrontLists,
    FrontTrackingSolution,
    _LiveFronts,
    StepFunction,
    evolve,
    l1_distance,
    quantize_step,
    solve_riemann,
)

TRAFFIC3 = piecewise_linearize(TrafficQuadraticFlux(1.0, 1.0), 3)


def rh_speed(flux, vl, vr):
    return (flux(vl) - flux(vr)) / (vl - vr)


def random_step(rng, max_jumps=10, level=8, lo=0.0, hi=1.0):
    """Step data with dyadic values; far fields drawn like the rest."""
    k = int(rng.integers(1, max_jumps + 1))
    bps = np.sort(rng.uniform(-2.0, 2.0, k))
    bps = bps[np.concatenate(([True], np.diff(bps) > 1e-3))]
    grid = np.arange(int(lo * 2 ** level), int(hi * 2 ** level) + 1) / 2 ** level
    vals = rng.choice(grid, bps.size + 1)
    for i in range(1, vals.size):
        if vals[i] == vals[i - 1]:
            vals[i] = grid[(np.searchsorted(grid, vals[i]) + 1) % grid.size]
    return StepFunction(bps, vals)


# ---------------------------------------------------------------------------
# StepFunction behavior


def test_step_function_drops_equal_adjacent_values():
    s = StepFunction([0.0, 1.0, 2.0], [0.2, 0.5, 0.5, 0.7])
    assert np.array_equal(s.breakpoints, [0.0, 2.0])
    assert np.array_equal(s.values, [0.2, 0.5, 0.7])


def increasing_by_differences(bp):
    """The breakpoint check as written before it compared neighbours directly."""
    bp = np.atleast_1d(np.asarray(bp, dtype=float))
    with np.errstate(over="ignore"):  # 1e308 - (-1e308) is inf, still > 0
        rising = (np.diff(bp) > 0).all()
    return not bp.size or bool(rising and math.isfinite(bp[0]) and math.isfinite(bp[-1]))


def test_step_function_accepts_exactly_the_finite_strictly_increasing_breakpoints():
    cases = [
        [], [3.0], [np.nan], [np.inf], [-0.0, 0.0], [0.0, -0.0], [5e-324, 1e-323],
        [1e-323, 5e-324], [1.0, np.nextafter(1.0, 2.0)], [1.0, 1.0], [2.0, 1.0],
        [0.0, np.nan, 1.0], [0.0, np.inf, 1.0], [-np.inf, 0.0], [0.0, np.inf],
        [-1e308, 1e308], [0.0, 1.0, 0.5, 2.0], [-2.0, -0.0, 1e-300, 7.5],
    ]
    kept = 0
    for bp in cases:
        values = np.arange(len(bp) + 1, dtype=float)
        if increasing_by_differences(bp):
            s = StepFunction(bp, values)
            assert [x.hex() for x in s.breakpoints.tolist()] == [float(x).hex() for x in bp]
            kept += 1
        else:
            with pytest.raises(ValueError, match="finite and strictly increasing"):
                StepFunction(bp, values)
    assert kept == 6


def test_evolve_reads_signed_zero_states_and_extremes_as_given():
    burgers = piecewise_linearize(BurgersQuadraticFlux(), 2)
    data = StepFunction([-1.0, 0.0, 1.0], [-0.0, 0.5, 0.0, -0.5])
    assert (data.min_value(), data.max_value()) == (-0.5, 0.5)
    assert math.copysign(1.0, StepFunction.constant(-0.0).min_value()) == -1.0
    sol = evolve(data, burgers, 1.0)
    fans = [e for e in sol.events if not e.incoming]
    assert [e.position for e in fans] == [-1.0, 0.0, 1.0]
    firsts = [sol.front_lists.left_values[e.outgoing[0]] for e in fans]
    lasts = [sol.front_lists.right_values[e.outgoing[-1]] for e in fans]
    assert [x.hex() for x in firsts] == [(-0.0).hex(), (0.5).hex(), (0.0).hex()]
    assert [x.hex() for x in lasts] == [(0.5).hex(), (0.0).hex(), (-0.5).hex()]
    assert all(type(x) is float for c in sol.front_lists for x in c)


def test_step_function_one_sided_limits():
    s = StepFunction([0.0], [0.2, 0.8])
    assert s.value_at(-1.0) == (0.2, 0.2)
    assert s.value_at(0.0) == (0.2, 0.8)
    assert s.value_at(1.0) == (0.8, 0.8)


def test_step_function_integral_and_tv():
    s = StepFunction([0.0, 1.0], [0.0, 1.0, 0.5])
    assert s.integral(-1.0, 2.0) == pytest.approx(1.5, abs=1e-15)
    assert s.integral(0.25, 0.75) == pytest.approx(0.5, abs=1e-15)
    assert s.total_variation() == pytest.approx(1.5, abs=1e-15)


def test_quantization_floors_to_grid():
    s = StepFunction([0.0], [0.2, 0.8])
    q = quantize_step(s, 3)
    assert np.array_equal(q.values, [0.125, 0.75])
    # 1 and exact grid values are fixed points
    t = StepFunction([0.0], [1.0, 0.375])
    assert np.array_equal(quantize_step(t, 3).values, [1.0, 0.375])


def test_quantization_error_below_grid_width():
    rng = np.random.default_rng(5)
    for level in (2, 5, 9):
        vals = rng.uniform(0, 1, 6)
        s = StepFunction(np.arange(5.0), vals)
        q = quantize_step(s, level)
        mids = np.arange(6.0) - 0.5  # one sample point per cell
        assert np.all(q.sample(mids) <= vals + 1e-15)
        assert np.all(vals - q.sample(mids) < 2.0 ** -level)


def test_l1_distance_frozen_examples():
    w = (-0.5, 0.5)
    a = StepFunction.constant(0.2)
    b = StepFunction.constant(0.8)
    assert l1_distance(a, a, w) == 0.0
    assert l1_distance(a, b, w) == pytest.approx(0.6, abs=1e-15)
    # indicator difference of height 0.3 on an interval of length 0.25
    c = StepFunction([0.0, 0.25], [0.2, 0.5, 0.2])
    assert l1_distance(a, c, (-1.0, 1.0)) == pytest.approx(0.075, abs=1e-15)


def test_l1_distance_whole_line_needs_matching_far_fields():
    a = StepFunction([0.0], [0.2, 0.8])
    b = StepFunction([0.0], [0.2, 0.7])
    with pytest.raises(ValueError):
        l1_distance(a, b)
    c = StepFunction([0.5], [0.2, 0.8])
    assert l1_distance(a, c) == pytest.approx(0.3, abs=1e-15)


# ---------------------------------------------------------------------------
# Riemann solutions


def test_riemann_equal_states_rejected():
    with pytest.raises(ValueError):
        solve_riemann(TRAFFIC3, 0.3, 0.3)


def test_riemann_traffic_shock_is_stationary():
    # f(0.2) = f(0.8) = 0.16 on this flux, so the jump speed is exactly 0
    flux = PiecewiseLinearFlux(
        np.array([0.0, 0.2, 0.8, 1.0]), np.array([0.0, 0.16, 0.16, 0.0])
    )
    assert solve_riemann(flux, 0.2, 0.8) == ((0.0, 0.2, 0.8),)


def test_riemann_traffic_shock_speed_near_zero_any_level():
    for level in (1, 4, 8):
        flux = piecewise_linearize(TrafficQuadraticFlux(1.0, 1.0), level)
        (speed, _, _), = solve_riemann(flux, 0.2, 0.8)
        assert abs(speed) < 1e-12


def test_riemann_traffic_fan_level_one_frozen():
    flux = piecewise_linearize(TrafficQuadraticFlux(1.0, 1.0), 1)
    assert solve_riemann(flux, 1.0, 0.0) == ((-0.5, 1.0, 0.5), (0.5, 0.5, 0.0))


def test_riemann_burgers_fan_frozen():
    flux = piecewise_linearize(BurgersQuadraticFlux(), 2)  # spacing 0.25
    waves = solve_riemann(flux, -0.5, 0.5)
    speeds = [s for s, _, _ in waves]
    assert speeds == pytest.approx([-0.375, -0.125, 0.125, 0.375], abs=1e-15)
    assert waves[0][1] == -0.5
    assert waves[-1][2] == 0.5


def test_riemann_fronts_satisfy_rh_and_ordering():
    rng = np.random.default_rng(2)
    for _ in range(50):
        vl, vr = rng.choice(np.arange(9) / 8.0, 2, replace=False)
        waves = solve_riemann(TRAFFIC3, vl, vr)
        assert waves[0][1] == vl
        assert waves[-1][2] == vr
        speeds = [s for s, _, _ in waves]
        assert all(a < b for a, b in zip(speeds, speeds[1:]))
        for speed, left, right in waves:
            assert speed == pytest.approx(rh_speed(TRAFFIC3, left, right), abs=1e-12)


def test_riemann_states_must_be_finite():
    for v_left, v_right in ((float("nan"), 0.25), (0.25, float("nan")), (float("inf"), 0.25)):
        with pytest.raises(ValueError, match="finite"):
            solve_riemann(TRAFFIC3, v_left, v_right)


@st.composite
def piecewise_fluxes(draw, min_level, max_level):
    """Traffic, Burgers or non-concave rho*w(rho) chord flux, and its level."""
    kind = draw(st.sampled_from(["traffic", "burgers", "nonconcave"]))
    level = draw(st.integers(min_level, max_level))
    if kind == "traffic":
        return traffic_flux_from_velocity(LinearTrafficVelocity(), level), level
    if kind == "burgers":
        return piecewise_linearize(BurgersQuadraticFlux(), level), level
    w = draw(st.lists(st.floats(0.05, 2.0), min_size=2, max_size=5, unique=True))
    w = sorted(w, reverse=True) + [0.0]
    return traffic_flux_from_velocity(TableVelocity(np.linspace(0.0, 1.0, len(w)), w), level), level


def envelope_waves(flux, v_l, v_r):
    """Riemann waves read off the public envelope, whatever its shape."""
    if v_l < v_r:
        xs, ys = convex_envelope(flux, v_l, v_r)
        return [((ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k]), xs[k], xs[k + 1])
                for k in range(len(xs) - 1)]
    xs, ys = concave_envelope(flux, v_r, v_l)
    return [((ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k]), xs[k + 1], xs[k])
            for k in range(len(xs) - 2, -1, -1)]


def waves_hex(waves):
    return [tuple(v.hex() for v in wave) for wave in waves]


def rows(columns):
    """``_riemann_waves``'s ``(speeds, lefts, rights)`` columns, checked to be
    three tuples of equal length, as ``(speed, left, right)`` rows."""
    assert len(columns) == 3 and all(isinstance(c, tuple) for c in columns)
    assert len({len(c) for c in columns}) == 1
    return list(zip(*columns))


@st.composite
def flux_and_state_pair(draw):
    """A flux and two states: at nodes, off nodes, or up to DOMAIN_TOL outside."""
    flux, _ = draw(piecewise_fluxes(2, 6))
    lo, hi = flux.domain
    nodes = flux.breakpoints.tolist()
    outside = st.tuples(st.sampled_from([(lo, -1.0), (hi, 1.0)]), st.floats(0.0, 1.0)).map(
        lambda c: c[0][0] + c[0][1] * c[1] * DOMAIN_TOL
    )
    if draw(st.booleans()):
        # a few nodes apart, so the pair often straddles exactly one kink
        k = draw(st.integers(0, len(nodes) - 1))
        a, b = nodes[k], nodes[min(k + draw(st.integers(1, 3)), len(nodes) - 1)]
        if draw(st.booleans()):
            b = min(b + draw(st.floats(-1.0, 1.0)) * 2.0 ** -8, hi)
        return flux, a, b
    state = st.one_of(st.sampled_from(nodes), st.floats(lo, hi), outside)
    return flux, draw(state), draw(state)


@given(flux_and_state_pair())
def test_riemann_waves_match_the_envelope_waves(case):
    """The Riemann waves are the public envelope's waves, bit for bit."""
    flux, a, b = case
    for v_l, v_r in ((a, b), (b, a)):
        try:
            want = envelope_waves(flux, v_l, v_r)
        except ValueError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                _riemann_waves(copy.copy(flux), v_l, v_r)
            continue
        # a copy starts with an empty Riemann table, so this is a fresh solve
        assert waves_hex(rows(_riemann_waves(copy.copy(flux), v_l, v_r))) == waves_hex(want)


@st.composite
def kinked_fluxes(draw):
    """A flux of ``piecewise_fluxes``, or one of random slopes whose chains
    hold bad nodes: kink runs within COLLINEAR_TOL of collinear (merges) and
    kinks of one sign split by the other (pops)."""
    if draw(st.booleans()):
        return draw(piecewise_fluxes(2, 6))[0]
    steps = st.sampled_from([0.0, 1e-13, -1e-13, 6e-13, -6e-13, 2e-12, -2e-12, 0.25, -0.5, 1.0])
    deltas = draw(st.lists(steps, min_size=1, max_size=12))
    slopes = np.cumsum([draw(st.sampled_from([-1.0, 0.0, 0.5]))] + deltas)
    lo = draw(st.sampled_from([-1.0, 0.0, 0.25]))
    x = lo + np.arange(slopes.size + 1) / 8.0
    y = np.concatenate(([0.0], np.cumsum(slopes / 8.0)))
    return PiecewiseLinearFlux(x, y)


@st.composite
def chain_flux_and_states(draw):
    """A flux and two states: chain nodes of either sign, other nodes, domain
    ends, signed zeros, off-node points or points up to DOMAIN_TOL outside."""
    flux = draw(kinked_fluxes())
    lo, hi = flux.domain
    chain_nodes = flux._chains[1.0].xs + flux._chains[-1.0].xs
    state = st.one_of(
        st.sampled_from(chain_nodes),
        st.sampled_from(flux.breakpoints.tolist()),
        st.sampled_from([lo, hi, 0.0, -0.0]),
        st.floats(lo, hi),
        st.floats(0.0, DOMAIN_TOL).map(lambda d: lo - d),
    )
    return flux, draw(state), draw(state)


@given(chain_flux_and_states())
def test_riemann_chain_runs_match_the_envelope_waves(case):
    """Waves read off the chain, or the envelope past a bad node, are the
    public envelope's waves bit for bit, signed zeros included."""
    flux, a, b = case
    for v_l, v_r in ((a, b), (b, a)):
        try:
            want = envelope_waves(flux, v_l, v_r)
        except ValueError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                _riemann_waves(fresh_copy(flux), v_l, v_r)
            continue
        assert waves_hex(rows(_riemann_waves(fresh_copy(flux), v_l, v_r))) == waves_hex(want)


def test_chain_flags_the_nodes_the_hull_would_not_keep():
    # slopes 0, 1, -2, 1, 1, 1 + 2e-13: the convex chain skips the concave
    # kink at 2, so its node 1 lies above the chord from 0 to 3 (a pop), and
    # the slopes at its node 5 differ by less than COLLINEAR_TOL (a merge)
    flux = PiecewiseLinearFlux(np.arange(7.0), [0.0, 0.0, 1.0, -1.0, 0.0, 1.0, 2.0 + 2e-13])
    chain = flux._chains[1.0]
    assert chain.xs == [0.0, 1.0, 3.0, 5.0, 6.0]
    assert chain.bad == [0, 0, 1, 1, 2]
    for v_l, v_r, n_waves in ((0.0, 3.0, 1), (3.0, 6.0, 1), (1.0, 5.0, 2), (0.0, 6.0, 2)):
        waves = rows(_riemann_waves(fresh_copy(flux), v_l, v_r))
        assert len(waves) == n_waves
        assert waves_hex(waves) == waves_hex(envelope_waves(flux, v_l, v_r))


@pytest.mark.parametrize("end", ["lo", "hi"])
def test_riemann_states_clamped_to_one_end_fail_as_the_envelope_does(end):
    # both states lie within DOMAIN_TOL outside the same end and clamp onto
    # it, which leaves no interval to build an envelope on
    lo, hi = TRAFFIC3.domain

    def outside(tol):
        return (lo - 0.75 * tol, lo - 0.25 * tol) if end == "lo" else (
            hi + 0.25 * tol, hi + 0.75 * tol)

    a, b = outside(DOMAIN_TOL)
    for v_l, v_r in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="same end"):
            envelope_waves(TRAFFIC3, v_l, v_r)
        with pytest.raises(ValueError, match="same end"):
            _riemann_waves(TRAFFIC3, v_l, v_r)
        with pytest.raises(ValueError, match="same end"):
            solve_riemann(TRAFFIC3, v_l, v_r)
    # evolve admits initial values up to 1e-12 outside the domain
    a, b = outside(1e-12)
    for v_l, v_r in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="same end"):
            evolve(StepFunction([0.0], [v_l, v_r]), TRAFFIC3, 1.0)


# ---------------------------------------------------------------------------
# the per-flux Riemann table


def fresh_copy(flux):
    return PiecewiseLinearFlux(flux.breakpoints, flux.values)


def as_hex(sol):
    """Every front array and event of a solution, floats as hex strings."""
    arrays = (sol.birth_times, sol.birth_positions, sol.speeds,
              sol.left_values, sol.right_values, sol.death_times)
    events = [(e.time.hex(), e.position.hex(), e.incoming, e.outgoing) for e in sol.events]
    return [[x.hex() for x in a.tolist()] for a in arrays], events


def test_solve_riemann_returns_the_stored_waves():
    flux = fresh_copy(TRAFFIC3)
    waves = solve_riemann(flux, 0.875, 0.125)
    # the stored columns, read as rows, immutable all the way down
    stored = flux._riemann_table[(0.875, 0.125)]
    assert _riemann_waves(flux, 0.875, 0.125) is stored
    assert waves_hex(waves) == waves_hex(rows(stored))
    assert isinstance(waves, tuple) and all(isinstance(w, tuple) for w in waves)
    assert solve_riemann(flux, 0.875, 0.125) == waves
    # copy.copy starts with an empty table, so this is a fresh solve
    assert solve_riemann(copy.copy(flux), 0.875, 0.125) == waves


def test_riemann_misses_route_clean_chain_runs_past_the_envelope(monkeypatch):
    calls = []

    def counting(name):
        envelope = getattr(flux_module, name)

        def wrapper(*args):
            calls.append(name)
            return envelope(*args)
        return wrapper

    for name in ("convex_envelope", "concave_envelope"):
        monkeypatch.setattr(flux_module, name, counting(name))
    burgers3 = piecewise_linearize(BurgersQuadraticFlux(), 3)
    # rho*w(rho) has a convex kink at 0.5: the concave chain skips it, and
    # its neighbour 0.5625 is flagged, since the envelope bridges the dip
    inflected = traffic_flux_from_velocity(TableVelocity([0.0, 0.5, 1.0], [2.0, 0.25, 0.0]), 4)
    below = -0.5 * DOMAIN_TOL
    cases = [  # (flux, v_l, v_r, envelope calls, waves); clean chain runs and chords call none
        (TRAFFIC3, 0.125, 0.875, [], 1),  # a chord: no convex chain node between the states
        (TRAFFIC3, 0.875, 0.125, [], 6),
        (burgers3, -0.5, 0.5, [], 8),
        (burgers3, 0.5, -0.5, [], 1),  # a chord: no concave chain node between the states
        (TRAFFIC3, 0.0, 1.0, [], 1),  # chords from end to end of the domain
        (burgers3, 1.0, -1.0, [], 1),
        (TRAFFIC3, -0.0, 0.5, [], 1),  # a signed zero at the domain end
        (TRAFFIC3, below, 0.5, ["convex_envelope"], 1),  # clamped onto the domain
        (inflected, 0.75, 0.25, ["concave_envelope"], 3),  # a bad node between chain nodes
        (inflected, 0.375, 0.25, [], 2),
    ]
    for flux, v_l, v_r, names, n_waves in cases:
        flux = fresh_copy(flux)
        del calls[:]
        assert len(solve_riemann(flux, v_l, v_r)) == n_waves
        assert calls == names
        solve_riemann(flux, v_l, v_r)  # a table hit
        assert calls == names
    # a chord answers with the envelope's floats and keeps the caller's signed zero
    for flux, v_l, v_r in ((TRAFFIC3, -0.0, 0.5), (burgers3, 0.5, -0.0), (TRAFFIC3, 0.3, 0.7)):
        (wave,) = solve_riemann(fresh_copy(flux), v_l, v_r)
        xs, ys = flux_module._hull(flux, min(v_l, v_r), max(v_l, v_r), 1.0 if v_l < v_r else -1.0)
        speed = (ys[1] - ys[0]) / (xs[1] - xs[0])
        assert waves_hex([wave]) == waves_hex([(speed, v_l, v_r)])
    (wave,) = solve_riemann(fresh_copy(TRAFFIC3), below, 0.5)
    assert wave[1] == 0.0  # the envelope's clamped state


def test_riemann_table_stays_under_its_cap_and_exact_past_it():
    flux = traffic_flux_from_velocity(LinearTrafficVelocity(), 12)
    # t = 0 fans of 3072, 2048 and 1024 waves, with shocks between them
    fans = StepFunction([-0.5, 0.0, 0.5, 1.0, 1.5], [0.875, 0.125, 0.75, 0.25, 0.625, 0.375])
    evolve(fans, flux, 2.0)
    table = flux._riemann_table
    # each entry is three equal-length columns, counted by their length
    for columns in table.values():
        rows(columns)
    assert table.waves == sum(len(speeds) for speeds, _, _ in table.values())
    assert 0 < table.waves <= RIEMANN_TABLE_WAVES
    assert (0.875, 0.125) in table and (0.75, 0.25) not in table  # the second fan did not fit
    rng = np.random.default_rng(12)
    for data in [fans] + [random_step(rng, max_jumps=8, level=12) for _ in range(4)]:
        assert as_hex(evolve(data, flux, 2.0)) == as_hex(evolve(data, fresh_copy(flux), 2.0))
    assert table.waves <= RIEMANN_TABLE_WAVES


def test_copies_and_pickles_start_with_an_empty_riemann_table():
    flux = fresh_copy(TRAFFIC3)
    evolve(StepFunction([0.0, 0.5], [0.875, 0.125, 0.5]), flux, 2.0)
    assert len(flux._riemann_table) > 0
    for other in (pickle.loads(pickle.dumps(flux)), copy.copy(flux), copy.deepcopy(flux)):
        assert len(other._riemann_table) == 0 and other._riemann_table.waves == 0
        assert other._riemann_table is not flux._riemann_table


@st.composite
def flux_and_zero_rich_data(draw):
    """Traffic, Burgers or non-concave rho*w(rho) flux, and data full of 0.0 and -0.0."""
    flux, level = draw(piecewise_fluxes(3, 5))
    grid = dyadic_points(level, *flux.domain).tolist()
    state = st.one_of(st.sampled_from([0.0, -0.0]), st.sampled_from(grid))
    n = draw(st.integers(1, 6))
    cells = draw(st.lists(st.integers(-32, 32), min_size=n, max_size=n, unique=True))
    values = draw(st.lists(state, min_size=n + 1, max_size=n + 1))
    return flux, StepFunction(np.sort(cells) / 16.0, values)


@given(flux_and_zero_rich_data())
def test_riemann_table_keeps_the_sign_of_zero_states(case):
    flux, data = case
    flipped = StepFunction(data.breakpoints, [-v if v == 0.0 else v for v in data.values])
    warm = fresh_copy(flux)
    evolve(flipped, warm, 1.0)
    assert as_hex(evolve(data, warm, 1.0)) == as_hex(evolve(data, fresh_copy(flux), 1.0))


# ---------------------------------------------------------------------------
# evolution


def test_constant_data_gives_empty_solution():
    sol = evolve(StepFunction.constant(0.4375), TRAFFIC3, 2.0)
    assert sol.front_count == 0
    assert sol.collision_count == 0
    assert sol.evaluate_field(0.3, 1.7) == (0.4375, 0.4375)
    assert np.array_equal(sol.slice(1.0).values, [0.4375])


def test_single_jump_is_pure_riemann_fan():
    s = StepFunction([0.25], [0.875, 0.125])
    sol = evolve(s, TRAFFIC3, 2.0)
    assert sol.collision_count == 0
    direct = solve_riemann(TRAFFIC3, 0.875, 0.125)
    columns = zip(sol.speeds.tolist(), sol.left_values.tolist(), sol.right_values.tolist())
    assert tuple(columns) == direct
    assert sol.birth_positions.tolist() == [0.25] * len(direct)


def test_two_shock_merge_hand_solved():
    # speeds +0.375 and -0.375 from positions 0 and 0.5 meet at
    # t = 0.5 / 0.75 = 2/3, x = 0.25; merged front is stationary
    s = StepFunction([0.0, 0.5], [0.125, 0.5, 0.875])
    sol = evolve(s, TRAFFIC3, 2.0)
    assert sol.collision_count == 1
    ev = [e for e in sol.events if e.incoming][0]
    assert ev.time == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert ev.position == pytest.approx(0.25, abs=1e-14)
    assert len(ev.incoming) == 2 and len(ev.outgoing) == 1
    assert sol.speeds[ev.outgoing[0]] == pytest.approx(0.0, abs=1e-15)
    final = sol.slice(2.0)
    assert np.array_equal(final.values, [0.125, 0.875])
    # pre-merge slice has more jumps than post-merge
    assert sol.slice(0.5).breakpoints.size > final.breakpoints.size


def test_front_events_are_named_tuples_whose_fields_cannot_be_assigned():
    sol = evolve(StepFunction([0.0, 0.5], [0.125, 0.5, 0.875]), TRAFFIC3, 2.0)
    event = sol.events[-1]
    assert event == (event.time, event.position, event.incoming, event.outgoing)
    for name in ("time", "position", "incoming", "outgoing"):
        with pytest.raises(AttributeError):
            setattr(event, name, getattr(event, name))
    assert sol.events[-1] is event and event.incoming == (0, 1)


def test_annihilation_between_live_neighbours_hand_solved():
    # level-0 Burgers chords: 1 -> 0 and 0 -> 1 move at +1/2, 1 -> -1 stands
    # still, -1 -> 0 and 0 -> -1 move at -1/2.  Fronts 1, 2, 3 meet at
    # (2, 0) with 0 on both sides and vanish; their neighbours 0 and 4 then
    # close in from -5 and 5 and merge at (12, 0) into a still 1 -> -1 shock.
    burgers0 = piecewise_linearize(BurgersQuadraticFlux(), 0)
    s = StepFunction([-6.0, -1.0, 0.0, 1.0, 6.0], [1.0, 0.0, 1.0, -1.0, 0.0, -1.0])
    sol = evolve(s, burgers0, 15.0)
    assert [(e.time, e.position, e.incoming, e.outgoing) for e in sol.events] == [
        (0.0, -6.0, (), (0,)), (0.0, -1.0, (), (1,)), (0.0, 0.0, (), (2,)),
        (0.0, 1.0, (), (3,)), (0.0, 6.0, (), (4,)),
        (2.0, 0.0, (1, 2, 3), ()),
        (12.0, 0.0, (0, 4), (5,)),
    ]
    assert sol.birth_times.tolist() == [0.0, 0.0, 0.0, 0.0, 0.0, 12.0]
    assert sol.birth_positions.tolist() == [-6.0, -1.0, 0.0, 1.0, 6.0, 0.0]
    assert sol.speeds.tolist() == [0.5, 0.5, 0.0, -0.5, -0.5, 0.0]
    assert sol.left_values.tolist() == [1.0, 0.0, 1.0, -1.0, 0.0, 1.0]
    assert sol.right_values.tolist() == [0.0, 1.0, -1.0, 0.0, -1.0, -1.0]
    assert sol.death_times.tolist() == [12.0, 2.0, 2.0, 2.0, 12.0, np.inf]
    mid = sol.slice(5.0)
    assert mid.breakpoints.tolist() == [-3.5, 3.5] and mid.values.tolist() == [1.0, 0.0, -1.0]


def test_evaluate_field_on_stationary_shock():
    flux = PiecewiseLinearFlux(
        np.array([0.0, 0.2, 0.8, 1.0]), np.array([0.0, 0.16, 0.16, 0.0])
    )
    sol = evolve(StepFunction([0.0], [0.2, 0.8]), flux, 2.0)
    assert sol.evaluate_field(0.0, 1.0) == (0.2, 0.8)
    assert sol.evaluate_field(-5.0, 1.0) == (0.2, 0.2)
    assert sol.evaluate_field(5.0, 1.0) == (0.8, 0.8)
    with pytest.raises(ValueError):
        sol.evaluate_field(0.0, 2.5)


def test_slice_at_zero_returns_initial():
    s = StepFunction([0.0, 0.7], [0.25, 0.625, 0.375])
    sol = evolve(s, TRAFFIC3, 1.0)
    s0 = sol.slice(0.0)
    assert np.array_equal(s0.breakpoints, s.breakpoints)
    assert np.array_equal(s0.values, s.values)


def test_fan_slice_has_one_value_per_envelope_breakpoint():
    s = StepFunction([0.0], [0.875, 0.125])
    sol = evolve(s, TRAFFIC3, 1.0)
    # concave envelope of f^3 between 0.125 and 0.875 keeps all 7 nodes,
    # so the fan carries 6 fronts and the slice 7 values
    assert np.array_equal(
        sol.slice(1.0).values,
        [0.875, 0.75, 0.625, 0.5, 0.375, 0.25, 0.125],
    )


def test_shock_catalog_thresholds():
    s = StepFunction([0.0], [0.2, 0.8])
    flux = PiecewiseLinearFlux(
        np.array([0.0, 0.2, 0.8, 1.0]), np.array([0.0, 0.16, 0.16, 0.0])
    )
    sol = evolve(s, flux, 2.0)
    assert len(sol.shock_catalog(0.0)) == 1
    assert len(sol.shock_catalog(0.5)) == 1  # strength 0.6 > 0.5
    # threshold at the total variation drops everything (strict comparison)
    assert len(sol.shock_catalog(s.total_variation())) == 0
    catalog = sol.shock_catalog(0.5)
    assert catalog.strength[0] == pytest.approx(0.6, abs=1e-15)
    assert catalog.min_distance(0.0, 1.0) == 0.0
    assert catalog.min_distance(0.3, 1.0) == pytest.approx(0.3, abs=1e-14)


def reference_distance(x0, t0, x1, t1, x, t):
    """Distance from (x, t) to one segment, one segment at a time in Python floats."""
    dx, dt = x1 - x0, t1 - t0
    denom = dx * dx + dt * dt
    if denom == 0.0:
        return math.sqrt((x - x0) ** 2 + (t - t0) ** 2)
    s = ((x - x0) * dx + (t - t0) * dt) / denom
    s = min(max(s, 0.0), 1.0)
    return math.sqrt((x - (x0 + s * dx)) ** 2 + (t - (t0 + s * dt)) ** 2)


def reference_min_distance(sol, threshold, x, t):
    """Nearest front stronger than ``threshold``, each cut off at its death or the horizon."""
    best = math.inf
    for k in range(sol.front_count):
        if abs(sol.left_values[k] - sol.right_values[k]) > threshold:
            t0, x0 = float(sol.birth_times[k]), float(sol.birth_positions[k])
            t1 = min(float(sol.death_times[k]), sol.horizon)
            x1 = x0 + float(sol.speeds[k]) * (t1 - t0)
            best = min(best, reference_distance(x0, t0, x1, t1, x, t))
    return best


def assert_catalog_matches_reference(sol, threshold, queries):
    catalog = sol.shock_catalog(threshold)
    for x, t in queries:
        got, want = catalog.min_distance(x, t), reference_min_distance(sol, threshold, x, t)
        if want == math.inf:
            assert got == math.inf
        else:
            assert abs(got - want) <= np.spacing(want), (x, t, got, want)
    return catalog


def test_shock_catalog_matches_per_segment_reference():
    rng = np.random.default_rng(31)
    queries = [(float(x), float(t)) for x, t in
               zip(rng.uniform(-3.0, 3.0, 40), rng.uniform(0.0, 2.0, 40))]
    # an empty catalog: no fronts at all, or none strong enough
    flat = evolve(StepFunction.constant(0.25), TRAFFIC3, 2.0)
    assert len(assert_catalog_matches_reference(flat, 0.0, queries)) == 0
    # one front alive to the horizon: its death time is inf, its segment ends at t = 2
    shock = evolve(StepFunction([0.0], [0.25, 0.75]), TRAFFIC3, 2.0)
    catalog = assert_catalog_matches_reference(shock, 0.0, queries)
    assert shock.death_times.tolist() == [math.inf] and catalog.t1.tolist() == [2.0]
    assert len(assert_catalog_matches_reference(shock, 0.5, queries)) == 0  # strength 0.5
    # two shocks die in a collision; the merged one lives on
    merge = evolve(StepFunction([0.0, 0.5], [0.125, 0.5, 0.875]), TRAFFIC3, 2.0)
    catalog = assert_catalog_matches_reference(merge, 0.0, queries + [(0.25, 2.0 / 3.0)])
    assert np.isfinite(catalog.t1).sum() == 3 and (catalog.t1 < 2.0).sum() == 2
    # seeded traffic and Burgers runs with collisions, at thresholds that
    # keep all, some, or exactly the fronts stronger than a fan step
    burgers = piecewise_linearize(BurgersQuadraticFlux(), 4)
    for flux, lo in ((FLUX8, 0.0), (burgers, -1.0)):
        for _ in range(6):
            sol = evolve(random_step(rng, max_jumps=8, level=4, lo=lo), flux, 2.0)
            ends = [(float(x), float(t)) for x, t in zip(sol.birth_positions, sol.birth_times)]
            for threshold in (0.0, 2.0 ** -4, 0.3):
                catalog = assert_catalog_matches_reference(sol, threshold, queries + ends[:10])
                strength = np.abs(sol.left_values - sol.right_values)
                assert catalog.index.tolist() == np.flatnonzero(strength > threshold).tolist()


def test_shock_catalog_zero_length_segment():
    # a front born at the horizon and one dying where it is born sweep no length
    sol = FrontTrackingSolution(
        StepFunction.constant(0.0), None, 1.0, [],
        birth_times=[1.0, 0.5, 0.0], birth_positions=[0.5, -0.25, 2.0],
        speeds=[0.25, -1.0, 0.0], left_values=[0.0, 0.5, 0.25], right_values=[0.5, 0.0, 0.5],
        death_times=[np.inf, 0.5, np.inf],
    )
    catalog = assert_catalog_matches_reference(
        sol, 0.0, [(0.5, 1.0), (0.5, 0.0), (-1.0, 0.25), (0.0, 0.5), (3.0, 1.5), (1.9, 0.3)]
    )
    assert catalog.x1.tolist() == [0.5, -0.25, 2.0]
    assert catalog.min_distance(0.5, 1.0) == 0.0
    assert catalog.min_distance(0.5, 1.5) == 0.5
    assert catalog.min_distance(-0.25, 0.0) == 0.5
    # strengths 0.5, 0.5 and 0.25: a threshold equal to a strength drops it
    assert len(sol.shock_catalog(0.25)) == 2 and len(sol.shock_catalog(0.5)) == 0


def list_store_cases():
    """Solutions with a velocity to track in them: traffic data at levels 3-12,
    Burgers data full of 0.0 and -0.0, and non-concave rho*w(rho) fluxes."""
    rng = np.random.default_rng(22)
    linear = LinearTrafficVelocity()
    for level in range(3, 13):
        data = random_step(rng, max_jumps=8, level=level)
        yield evolve(data, traffic_flux_from_velocity(linear, level), 2.0), linear
    burgers = piecewise_linearize(BurgersQuadraticFlux(), 4)
    for _ in range(6):
        bps = np.sort(rng.choice(np.arange(-16, 17) / 8.0, 6, replace=False))
        values = rng.choice([0.0, -0.0, 0.25, -0.5, 0.75], 7).tolist()
        yield evolve(StepFunction(bps, values), burgers, 2.0), linear
    for level in (4, 6, 8):
        w = TableVelocity([0.0, 0.5, 1.0], [2.0, rng.uniform(0.1, 1.0), 0.0])
        yield evolve(random_step(rng, max_jumps=8, level=level), traffic_flux_from_velocity(w, level), 2.0), w


def path_hex(traj):
    return [[x.hex() for x in a.tolist()] for a in (traj.times, traj.positions, traj.speeds)], traj.sticking


def test_front_arrays_are_read_only_views_of_the_front_lists():
    rng = np.random.default_rng(7)
    for sol, velocity in list_store_cases():
        assert sol.front_count == len(sol.front_lists.speeds) > 0
        # the arrays equal the lists bit for bit, and refuse writes
        for name, column in zip(FrontLists._fields, sol.front_lists):
            array = getattr(sol, name)
            assert array is getattr(sol, name)  # built once
            assert array.dtype == float and [x.hex() for x in array.tolist()] == [x.hex() for x in column]
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5
        # a solution rebuilt from the arrays tracks the same paths
        rebuilt = FrontTrackingSolution(
            sol.initial, sol.flux, sol.horizon, sol.events,
            **{name: getattr(sol, name) for name in FrontLists._fields},
        )
        assert as_hex(rebuilt) == as_hex(sol)
        for x0, t0 in zip(rng.uniform(-2.0, 1.0, 3), (0.01, 0.3, 1.1)):
            assert path_hex(track(sol, velocity, x0, t0)) == path_hex(track(rebuilt, velocity, x0, t0))


def test_front_columns_of_unequal_length_are_rejected():
    columns = dict(
        birth_times=[0.0, 0.0, 0.0], birth_positions=[-1.0, 0.0, 1.0], speeds=[0.5, 0.0, -0.5],
        left_values=[0.0, 0.25, 0.5], right_values=[0.25, 0.5, 0.75], death_times=[np.inf] * 3,
    )
    sol = FrontTrackingSolution(StepFunction.constant(0.0), None, 1.0, [], **columns)
    assert sol.front_count == 3 and sol.slice(0.5).breakpoints.size == 3
    # a one-element column must not broadcast, nor a short one fail only inside slice
    for name, column in (("death_times", [np.inf]), ("speeds", [0.5, 0.0])):
        with pytest.raises(ValueError, match="differ in length"):
            FrontTrackingSolution(StepFunction.constant(0.0), None, 1.0, [], **{**columns, name: column})
    with pytest.raises(ValueError, match="1-D"):
        FrontTrackingSolution(StepFunction.constant(0.0), None, 1.0, [], **{**columns, "death_times": np.inf})


def test_event_cap_raises():
    s = StepFunction([0.0, 0.5], [0.125, 0.5, 0.875])
    with pytest.raises(EventCapError):
        evolve(s, TRAFFIC3, 2.0, event_cap=2)


@pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf")])
def test_evolve_rejects_bad_horizon(horizon):
    with pytest.raises(ValueError):
        evolve(StepFunction([0.0], [0.25, 0.75]), TRAFFIC3, horizon)


@pytest.mark.parametrize(
    "breakpoints, values",
    [([0.0], [0.25, np.nan]), ([0.0, 0.5], [0.25, np.nan, 0.5]), ([np.inf], [0.25, 0.75])],
)
def test_evolve_rejects_non_finite_data(breakpoints, values):
    with pytest.raises(ValueError, match="finite"):
        evolve(StepFunction(breakpoints, values), TRAFFIC3, 1.0)


# non-concave rho * w(rho): envelopes with several vertices, fans and shocks mixed
NONCONCAVE5 = traffic_flux_from_velocity(
    TableVelocity(np.array([0.0, 0.25, 0.5, 0.75, 1.0]), np.array([1.0, 0.95, 0.4, 0.3, 0.0])),
    5,
)


class SpliceReference:
    """The live-front list as a plain Python list, spliced event by event.

    ``nxt``/``prv`` are rewritten from the list after each event; a front
    that has left it keeps the links it had last.
    """

    def __init__(self):
        self.order, self.nxt, self.prv = [], [], []

    def event(self, where, n_in, n_out):
        """Next event: a fan (n_in = 0) after the tail, or a collision of n_in fronts."""
        i = {"head": 0, "middle": (len(self.order) - n_in) // 2,
             "tail": len(self.order) - n_in}[where]
        first = len(self.nxt)
        incoming = tuple(self.order[i:i + n_in])
        return FrontEvent(float(n_in > 0), 0.0, incoming, tuple(range(first, first + n_out)))

    def apply(self, event):
        self.nxt += [-1] * len(event.outgoing)
        self.prv += [-1] * len(event.outgoing)
        if event.incoming:
            i = self.order.index(event.incoming[0])
            assert self.order[i:i + len(event.incoming)] == list(event.incoming)
            self.order[i:i + len(event.incoming)] = event.outgoing
        else:
            self.order += event.outgoing
        for a, b in zip([-1, *self.order], [*self.order, -1]):
            if a != -1:
                self.nxt[a] = b
            if b != -1:
                self.prv[b] = a


def replay_against_splice_reference(steps):
    """Apply (where, n_in, n_out) steps to both lists; "drain" annihilates
    the head pair until fewer than two fronts are left."""
    live, ref = _LiveFronts(), SpliceReference()
    for step in steps:
        if step == "drain":
            replay = [("head", 2, 0)] * (len(ref.order) // 2)
        else:
            replay = [step]
        for where, n_in, n_out in replay:
            event = ref.event(where, n_in, n_out)
            live.apply(event)
            ref.apply(event)
            assert (live.head, live.tail) == (
                (ref.order[0], ref.order[-1]) if ref.order else (-1, -1)
            ), event
            assert (live.nxt, live.prv) == (ref.nxt, ref.prv), event
    return ref


@pytest.mark.parametrize("n_out", [0, 1, 3])
@pytest.mark.parametrize("where", ["head", "middle", "tail"])
def test_live_fronts_link_like_a_spliced_list(where, n_out):
    # fans into an empty list, then after the tail; collisions; the list
    # emptied; a fan into it again
    fans = [("tail", 0, 3), ("tail", 0, 1), ("tail", 0, 2)]
    collisions = [(where, 2, n_out), (where, 2, 1), (where, 3, n_out)]
    ref = replay_against_splice_reference(
        fans + collisions + ["drain", ("tail", 0, 3), (where, 2, n_out)]
    )
    assert len(ref.order) == 1 + n_out


def test_live_fronts_link_like_a_spliced_list_over_random_events():
    rng = np.random.default_rng(8)
    steps, size = [], 0
    for _ in range(400):
        if size < 2 or rng.random() < 0.15:
            n_in, n_out = 0, int(rng.integers(1, 5))
        else:
            n_in, n_out = int(rng.integers(2, min(size, 4) + 1)), int(rng.integers(0, 5))
        steps.append((str(rng.choice(["head", "middle", "tail"])), n_in, n_out))
        size += n_out - n_in
    replay_against_splice_reference(steps)


@pytest.mark.parametrize("seed", range(6))
def test_replayed_live_front_list_walks_the_alive_fronts(seed):
    rng = np.random.default_rng(seed)
    flux, lo = [
        (piecewise_linearize(TrafficQuadraticFlux(1.0, 1.0), 6), 0.0),
        (piecewise_linearize(BurgersQuadraticFlux(), 5), -1.0),
        (NONCONCAVE5, 0.0),
    ][seed % 3]
    sol = evolve(random_step(rng, 12, 5, lo, 1.0), flux, 2.0)
    for t in np.sort(rng.uniform(0.0, 2.0, 8)):
        live = _LiveFronts()
        for e in sol.events:
            if e.time > t:
                break
            live.apply(e)
        walk, prev = [], -1
        k = live.head
        while k != -1:
            assert live.prv[k] == prev
            walk.append(k)
            prev, k = k, live.nxt[k]
        assert live.tail == prev
        alive = np.flatnonzero((sol.birth_times <= t) & (t < sol.death_times))
        assert sorted(walk) == alive.tolist()
        field = sol.slice(t)
        if not walk:
            assert field.values.tolist() == [sol.initial.far_left]
            continue
        pos = sol.birth_positions[walk] + sol.speeds[walk] * (t - sol.birth_times[walk])
        assert np.all(np.diff(pos) >= 0.0)
        # the field left of the walk, in each gap, and right of it
        edges = np.concatenate(([pos[0] - 1.0], pos, [pos[-1] + 1.0]))
        states = [sol.left_values[walk[0]]] + sol.right_values[walk].tolist()
        assert field.sample(0.5 * (edges[:-1] + edges[1:])).tolist() == states


def reference_slice(sol, t):
    """slice(t) by its rule, one front at a time: fronts sorted by position,
    each within EVENT_SPACE_TOL of the last jump merging into it."""
    t = min(t, sol.horizon)
    alive = [k for k in range(sol.front_count) if sol.birth_times[k] <= t < sol.death_times[k]]
    at = {k: sol.birth_positions[k] + sol.speeds[k] * (t - sol.birth_times[k]) for k in alive}
    alive.sort(key=at.get)
    bps, vals = [], [sol.left_values[alive[0]] if alive else sol.initial.far_left]
    for k in alive:
        if bps and at[k] - bps[-1] <= EVENT_SPACE_TOL:
            vals[-1] = sol.right_values[k]
        else:
            bps.append(at[k])
            vals.append(sol.right_values[k])
    return StepFunction(bps, vals)


def assert_point_queries_match_slices(sol, times, extra_points=()):
    """slice(t) follows its rule, and evaluate_field equals slice(t).value_at(x),
    signs of zeros included."""
    for t in times:
        field = sol.slice(t)
        want = reference_slice(sol, t)
        for got_array, want_array in ((field.breakpoints, want.breakpoints),
                                      (field.values, want.values)):
            assert [v.hex() for v in got_array.tolist()] == [v.hex() for v in want_array.tolist()]
        xs = [*field.breakpoints.tolist(), *extra_points]
        xs += [x + d for x in field.breakpoints.tolist() for d in (-1e-12, 5e-13, 2e-12)]
        for x in xs:
            want = field.value_at(x)
            got = sol.evaluate_field(x, t)
            assert got == want and np.signbit(got).tolist() == np.signbit(want).tolist()


@pytest.mark.parametrize("seed", range(6))
def test_point_query_matches_slice(seed):
    rng = np.random.default_rng(100 + seed)
    flux, lo = [
        (piecewise_linearize(TrafficQuadraticFlux(1.0, 1.0), 6), 0.0),
        (piecewise_linearize(BurgersQuadraticFlux(), 5), -1.0),
        (NONCONCAVE5, 0.0),
    ][seed % 3]
    sol = evolve(random_step(rng, 12, 5, lo, 1.0), flux, 2.0)
    collisions = [e for e in sol.events if e.incoming]
    times = [0.0, 2.0, *rng.uniform(0.0, 2.0, 4), *(e.time for e in collisions)]
    points = [*rng.uniform(-3.0, 4.0, 8), *(e.position for e in collisions), -np.inf, np.inf]
    assert_point_queries_match_slices(sol, times, points)


def test_point_query_at_a_three_front_collision():
    # Burgers shocks of speeds 0.75, 0.25 and -0.25 all meet at (0, 1)
    burgers = piecewise_linearize(BurgersQuadraticFlux(), 3)
    sol = evolve(StepFunction([-0.75, -0.25, 0.25], [1.0, 0.5, 0.0, -0.5]), burgers, 2.0)
    (event,) = [e for e in sol.events if e.incoming]
    assert (event.time, event.position, len(event.incoming)) == (1.0, 0.0, 3)
    assert sol.evaluate_field(0.0, 1.0) == (1.0, -0.5)
    assert_point_queries_match_slices(sol, [0.5, 1.0, 1.5], [0.0, -0.25, 0.25])


def stationary_fronts(pos, states):
    n = len(pos)
    return FrontTrackingSolution(
        StepFunction.constant(0.0), None, 1.0, [],
        birth_times=np.zeros(n), birth_positions=pos,
        speeds=np.zeros(n), left_values=states[:-1], right_values=states[1:],
        death_times=np.full(n, np.inf),
    )


def test_point_query_replays_slice_grouping():
    # fronts chained within EVENT_SPACE_TOL, zero net jumps and signed zeros:
    # every way slice merges or drops jumps
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 16))
        pos = np.sort(rng.uniform(-1.0, 1.0, n))
        for k in range(1, n):
            if rng.random() < 0.5:
                pos[k] = pos[k - 1] + rng.choice([0.0, 6e-13, 1e-12, 1.2e-12])
        states = rng.choice([0.0, -0.0, 0.25, 0.5], n + 1)
        sol = stationary_fronts(rng.permutation(pos), states)
        assert_point_queries_match_slices(sol, [0.5], [*pos, *rng.uniform(-1.5, 1.5, 4)])
    # gaps of exactly EVENT_SPACE_TOL: a front that far past a jump merges
    # into it, one twice as far starts the next jump
    pos = [-0.5, 0.0, EVENT_SPACE_TOL, 2 * EVENT_SPACE_TOL, 0.5]
    sol = stationary_fronts(np.array(pos), np.array([0.0, 0.25, 0.5, -0.0, 0.25, 0.5]))
    assert sol.slice(0.5).breakpoints.tolist() == [-0.5, 0.0, 2 * EVENT_SPACE_TOL, 0.5]
    assert_point_queries_match_slices(sol, [0.5], pos)


# ---------------------------------------------------------------------------
# batched field lookup: _field_limits must be evaluate_field, bit for bit


def float_hex(values):
    return [float(v).hex() for v in values]


def assert_batch_matches_evaluate_field(sol, xs, ts):
    """_field_limits equals evaluate_field at every point, as float hex."""
    left, right = sol._field_limits(np.asarray(xs, dtype=float), np.asarray(ts, dtype=float))
    want = [sol.evaluate_field(x, t) for x, t in zip(xs, ts)]
    assert float_hex(left) == float_hex(w[0] for w in want)
    assert float_hex(right) == float_hex(w[1] for w in want)


def probe_points(sol, rng):
    """Points on live fronts, 1 ulp to 2e-12 beside them, at collision points
    and at random places, at 0, T, just past T (clamped) and random times,
    and at collision times."""
    T = sol.horizon
    collisions = [e for e in sol.events if e.incoming]
    hits = [collisions[k] for k in rng.permutation(len(collisions))[:8]]
    times = [0.0, T, T + 5e-13, *rng.uniform(0.0, T, 4), *(e.time for e in hits)]
    xs, ts = [], []
    for t in times:
        at = min(t, T)
        alive = (sol.birth_times <= at) & (at < sol.death_times)
        pos = (sol.birth_positions + sol.speeds * (at - sol.birth_times))[alive]
        pos = pos[rng.permutation(pos.size)[:40]]
        near = [pos, np.nextafter(pos, -np.inf), np.nextafter(pos, np.inf)]
        near += [pos + d for d in (-2e-12, -1e-12, -5e-13, 5e-13, 1e-12, 2e-12)]
        pts = [*np.concatenate(near).tolist(), *rng.uniform(-3.0, 4.0, 6).tolist()]
        xs += pts
        ts += [t] * len(pts)
    for e in hits:
        pts = [e.position, *np.nextafter(e.position, [-np.inf, np.inf]).tolist(),
               e.position - 1e-12, e.position + 1e-12]
        xs += pts
        ts += [e.time] * len(pts)
    xs += [np.nan, -np.inf, np.inf]
    ts += [0.5 * T] * 3
    return xs, ts


@pytest.mark.parametrize("level", range(2, 13))
def test_field_limits_match_evaluate_field_on_traffic(level):
    rng = np.random.default_rng(700 + level)
    flux = traffic_flux_from_velocity(LinearTrafficVelocity(1.0, 1.0), level)
    sol = evolve(random_step(rng, 8, level, 0.0, 1.0), flux, 2.0)
    assert_batch_matches_evaluate_field(sol, *probe_points(sol, rng))


def test_field_limits_match_evaluate_field_on_dyadic_and_ulp_close_breakpoints():
    rng = np.random.default_rng(711)
    flux = traffic_flux_from_velocity(LinearTrafficVelocity(1.0, 1.0), 5)
    grid = np.arange(33) / 32
    for k in range(12):
        bps = np.unique(rng.integers(-8, 16, int(rng.integers(2, 7)))) / 8.0
        if k % 2:
            # a pair of breakpoints 1 ulp to 2e-12 apart
            a = float(rng.choice(bps))
            gap = [np.nextafter(a, np.inf) - a, 5e-13, 1e-12, 2e-12][k // 2 % 4]
            bps = np.unique(np.concatenate((bps, [a + gap])))
        vals = rng.choice(grid, bps.size + 1)
        sol = evolve(StepFunction(bps, vals), flux, 2.0)
        assert_batch_matches_evaluate_field(sol, *probe_points(sol, rng))


def test_field_limits_match_evaluate_field_on_signed_zero_burgers():
    rng = np.random.default_rng(712)
    burgers = piecewise_linearize(BurgersQuadraticFlux(), 3)
    for _ in range(12):
        n = int(rng.integers(2, 7))
        bps = np.sort(rng.choice(np.arange(-16, 17) / 8.0, n, replace=False))
        vals = rng.choice([-0.5, -0.25, -0.0, 0.0, 0.25, 0.5], n + 1)
        sol = evolve(StepFunction(bps, vals), burgers, 2.0)
        assert_batch_matches_evaluate_field(sol, *probe_points(sol, rng))


def test_field_limits_replay_slice_grouping_ties_and_signed_zeros():
    # twin fronts, chains within EVENT_SPACE_TOL, gaps of exactly the
    # tolerance, zero net jumps and signed zeros, as in the grouping test
    rng = np.random.default_rng(713)
    for _ in range(40):
        n = int(rng.integers(1, 16))
        pos = np.sort(rng.uniform(-1.0, 1.0, n))
        for k in range(1, n):
            if rng.random() < 0.5:
                pos[k] = pos[k - 1] + rng.choice([0.0, 6e-13, 1e-12, 1.2e-12])
        states = rng.choice([0.0, -0.0, 0.25, 0.5], n + 1)
        sol = stationary_fronts(rng.permutation(pos), states)
        xs = [*pos, *np.nextafter(pos, np.inf), *(pos + 5e-13), *rng.uniform(-1.5, 1.5, 4)]
        assert_batch_matches_evaluate_field(sol, xs, [0.5] * len(xs))
    pos = [-0.5, 0.0, EVENT_SPACE_TOL, 2 * EVENT_SPACE_TOL, 0.5]
    sol = stationary_fronts(np.array(pos), np.array([0.0, 0.25, 0.5, -0.0, 0.25, 0.5]))
    xs = [*pos, 5e-13, 1.5e-12, 0.25, -1.0, 1.0]
    assert_batch_matches_evaluate_field(sol, xs, [0.5] * len(xs))


@pytest.mark.parametrize("value", [0.5, 0.0, -0.0])
def test_field_limits_on_constant_data_read_the_far_field(value):
    sol = evolve(StepFunction.constant(value), TRAFFIC3, 1.0)
    assert sol.front_count == 0
    xs = [-1.0, 0.0, 2.0, np.nan]
    left, right = sol._field_limits(np.array(xs), np.array([0.0, 0.5, 1.0, 0.25]))
    assert float_hex(left) == float_hex(right) == [value.hex()] * 4
    assert_batch_matches_evaluate_field(sol, xs, [0.0, 0.5, 1.0, 0.25])


def test_field_limits_leave_a_non_finite_front_position_to_evaluate_field():
    # the slice of an infinite breakpoint raises, so the batch must too
    sol = stationary_fronts(np.array([0.0, np.inf]), np.array([0.25, 0.5, 0.75]))
    for lookup in (lambda: sol.evaluate_field(0.5, 0.5),
                   lambda: sol._field_limits(np.array([0.5]), np.array([0.5]))):
        with pytest.raises(ValueError, match="breakpoints must be finite"):
            lookup()

def test_field_limits_go_in_blocks_within_the_element_budget(monkeypatch):
    rng = np.random.default_rng(714)
    sol = evolve(random_step(rng, 10, 8, 0.0, 1.0), FLUX8, 2.0)
    n = 3 * FIELD_BLOCK_ELEMENTS // 100
    assert n * sol.front_count > 2 * FIELD_BLOCK_ELEMENTS
    xs, ts = rng.uniform(-3.0, 4.0, n), rng.uniform(0.0, 2.0, n)
    blocks = []
    block_limits = FrontTrackingSolution._block_limits

    def spy(self, bxs, bts, fronts):
        blocks.append((bxs.size, fronts.size))
        return block_limits(self, bxs, bts, fronts)

    monkeypatch.setattr(FrontTrackingSolution, "_block_limits", spy)
    assert_batch_matches_evaluate_field(sol, xs.tolist(), ts.tolist())
    assert len(blocks) > 1 and sum(rows for rows, _ in blocks) == n
    assert all(rows * fronts <= FIELD_BLOCK_ELEMENTS for rows, fronts in blocks)
    # unsorted times: each block still sees every front alive in it, and a
    # shuffled query gives the same pairs, shuffled
    order = rng.permutation(n)
    left, right = sol._field_limits(xs, ts)
    left_p, right_p = sol._field_limits(xs[order], ts[order])
    assert float_hex(left_p) == float_hex(left[order])
    assert float_hex(right_p) == float_hex(right[order])
    empty = sol._field_limits(np.empty(0), np.empty(0))
    assert [a.size for a in empty] == [0, 0]


def test_field_limits_raise_evaluate_fields_error_before_any_block(monkeypatch):
    sol = evolve(StepFunction([0.0], [0.25, 0.75]), TRAFFIC3, 1.0)
    with pytest.raises(ValueError) as want:
        sol.evaluate_field(0.0, 1.5)

    def no_block(*args):
        raise AssertionError("a block was computed")

    monkeypatch.setattr(FrontTrackingSolution, "_block_limits", no_block)
    for ts in ([0.5, 1.5, -1.0], [np.nan, 1.5]):
        with pytest.raises(ValueError, match=r"time \S+ outside") as got:
            sol._field_limits(np.zeros(len(ts)), np.array(ts))
        first = ts[0] if np.isnan(ts[0]) else 1.5
        assert str(got.value) == f"time {first} outside [0, 1.0]"
    assert str(want.value) == "time 1.5 outside [0, 1.0]"

def test_evolution_is_deterministic():
    rng = np.random.default_rng(9)
    s = random_step(rng)
    a = evolve(s, TRAFFIC3, 2.0)
    b = evolve(s, TRAFFIC3, 2.0)
    assert as_hex(a) == as_hex(b)


# ---------------------------------------------------------------------------
# conservation laws as properties


FLUX8 = piecewise_linearize(TrafficQuadraticFlux(1.0, 1.0), 8)


def test_conservation_tvd_max_principle_random_data():
    rng = np.random.default_rng(42)
    horizon = 2.0
    for _ in range(30):
        s = random_step(rng, max_jumps=10, level=8)
        sol = evolve(s, FLUX8, horizon)
        window = (
            float(s.breakpoints[0]) - FLUX8.lipschitz_norm * horizon - 0.5,
            float(s.breakpoints[-1]) + FLUX8.lipschitz_norm * horizon + 0.5,
        )
        m0 = s.integral(*window)
        rate = FLUX8(s.far_left) - FLUX8(s.far_right)
        tv0 = s.total_variation()
        lo, hi = s.min_value(), s.max_value()
        tv_prev = tv0
        for t in (0.5, 1.0, 2.0):
            sl = sol.slice(t)
            assert abs(sl.integral(*window) - m0 - rate * t) <= 1e-10
            assert sl.total_variation() <= tv_prev + 1e-12
            tv_prev = sl.total_variation()
            assert sl.min_value() >= lo - 1e-12
            assert sl.max_value() <= hi + 1e-12


def test_l1_contraction_random_pairs():
    rng = np.random.default_rng(77)
    for _ in range(10):
        a = random_step(rng, max_jumps=6)
        b = random_step(rng, max_jumps=6)
        # share far fields so whole-line distances are finite
        vals = b.values.copy()
        vals[0] = a.far_left
        vals[-1] = a.far_right
        try:
            b = StepFunction(b.breakpoints, vals)
        except ValueError:
            continue
        d0 = l1_distance(a, b)
        sa = evolve(a, FLUX8, 2.0)
        sb = evolve(b, FLUX8, 2.0)
        for t in (0.5, 1.0, 2.0):
            assert l1_distance(sa.slice(t), sb.slice(t)) <= d0 + 1e-10


def test_outgoing_speeds_increase_at_every_event():
    rng = np.random.default_rng(13)
    for _ in range(10):
        s = random_step(rng, max_jumps=8)
        sol = evolve(s, FLUX8, 2.0)
        for e in sol.events:
            speeds = sol.speeds[list(e.outgoing)]
            assert all(x < y for x, y in zip(speeds, speeds[1:]))
            for i in e.outgoing:
                assert sol.speeds[i] == pytest.approx(
                    rh_speed(FLUX8, sol.left_values[i], sol.right_values[i]), abs=1e-12
                )


def test_semigroup_restart_matches_direct_slice():
    rng = np.random.default_rng(4)
    for _ in range(5):
        s = random_step(rng, max_jumps=6)
        sol = evolve(s, FLUX8, 2.0)
        mid = sol.slice(0.7)
        resumed = evolve(mid, FLUX8, 1.3)
        direct = sol.slice(2.0)
        again = resumed.slice(1.3)
        assert l1_distance(direct, again, (-6.0, 6.0)) <= 1e-10
