"""Flux evaluation, linearization, envelopes, Lipschitz distances.

Envelopes are checked against a brute-force best-chord construction and,
bit for bit, against a monotone chain over every node; Lipschitz distances
against a max over all node-pair difference quotients; hand-evaluated
values are frozen inline.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from shockline.flux import (
    MAX_LEVEL,
    BurgersQuadraticFlux,
    LinearTrafficVelocity,
    PiecewiseLinearFlux,
    TableVelocity,
    TrafficQuadraticFlux,
    concave_envelope,
    convex_envelope,
    check_level,
    dyadic_points,
    lipschitz_distance,
    piecewise_linearize,
    traffic_flux_from_velocity,
    _merge_collinear,
)
from shockline.front_tracking import StepFunction, quantize_step


def hull_value_oracle(xs, ys, x, lower=True):
    """Envelope value at x as the best value over all spanning chords.

    The lower (upper) hull at x equals the minimum (maximum) over chords of
    node pairs whose span contains x: some hull edge spans x, and every
    chord lies on the correct side of the hull.
    """
    best = None
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if xs[i] - 1e-12 <= x <= xs[j] + 1e-12:
                t = (x - xs[i]) / (xs[j] - xs[i])
                val = (1.0 - t) * ys[i] + t * ys[j]
                if best is None:
                    best = val
                else:
                    best = min(best, val) if lower else max(best, val)
    return best


def all_node_envelope(f, a, b, sign):
    """Monotone chain over every node of ``f`` strictly inside (a, b).

    The envelope walk as it was before kink filtering; the library must
    give the same floats, since nodes that are not kinks never reach the hull.
    """
    bp, vals = f.breakpoints, f.values
    inside = (bp > a) & (bp < b)
    xs = [float(a), *bp[inside].tolist(), float(b)]
    ys = [float(np.interp(a, bp, vals)), *vals[inside].tolist(), float(np.interp(b, bp, vals))]
    hull_x, hull_y = [xs[0]], [ys[0]]
    for x, y in zip(xs[1:], ys[1:]):
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


def lip_distance_oracle(f, g):
    """Max difference quotient of f - g over all pairs on the union grid."""
    xs = np.union1d(f.breakpoints, g.breakpoints)
    h = np.asarray([f(x) - g(x) for x in xs])
    best = 0.0
    for i in range(xs.size):
        for j in range(i + 1, xs.size):
            best = max(best, abs((h[j] - h[i]) / (xs[j] - xs[i])))
    return best


def test_dyadic_points_level_two():
    assert np.array_equal(dyadic_points(2), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_traffic_evaluation_frozen():
    f = TrafficQuadraticFlux(1.0, 1.0)
    assert f(0.5) == 0.25
    assert f(0.0) == 0.0
    assert f(1.0) == 0.0


def test_piecewise_linear_interpolation_frozen():
    f = PiecewiseLinearFlux(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))
    assert f(0.25) == pytest.approx(0.5, abs=1e-15)


def test_domain_violation_raises():
    f = TrafficQuadraticFlux(1.0, 1.0)
    with pytest.raises(ValueError):
        f(-0.1)
    with pytest.raises(ValueError):
        f(1.1)


def test_linearize_traffic_level_one_frozen():
    # f(j/2) for j = 0, 1, 2 with f = rho (1 - rho)
    g = piecewise_linearize(TrafficQuadraticFlux(1.0, 1.0), 1)
    assert np.array_equal(g.breakpoints, [0.0, 0.5, 1.0])
    assert np.array_equal(g.values, [0.0, 0.25, 0.0])


def test_linearize_count():
    # grid spacing 2**-n: 2**n + 1 nodes on the unit domain, twice as many
    # intervals on the Burgers domain [-1, 1]
    for n in (1, 2, 5):
        g = piecewise_linearize(TrafficQuadraticFlux(1.0, 1.0), n)
        assert g.breakpoints.size == 2 ** n + 1
        gb = piecewise_linearize(BurgersQuadraticFlux(), n)
        assert gb.breakpoints.size == 2 ** (n + 1) + 1


def test_linear_flux_is_linearization_fixed_point():
    f = PiecewiseLinearFlux(np.array([0.0, 1.0]), np.array([0.0, 0.3]))
    g = piecewise_linearize(f, 4)
    for x in np.linspace(0, 1, 33):
        assert g(x) == pytest.approx(f(x), abs=1e-15)


def test_linearization_gap_decreases_with_level():
    f = TrafficQuadraticFlux(1.0, 1.0)
    gaps = []
    for n in range(2, 8):
        coarse = piecewise_linearize(f, n - 1)
        pts = dyadic_points(n)
        gaps.append(max(abs(f(x) - coarse(x)) for x in pts))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_lipschitz_norm_matches_max_slope():
    rng = np.random.default_rng(0)
    for _ in range(20):
        xs = dyadic_points(3)
        ys = rng.uniform(-1, 1, xs.size)
        f = PiecewiseLinearFlux(xs, ys)
        slopes = np.diff(ys) / np.diff(xs)
        assert f.lipschitz_norm == pytest.approx(np.max(np.abs(slopes)), abs=1e-15)


def test_linearized_traffic_norm_bounded_by_true_norm():
    f = TrafficQuadraticFlux(1.0, 1.0)
    for n in (1, 3, 6):
        assert piecewise_linearize(f, n).lipschitz_norm <= f.lipschitz_norm + 1e-15


def test_convex_envelope_tent_frozen():
    f = PiecewiseLinearFlux(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))
    xs, ys = convex_envelope(f, 0.0, 1.0)
    assert np.array_equal(xs, [0.0, 1.0])
    assert np.array_equal(ys, [0.0, 0.0])


def test_concave_envelope_of_traffic_is_itself():
    g = piecewise_linearize(TrafficQuadraticFlux(1.0, 1.0), 3)
    xs, ys = concave_envelope(g, 0.0, 1.0)
    assert np.allclose(xs, g.breakpoints, atol=1e-15)
    assert np.allclose(ys, g.values, atol=1e-15)


def test_convex_envelope_of_convex_flux_is_itself():
    g = piecewise_linearize(BurgersQuadraticFlux(), 3)
    env = PiecewiseLinearFlux(*convex_envelope(g, -0.75, 0.5))
    for x in np.linspace(-0.75, 0.5, 41):
        assert env(x) == pytest.approx(g(x), abs=1e-14)


def test_traffic_single_chord_restriction_frozen():
    # nodes of f^2 on [0.25, 1]: the chord (0.25, 0.1875) -> (1, 0) lies
    # below the interior nodes, so the convex envelope is one segment
    g = piecewise_linearize(TrafficQuadraticFlux(1.0, 1.0), 2)
    xs, ys = convex_envelope(g, 0.25, 1.0)
    assert np.array_equal(xs, [0.25, 1.0])
    assert np.array_equal(ys, [0.1875, 0.0])


def test_envelopes_match_brute_force_on_random_fluxes():
    rng = np.random.default_rng(7)
    for _ in range(25):
        xs = dyadic_points(4)
        ys = rng.uniform(0, 1, xs.size)
        f = PiecewiseLinearFlux(xs, ys)
        a, b = sorted(rng.uniform(0, 1, 2))
        if b - a < 0.05:
            continue
        lo_env = PiecewiseLinearFlux(*convex_envelope(f, a, b))
        hi_env = PiecewiseLinearFlux(*concave_envelope(f, a, b))
        nx, ny = [], []
        for x in np.concatenate(([a], xs[(xs > a) & (xs < b)], [b])):
            nx.append(x)
            ny.append(f(x))
        for q in np.linspace(a, b, 23):
            assert lo_env(q) == pytest.approx(
                hull_value_oracle(nx, ny, q, lower=True), abs=1e-12
            )
            assert hi_env(q) == pytest.approx(
                hull_value_oracle(nx, ny, q, lower=False), abs=1e-12
            )


@st.composite
def flux_and_interval(draw):
    """A flux of one of four families and an interval [a, b] in its domain.

    Families: arbitrary node values; values from a short list, so flat runs
    and repeated levels; a concave or convex quadratic, curvature 1e-6 to 2,
    with 1e-13 noise on the nodes; the dyadic rho * w(rho) of a random
    decreasing velocity table, which is what velocity priors feed the
    solver.  Ends are nodes, domain ends or any point.
    """
    family = draw(st.sampled_from(["arbitrary", "flat", "quadratic", "rho-w"]))
    if family == "rho-w":
        w = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6)), reverse=True)
        table = TableVelocity(np.linspace(0.0, 1.0, len(w) + 1), np.array([1.0, *w[:-1], 0.0]))
        f = traffic_flux_from_velocity(table, draw(st.integers(1, 8)))
    else:
        start = draw(st.floats(-2.0, 2.0))
        steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=30))
        xs = start + np.cumsum([0.0, *steps])
        assume(np.all(np.diff(xs) > 0))
        if family == "arbitrary":
            ys = draw(st.lists(st.floats(-4.0, 4.0), min_size=xs.size, max_size=xs.size))
        elif family == "flat":
            levels = st.sampled_from([-0.5, 0.0, 0.25, 1.0])
            ys = draw(st.lists(levels, min_size=xs.size, max_size=xs.size))
        else:
            c = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-6.0, 0.3))
            m = draw(st.floats(-2.0, 2.0))
            noise = draw(st.lists(st.integers(-3, 3), min_size=xs.size, max_size=xs.size))
            ys = c * (xs - m) ** 2 + 1e-13 * np.asarray(noise)
        f = PiecewiseLinearFlux(xs, np.asarray(ys, dtype=float))
    lo, hi = f.domain
    end = st.one_of(
        st.sampled_from(f.breakpoints.tolist()), st.sampled_from([lo, hi]), st.floats(lo, hi)
    )
    a, b = sorted((draw(end), draw(end)))
    assume(a < b)
    return f, a, b


@given(flux_and_interval())
def test_envelopes_match_all_node_walk_bit_for_bit(case):
    f, a, b = case
    for envelope, sign in ((convex_envelope, 1.0), (concave_envelope, -1.0)):
        got_x, got_y = envelope(f, a, b)
        want_x, want_y = all_node_envelope(f, a, b, sign)
        assert got_x == want_x
        assert got_y == want_y


@pytest.mark.parametrize("cls", [PiecewiseLinearFlux, TableVelocity], ids=lambda c: c.__name__)
def test_flux_nodes_are_read_only_copies(cls):
    xs = np.array([0.0, 0.5, 1.0])
    ys = np.array([0.0, 0.25, 0.0])
    f = cls(xs, ys)
    f.at(0.25)  # fills the node cache
    if cls is PiecewiseLinearFlux:
        concave_envelope(f, 0.0, 1.0)  # fills the chain cache
    for g in (f, pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        for arr in (g.breakpoints, g.values):
            with pytest.raises(ValueError):
                arr[1] = 0.75
    xs[1] = 0.25  # the caller's arrays stay theirs, and writable
    ys[1] = 1.0
    assert f.breakpoints.tolist() == [0.0, 0.5, 1.0]
    assert f.values.tolist() == [0.0, 0.25, 0.0]
    assert f.at(0.5) == 0.25


@pytest.mark.parametrize("make", [PiecewiseLinearFlux, TableVelocity], ids=["flux", "velocity"])
@pytest.mark.parametrize("breakpoints, values", [
    ([0.0, 1.0], [1.0]),
    ([[0.0, 1.0]], [[1.0, 0.0]]),
    ([0.0], [1.0]),
    ([0.0, 1.0, 1.0], [1.0, 0.5, 0.0]),
    ([0.0, 0.5, 1.0], [1.0, np.nan, 0.0]),
    ([0.0, 0.5, 1.0], [1.0, np.inf, 0.0]),
    ([0.0, 0.5, np.inf], [1.0, 0.5, 0.0]),
    ([np.nan, 0.5, 1.0], [1.0, 0.5, 0.0]),
    ([-np.inf, 0.5, 1.0], [1.0, 0.5, 0.0]),
], ids=["short-values", "2-d", "one-node", "repeated-node", "nan-value", "inf-value",
        "inf-breakpoint", "nan-breakpoint", "minus-inf-breakpoint"])
def test_node_tables_reject_bad_nodes(make, breakpoints, values):
    with pytest.raises(ValueError):
        make(breakpoints, values)


def test_levels_past_the_bound_raise_before_any_array_is_built(monkeypatch):
    check_level(0)
    check_level(MAX_LEVEL)
    step = StepFunction([0.0], [0.25, 0.5])

    def no_array(*args, **kwargs):
        raise AssertionError("an array was built")

    for name in ("arange", "floor", "asarray", "array", "concatenate"):
        monkeypatch.setattr(np, name, no_array)
    calls = [check_level, dyadic_points, lambda n: quantize_step(step, n),
             lambda n: piecewise_linearize(TrafficQuadraticFlux(), n),
             lambda n: traffic_flux_from_velocity(LinearTrafficVelocity(), n)]
    for call in calls:
        for level in (MAX_LEVEL + 1, -1):
            with pytest.raises(ValueError, match=rf"level must be in \[0, {MAX_LEVEL}\]"):
                call(level)


@st.composite
def scalar_case(draw):
    """A flux table, velocity table or linear velocity, and points to evaluate.

    Points inside the domain are nodes, domain ends or any point; points
    past the ends lie up to 10 beyond either end.
    """
    kind = draw(st.sampled_from(["flux", "table", "linear"]))
    if kind == "linear":
        f = LinearTrafficVelocity(draw(st.floats(0.1, 4.0)), draw(st.floats(0.1, 4.0)))
        nodes = list(f.domain)
    else:
        start = draw(st.floats(-2.0, 2.0))
        steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=30))
        xs = start + np.cumsum([0.0, *steps])
        assume(np.all(np.diff(xs) > 0))
        ys = draw(st.lists(st.floats(-4.0, 4.0), min_size=xs.size, max_size=xs.size))
        f = (PiecewiseLinearFlux if kind == "flux" else TableVelocity)(xs, np.asarray(ys))
        nodes = f.breakpoints.tolist()
    lo, hi = f.domain
    inside = st.one_of(st.sampled_from(nodes), st.sampled_from([lo, hi]), st.floats(lo, hi))
    past = st.one_of(
        st.floats(lo - 10.0, lo, exclude_max=True), st.floats(hi, hi + 10.0, exclude_min=True)
    )
    return f, draw(st.lists(inside, min_size=1, max_size=8)), draw(st.lists(past, max_size=4))


@given(scalar_case())
def test_scalar_evaluation_matches_a_call_bit_for_bit(case):
    f, inside, past = case
    for x in inside:
        assert f.at(x).hex() == float(f(x)).hex()
    for x in past:
        if isinstance(f, LinearTrafficVelocity):
            want = float(f(x))
        else:
            want = float(np.interp(x, f.breakpoints, f.values))
        assert f.at(x).hex() == want.hex()


def test_envelope_idempotent_and_sandwich():
    rng = np.random.default_rng(11)
    for _ in range(10):
        f = PiecewiseLinearFlux(dyadic_points(3), rng.uniform(0, 1, 9))
        lo_env = PiecewiseLinearFlux(*convex_envelope(f, 0.0, 1.0))
        hi_env = PiecewiseLinearFlux(*concave_envelope(f, 0.0, 1.0))
        again_x, again_y = convex_envelope(lo_env, 0.0, 1.0)
        assert np.allclose(again_x, lo_env.breakpoints, atol=1e-14)
        assert np.allclose(again_y, lo_env.values, atol=1e-14)
        for x in f.breakpoints:
            assert lo_env(x) <= f(x) + 1e-12
            assert hi_env(x) >= f(x) - 1e-12
        # convexity / concavity of the outputs
        assert np.all(np.diff(lo_env.slopes) >= -1e-12)
        assert np.all(np.diff(hi_env.slopes) <= 1e-12)
        # endpoint equality
        assert lo_env(0.0) == pytest.approx(f(0.0), abs=1e-14)
        assert lo_env(1.0) == pytest.approx(f(1.0), abs=1e-14)


def test_envelope_degenerate_interval_raises():
    g = piecewise_linearize(TrafficQuadraticFlux(1.0, 1.0), 2)
    with pytest.raises(ValueError):
        convex_envelope(g, 0.5, 0.5)


def test_lipschitz_distance_frozen_levels():
    f1 = piecewise_linearize(TrafficQuadraticFlux(1.0, 1.0), 1)
    f2 = piecewise_linearize(TrafficQuadraticFlux(1.0, 1.0), 2)
    # slopes 0.5 / -0.5 vs 0.75 / 0.25 / -0.25 / -0.75: worst gap 0.25
    assert lipschitz_distance(f1, f2) == pytest.approx(0.25, abs=1e-14)


def test_lipschitz_distance_exact_vs_linearized():
    f = TrafficQuadraticFlux(1.0, 1.0)
    for n in (2, 4, 6):
        g = piecewise_linearize(f, n)
        # chord slope differs from the tangent by exactly one grid width
        assert lipschitz_distance(f, g) == pytest.approx(2.0 ** -n, abs=1e-12)


def test_lipschitz_distance_matches_pair_oracle():
    rng = np.random.default_rng(3)
    for _ in range(15):
        f = PiecewiseLinearFlux(dyadic_points(3), rng.uniform(0, 1, 9))
        g = PiecewiseLinearFlux(dyadic_points(2), rng.uniform(0, 1, 5))
        assert lipschitz_distance(f, g) == pytest.approx(
            lip_distance_oracle(f, g), abs=1e-12
        )


def test_linear_velocity_is_admissible():
    w = LinearTrafficVelocity(1.0, 1.0)
    assert w.is_admissible()
    assert w(1.0) == 0.0
    assert w(0.0) == 1.0
    assert w.lipschitz_norm == 1.0


def test_table_velocity_admissibility_flag():
    good = TableVelocity(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.4, 0.0]))
    assert good.is_admissible()
    flat = TableVelocity(np.array([0.0, 0.5, 1.0]), np.array([1.0, 1.0, 0.0]))
    assert not flat.is_admissible()
    nonzero_end = TableVelocity(np.array([0.0, 1.0]), np.array([1.0, 0.1]))
    assert not nonzero_end.is_admissible()


def test_traffic_flux_from_linear_velocity_matches_quadratic():
    g1 = traffic_flux_from_velocity(LinearTrafficVelocity(1.0, 1.0), 4)
    g2 = piecewise_linearize(TrafficQuadraticFlux(1.0, 1.0), 4)
    assert np.allclose(g1.breakpoints, g2.breakpoints, atol=1e-15)
    assert np.allclose(g1.values, g2.values, atol=1e-15)
