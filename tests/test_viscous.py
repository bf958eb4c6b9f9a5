"""Viscous solver: stability, conservation accounting, and the small-eps limit."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from shockline.flux import (
    BurgersQuadraticFlux,
    LinearTrafficVelocity,
    PiecewiseLinearFlux,
    TrafficQuadraticFlux,
    traffic_flux_from_velocity,
)
from shockline.front_tracking import StepFunction, evolve
from shockline.viscous import (
    CFL_SAFETY,
    _eo_interface,
    default_window,
    march_grid,
    solve_viscous,
    track_smooth,
)

TRAFFIC = TrafficQuadraticFlux(1.0, 1.0)
W = LinearTrafficVelocity(1.0, 1.0)


def test_constant_data_is_a_fixed_point():
    field = solve_viscous(
        StepFunction.constant(0.5), TRAFFIC, 0.05, 1.0, n_cells=200
    )
    assert np.all(field.values == 0.5)
    assert field.boundary_account == 0.0


def test_lands_exactly_on_horizon():
    field = solve_viscous(
        StepFunction.constant(0.5), TRAFFIC, 0.05, 0.7, n_cells=100
    )
    assert field.times[-1] == 0.7
    assert field.horizon == 0.7


def test_dirichlet_ends_hold_far_field_values():
    s = StepFunction([0.0], [0.25, 0.75])
    field = solve_viscous(s, TRAFFIC, 0.05, 1.0, n_cells=300)
    assert np.all(field.values[:, 0] == 0.25)
    assert np.all(field.values[:, -1] == 0.75)


def test_no_new_extrema_on_random_step_data():
    rng = np.random.default_rng(5)
    for _ in range(5):
        k = int(rng.integers(1, 5))
        bps = np.sort(rng.uniform(-1.0, 1.0, k))
        vals = rng.uniform(0.2, 0.8, k + 1)
        try:
            s = StepFunction(bps, vals)
        except ValueError:
            continue
        field = solve_viscous(s, TRAFFIC, 0.05, 0.5, n_cells=300)
        lo, hi = vals.min(), vals.max()
        assert field.values.min() >= lo - 1e-12
        assert field.values.max() <= hi + 1e-12


def test_mass_change_matches_boundary_account():
    rng = np.random.default_rng(11)
    for _ in range(3):
        k = int(rng.integers(1, 5))
        bps = np.sort(rng.uniform(-1.0, 1.0, k))
        vals = rng.uniform(0.1, 0.9, k + 1)
        try:
            s = StepFunction(bps, vals)
        except ValueError:
            continue
        field = solve_viscous(s, TRAFFIC, 0.08, 0.8, n_cells=400)
        drift = field.mass(field.horizon) - field.mass(0.0)
        assert drift == pytest.approx(field.boundary_account, abs=1e-8)


@pytest.mark.parametrize("flux, data", [
    (TRAFFIC, StepFunction([0.0], [0.25, 0.75])),
    (BurgersQuadraticFlux(), StepFunction([0.0], [0.5, -0.5])),
    (PiecewiseLinearFlux([0.0, 0.25, 0.5, 1.0], [0.0, 0.5, 0.25, 0.0]),
     StepFunction([0.0, 0.3], [0.1, 0.9, 0.4])),
], ids=["traffic", "burgers", "piecewise-linear"])
def test_automatic_step_obeys_both_stability_bounds(flux, data):
    lip = flux.lipschitz_norm
    for eps, n_cells, cfl_safety in ((0.05, 200, 0.9), (0.01, 400, 0.9), (0.2, 100, 0.5)):
        field = solve_viscous(data, flux, eps, 0.2, n_cells=n_cells, cfl_safety=cfl_safety)
        dt, dx = field.dt, field.dx
        assert dt <= cfl_safety * min(dx / (2.0 * lip), dx * dx / (2.0 * eps))
        assert dt * (lip / dx + 2.0 * eps / (dx * dx)) <= 1.0


def test_march_grid_gives_the_march_its_grid_and_steps():
    s = StepFunction([0.0], [0.25, 0.75])
    field = solve_viscous(s, TRAFFIC, 0.05, 0.7, n_cells=100, store_every=1000)
    x_lo, dx, dt, n_steps = march_grid(s, TRAFFIC, 0.05, 0.7, n_cells=100)
    assert (field.x[0], field.dx, field.dt) == (x_lo + dx * 0.5, dx, dt)
    assert field.times[-1] == n_steps * dt


def test_bad_parameters_raise():
    s = StepFunction.constant(0.5)
    with pytest.raises(ValueError):
        solve_viscous(s, TRAFFIC, 0.0, 1.0)
    with pytest.raises(ValueError):
        solve_viscous(s, TRAFFIC, 0.05, -1.0)
    with pytest.raises(ValueError):
        solve_viscous(s, TRAFFIC, 0.05, 1.0, window=(2.0, -2.0))


@pytest.mark.parametrize("change", [
    {"epsilon": math.nan}, {"epsilon": math.inf}, {"horizon": math.nan},
    {"horizon": math.inf}, {"horizon": 0.0}, {"window": (1.0, 1.0)},
    {"window": (-math.inf, 1.0)}, {"window": (0.0, math.nan)}, {"window": (0.0, 1.0, 2.0)},
    {"n_cells": 3}, {"cfl_safety": 0.0}, {"cfl_safety": 1.5}, {"cfl_safety": math.nan},
    {"store_every": 0},
], ids=str)
def test_unusable_settings_raise_before_any_step(change):
    settings = dict(epsilon=0.05, horizon=1.0, window=None, n_cells=4, cfl_safety=1.0,
                    store_every=1)
    grid = (StepFunction.constant(0.5), TRAFFIC)
    march_grid(*grid, **dict(settings, window=(-1.0, 1.0)))
    march_grid(*grid, **settings)
    with pytest.raises(ValueError):
        march_grid(*grid, **dict(settings, **change))
    with pytest.raises(ValueError):
        solve_viscous(StepFunction.constant(0.5), TRAFFIC, **dict(settings, **change))


def test_default_window_margin_frozen():
    # Lip(traffic quadratic, w_max=1) = 1; eps*T = 0.25 makes the root exact:
    # margin = 2*1*2 + 4*sqrt(0.25) + 1 = 7
    s = StepFunction([0.0], [0.25, 0.75])
    lo, hi = default_window(s, TRAFFIC, 0.125, 2.0)
    assert lo == -7.0
    assert hi == 7.0


def test_snapshot_outside_stored_range_raises():
    field = solve_viscous(
        StepFunction.constant(0.5), TRAFFIC, 0.05, 0.5, n_cells=100
    )
    with pytest.raises(ValueError):
        field.snapshot(0.6)
    with pytest.raises(ValueError):
        field.snapshot(-0.1)


def test_value_at_clamps_to_window():
    s = StepFunction([0.0], [0.25, 0.75])
    field = solve_viscous(s, TRAFFIC, 0.05, 0.5, n_cells=200)
    assert field.value_at(field.x[-1] + 5.0, 0.5) == field.values[-1, -1]
    assert field.value_at(field.x[0] - 5.0, 0.5) == field.values[-1, 0]


def test_value_at_reads_the_snapshot_row_bit_for_bit():
    s = StepFunction([-0.5, 0.5], [0.1, 0.8, 0.3])
    field = solve_viscous(s, TRAFFIC, 0.05, 0.5, n_cells=200, store_every=3)
    one_level = dataclasses.replace(field, times=field.times[:1], values=field.values[:1])
    rng = np.random.default_rng(8)
    xs = [*rng.uniform(field.x[0] - 1.0, field.x[-1] + 1.0, 400), *field.x[:2], *field.x[-2:]]
    ts = [*rng.uniform(0.0, 0.5, 400), *field.times[:2], *field.times[-2:]]
    for fld in (field, one_level):
        for x, t in zip(xs, ts):
            want = float(np.interp(x, fld.x, fld.snapshot(t)))
            assert fld.value_at(x, t).hex() == want.hex()


def test_store_every_thins_levels_but_keeps_endpoint():
    s = StepFunction([0.0], [0.25, 0.75])
    dense = solve_viscous(s, TRAFFIC, 0.05, 0.5, n_cells=200)
    thin = solve_viscous(s, TRAFFIC, 0.05, 0.5, n_cells=200, store_every=10)
    assert thin.times.size < dense.times.size
    assert thin.times[-1] == 0.5
    assert np.array_equal(thin.values[-1], dense.values[-1])


def eo_parts(flux):
    """The Engquist-Osher parts (fplus, fminus) of ``flux`` as closed-form
    array expressions."""
    if isinstance(flux, TrafficQuadraticFlux):
        crest = 0.5 * flux.rho_max
        f_crest = flux._values(np.asarray(crest))
        return (lambda v: flux._values(np.minimum(v, crest)),
                lambda v: flux._values(np.maximum(v, crest)) - f_crest)
    if isinstance(flux, BurgersQuadraticFlux):
        return (lambda v: 0.5 * np.maximum(v, 0.0) ** 2,
                lambda v: 0.5 * np.minimum(v, 0.0) ** 2)
    bp, seg = flux.breakpoints, np.diff(flux.breakpoints)
    pos, neg = (np.concatenate(([0.0], np.cumsum(clip(flux.slopes, 0.0) * seg)))
                for clip in (np.maximum, np.minimum))
    return lambda v: np.interp(v, bp, pos), lambda v: np.interp(v, bp, neg)


def reference_march(initial, flux, epsilon, horizon, n_cells, store_every):
    """The earlier march: a fresh copy of the field each step, interface
    fluxes from the closed-form EO parts, stored rows appended to a list
    and stacked at the end."""
    x_lo, x_hi = default_window(initial, flux, epsilon, horizon)
    dx = (x_hi - x_lo) / n_cells
    x = x_lo + dx * (np.arange(n_cells) + 0.5)
    dt = CFL_SAFETY / (2.0 * flux.lipschitz_norm / dx + 2.0 * epsilon / (dx * dx))
    n_steps = max(1, math.ceil(horizon / dt))
    dt = horizon / n_steps
    v = np.asarray(initial.sample(x), dtype=float)
    fplus, fminus = eo_parts(flux)
    lam = dt / dx
    mu = epsilon * dt / (dx * dx)
    stored_vals = [v.copy()]
    stored_times = [0.0]
    boundary_account = 0.0
    for step in range(1, n_steps + 1):
        interface = fplus(v[:-1]) + fminus(v[1:])
        diff = v[2:] - 2.0 * v[1:-1] + v[:-2]
        boundary_account += dt * (interface[0] - interface[-1]) + mu * dx * (
            (v[-1] - v[-2]) - (v[1] - v[0])
        )
        v = v.copy()
        v[1:-1] += -lam * np.diff(interface) + mu * diff
        if step % store_every == 0 or step == n_steps:
            stored_vals.append(v.copy())
            stored_times.append(step * dt)
    return np.asarray(stored_times), np.asarray(stored_vals), dt, boundary_account, n_steps


def _hex(a):
    return [float(v).hex() for v in np.ravel(a)]


# T = 0.45 on 120 cells takes 40, 43, 40, 53, 46 and 49 steps: none a multiple of 3
MARCH_CASES = {
    "traffic": (TRAFFIC, StepFunction([-0.5, 0.5], [0.1, 0.8, 0.3])),
    # w_max and rho_max other than 1, so that every multiply and divide shows
    "traffic-scaled": (TrafficQuadraticFlux(1.5, 0.8), StepFunction([-0.4, 0.5], [0.1, 0.7, 0.25])),
    # both far fields and the outer cells sit exactly at the crest 0.5
    "traffic-at-crest": (TRAFFIC, StepFunction([-0.5, 0.5], [0.5, 0.9, 0.5])),
    "burgers": (BurgersQuadraticFlux(), StepFunction([0.0], [0.5, -0.5])),
    # -0.0 holds at the left end and in cells the fan leaves at zero
    "burgers-signed-zero": (BurgersQuadraticFlux(),
                            StepFunction([-0.25, 0.25], [-0.0, -0.5, 0.0])),
    "piecewise-linear": (PiecewiseLinearFlux([0.0, 0.25, 0.5, 1.0], [0.0, 0.5, 0.25, 0.0]),
                         StepFunction([0.0, 0.3], [0.1, 0.9, 0.4])),
}


@pytest.mark.parametrize("store_every", [1, 2, 3, 1000])
@pytest.mark.parametrize("name", sorted(MARCH_CASES))
def test_march_matches_the_list_append_march_bit_for_bit(name, store_every):
    flux, data = MARCH_CASES[name]
    field = solve_viscous(data, flux, 0.05, 0.45, n_cells=120, store_every=store_every)
    times, values, dt, boundary_account, n_steps = reference_march(
        data, flux, 0.05, 0.45, 120, store_every)
    if store_every == 3:
        assert n_steps % store_every != 0
    if store_every == 1000:
        assert store_every > n_steps and times.size == 2
    assert field.values.shape == values.shape
    assert _hex(field.times) == _hex(times)
    assert _hex(field.values) == _hex(values)
    assert float(field.dt).hex() == float(dt).hex()
    assert float(field.boundary_account).hex() == float(boundary_account).hex()


def test_march_holds_the_field_once():
    # tracemalloc sees numpy's data buffers; a list of rows stacked at the
    # end peaks near twice the field
    s = StepFunction([0.0], [0.2, 0.8])
    tracemalloc.start()
    try:
        field = solve_viscous(s, TRAFFIC, 0.05, 1.0, n_cells=400)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert field.values.shape[0] > 100
    assert peak <= field.values.nbytes + 16 * field.values[0].nbytes


@pytest.mark.parametrize("name", sorted(MARCH_CASES))
def test_eo_parts_write_their_closed_forms_into_out_bit_for_bit(name):
    # the interface writer sums both parts into ``out`` in place
    flux = MARCH_CASES[name][0]
    lo, hi = flux.domain
    rng = np.random.default_rng(4)
    v = np.concatenate([rng.uniform(lo, hi, 300), [lo, hi, 0.5 * (lo + hi), 0.0, -0.0]])
    out = np.full(v.size - 1, np.nan)
    write = _eo_interface(flux, v, out)
    fplus, fminus = eo_parts(flux)
    for _ in range(3):  # each call reads v as it is then
        write()
        assert _hex(out) == _hex(fplus(v[:-1]) + fminus(v[1:]))
        v[:] = rng.permutation(v)


@pytest.mark.parametrize("store_every", [1, 3])
@pytest.mark.parametrize("name", sorted(MARCH_CASES))
def test_kept_rows_answer_like_the_full_field_bit_for_bit(name, store_every):
    flux, data = MARCH_CASES[name]
    full = solve_viscous(data, flux, 0.05, 0.45, n_cells=120, store_every=store_every)
    T = full.horizon
    at = [0.0, T, 5 * full.dt, 4 * full.dt, 0.5 * (full.times[7] + full.times[8]), 1e-13,
          T - 1e-13]
    kept = solve_viscous(data, flux, 0.05, 0.45, n_cells=120, store_every=store_every,
                         keep_times=at)
    assert kept.times.size < full.times.size
    assert set(_hex(kept.times)) <= set(_hex(full.times))
    assert kept.times[0] == 0.0 and kept.times[-1] == full.times[-1] == kept.horizon == T
    assert float(kept.dt).hex() == float(full.dt).hex()
    assert float(kept.boundary_account).hex() == float(full.boundary_account).hex()
    for t in at:
        assert _hex(kept.snapshot(t)) == _hex(full.snapshot(t))
        assert float(kept.mass(t)).hex() == float(full.mass(t)).hex()
    for outside in (T + 1e-9, -1e-9, math.nan):
        with pytest.raises(ValueError):
            solve_viscous(data, flux, 0.05, 0.45, n_cells=120, store_every=store_every,
                          keep_times=[0.2, outside])


def test_kept_rows_march_holds_only_those_rows():
    s = StepFunction([0.0], [0.2, 0.8])
    full_rows = solve_viscous(s, TRAFFIC, 0.05, 1.0, n_cells=400).values.shape[0]
    tracemalloc.start()
    try:
        field = solve_viscous(s, TRAFFIC, 0.05, 1.0, n_cells=400, keep_times=(0.25, 0.5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert full_rows > 100
    assert field.values.shape[0] <= 6
    assert peak <= field.values.nbytes + 16 * field.values[0].nbytes


def test_linear_advection_diffusion_matches_erf_profile():
    # v_t + s v_x = eps v_xx with a 0/1 step has the closed form
    # v(x,t) = (1 + erf((x - s t) / (2 sqrt(eps t)))) / 2
    s_flux = PiecewiseLinearFlux([0.0, 1.0], [0.0, 0.3])
    data = StepFunction([0.0], [0.0, 1.0])
    eps, T = 0.05, 1.0
    field = solve_viscous(data, s_flux, eps, T, n_cells=1200)
    row = field.snapshot(T)
    scale = 2.0 * math.sqrt(eps * T)
    exact = np.array([0.5 * (1.0 + math.erf((x - 0.3 * T) / scale)) for x in field.x])
    assert np.max(np.abs(row - exact)) < 0.02
    assert np.sum(np.abs(row - exact)) * field.dx < 0.01


def test_vanishing_viscosity_approaches_front_tracking_slice():
    # moving traffic shock 0.125 -> 0.625 travels at speed 1/4
    data = StepFunction([0.0], [0.125, 0.625])
    # level-8 linearization agrees with the quadratic at these dyadic states,
    # so the tracked shock speed is the exact 1/4
    flux = traffic_flux_from_velocity(W, 8)
    sol = evolve(data, flux, 1.0)
    window = (-2.5, 3.0)
    errors = []
    for eps in (0.2, 0.1, 0.05):
        field = solve_viscous(data, TRAFFIC, eps, 1.0, window=window, n_cells=600)
        row = field.snapshot(1.0)
        exact = np.asarray(sol.slice(1.0).sample(field.x), dtype=float)
        errors.append(float(np.sum(np.abs(row - exact)) * field.dx))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 0.5 * errors[0]
    assert flux.lipschitz_norm <= TRAFFIC.lipschitz_norm + 1e-12


def test_stationary_shock_profile_shrinks_linearly_in_eps():
    # 0.25 -> 0.75 has equal flux values, so the limit is the initial step
    data = StepFunction([0.0], [0.25, 0.75])
    window = (-2.0, 2.0)
    errors = []
    for eps in (0.2, 0.05):
        field = solve_viscous(data, TRAFFIC, eps, 1.0, window=window, n_cells=800)
        row = field.snapshot(1.0)
        exact = np.where(field.x < 0.0, 0.25, 0.75)
        errors.append(float(np.sum(np.abs(row - exact)) * field.dx))
    assert errors[1] < errors[0]
    assert errors[1] < 0.45 * errors[0]


def test_track_smooth_straight_line_on_constant_field():
    field = solve_viscous(
        StepFunction.constant(0.5), TRAFFIC, 0.05, 2.0, n_cells=200, store_every=5
    )
    traj = track_smooth(field, W, 0.0, 0.0)
    assert traj.positions[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(traj.speeds, 0.5, atol=1e-12)


def test_track_smooth_respects_time_bounds():
    field = solve_viscous(
        StepFunction.constant(0.5), TRAFFIC, 0.05, 1.0, n_cells=100
    )
    with pytest.raises(ValueError):
        track_smooth(field, W, 0.0, -0.1)
    with pytest.raises(ValueError):
        track_smooth(field, W, 0.0, 0.5, horizon=2.0)


def test_track_smooth_crosses_viscous_shock_smoothly():
    # behind a slow shock the particle outruns the wave, then rides near it
    data = StepFunction([0.5], [0.25, 0.75])
    field = solve_viscous(data, TRAFFIC, 0.05, 2.0, n_cells=600, store_every=4)
    traj = track_smooth(field, W, -0.5, 0.0)
    assert np.all(np.diff(traj.positions) > 0)  # w > 0 keeps it moving right
    assert traj.positions[-1] < field.x[-1]
