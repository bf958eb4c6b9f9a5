"""Stability ladders, rate fits, and cross-formulation checks."""

import dataclasses

import numpy as np
import pytest

from shockline import experiments
from shockline.experiments import (
    burgers_transform_check,
    fit_rate,
    flux_stability,
    initial_field_stability,
    perturb_initial_field,
    perturb_velocity,
    stability_window,
    traffic_speed_margin,
    trajectory_convergence_study,
    velocity_lip_distance,
    viscous_convergence_study,
)
from shockline.flux import LinearTrafficVelocity, traffic_flux_from_velocity
from shockline.front_tracking import StepFunction, evolve, l1_distance, quantize_step

W = LinearTrafficVelocity(1.0, 1.0)
LADDER = [0.1, 0.05, 0.025]


def test_fit_rate_recovers_exact_powers():
    eps = [0.1, 0.05, 0.025, 0.0125]
    slope, intercept = fit_rate(eps, [3.0 * np.sqrt(e) for e in eps])
    assert slope == pytest.approx(0.5, abs=1e-10)
    assert intercept == pytest.approx(np.log(3.0), abs=1e-10)
    slope, intercept = fit_rate(eps, [2.0 * e for e in eps])
    assert slope == pytest.approx(1.0, abs=1e-10)
    assert intercept == pytest.approx(np.log(2.0), abs=1e-10)


def test_fit_rate_ignores_errors_at_the_exactness_floor():
    eps = [0.1, 0.05, 0.025, 0.0125]
    errors = [0.2, 0.1, 0.05, 1e-13]
    slope, _ = fit_rate(eps, errors)
    ref_slope, _ = fit_rate(eps[:3], errors[:3])
    assert slope == pytest.approx(ref_slope, abs=1e-12)


def test_fit_rate_needs_three_informative_pairs():
    with pytest.raises(ValueError):
        fit_rate([0.1, 0.05], [0.3, 0.2])
    with pytest.raises(ValueError):
        fit_rate([0.1, 0.05, 0.025], [0.3, 1e-13, 1e-14])
    with pytest.raises(ValueError):
        fit_rate([0.1, 0.0, 0.025], [0.3, 0.2, 0.1])


def test_stability_window_frozen():
    assert stability_window(W, 2.0) == (-4.0, 6.0)


def test_shift_perturbation_hits_requested_size():
    base = StepFunction([0.0], [0.25, 0.75])
    window = stability_window(W, 2.0)
    for eps in LADDER:
        pert = perturb_initial_field(base, eps, "shift", 10, window)
        assert l1_distance(base, pert, window) == pytest.approx(eps, rel=1e-12)


def test_shift_needs_a_jump():
    with pytest.raises(ValueError):
        perturb_initial_field(
            StepFunction.constant(0.5), 0.1, "shift", 10, (-1.0, 1.0)
        )


def test_dither_perturbation_stays_on_grid_and_sized():
    base = StepFunction([0.0, 0.5], [0.5, 0.75, 0.375])
    window = stability_window(W, 2.0)
    pert = perturb_initial_field(base, 0.05, "dither", 10, window)
    assert np.array_equal(pert.breakpoints, base.breakpoints)
    scaled = pert.values * 2.0 ** 10
    assert np.allclose(scaled, np.round(scaled), atol=1e-9)
    measured = l1_distance(base, pert, window)
    assert 0.0 < measured <= 0.05 * 1.5 + 2.0 ** -9


def test_dither_needs_two_jumps():
    with pytest.raises(ValueError):
        perturb_initial_field(
            StepFunction([0.0], [0.25, 0.75]), 0.1, "dither", 10, (-1.0, 1.0)
        )


def test_steps_perturbation_bounded_and_clipped():
    base = StepFunction.constant(0.5)
    window = (-4.0, 6.0)
    pert = perturb_initial_field(base, 0.05, "steps", 12, window, seed=3)
    assert np.all(pert.values >= 0.0)
    assert np.all(pert.values <= 1.0)
    measured = l1_distance(base, pert, window)
    assert 0.0 < measured <= 0.1


def test_unknown_family_raises():
    with pytest.raises(ValueError):
        perturb_initial_field(
            StepFunction.constant(0.5), 0.1, "wiggle", 10, (-1.0, 1.0)
        )
    with pytest.raises(ValueError):
        perturb_velocity(W, 0.1, "wiggle", 10)


def test_velocity_families_are_admissible_with_exact_size():
    for family in ("scale", "tilt", "curve"):
        w_p = perturb_velocity(W, 0.05, family, 8)
        assert w_p.is_admissible()
        assert float(w_p(1.0)) == pytest.approx(0.0, abs=1e-14)
        # the quadratic family is measured by its steepest grid chord,
        # which sits half a cell inside the endpoint
        expected = 0.05 * (1.0 - 2.0 ** -9) if family == "curve" else 0.05
        assert velocity_lip_distance(W, w_p, 8) == pytest.approx(expected, rel=1e-12)


def test_scale_family_cannot_flatten_the_velocity():
    with pytest.raises(ValueError):
        perturb_velocity(W, 1.5, "scale", 8)


def test_initial_field_stability_bounds_hold():
    base = StepFunction([0.0, 0.5], [0.5, 0.75, 0.375])
    report = initial_field_stability(
        base, W, -0.3, 0.1, 2.0, LADDER, "shift", level=10
    )
    assert report.all_bounds_hold
    assert report.meta["sticking_free"]
    assert np.all(report.errors >= 0.0)
    assert np.all(report.bound_constants > 1.0)
    assert np.isfinite(report.slope)


def test_initial_field_stability_dither_family():
    base = StepFunction([0.0, 0.5], [0.5, 0.75, 0.375])
    report = initial_field_stability(
        base, W, -0.3, 0.1, 2.0, LADDER, "dither", level=10
    )
    assert report.all_bounds_hold
    assert report.label == "initial-field/dither"


def test_flux_stability_constant_data_closed_form():
    # no fronts: both particles run straight, so the gap is
    # |w(rho0) - w_eps(rho0)| * (T - t0) = eps * w(rho0) * (T - t0)
    base = StepFunction.constant(0.5)
    report = flux_stability(base, W, 0.0, 0.1, 1.5, LADDER, "scale", level=10)
    expected = np.asarray(LADDER) * 0.5 * 1.4
    assert np.allclose(report.errors, expected, atol=1e-12)
    assert np.allclose(report.epsilons, LADDER, rtol=1e-12)
    assert report.slope == pytest.approx(1.0, abs=1e-10)
    assert report.all_bounds_hold


def test_flux_stability_with_fronts_holds_bounds():
    base = StepFunction([0.0, 0.5], [0.5, 0.75, 0.375])
    for family in ("scale", "tilt", "curve"):
        report = flux_stability(
            base, W, -0.3, 0.1, 2.0, LADDER, family, level=10
        )
        assert report.all_bounds_hold, family
        assert report.meta["sticking_free"]


TWO_JUMPS = StepFunction([0.0, 0.5], [0.5, 0.75, 0.375])
STUDIES = {
    "initial-field": lambda: initial_field_stability(
        TWO_JUMPS, W, -0.3, 0.1, 2.0, LADDER, "shift", 8
    ),
    "flux": lambda: flux_stability(TWO_JUMPS, W, -0.3, 0.1, 2.0, LADDER, "tilt", 8),
}


@pytest.mark.parametrize("epsilons", [[0.125, 0.0, 0.03125], [-0.125, 0.0625, 0.03125], []],
                         ids=["zero", "negative", "empty"])
@pytest.mark.parametrize("study, family", [(initial_field_stability, "shift"),
                                           (flux_stability, "tilt")])
def test_stability_studies_need_positive_finite_sizes(study, family, epsilons):
    with pytest.raises(ValueError, match="positive finite"):
        study(TWO_JUMPS, W, -0.3, 0.1, 2.0, epsilons, family, 8)


@pytest.mark.parametrize("study, base, family, epsilons, message", [
    (initial_field_stability, StepFunction.constant(0.5), "shift", LADDER, "at least one jump"),
    (initial_field_stability, StepFunction([0.0], [0.5, 0.75]), "dither", LADDER,
     "at least two jumps"),
    (flux_stability, TWO_JUMPS, "scale", [2.0, 1.0, 0.5], "destroy monotonicity"),
    (initial_field_stability, TWO_JUMPS, "tilt", LADDER, "not an initial-field family"),
    (flux_stability, TWO_JUMPS, "shift", LADDER, "not a velocity family"),
], ids=["shift_without_a_jump", "dither_with_one_jump", "scale_past_the_lipschitz_norm",
        "velocity_family_on_the_initial_field", "initial_family_on_the_velocity"])
def test_stability_studies_reject_a_family_before_any_solve(monkeypatch, study, base, family,
                                                            epsilons, message):
    def no_solve(*args):
        raise AssertionError("evolve called on a ladder that cannot run")

    monkeypatch.setattr(experiments, "evolve", no_solve)
    with pytest.raises(ValueError, match=message):
        study(base, W, -0.3, 0.1, 2.0, epsilons, family, 8)


@pytest.mark.parametrize("study", STUDIES)
def test_rate_ladder_report_arithmetic(study):
    report = STUDIES[study]()
    assert report.bound_values.tolist() == (
        report.bound_constants * np.sqrt(report.epsilons)
    ).tolist()
    assert report.bound_satisfied.tolist() == (report.errors <= report.bound_values).tolist()
    assert report.meta["requested_epsilons"] == LADDER
    assert report.meta["sticking_free"] is True


@pytest.mark.parametrize("study", STUDIES)
@pytest.mark.parametrize("sticky_call", range(len(LADDER) + 1))
def test_rate_ladder_sees_sticking_on_any_path(monkeypatch, study, sticky_call):
    """Call 0 tracks the base path, call k the k-th rung."""
    calls, real_track = [], experiments.track

    def track(*args):
        traj = real_track(*args)
        if len(calls) == sticky_call:
            traj = dataclasses.replace(traj, sticking=[(0.5, 0.75, 0)])
        calls.append(traj)
        return traj

    monkeypatch.setattr(experiments, "track", track)
    report = STUDIES[study]()
    assert len(calls) == len(LADDER) + 1
    assert report.meta["sticking_free"] is False


def test_burgers_transform_constant_data_is_exact():
    check = burgers_transform_check(StepFunction.constant(0.5), 6, 1.0)
    assert check.l1_difference == 0.0
    assert check.max_breakpoint_gap == 0.0


def test_burgers_transform_riemann_agreement():
    check = burgers_transform_check(StepFunction([0.0], [0.25, 0.75]), 6, 1.0)
    assert check.l1_difference <= 1e-8
    assert check.max_breakpoint_gap <= 1e-10


def test_burgers_transform_needs_level_one():
    with pytest.raises(ValueError):
        burgers_transform_check(StepFunction.constant(0.5), 0, 1.0)


def test_traffic_speed_margin_frozen_for_stationary_shock():
    flux = traffic_flux_from_velocity(W, 8)
    sol = evolve(quantize_step(StepFunction([0.0], [0.25, 0.75]), 8), flux, 1.0)
    assert traffic_speed_margin(sol, W) == pytest.approx(0.25, abs=1e-14)


def test_traffic_speed_margin_positive_on_random_runs():
    rng = np.random.default_rng(7)
    flux = traffic_flux_from_velocity(W, 8)
    for _ in range(5):
        k = int(rng.integers(1, 6))
        bps = np.sort(rng.uniform(-1.0, 1.0, k))
        vals = rng.choice(np.arange(16, 240) / 256.0, k + 1)
        try:
            s = StepFunction(bps, vals)
        except ValueError:
            continue
        sol = evolve(s, flux, 2.0)
        assert traffic_speed_margin(sol, W) > 0.0


def test_trajectory_convergence_ladder():
    base = StepFunction([0.0, 0.5], [0.5, 0.75, 0.375])
    report = trajectory_convergence_study(base, W, -0.3, 0.1, 2.0, [4, 6], 8)
    assert np.all(report.errors >= 0.0)
    assert report.errors[-1] <= report.errors[0] + 1e-14
    assert report.meta["kind"] == "linearization-level"
    assert report.reference_label == 8.0


def test_viscous_convergence_ladder():
    base = StepFunction([0.0], [0.25, 0.625])
    report = viscous_convergence_study(
        base, W, -0.5, 0.1, 1.0, [0.2, 0.1], ref_level=8, n_cells=400
    )
    assert report.monotone_nonincreasing
    assert report.meta["transversality_margin"] > 0.0
    assert report.meta["kind"] == "viscosity"
