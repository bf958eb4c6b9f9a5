"""Priors, forward maps, pCN sampling, and Hellinger estimates."""

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from shockline.bayes import (
    BallAverageForward,
    ObservationSet,
    PointwiseForward,
    PriorSpec,
    TrajectoryForward,
    VelocityTrajectoryForward,
    ViscousTrajectoryForward,
    _hellinger_from_potentials,
    check_hellinger_samples,
    check_observations_fit,
    evaluate_forward_on_samples,
    hellinger_between,
    latent_to_unit_interval,
    place_observation_points,
    posterior_convergence_study,
    potential,
    run_pcn,
    shock_containment_fraction,
    synth_observations,
)
from shockline.config import read_observations_json, write_observations_json
from shockline.flux import (
    LinearTrafficVelocity,
    TableVelocity,
    TrafficQuadraticFlux,
    traffic_flux_from_velocity,
)
from shockline.front_tracking import StepFunction, evolve, quantize_step

W = LinearTrafficVelocity(1.0, 1.0)


class MeanForward:
    """Cheap stand-in forward: the average of the sample's grid values."""

    kind = "pointwise"
    times = (0.5,)
    positions = (0.0,)

    def __call__(self, sample):
        return np.array([float(np.mean(sample.values))])


def small_prior(n=8, **kw):
    return PriorSpec(kind="initial-field", n=n, length_scale=0.5, window=(-1.0, 2.0), **kw)


# one small instance of each forward map, with a prior whose samples it takes
FORWARDS = {
    "TrajectoryForward": lambda: (
        small_prior(), TrajectoryForward(W, 4, -0.5, 0.1, (0.5, 1.0))),
    "PointwiseForward": lambda: (
        small_prior(), PointwiseForward(W, 4, (0.2, -0.3, 0.0), (0.5, 0.5, 1.0))),
    "BallAverageForward": lambda: (
        small_prior(), BallAverageForward(W, 4, (0.2, 0.0), (0.5, 1.0), 0.1)),
    "VelocityTrajectoryForward": lambda: (
        PriorSpec(kind="velocity", n=8, window=(0.0, 1.0)),
        VelocityTrajectoryForward(StepFunction([0.0], [0.3, 0.7]), 4, -0.5, 0.1, (0.5, 1.0))),
    "ViscousTrajectoryForward": lambda: (
        small_prior(),
        ViscousTrajectoryForward(W, TrafficQuadraticFlux(1.0, 1.0), 0.05, -0.5, 0.1,
                                 (0.5, 1.0), n_cells=100)),
}


def test_link_maps_zero_to_half_and_stays_inside():
    assert latent_to_unit_interval(0.0) == 0.5
    assert isinstance(latent_to_unit_interval(0.3), float)
    # beyond |v| ~ 36 the exponential tail is below machine precision
    v = np.linspace(-30.0, 30.0, 3001)
    u = latent_to_unit_interval(v)
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)
    assert np.all(np.diff(u) >= 0.0)
    assert latent_to_unit_interval(-np.log(2.0)) == pytest.approx(0.25, abs=1e-15)
    assert latent_to_unit_interval(np.log(2.0)) == pytest.approx(0.75, abs=1e-15)


def test_prior_validation():
    with pytest.raises(ValueError):
        PriorSpec(kind="mystery")
    with pytest.raises(ValueError):
        PriorSpec(n=1)
    with pytest.raises(ValueError):
        PriorSpec(length_scale=0.0)
    with pytest.raises(ValueError):
        PriorSpec(window=(2.0, -1.0))
    with pytest.raises(ValueError):
        PriorSpec(kind="velocity", window=(-1.0, 2.0))
    for name in ("length_scale", "amplitude", "mean", "w_max"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                PriorSpec(**{name: bad})
    with pytest.raises(ValueError):
        PriorSpec(window=(-1.0, math.inf))
    with pytest.raises(ValueError):
        PriorSpec(window=(math.nan, 2.0))


def test_zero_latent_gives_the_half_density_field():
    prior = small_prior()
    s = prior.transform(np.zeros(prior.n))
    assert isinstance(s, StepFunction)
    assert np.all(s.values == 0.5)
    # equal neighbors merge, so the constant field keeps no jumps
    assert s.breakpoints.size == 0
    generic = prior.transform(prior.sample_latent(np.random.default_rng(0)))
    assert generic.breakpoints.size == prior.n - 1


def test_field_samples_share_read_only_cell_edges_at_the_grid_midpoints():
    for n, window in ((2, (-1.0, 2.0)), (8, (-1.0, 2.0)), (64, (-1.0, 2.0)), (37, (-0.3, 0.7))):
        prior = PriorSpec(kind="initial-field", n=n, window=window)
        x = np.linspace(window[0], window[1], n)
        want = [e.hex() for e in (0.5 * (x[:-1] + x[1:])).tolist()]
        ramp = prior.field_from_values(np.arange(n) / n)  # no equal neighbours
        assert [e.hex() for e in ramp.breakpoints.tolist()] == want
        with pytest.raises(ValueError, match="read-only"):
            ramp.breakpoints[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            prior.field_from_values(np.arange(n) / n).breakpoints[-1] = 0.0
        again = prior.field_from_values(np.arange(n)[::-1] / n)
        assert [e.hex() for e in again.breakpoints.tolist()] == want
        # equal neighbours still merge, without touching the shared edges
        merged = prior.field_from_values(np.repeat([0.25, 0.75], [1, n - 1]))
        assert merged.breakpoints.tolist() == [float.fromhex(want[0])]
        assert [e.hex() for e in prior.transform(np.arange(n) / n).breakpoints.tolist()] == want
        # a pickled prior, as a worker of a forward batch gets it, shares read-only edges too
        clone = pickle.loads(pickle.dumps(prior))
        assert clone == prior and np.array_equal(clone.covariance, prior.covariance)
        sample = clone.field_from_values(np.arange(n) / n)
        assert [e.hex() for e in sample.breakpoints.tolist()] == want
        with pytest.raises(ValueError, match="read-only"):
            sample.breakpoints[0] = 0.0


def test_zero_latent_velocity_prior_is_exactly_linear():
    prior = PriorSpec(kind="velocity", n=33, window=(0.0, 1.0), w_max=1.0)
    w = prior.transform(np.zeros(prior.n))
    assert isinstance(w, TableVelocity)
    assert np.allclose(np.asarray(w.values), 1.0 - prior.grid, atol=1e-14)
    assert float(w(1.0)) == 0.0
    assert w.is_admissible()


def test_random_velocity_samples_are_admissible():
    prior = PriorSpec(kind="velocity", n=17, window=(0.0, 1.0), w_max=0.8)
    rng = np.random.default_rng(2)
    for _ in range(10):
        w = prior.transform(prior.sample_latent(rng))
        assert w.is_admissible()
        assert float(w(1.0)) == 0.0
        assert float(w(0.0)) == pytest.approx(0.8, abs=1e-14)


def test_latent_sampling_matches_prior_marginals():
    prior = small_prior(amplitude=2.0)
    draws = prior.sample_latent(np.random.default_rng(0), size=3000)
    assert draws.shape == (3000, prior.n)
    assert np.max(np.abs(np.mean(draws, axis=0))) < 4.0 * 2.0 / np.sqrt(3000)
    assert np.all(np.abs(np.var(draws, axis=0) - 4.0) < 0.6)


def test_non_psd_covariance_is_rejected():
    prior = small_prior(n=3)
    bad = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    prior.__dict__["covariance"] = bad
    with pytest.raises(ValueError):
        prior.factor


def test_observation_set_round_trip_and_validation(tmp_path):
    path = str(tmp_path / "observations.json")
    obs = ObservationSet(
        kind="pointwise", values=[0.1, 0.2], noise_std=0.05,
        times=[0.5, 1.0], positions=[0.0, 0.3], meta={"any": {"free": [1, "form"]}},
    )
    write_observations_json(path, obs)
    again = read_observations_json(path)
    assert np.array_equal(again.values, obs.values)
    assert np.array_equal(again.positions, obs.positions)
    assert again.radius is None and again.meta == obs.meta
    ball = ObservationSet(
        kind="ball-average", values=[0.1], noise_std=0.05, times=[0.5], positions=[0.2],
        radius=0.1,
    )
    write_observations_json(path, ball)
    assert read_observations_json(path).radius == 0.1
    for bad in (
        dict(noise_std=0.0),
        dict(noise_std=np.nan),
        dict(noise_std=np.inf),
        dict(values=[np.nan]),
        dict(values=[np.inf]),
        dict(times=[np.nan]),
        dict(times=[np.inf]),
        dict(values=[0.1, 0.2]),
        dict(times=[0.5, 1.0]),
        dict(kind="nonsense"),
        dict(positions=[np.nan]),
        dict(positions=[np.inf]),
        dict(positions=[0.1, 0.2]),
        dict(positions=[]),
        dict(radius=np.nan),
        dict(radius=np.inf),
        dict(radius=0.0),
        dict(radius=-0.1),
    ):
        with pytest.raises(ValueError):
            ObservationSet(**{"kind": "pointwise", "values": [0.1], "noise_std": 0.1,
                              "times": [0.5], **bad})


def test_potential_frozen_values():
    obs = ObservationSet(kind="pointwise", values=[1.0], noise_std=0.1, times=(0.5,))
    fwd = MeanForward()
    sample = StepFunction.constant(0.7)
    # residual 0.3 with sigma 0.1: 0.09 / 0.02 = 4.5
    assert potential(sample, obs, fwd) == pytest.approx(4.5, rel=1e-12)
    exact = ObservationSet(kind="pointwise", values=[0.7], noise_std=0.1, times=(0.5,))
    assert potential(sample, exact, fwd) == 0.0
    wide = ObservationSet(kind="pointwise", values=[1.0], noise_std=0.2, times=(0.5,))
    assert potential(sample, wide, fwd) == pytest.approx(4.5 / 4.0, rel=1e-12)


def test_potential_rejects_length_mismatch():
    obs = ObservationSet(kind="pointwise", values=[1.0, 2.0], noise_std=0.1, times=(0.5, 1.0))
    with pytest.raises(ValueError):
        potential(StepFunction.constant(0.5), obs, MeanForward())


def test_synthetic_data_noiseless_and_noisy():
    fwd = MeanForward()
    truth = StepFunction.constant(0.625)
    clean = synth_observations(fwd, truth, 0.0)
    assert np.array_equal(clean.values, fwd(truth))
    assert clean.noise_std == 1.0
    assert clean.meta.get("noiseless") is True
    noisy1 = synth_observations(fwd, truth, 0.05, seed=4)
    noisy2 = synth_observations(fwd, truth, 0.05, seed=4)
    assert np.array_equal(noisy1.values, noisy2.values)
    assert noisy1.noise_std == 0.05
    assert not np.array_equal(noisy1.values, clean.values)
    with pytest.raises(ValueError):
        synth_observations(fwd, truth, -0.1)


@pytest.mark.parametrize("make", FORWARDS.values(), ids=FORWARDS.keys())
def test_observations_fit_only_the_geometry_they_were_made_for(make):
    prior, fwd = make()
    obs = synth_observations(fwd, prior.transform(np.zeros(prior.n)), 0.0)
    check_observations_fit(obs, fwd)
    other_kind = "trajectory" if obs.kind != "trajectory" else "pointwise"
    changes = [{"kind": other_kind}, {"times": obs.times + 0.125},
               {"positions": [0.25] * obs.times.size}, {"radius": 0.5}]
    if obs.positions is not None:
        changes.append({"positions": obs.positions + 1.0})
    for change in changes:
        with pytest.raises(ValueError, match=f"observation {next(iter(change))} "):
            check_observations_fit(replace(obs, **change), fwd)


def test_viscous_forward_rejects_unusable_solver_settings():
    _, fwd = FORWARDS["ViscousTrajectoryForward"]()
    for change in [{"epsilon": 0.0}, {"epsilon": -1.0}, {"epsilon": math.nan},
                   {"epsilon": math.inf}, {"n_cells": 3}, {"store_every": 0}]:
        with pytest.raises(ValueError):
            replace(fwd, **change)
    assert replace(fwd, n_cells=4, store_every=1).n_cells == 4


def test_forward_maps_are_picklable_and_deterministic():
    fwd = TrajectoryForward(velocity=W, level=5, x0=-0.5, t0=0.1, times=(0.5, 1.0))
    clone = pickle.loads(pickle.dumps(fwd))
    sample = StepFunction([0.0], [0.25, 0.75])
    assert np.array_equal(fwd(sample), clone(sample))
    pw = PointwiseForward(velocity=W, level=5, positions=(0.2,), times=(0.5,))
    assert np.array_equal(pw(sample), pickle.loads(pickle.dumps(pw))(sample))


def test_trajectory_forward_rejects_times_before_release():
    with pytest.raises(ValueError):
        TrajectoryForward(velocity=W, level=5, x0=0.0, t0=0.5, times=(0.2,))


@pytest.mark.parametrize(
    "name", ["TrajectoryForward", "VelocityTrajectoryForward", "ViscousTrajectoryForward"]
)
def test_trajectory_forwards_validate_when_built(name):
    _, fwd = FORWARDS[name]()
    assert replace(fwd, t0=0.5).horizon == 1.0
    for t0, times in [(0.1, ()), (0.0, (0.5,)), (-0.1, (0.5,)), (math.nan, (0.5,)),
                      (0.5, (0.2, 1.0)), (0.5, (0.2,)), (0.1, (0.5, math.nan))]:
        with pytest.raises(ValueError):
            replace(fwd, t0=t0, times=times)
    with pytest.raises(ValueError):
        replace(fwd, x0=math.inf)


def test_ball_average_forward_constant_field():
    fwd = BallAverageForward(velocity=W, level=5, positions=(0.0,), times=(0.5,), radius=0.1)
    out = fwd(StepFunction.constant(0.5))
    assert out.shape == (1,)
    # the observable is the integral over the ball: 0.5 * 0.2
    assert out[0] == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize("radius", [0.0, -0.1, math.nan, math.inf])
def test_ball_average_forward_rejects_a_radius_not_positive_and_finite(radius):
    with pytest.raises(ValueError, match="radius"):
        BallAverageForward(velocity=W, level=5, positions=(0.0,), times=(0.5,), radius=radius)


def test_pcn_beta_zero_freezes_the_chain():
    prior = small_prior()
    obs = ObservationSet(kind="pointwise", values=[0.5], noise_std=0.1, times=(0.5,))
    run = run_pcn(prior, obs, MeanForward(), chain_length=50, beta=0.0, seed=1)
    assert run.acceptance_rate == 1.0
    assert np.all(run.latent_chain == run.latent_chain[0])
    assert np.all(run.potentials == run.potentials[0])


def test_pcn_flat_likelihood_recovers_prior_moments():
    prior = small_prior()
    obs = ObservationSet(kind="pointwise", values=[0.5], noise_std=1e12, times=(0.5,))
    run = run_pcn(prior, obs, MeanForward(), chain_length=4000, beta=1.0, seed=7)
    assert run.acceptance_rate > 0.999
    # beta = 1 with a flat misfit draws fresh prior samples every step
    assert np.max(np.abs(np.mean(run.latent_chain, axis=0))) < 4.0 / np.sqrt(4000)
    assert np.all(np.abs(np.var(run.latent_chain, axis=0) - 1.0) < 0.25)


def test_pcn_validation():
    prior = small_prior()
    obs = ObservationSet(kind="pointwise", values=[0.5], noise_std=0.1, times=(0.5,))
    with pytest.raises(ValueError):
        run_pcn(prior, obs, MeanForward(), chain_length=10, beta=1.5, seed=0)
    with pytest.raises(ValueError):
        run_pcn(prior, obs, MeanForward(), chain_length=0, beta=0.1, seed=0)
    with pytest.raises(ValueError):
        run_pcn(prior, obs, MeanForward(), chain_length=10, beta=0.1, seed=0, burn_in=10)


def test_pcn_concentrates_on_informative_data():
    prior = small_prior()
    truth = 0.72
    obs = ObservationSet(kind="pointwise", values=[truth], noise_std=0.01, times=(0.5,))
    run = run_pcn(prior, obs, MeanForward(), chain_length=1500, beta=0.3, seed=3,
                  burn_in=500)
    assert 0.0 < run.acceptance_rate < 1.0
    post_mean = float(np.mean(run.mean_values))
    assert abs(post_mean - truth) < 0.05
    field = run.posterior_mean_field()
    assert isinstance(field, StepFunction)
    lo, hi = run.credible_band()
    assert np.all(lo <= hi + 1e-15)


def test_pcn_mean_keeps_one_value_per_grid_point_when_cells_merge():
    # at mean 37 every link value rounds to within 1e-15 of 1, so neighbouring
    # field cells are equal and the StepFunction sample keeps fewer values
    prior = PriorSpec(n=8, mean=37.0)
    obs = ObservationSet(kind="pointwise", values=[0.9], noise_std=0.1, times=(0.5,))
    run = run_pcn(prior, obs, MeanForward(), chain_length=30, beta=0.5, seed=4, burn_in=10)
    assert prior.transform(run.latent_chain[-1]).values.size < 8
    expected = np.zeros(8)
    for v in run.latent_chain[10:]:
        expected += prior.transformed_values(v)
    assert run.mean_values.tolist() == (expected / 20).tolist()
    lo, hi = run.credible_band()
    assert lo.shape == hi.shape == (8,)


def test_zero_amplitude_prior_bands_every_grid_point():
    prior = small_prior(amplitude=0.0)
    obs = ObservationSet(kind="pointwise", values=[0.5], noise_std=0.1, times=(0.5,))
    run = run_pcn(prior, obs, MeanForward(), chain_length=20, beta=0.3, seed=1)
    assert prior.transform(np.zeros(8)).values.size == 1  # one constant cell
    lo, hi = run.credible_band()
    assert lo.tolist() == hi.tolist() == [0.5] * 8
    assert run.mean_values.tolist() == [0.5] * 8


def test_hellinger_identical_posteriors_is_exactly_zero():
    prior = small_prior()
    fwd = MeanForward()
    obs = ObservationSet(kind="pointwise", values=[0.6], noise_std=0.1, times=(0.5,))
    est = hellinger_between(prior, obs, fwd, fwd, n_samples=200, seed=0)
    assert est.value == 0.0
    assert est.stderr == 0.0


def test_hellinger_shift_invariance_and_bounds():
    rng = np.random.default_rng(0)
    phi = rng.uniform(0.0, 5.0, 400)
    est = _hellinger_from_potentials(phi, phi + 3.0)
    assert est.value < 1e-12
    assert est.log_evidence_b == pytest.approx(est.log_evidence_a - 3.0, abs=1e-12)
    other = rng.uniform(0.0, 5.0, 400)
    est = _hellinger_from_potentials(phi, other)
    assert 0.0 <= est.value <= 1.0 + 1e-12
    assert est.stderr >= 0.0


def test_hellinger_underflow_raises():
    phi = np.full(100, 1e6)
    with pytest.raises(FloatingPointError):
        _hellinger_from_potentials(phi, phi.copy())


def test_hellinger_needs_enough_samples():
    check_hellinger_samples(20, 8)
    with pytest.raises(ValueError):
        check_hellinger_samples(19, 8)
    prior = small_prior()
    obs = ObservationSet(kind="pointwise", values=[0.6], noise_std=0.1, times=(0.5,))
    with pytest.raises(ValueError):
        hellinger_between(prior, obs, MeanForward(), MeanForward(), n_samples=5)
    with pytest.raises(ValueError):
        posterior_convergence_study(prior, obs, [(4.0, MeanForward())], MeanForward(),
                                    n_samples=5)


@pytest.mark.parametrize("make", FORWARDS.values(), ids=FORWARDS.keys())
def test_parallel_forward_evaluation_matches_serial(make):
    prior, fwd = make()
    latents = prior.sample_latent(np.random.default_rng(5), size=8)
    serial = evaluate_forward_on_samples(prior, fwd, latents, jobs=1)
    parallel = evaluate_forward_on_samples(prior, fwd, latents, jobs=2)
    assert np.array_equal(serial, parallel)


def test_convergence_study_reference_rung_is_exact():
    prior = small_prior()
    fwd = MeanForward()
    obs = ObservationSet(kind="pointwise", values=[0.6], noise_std=0.1, times=(0.5,))
    report = posterior_convergence_study(prior, obs, [(4.0, fwd)], fwd, n_samples=40, seed=0)
    assert report.control_value == 0.0
    assert report.rows[0].hellinger == 0.0
    assert report.fitted_constant == 0.0
    assert report.monotone_nonincreasing


def test_observation_placement_avoids_the_shock():
    flux = traffic_flux_from_velocity(W, 8)
    sol = evolve(quantize_step(StepFunction([0.0], [0.25, 0.75]), 8), flux, 1.0)
    pts = place_observation_points(sol, [0.5], (-1.0, 1.0))
    (x, t), = pts
    assert t == 0.5
    assert abs(x) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        place_observation_points(sol, [0.5], (-0.01, 0.01))


def test_shock_containment_of_identical_forwards():
    prior = small_prior()
    fwd = TrajectoryForward(velocity=W, level=5, x0=-0.5, t0=0.1, times=(1.0,))
    latents = prior.sample_latent(np.random.default_rng(1), size=3)
    frac = shock_containment_fraction(prior, fwd, fwd, latents, 0.05, 0.02)
    assert frac == 1.0
