"""Acceptance suite: eighteen numbered criteria with stated tolerances.

Each test prints one [criterion NN] PASS line with the measured numbers
(through the capture bypass, so the scoreboard is visible in full runs);
a failed criterion shows up as the test failure itself.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from shockline.bayes import (
    PriorSpec,
    TrajectoryForward,
    hellinger_between,
    posterior_convergence_study,
    run_pcn,
    synth_observations,
)
from shockline.cli import main
from shockline.config import read_slice_csv
from shockline.experiments import (
    burgers_transform_check,
    flux_stability,
    initial_field_stability,
    traffic_speed_margin,
    trajectory_convergence_study,
    viscous_convergence_study,
)
from shockline.filippov import (
    check_speed_inclusion,
    initial_position_spread,
    riemann_comparison,
    track,
)
from shockline.flux import (
    LinearTrafficVelocity,
    PiecewiseLinearFlux,
    TrafficQuadraticFlux,
    lipschitz_distance,
    traffic_flux_from_velocity,
)
from shockline.front_tracking import StepFunction, evolve, l1_distance, quantize_step

W = LinearTrafficVelocity(1.0, 1.0)

# piecewise-linear flux whose 0.2 -> 0.8 chord is exactly flat
STILL_FLUX = PiecewiseLinearFlux([0.0, 0.2, 0.8, 1.0], [0.0, 0.16, 0.16, 0.0])

FIVE_JUMPS = StepFunction(
    [-0.6, -0.2, 0.1, 0.45, 0.8], [0.5, 0.75, 0.375, 0.625, 0.25, 0.5625]
)


@pytest.fixture
def report(capsys):
    def _print(num: int, text: str) -> None:
        with capsys.disabled():
            print(f"[criterion {num:02d}] PASS {text}", flush=True)

    return _print


def random_step(rng, max_jumps, level, lo=0.0, hi=1.0):
    """Random dyadic-valued step data with up to max_jumps jumps."""
    while True:
        k = int(rng.integers(1, max_jumps + 1))
        bps = np.sort(rng.uniform(-2.0, 2.0, k))
        cells = 2 ** level
        vals = rng.integers(round(lo * cells), round(hi * cells) + 1, k + 1) / cells
        try:
            return StepFunction(bps, vals)
        except ValueError:
            continue


def test_criterion_01_rankine_hugoniot_exactness(report):
    flux = traffic_flux_from_velocity(W, 8)
    data = StepFunction([0.0], [0.2, 0.8])
    evolve(data, flux, 1.0)  # warm up before timing
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        sol = evolve(data, flux, 1.0)
        best = min(best, time.perf_counter() - t0)
    assert sol.front_count == 1
    speed = float(sol.speeds[0])
    rh = (flux(0.2) - flux(0.8)) / (0.2 - 0.8)
    assert abs(speed - rh) <= 1e-12
    assert abs(speed) <= 1e-12
    assert best < 1e-3
    report(1, f"single front, |speed| = {abs(speed):.1e} <= 1e-12, {best*1e6:.0f} us")


def test_criterion_02_conservation_tvd_max_principle(report):
    rng = np.random.default_rng(2)
    flux = traffic_flux_from_velocity(W, 8)
    lip = flux.lipschitz_norm
    worst_drift = 0.0
    t_start = time.perf_counter()
    for _ in range(100):
        rho0 = quantize_step(random_step(rng, 10, 8), 8)
        sol = evolve(rho0, flux, 2.0)
        window = (rho0.breakpoints[0] - lip * 2.0 - 1.0,
                  rho0.breakpoints[-1] + lip * 2.0 + 1.0)
        m0 = rho0.integral(*window)
        rate = flux(rho0.far_left) - flux(rho0.far_right)
        tv_prev = rho0.total_variation()
        lo, hi = rho0.min_value(), rho0.max_value()
        for t in (0.5, 1.0, 2.0):
            s = sol.slice(t)
            drift = abs(s.integral(*window) - m0 - rate * t)
            worst_drift = max(worst_drift, drift)
            assert drift <= 1e-10
            tv = s.total_variation()
            assert tv <= tv_prev + 1e-12
            tv_prev = tv
            assert s.min_value() >= lo - 1e-14
            assert s.max_value() <= hi + 1e-14
    elapsed = time.perf_counter() - t_start
    assert elapsed < 5.0
    report(2, f"100 runs, worst mass drift {worst_drift:.1e} <= 1e-10, {elapsed:.1f}s")


def test_criterion_03_l1_contraction(report):
    rng = np.random.default_rng(3)
    flux = traffic_flux_from_velocity(W, 8)
    worst_excess = -np.inf
    for _ in range(20):
        a = quantize_step(random_step(rng, 6, 8), 8)
        b = random_step(rng, 6, 8)
        vals = b.values.copy()
        vals[0], vals[-1] = a.far_left, a.far_right
        b = quantize_step(StepFunction(b.breakpoints, vals), 8)
        window = (-6.0, 6.0)
        d0 = l1_distance(a, b, window)
        sol_a, sol_b = evolve(a, flux, 2.0), evolve(b, flux, 2.0)
        for t in (0.5, 1.0, 2.0):
            d = l1_distance(sol_a.slice(t), sol_b.slice(t), window)
            worst_excess = max(worst_excess, d - d0)
            assert d <= d0 + 1e-10
    report(3, f"20 pairs, worst growth {worst_excess:.1e} <= 1e-10")


def test_criterion_04_flux_stability_ladder(report):
    v0 = StepFunction([-0.5, 0.0, 0.6], [0.25, 0.625, 0.375, 0.5625])
    tv = v0.total_variation()
    ref_flux = traffic_flux_from_velocity(W, 12)
    T = 2.0
    ref = evolve(v0, ref_flux, T).slice(T)
    window = (-4.0, 5.0)
    prev = np.inf
    ratios = []
    for n in (4, 6, 8, 10):
        fn = traffic_flux_from_velocity(W, n)
        d = l1_distance(ref, evolve(v0, fn, T).slice(T), window)
        ratio = d / (T * lipschitz_distance(ref_flux, fn))
        ratios.append(ratio)
        assert ratio <= tv + 1e-9
        assert d < prev + 1e-14
        prev = d
    report(4, f"ratios {[round(r, 3) for r in ratios]} all <= TV = {tv}, monotone")


def test_criterion_05_hitting_time_oracle(report):
    sol = evolve(StepFunction([0.0], [0.2, 0.8]), STILL_FLUX, 2.0)
    traj = track(sol, W, -1.0, 1e-14, 2.0)
    tau_gap = float(np.min(np.abs(traj.times - 1.25)))
    z2 = traj.position_at(2.0)
    assert tau_gap <= 1e-12
    assert abs(z2 - 0.15) <= 1e-12
    report(5, f"crossing node at 1.25 (gap {tau_gap:.1e}), z(2) - 0.15 = {z2 - 0.15:.1e}")


def test_criterion_06_closed_form_vs_differenced_tracks(report):
    flux = traffic_flux_from_velocity(W, 10)
    quad = TrafficQuadraticFlux(1.0, 1.0)
    # worked single-number example first
    delta = riemann_comparison(
        quad, quad, W, W, 0.2, 0.8, 0.2, 0.8, 0.0, 0.1, -1.0, -1.0, 0.5, 5.0
    )
    assert abs(delta - 0.075) <= 1e-12

    def shock_track(rl, rr, a, z0, t0, horizon):
        lam = (flux(rl) - flux(rr)) / (rl - rr)
        # birth the front so the shock sits at `a` when the particle is released
        sol = evolve(StepFunction([a - lam * t0], [rl, rr]), flux, horizon)
        return track(sol, W, z0, t0, horizon)

    rng = np.random.default_rng(64)
    worst = 0.0
    for _ in range(50):
        rl = int(rng.integers(32, 420)) / 1024.0
        rr = int(rng.integers(round(rl * 1024) + 96, 1000)) / 1024.0
        rlb = int(rng.integers(32, 420)) / 1024.0
        rrb = int(rng.integers(round(rlb * 1024) + 96, 1000)) / 1024.0
        a = float(rng.uniform(-0.5, 0.5))
        ab = float(rng.uniform(-0.5, 0.5))
        t0 = float(rng.uniform(0.02, 0.4))
        z0 = a - float(rng.uniform(0.3, 1.2))
        z0b = ab - float(rng.uniform(0.3, 1.2))
        tau = (a - z0) / (float(W(rl)) - (flux(rl) - flux(rr)) / (rl - rr))
        taub = (ab - z0b) / (float(W(rlb)) - (flux(rlb) - flux(rrb)) / (rlb - rrb))
        t = t0 + 1.05 * max(tau, taub) + 0.3
        delta = riemann_comparison(
            flux, flux, W, W, rl, rr, rlb, rrb, a, ab, z0, z0b, t0, t
        )
        za = shock_track(rl, rr, a, z0, t0, t).position_at(t)
        zb = shock_track(rlb, rrb, ab, z0b, t0, t).position_at(t)
        worst = max(worst, abs(delta - (zb - za)))
    assert worst <= 1e-10
    report(6, f"50 configs, worst formula gap {worst:.1e} <= 1e-10")


def test_criterion_07_trajectory_level_convergence(report):
    t0 = time.perf_counter()
    rep = trajectory_convergence_study(FIVE_JUMPS, W, -1.0, 0.1, 2.0, [4, 6, 8, 10], 12)
    elapsed = time.perf_counter() - t0
    assert rep.monotone_nonincreasing
    assert elapsed < 10.0
    report(7, f"errors {np.array2string(rep.errors, precision=2)} monotone, {elapsed:.1f}s")


def test_criterion_08_viscous_trajectory_convergence(report):
    t0 = time.perf_counter()
    rep = viscous_convergence_study(
        StepFunction([0.0], [0.25, 0.625]), W, -0.5, 0.1, 1.0,
        [0.1, 0.05, 0.025, 0.0125], ref_level=12, n_cells=2000, store_every=4,
    )
    elapsed = time.perf_counter() - t0
    assert rep.monotone_nonincreasing
    assert rep.meta["transversality_margin"] > 0.0
    assert elapsed < 60.0
    report(8, f"errors {np.array2string(rep.errors, precision=3)} monotone, "
              f"margin {rep.meta['transversality_margin']}, {elapsed:.1f}s")


def test_criterion_09_speed_margin_positive(report):
    rng = np.random.default_rng(9)
    flux = traffic_flux_from_velocity(W, 8)
    floor_units = round(0.05 * 2 ** 8)
    min_margin = np.inf
    for _ in range(30):
        rho0 = random_step(rng, 8, 8, lo=floor_units / 2 ** 8, hi=1.0)
        assert rho0.min_value() >= 0.05
        sol = evolve(rho0, flux, 2.0)
        margin = traffic_speed_margin(sol, W)
        assert margin > 0.0
        min_margin = min(min_margin, margin)
    sol = evolve(quantize_step(FIVE_JUMPS, 12), traffic_flux_from_velocity(W, 12), 2.0)
    margin = traffic_speed_margin(sol, W)
    assert margin > 0.0
    min_margin = min(min_margin, margin)
    report(9, f"31 runs, smallest speed margin {min_margin:.3f} > 0")


EPS_LADDER = [2.0 ** -k for k in range(3, 10)]


def test_criterion_10_initial_field_stability_bound(report):
    t0 = time.perf_counter()
    slopes = []
    for family in ("shift", "dither", "steps"):
        rep = initial_field_stability(
            FIVE_JUMPS, W, -1.0, 0.1, 2.0, EPS_LADDER, family, level=12
        )
        assert rep.all_bounds_hold, family
        assert rep.slope >= 0.45, family
        slopes.append(round(rep.slope, 3))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(10, f"3 families within C*sqrt(eps), slopes {slopes} >= 0.45, {elapsed:.1f}s")


def test_criterion_11_velocity_stability_bound(report):
    slopes = []
    for family in ("scale", "tilt", "curve"):
        rep = flux_stability(
            FIVE_JUMPS, W, -1.0, 0.1, 2.0, EPS_LADDER, family, level=12
        )
        assert rep.all_bounds_hold, family
        slopes.append(round(rep.slope, 3))
    report(11, f"3 families within C*sqrt(eps), slopes {slopes}")


def test_criterion_12_two_particle_spread_envelope(report):
    rng = np.random.default_rng(12)
    flux = traffic_flux_from_velocity(W, 8)
    exponents = []
    done = 0
    while done < 10:
        k = int(rng.integers(1, 7))
        bps = np.sort(rng.uniform(-1.0, 1.0, k))
        vals = rng.choice(np.arange(16, 250) / 256.0, k + 1)
        try:
            s = StepFunction(bps, vals)
        except ValueError:
            continue
        sol = evolve(quantize_step(s, 8), flux, 2.0)
        x0 = float(rng.uniform(-2.0, -1.2))
        y0 = x0 + float(rng.uniform(0.01, 0.2))
        rep = initial_position_spread(sol, W, x0, y0, 0.1, 2.0)
        assert rep.envelope_ok
        assert rep.fitted_exponent >= -1e-10
        exponents.append(rep.fitted_exponent)
        done += 1
    report(12, f"10 scenarios inside envelope, fitted C in "
               f"[{min(exponents):.2f}, {max(exponents):.2f}]")


def test_criterion_13_burgers_change_of_variables(report):
    check = burgers_transform_check(
        StepFunction([-0.5, 0.0, 0.6], [0.25, 0.625, 0.375, 0.5625]), 8, 1.0
    )
    assert check.l1_difference <= 1e-8
    assert check.max_breakpoint_gap <= 1e-8
    report(13, f"L1 gap {check.l1_difference:.1e}, breakpoint gap "
               f"{check.max_breakpoint_gap:.1e}, both <= 1e-8")


def test_criterion_14_speed_inclusion(report):
    rng = np.random.default_rng(14)
    flux = traffic_flux_from_velocity(W, 8)
    worst = 0.0
    for _ in range(10):
        rho0 = random_step(rng, 8, 8, lo=0.05, hi=1.0)
        sol = evolve(rho0, flux, 2.0)
        traj = track(sol, W, float(rng.uniform(-3.0, -2.2)), 0.05, 2.0)
        violation = check_speed_inclusion(traj, sol, W)
        worst = max(worst, violation)
        assert violation <= 1e-10
    report(14, f"10 trajectories x 1000 samples, worst violation {worst:.1e} <= 1e-10")


def test_criterion_15_posterior_self_consistency(report):
    gamma = 0.01
    prior = PriorSpec(kind="initial-field", n=64, length_scale=0.5, window=(-1.0, 2.0))
    forward = TrajectoryForward(
        velocity=W, level=6, x0=-0.5, t0=0.01, times=(0.3, 0.6, 0.9, 1.2, 1.5)
    )
    truth = prior.transform(prior.sample_latent(np.random.default_rng(42)))
    obs = synth_observations(forward, truth, gamma, seed=7)
    t0 = time.perf_counter()
    run = run_pcn(prior, obs, forward, chain_length=10_000, beta=0.1, seed=1,
                  burn_in=2000)
    elapsed = time.perf_counter() - t0
    assert 0.1 <= run.acceptance_rate <= 0.9
    resid = np.abs(forward(run.posterior_mean_field()) - obs.values)
    assert np.all(resid <= 3.0 * gamma)
    assert elapsed < 300.0
    report(15, f"acceptance {run.acceptance_rate:.3f} in [0.1, 0.9], max residual "
               f"{resid.max() / gamma:.2f} gamma <= 3 gamma, {elapsed:.0f}s")


def test_criterion_16_posterior_approximation_ladder(report):
    prior = PriorSpec(kind="initial-field", n=16, length_scale=0.5, window=(-1.0, 1.5))

    def make(level):
        return TrajectoryForward(velocity=W, level=level, x0=-0.5, t0=0.01,
                                 times=(0.4, 0.8, 1.2))

    ref = make(12)
    truth = prior.transform(prior.sample_latent(np.random.default_rng(3)))
    obs = synth_observations(ref, truth, 0.05, seed=2)
    t0 = time.perf_counter()
    rep = posterior_convergence_study(
        prior, obs, [(4, make(4)), (6, make(6)), (8, make(8))], ref,
        n_samples=2000, seed=0,
    )
    elapsed = time.perf_counter() - t0
    assert rep.control_value == 0.0
    assert rep.monotone_nonincreasing
    dists = [round(r.hellinger, 4) for r in rep.rows]
    assert elapsed < 600.0
    report(16, f"control exactly 0, distances {dists} decreasing, {elapsed:.0f}s")


def test_criterion_17_data_perturbation_continuity(report):
    gamma = 0.05
    prior = PriorSpec(kind="initial-field", n=16, length_scale=0.5, window=(-1.0, 1.5))
    forward = TrajectoryForward(velocity=W, level=6, x0=-0.5, t0=0.01,
                                times=(0.4, 0.8, 1.2))
    truth = prior.transform(prior.sample_latent(np.random.default_rng(3)))
    obs = synth_observations(forward, truth, gamma, seed=2)
    values = []
    for delta in (0.1 * gamma, 0.01 * gamma, 0.001 * gamma):
        shifted = replace(obs, values=obs.values + delta)
        est = hellinger_between(prior, obs, forward, forward, n_samples=500,
                                seed=0, obs_b=shifted)
        values.append(est.value)
    assert values[0] > values[1] > values[2]
    report(17, f"distances {[f'{v:.2e}' for v in values]} decrease with the shift")


def test_criterion_18_cli_semigroup_round_trip(report, tmp_path, monkeypatch):
    monkeypatch.delenv("SHOCKLINE_OUT", raising=False)
    rng = np.random.default_rng(18)
    velocity = {"kind": "linear-traffic", "w_max": 1.0, "rho_max": 1.0}
    worst = 0.0
    for i in range(20):
        data = random_step(rng, 6, 8)
        cfg = {
            "velocity": velocity,
            "initial": {"breakpoints": list(data.breakpoints),
                        "values": list(data.values)},
            "horizon": 2.0,
            "level": 8,
            "times": [1.0, 2.0],
        }
        base = tmp_path / f"run{i}"
        base.mkdir()
        cfg_path = base / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(cfg_path), "--out", str(base / "a")]) == 0
        mid = read_slice_csv(str(base / "a" / "slice_00.csv"))
        cfg2 = dict(cfg, horizon=1.0, times=[1.0],
                    initial={"breakpoints": list(mid.breakpoints),
                             "values": list(mid.values)})
        cfg2_path = base / "cfg2.json"
        cfg2_path.write_text(json.dumps(cfg2))
        assert main(["solve", "--config", str(cfg2_path), "--out", str(base / "b")]) == 0
        direct = read_slice_csv(str(base / "a" / "slice_01.csv"))
        restart = read_slice_csv(str(base / "b" / "slice_00.csv"))
        gap = l1_distance(direct, restart, (-6.0, 6.0))
        worst = max(worst, gap)
        assert gap <= 1e-10
    report(18, f"20 scenarios, worst restart gap {worst:.1e} <= 1e-10")
