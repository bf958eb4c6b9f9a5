"""Recovering the initial density from noisy car-position reports.

A hidden initial density is drawn from the prior, a car is driven through
the resulting field, and its position is reported at a few times with
Gaussian noise.  Preconditioned Crank-Nicolson sampling then explores the
posterior over initial densities.  The posterior mean reproduces the data
well inside the noise level, and the posterior itself moves continuously
(in Hellinger distance) when the data are perturbed.
"""

from dataclasses import replace

import numpy as np

from shockline import (
    LinearTrafficVelocity,
    PriorSpec,
    TrajectoryForward,
    hellinger_between,
    run_pcn,
    synth_observations,
)

W = LinearTrafficVelocity(w_max=1.0, rho_max=1.0)
GAMMA = 0.05

prior = PriorSpec(kind="initial-field", n=16, length_scale=0.5, window=(-1.0, 1.5))
forward = TrajectoryForward(velocity=W, level=5, x0=-0.5, t0=0.01,
                            times=(0.4, 0.8, 1.2))

truth = prior.transform(prior.sample_latent(np.random.default_rng(3)))
obs = synth_observations(forward, truth, GAMMA, seed=2)
print("observed car positions (noise std {:.2f}):".format(GAMMA))
for t, y in zip(obs.times, obs.values):
    print(f"  t = {t:.1f}   z = {y:+.4f}")

run = run_pcn(prior, obs, forward, chain_length=3000, beta=0.15, seed=1,
              burn_in=600)
mean_field = run.posterior_mean_field()
resid = np.abs(forward(mean_field) - obs.values)
print(f"\npCN: acceptance {run.acceptance_rate:.3f}, "
      f"max residual {resid.max() / GAMMA:.2f} gamma")

xs = np.linspace(-0.8, 1.3, 8)
print(f"\n  {'x':>6}  {'truth':>7}  {'post mean':>9}")
for x in xs:
    print(f"  {x:6.2f}  {truth.sample([x])[0]:7.4f}  {mean_field.sample([x])[0]:9.4f}")

print("\nposterior continuity in the data:")
for delta in (0.1 * GAMMA, 0.01 * GAMMA):
    est = hellinger_between(prior, obs, forward, forward, n_samples=300,
                            seed=0, obs_b=replace(obs, values=obs.values + delta))
    print(f"  data shift {delta:7.4f}   Hellinger distance {est.value:.4f} "
          f"(+/- {est.stderr:.4f})")
