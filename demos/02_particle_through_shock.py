"""A car driving through a stationary traffic shock.

With velocity w(rho) = 1 - rho and a flux whose 0.2 -> 0.8 chord is exactly
flat, the shock stands still while cars approach it at speed w(0.2) = 0.8,
cross, and continue at w(0.8) = 0.2.  A car released at z0 = -1 at time 0
reaches the shock at tau = 1/0.8 = 1.25 and sits at z(2) = 0.75 * 0.2 = 0.15.

The tracked path records a node exactly at the crossing, and every sampled
speed along any path lies between the velocities just left and right of the
car (allowing for the shock set itself).
"""

import numpy as np

from shockline import (
    LinearTrafficVelocity,
    PiecewiseLinearFlux,
    StepFunction,
    check_speed_inclusion,
    evolve,
    quantize_step,
    track,
    traffic_flux_from_velocity,
)

W = LinearTrafficVelocity(w_max=1.0, rho_max=1.0)


def stationary_crossing():
    flux = PiecewiseLinearFlux([0.0, 0.2, 0.8, 1.0], [0.0, 0.16, 0.16, 0.0])
    sol = evolve(StepFunction([0.0], [0.2, 0.8]), flux, 2.0)
    traj = track(sol, W, x0=-1.0, t0=1e-14, horizon=2.0)
    print("car through a standing shock:")
    print(f"  {'node t':>10}  {'z':>10}  {'speed after':>11}")
    for t, z, s in zip(traj.times, traj.positions, traj.speeds):
        print(f"  {t:10.6f}  {z:10.6f}  {s:11.6f}")
    tau = traj.times[np.argmin(np.abs(traj.times - 1.25))]
    print(f"  crossing node at t = {tau:.15f}  (exact 1.25)")
    print(f"  z(2) = {traj.position_at(2.0):.15f}  (exact 0.15)")


def random_field_speeds():
    rng = np.random.default_rng(7)
    flux = traffic_flux_from_velocity(W, 8)
    data = quantize_step(
        StepFunction(np.sort(rng.uniform(-1, 1, 5)),
                     rng.integers(16, 250, 6) / 256.0),
        8,
    )
    sol = evolve(data, flux, 2.0)
    traj = track(sol, W, x0=-2.5, t0=0.05, horizon=2.0)
    violation = check_speed_inclusion(traj, sol, W)
    print("\nrandom six-state field:")
    print(f"  trajectory nodes: {len(traj.times)}")
    print(f"  worst speed-inclusion violation over 1000 samples: {violation:.1e}")
    print(f"  sticking intervals: {traj.sticking}")


if __name__ == "__main__":
    stationary_crossing()
    random_field_speeds()
