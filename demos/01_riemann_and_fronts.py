"""Exact front tracking on traffic Riemann problems.

An up-jump in density travels as a single shock whose speed is the chord
slope of the flux between the two states.  A down-jump opens into a fan of
small fronts, one per flux grid cell.  Multi-jump data produces fronts that
collide and merge; mass (corrected for boundary throughput), total
variation, and the value hull are all tracked exactly.
"""

import numpy as np

from shockline import (
    LinearTrafficVelocity,
    StepFunction,
    evolve,
    quantize_step,
    traffic_flux_from_velocity,
)

W = LinearTrafficVelocity(w_max=1.0, rho_max=1.0)
LEVEL = 6
FLUX = traffic_flux_from_velocity(W, LEVEL)


def show_shock():
    sol = evolve(StepFunction([0.0], [0.2, 0.8]), FLUX, 2.0)
    speed = sol.speeds[0]
    chord = (FLUX(0.2) - FLUX(0.8)) / (0.2 - 0.8)
    print("up-jump 0.2 -> 0.8:")
    print(f"  fronts: {sol.front_count} (single shock)")
    print(f"  tracked speed    {speed:+.12f}")
    print(f"  chord slope      {chord:+.12f}")
    print(f"  difference       {abs(speed - chord):.2e}")


def show_fan():
    sol = evolve(StepFunction([0.0], [0.8, 0.2]), FLUX, 2.0)
    strengths = np.abs(sol.left_values - sol.right_values)
    print("\ndown-jump 0.8 -> 0.2:")
    print(f"  fronts: {sol.front_count}, each of strength <= 2^-{LEVEL}")
    print(f"  max strength {strengths.max():.6f}  (2^-{LEVEL} = {2.0**-LEVEL:.6f})")
    speeds = np.sort(sol.speeds)
    print(f"  fan speeds span [{speeds[0]:+.4f}, {speeds[-1]:+.4f}]")


def show_interactions():
    data = quantize_step(
        StepFunction([-0.6, -0.2, 0.1, 0.45, 0.8],
                     [0.5, 0.75, 0.375, 0.625, 0.25, 0.5625]),
        LEVEL,
    )
    horizon = 2.0
    sol = evolve(data, FLUX, horizon)
    window = (data.breakpoints[0] - horizon - 1.0,
              data.breakpoints[-1] + horizon + 1.0)
    m0 = data.integral(*window)
    rate = FLUX(data.far_left) - FLUX(data.far_right)
    print("\nfive-jump data:")
    print(f"  fronts {sol.front_count}, collisions {sol.collision_count}")
    print(f"  {'t':>4}  {'TV':>8}  {'mass drift':>10}  {'values in':>20}")
    for t in (0.0, 0.5, 1.0, 2.0):
        s = sol.slice(t)
        drift = s.integral(*window) - m0 - rate * t
        print(f"  {t:4.1f}  {s.total_variation():8.5f}  {drift:10.1e}"
              f"  [{s.min_value():.4f}, {s.max_value():.4f}]")
    print("  TV never increases; drift stays at rounding level;")
    print("  values remain inside the initial hull.")


if __name__ == "__main__":
    show_shock()
    show_fan()
    show_interactions()
