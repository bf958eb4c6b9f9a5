"""One sha256 over the exact output of front tracking and car tracking.

Every case evolves seeded step data, then hashes, floats as hex strings:
the six front columns, every event, the slices at T/2 and T, and one car
track (nodes, segment speeds and sticking spans).  The cases are

- traffic at levels 6, 8, 10 and 12, drawn as the ``fine_solve`` benchmark
  draws them: random data with 4-8 jumps on [-1, 2] to T = 2, and draws
  from the criterion-16 prior to T = 1.2;
- Burgers data full of signed zeros;
- non-concave rho * w(rho) fluxes;
- data off the flux nodes;
- cars started exactly on fronts.

``DIGEST`` was recorded before Riemann solutions were stored as columns;
a change that moves any front, event, slice or track node by one bit, or
reorders events, changes it.
"""

import hashlib

import numpy as np

from shockline.bayes import PriorSpec
from shockline.filippov import track
from shockline.flux import (
    BurgersQuadraticFlux,
    LinearTrafficVelocity,
    TableVelocity,
    piecewise_linearize,
    traffic_flux_from_velocity,
)
from shockline.front_tracking import StepFunction, evolve, quantize_step

DIGEST = "13dd267477dbbede6e3ea06b9849db981555723fe00bf1621e3a7c4dacf86b2e"
CASES = 380

TRAFFIC = LinearTrafficVelocity(1.0, 1.0)
PRIOR = PriorSpec(kind="initial-field", n=16, length_scale=0.5, window=(-1.0, 1.5))


def hexes(values) -> list:
    return [float(v).hex() for v in values]


def record(data, flux, horizon, velocity, x0, t0) -> tuple:
    sol = evolve(data, flux, horizon)
    fronts = [hexes(column) for column in sol.front_lists]
    events = [(e.time.hex(), e.position.hex(), e.incoming, e.outgoing) for e in sol.events]
    slices = [
        (hexes(s.breakpoints), hexes(s.values))
        for s in (sol.slice(0.5 * horizon), sol.slice(horizon))
    ]
    car = track(sol, velocity, x0, t0, horizon)
    path = (hexes(car.times), hexes(car.positions), hexes(car.speeds),
            [(a.hex(), b.hex(), k) for a, b, k in car.sticking])
    return fronts, events, slices, path


def cases():
    """(data, flux, horizon, velocity, x0, t0) of every case, in a fixed order."""
    rng = np.random.default_rng(20230727)
    for level in (6, 8, 10, 12):
        flux = traffic_flux_from_velocity(TRAFFIC, level)
        for _ in range(30):
            jumps = int(rng.integers(4, 9))
            bps = np.sort(rng.uniform(-1.0, 2.0, jumps))
            vals = rng.uniform(0.02, 0.98, jumps + 1)
            x0 = float(rng.uniform(-1.0, 0.0))
            yield quantize_step(StepFunction(bps, vals), level), flux, 2.0, TRAFFIC, x0, 0.01
        for _ in range(20):
            field = PRIOR.transform(PRIOR.sample_latent(rng))
            yield quantize_step(field, level), flux, 1.2, TRAFFIC, -0.5, 0.01

    for level in (3, 4, 5, 6, 7):
        flux = piecewise_linearize(BurgersQuadraticFlux(), level)
        grid = flux.breakpoints.tolist()
        for _ in range(10):
            n = int(rng.integers(2, 8))
            cells = np.sort(rng.choice(np.arange(-24, 25), size=n, replace=False)) / 16.0
            values = [(0.0, -0.0)[int(rng.integers(2))] if rng.random() < 0.4
                      else grid[int(rng.integers(len(grid)))] for _ in range(n + 1)]
            x0 = float(rng.uniform(-1.5, 1.5))
            yield StepFunction(cells, values), flux, 1.0, TRAFFIC, x0, 0.05

    for level in (4, 5, 6, 7, 8):
        for _ in range(10):
            dip = float(rng.uniform(0.1, 0.5))
            w = TableVelocity([0.0, float(rng.uniform(0.3, 0.7)), 1.0], [2.0, dip, 0.0])
            flux = traffic_flux_from_velocity(w, level)
            jumps = int(rng.integers(2, 7))
            data = StepFunction(np.sort(rng.uniform(-1.0, 1.0, jumps)),
                                rng.uniform(0.0, 1.0, jumps + 1))
            yield quantize_step(data, level), flux, 1.5, w, float(rng.uniform(-1.5, 0.5)), 0.02

    for level in (6, 8):
        flux = traffic_flux_from_velocity(TRAFFIC, level)
        for _ in range(20):
            jumps = int(rng.integers(2, 9))
            data = StepFunction(np.sort(rng.uniform(-1.0, 1.0, jumps)),
                                rng.uniform(0.0, 1.0, jumps + 1))
            yield data, flux, 1.5, TRAFFIC, float(rng.uniform(-1.5, 0.5)), 0.02

    flux = traffic_flux_from_velocity(TRAFFIC, 8)
    for _ in range(40):
        jumps = int(rng.integers(3, 9))
        data = quantize_step(StepFunction(np.sort(rng.uniform(-1.0, 1.0, jumps)),
                                          rng.uniform(0.02, 0.98, jumps + 1)), 8)
        t0 = float(rng.uniform(0.05, 0.5))
        fronts = evolve(data, flux, 1.5).slice(t0).breakpoints
        yield data, flux, 1.5, TRAFFIC, float(fronts[int(rng.integers(fronts.size))]), t0


def test_front_tracking_output_matches_the_recorded_digest():
    digest = hashlib.sha256()
    n = 0
    for case in cases():
        digest.update(repr(record(*case)).encode())
        n += 1
    assert n == CASES
    assert digest.hexdigest() == DIGEST
