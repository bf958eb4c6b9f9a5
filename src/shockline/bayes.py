"""Bayesian inversion around the front-tracking forward maps.

Gaussian latents on a grid are pushed through monotone links into density
fields with values in (0, 1) or into admissible velocity functions.  The
posterior for noisy observations of particle paths or field values is
explored with a preconditioned Crank-Nicolson chain, and distances between
posteriors (exact vs. approximate forward maps, or perturbed data) are
estimated with a common-sample Hellinger estimator.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cached_property
from math import inf, isfinite, log, sqrt
from typing import Optional, Sequence

import numpy as np

from .filippov import track
from .flux import TableVelocity, VelocityFunction, check_at_most, traffic_flux_from_velocity
from .front_tracking import (
    FrontTrackingSolution,
    StepFunction,
    evolve,
    quantize_step,
)
from .viscous import march_grid, solve_viscous, track_smooth

LOG_UNDERFLOW = log(1e-300)
# batches of the batch-means error bar of a Hellinger estimate
HELLINGER_BATCHES = 10


def latent_to_unit_interval(v):
    """Monotone link from the real line onto (0, 1); maps 0 to 1/2.

    Equal to exp(v)/2 for v <= 0 and 1 - exp(-v)/2 otherwise, so tail
    values approach the interval ends only exponentially slowly.
    """
    arr = np.asarray(v, dtype=float)
    out = np.where(arr <= 0, 0.5 * np.exp(np.minimum(arr, 0.0)),
                   1.0 - 0.5 * np.exp(-np.maximum(arr, 0.0)))
    if np.isscalar(v) or (isinstance(v, np.ndarray) and v.ndim == 0):
        return float(out)
    return out


# Most latent points of a prior: its covariance and its factor are n x n
# floats, 32 MB each at 2048 points, and eigh needs a few more of that size.
MAX_PRIOR_N = 2048


@dataclass(frozen=True)
class PriorSpec:
    """Gaussian latent prior and its push-forward.

    kind 'initial-field': the latent lives on a spatial grid spanning
    ``window``; the sample is a StepFunction with cell edges at grid
    midpoints and values squashed into (0, 1).

    kind 'velocity': the latent lives on a grid of [0, 1]; the sample is
    the table velocity w(r) = w_max * I(r)/I(0) with I(r) the integral of
    exp(latent) from r to 1, hence strictly decreasing with w(1) = 0.
    """

    kind: str = "initial-field"
    n: int = 64
    length_scale: float = 0.5
    amplitude: float = 1.0
    window: tuple[float, float] = (-1.0, 2.0)
    mean: float = 0.0
    w_max: float = 1.0

    def __post_init__(self):
        if self.kind not in ("initial-field", "velocity"):
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if self.n < 2:
            raise ValueError("need n >= 2 latent points")
        check_at_most("n", self.n, MAX_PRIOR_N)
        floats = (self.length_scale, self.amplitude, *self.window, self.mean, self.w_max)
        if not all(map(isfinite, floats)):
            raise ValueError("prior parameters must be finite")
        if self.length_scale <= 0 or self.amplitude < 0:
            raise ValueError("length_scale must be positive and amplitude nonnegative")
        lo, hi = self.window
        if hi <= lo:
            raise ValueError("window must have positive length")
        if self.kind == "velocity" and ((lo, hi) != (0.0, 1.0) or self.w_max <= 0):
            raise ValueError("velocity priors use the latent window (0, 1) and w_max > 0")

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.window[0], self.window[1], self.n)

    @cached_property
    def covariance(self) -> np.ndarray:
        x = self.grid
        d = x[:, None] - x[None, :]
        return self.amplitude ** 2 * np.exp(-0.5 * (d / self.length_scale) ** 2)

    @cached_property
    def factor(self) -> np.ndarray:
        """PSD square root of the covariance via symmetric eigendecomposition."""
        vals, vecs = np.linalg.eigh(self.covariance)
        floor = -1e-10 * max(float(vals[-1]), 1.0)
        if float(vals[0]) < floor:
            raise ValueError(
                f"covariance is not positive semidefinite (min eigenvalue {vals[0]:.3e})"
            )
        return vecs * np.sqrt(np.clip(vals, 0.0, None))

    def sample_latent(self, rng: np.random.Generator, size: Optional[int] = None) -> np.ndarray:
        if size is None:
            return self.mean + self.factor @ rng.standard_normal(self.n)
        return self.mean + rng.standard_normal((size, self.n)) @ self.factor.T

    def transform(self, latent: np.ndarray):
        """Push one latent vector to its field or velocity sample."""
        return self.field_from_values(self.transformed_values(latent))

    def transformed_values(self, latent: np.ndarray) -> np.ndarray:
        """Values of the push-forward at the ``n`` grid points (for averaging).

        Field cells or velocity nodes, one per latent point: equal
        neighbours are kept, so chains of samples average entrywise.
        """
        latent = np.asarray(latent, dtype=float)
        if latent.shape != (self.n,):
            raise ValueError(f"latent must have shape ({self.n},)")
        if self.kind == "initial-field":
            return latent_to_unit_interval(latent)
        g = latent - np.max(latent)
        integrand = np.exp(g)
        # right-to-left trapezoid accumulation: exact zero at the right end
        seg = 0.5 * (integrand[:-1] + integrand[1:]) * np.diff(self.grid)
        tail = np.concatenate((np.cumsum(seg[::-1])[::-1], [0.0]))
        return self.w_max * tail / tail[0]

    @cached_property
    def _cell_edges(self) -> np.ndarray:
        """Grid midpoints, the cell edges of every field sample; read-only."""
        edges = 0.5 * (self.grid[:-1] + self.grid[1:])
        edges.setflags(write=False)
        return edges

    def __getstate__(self) -> dict:
        # an unpickled array is writable, so the copy rebuilds its read-only edges
        return {k: v for k, v in self.__dict__.items() if k != "_cell_edges"}

    def field_from_values(self, values: np.ndarray):
        """Rebuild a sample object from grid values (e.g. a posterior mean)."""
        if self.kind == "initial-field":
            return StepFunction(self._cell_edges, values)
        return TableVelocity(self.grid, values)


@dataclass
class ObservationSet:
    """Observed values with their geometry and noise level."""

    kind: str  # trajectory | pointwise | ball-average
    values: np.ndarray
    noise_std: float
    times: np.ndarray
    positions: Optional[np.ndarray] = None
    radius: Optional[float] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        self.times = np.atleast_1d(np.asarray(self.times, dtype=float))
        if not (isfinite(self.noise_std) and self.noise_std > 0):
            raise ValueError("noise_std must be positive and finite")
        if self.values.size != self.times.size:
            raise ValueError("need one observation time per value")
        if not (np.all(np.isfinite(self.values)) and np.all(np.isfinite(self.times))):
            raise ValueError("observation values and times must be finite")
        if self.kind not in ("trajectory", "pointwise", "ball-average"):
            raise ValueError(f"unknown observation kind {self.kind!r}")
        if self.positions is not None:
            self.positions = np.atleast_1d(np.asarray(self.positions, dtype=float))
            if self.positions.size != self.times.size:
                raise ValueError("need one observation position per time")
            if not np.all(np.isfinite(self.positions)):
                raise ValueError("observation positions must be finite")
        if self.radius is not None and not (isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be positive and finite")


# ---------------------------------------------------------------------------
# forward maps


class ForwardMap:
    """Base of the forward maps: observation times and the horizon they set.

    Subclasses are dataclasses with a ``times`` field and their own
    ``__call__`` from a sample to the array of observed values.
    """

    kind = "trajectory"

    def __post_init__(self):
        self.times = tuple(float(t) for t in self.times)
        if not self.times or not all(map(isfinite, self.times)):
            raise ValueError("observation times must be a nonempty list of finite numbers")

    @property
    def horizon(self) -> float:
        return max(self.times)


class _TrackedForward(ForwardMap):
    """Observes the path of one car released at (x0, t0)."""

    def __post_init__(self):
        super().__post_init__()
        if not (isfinite(self.x0) and self.t0 > 0):
            raise ValueError("the car needs a finite x0 and a positive t0")
        if min(self.times) < self.t0:
            raise ValueError("observation times must be >= t0")


class _DyadicForward(ForwardMap):
    """Front tracking of a sample field under the dyadic flux of a known velocity."""

    def __post_init__(self):
        super().__post_init__()
        self.flux = traffic_flux_from_velocity(self.velocity, self.level)

    def solve(self, sample: StepFunction) -> FrontTrackingSolution:
        return evolve(quantize_step(sample, self.level), self.flux, self.horizon)


class _FieldForward(_DyadicForward):
    """Observes the solved field at the points (x_j, t_j)."""

    def __post_init__(self):
        super().__post_init__()
        self.positions = tuple(float(x) for x in self.positions)
        if len(self.times) != len(self.positions):
            raise ValueError("positions and times must pair up")

    def _slices(self, sample: StepFunction) -> list[tuple[float, StepFunction]]:
        """(x_j, slice at t_j) for every point; one slice per distinct time."""
        sol = self.solve(sample)
        slices = {t: sol.slice(t) for t in dict.fromkeys(self.times)}
        return [(x, slices[t]) for x, t in zip(self.positions, self.times)]


@dataclass
class TrajectoryForward(_TrackedForward, _DyadicForward):
    """Particle positions z(t_j) for an unknown initial density field."""

    velocity: VelocityFunction
    level: int
    x0: float
    t0: float
    times: tuple

    def __call__(self, sample: StepFunction) -> np.ndarray:
        traj = track(self.solve(sample), self.velocity, self.x0, self.t0, self.horizon)
        return traj.observe(self.times)


@dataclass
class PointwiseForward(_FieldForward):
    """Field values at points (x_j, t_j); one-sided limits are averaged."""

    kind = "pointwise"

    velocity: VelocityFunction
    level: int
    positions: tuple
    times: tuple

    def __call__(self, sample: StepFunction) -> np.ndarray:
        return np.array([0.5 * sum(s.value_at(x)) for x, s in self._slices(sample)])


@dataclass
class BallAverageForward(_FieldForward):
    """Integrals of the field over balls B_r(x_j) at times t_j."""

    kind = "ball-average"

    velocity: VelocityFunction
    level: int
    positions: tuple
    times: tuple
    radius: float

    def __post_init__(self):
        super().__post_init__()
        if not (isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be positive and finite")

    def __call__(self, sample: StepFunction) -> np.ndarray:
        r = self.radius
        return np.array([s.integral(x - r, x + r) for x, s in self._slices(sample)])


@dataclass
class VelocityTrajectoryForward(_TrackedForward):
    """Particle positions z(t_j) for an unknown velocity function."""

    initial: StepFunction
    level: int
    x0: float
    t0: float
    times: tuple

    def __post_init__(self):
        super().__post_init__()
        self.initial = quantize_step(self.initial, self.level)

    def solve(self, sample: VelocityFunction) -> FrontTrackingSolution:
        flux = traffic_flux_from_velocity(sample, self.level)
        return evolve(self.initial, flux, self.horizon)

    def __call__(self, sample: VelocityFunction) -> np.ndarray:
        traj = track(self.solve(sample), sample, self.x0, self.t0, self.horizon)
        return traj.observe(self.times)


# Data without a jump: no sample has a narrower default viscous window, so
# none has a march with more steps or more stored levels.
_NO_JUMPS = StepFunction.constant(0.5)


@dataclass
class ViscousTrajectoryForward(_TrackedForward):
    """Particle positions through the viscous regularization."""

    velocity: VelocityFunction
    flux: object
    epsilon: float
    x0: float
    t0: float
    times: tuple
    n_cells: int = 400
    store_every: int = 4

    def __post_init__(self):
        super().__post_init__()
        march_grid(_NO_JUMPS, self.flux, self.epsilon, self.horizon,
                   n_cells=self.n_cells, store_every=self.store_every)

    def __call__(self, sample: StepFunction) -> np.ndarray:
        fld = solve_viscous(
            sample, self.flux, self.epsilon, self.horizon,
            n_cells=self.n_cells, store_every=self.store_every,
        )
        traj = track_smooth(fld, self.velocity, self.x0, self.t0, self.horizon)
        return traj.observe(self.times)


def potential(sample, obs: ObservationSet, forward: ForwardMap) -> float:
    """Least-squares misfit |y - G(u)|^2 / (2 noise_std^2)."""
    g = forward(sample)
    if g.shape != obs.values.shape:
        raise ValueError("forward output and observations differ in length")
    r = obs.values - g
    return float(np.dot(r, r) / (2.0 * obs.noise_std ** 2))


def _observed_geometry(forward: ForwardMap) -> dict:
    """What observations of ``forward`` record besides their values."""
    pts = getattr(forward, "positions", None)
    return {
        "kind": forward.kind,
        "times": np.asarray(forward.times),
        "positions": np.asarray(pts, dtype=float) if pts is not None else None,
        "radius": getattr(forward, "radius", None),
    }


def check_observations_fit(obs: ObservationSet, forward: ForwardMap) -> None:
    """Raise ValueError unless ``obs`` has the kind, times, positions and radius
    that ``synth_observations`` records for ``forward``."""
    for name, want in _observed_geometry(forward).items():
        have = getattr(obs, name)
        if not np.array_equal(have, want):  # None equals only None
            have, want = np.asarray(have).tolist(), np.asarray(want).tolist()
            raise ValueError(f"observation {name} {have} differs from the forward's {want}")


def check_noise_std(noise_std: float) -> None:
    """Raise ValueError unless ``noise_std`` is a usable synthetic noise level."""
    if not (isfinite(noise_std) and noise_std >= 0):
        raise ValueError("noise_std must be nonnegative and finite")


def synth_observations(
    forward: ForwardMap, truth, noise_std: float, seed: int = 0
) -> ObservationSet:
    """Noisy data from a known truth; noise_std = 0 gives exact data."""
    check_noise_std(noise_std)
    clean = forward(truth)
    meta = {"seed": seed, "clean_values": [float(v) for v in clean]}
    if noise_std > 0:
        noise = np.random.default_rng(seed).standard_normal(clean.size) * noise_std
        values, std = clean + noise, noise_std
    else:
        # noiseless data still needs a scale for the misfit; unit by convention
        values, std = clean, 1.0
        meta["noiseless"] = True
    return ObservationSet(values=values, noise_std=std, meta=meta, **_observed_geometry(forward))


@dataclass
class PosteriorRun:
    """pCN chain output with running posterior-mean field values."""

    prior: PriorSpec
    latent_chain: np.ndarray
    potentials: np.ndarray
    accepted: np.ndarray
    mean_values: np.ndarray

    @property
    def acceptance_rate(self) -> float:
        return float(np.mean(self.accepted))

    @property
    def chain_length(self) -> int:
        return int(self.latent_chain.shape[0])

    def posterior_mean_field(self):
        return self.prior.field_from_values(self.mean_values)

    def credible_band(self):
        """5% and 95% quantiles of the grid values over every 10th chain state."""
        vals = np.stack([self.prior.transformed_values(v) for v in self.latent_chain[::10]])
        return np.quantile(vals, 0.05, axis=0), np.quantile(vals, 0.95, axis=0)


# Longest pCN chain, and most floats in it: the chain keeps every state,
# chain_length x n floats, 8 MB per latent point at 10**6 states, 1 GB in all.
MAX_CHAIN_LENGTH = 10 ** 6
MAX_CHAIN_VALUES = 2 ** 27


def check_pcn_settings(chain_length: int, beta: float, burn_in: int, n: int) -> None:
    """Raise ValueError unless the pCN settings are usable with ``n`` latent points."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    if chain_length < 1:
        raise ValueError("chain_length must be positive")
    check_at_most("chain_length", chain_length, MAX_CHAIN_LENGTH)
    check_at_most("chain_length x n", chain_length * n, MAX_CHAIN_VALUES)
    if not 0 <= burn_in < chain_length:
        raise ValueError("burn_in must be in [0, chain_length)")


def run_pcn(
    prior: PriorSpec,
    obs: ObservationSet,
    forward: ForwardMap,
    chain_length: int,
    beta: float,
    seed: int,
    burn_in: int = 0,
) -> PosteriorRun:
    """Preconditioned Crank-Nicolson sampling of the posterior latent.

    Proposal v' = mean + sqrt(1 - beta^2)(v - mean) + beta * xi with xi a
    fresh prior fluctuation; acceptance probability min(1, exp(Phi - Phi')).
    beta = 0 reproduces the starting point forever.
    """
    check_pcn_settings(chain_length, beta, burn_in, prior.n)
    rng = np.random.default_rng(seed)
    factor = prior.factor
    contraction = sqrt(1.0 - beta * beta)

    v = prior.sample_latent(rng)
    phi = potential(prior.transform(v), obs, forward)
    values = prior.transformed_values(v)  # of the current state
    chain = np.empty((chain_length, prior.n))
    phis = np.empty(chain_length)
    accepted = np.zeros(chain_length, dtype=bool)
    mean_acc = np.zeros(prior.n)
    kept = 0
    for m in range(chain_length):
        xi = factor @ rng.standard_normal(prior.n)
        v_prop = prior.mean + contraction * (v - prior.mean) + beta * xi
        phi_prop = potential(prior.transform(v_prop), obs, forward)
        if log(rng.uniform()) < phi - phi_prop:
            v = v_prop
            phi = phi_prop
            values = prior.transformed_values(v)
            accepted[m] = True
        chain[m] = v
        phis[m] = phi
        if m >= burn_in:
            mean_acc += values
            kept += 1
    return PosteriorRun(
        prior=prior,
        latent_chain=chain,
        potentials=phis,
        accepted=accepted,
        mean_values=mean_acc / max(kept, 1),
    )


# ---------------------------------------------------------------------------
# Hellinger estimation


@dataclass
class HellingerEstimate:
    value: float
    stderr: float
    n_samples: int
    log_evidence_a: float
    log_evidence_b: float

    def to_dict(self) -> dict:
        return asdict(self)


def _logsumexp(x: np.ndarray) -> float:
    m = float(np.max(x))
    if m == -inf:
        return -inf
    return m + log(float(np.sum(np.exp(x - m))))


def _hellinger_from_potentials(phi_a: np.ndarray, phi_b: np.ndarray) -> HellingerEstimate:
    m = phi_a.size

    def estimate(pa: np.ndarray, pb: np.ndarray) -> tuple[float, float, float]:
        la, lb = -pa, -pb
        log_za = _logsumexp(la) - log(la.size)
        log_zb = _logsumexp(lb) - log(lb.size)
        if log_za < LOG_UNDERFLOW or log_zb < LOG_UNDERFLOW:
            raise FloatingPointError(
                "evidence estimate underflows (below 1e-300); "
                "likelihood too peaked for this sample size"
            )
        ra = np.exp(0.5 * (la - log_za))
        rb = np.exp(0.5 * (lb - log_zb))
        d2 = 0.5 * float(np.mean((ra - rb) ** 2))
        return sqrt(max(d2, 0.0)), log_za, log_zb

    value, log_za, log_zb = estimate(phi_a, phi_b)
    bounds = np.linspace(0, m, HELLINGER_BATCHES + 1).astype(int)
    batch_vals = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo >= 2:
            batch_vals.append(estimate(phi_a[lo:hi], phi_b[lo:hi])[0])
    batch_vals = np.asarray(batch_vals)
    stderr = (
        float(np.std(batch_vals, ddof=1) / sqrt(batch_vals.size))
        if batch_vals.size >= 2
        else inf
    )
    return HellingerEstimate(value, stderr, m, log_za, log_zb)


# Most prior samples of a Hellinger comparison, and most floats in their
# latents: n_samples x n floats, 8 MB per point at 10**6 samples, 1 GB in all.
MAX_HELLINGER_SAMPLES = 10 ** 6
MAX_HELLINGER_VALUES = 2 ** 27


def check_hellinger_samples(n_samples: int, n: int) -> None:
    """Raise ValueError unless ``n_samples`` latents of ``n`` points fill every
    batch-means batch twice and fit in memory."""
    if n_samples < 2 * HELLINGER_BATCHES:
        raise ValueError("n_samples too small for batch-means error bars")
    check_at_most("n_samples", n_samples, MAX_HELLINGER_SAMPLES)
    check_at_most("n_samples x n", n_samples * n, MAX_HELLINGER_VALUES)


def _common_latents(prior: PriorSpec, n_samples: int, seed: int) -> np.ndarray:
    """The prior samples that every posterior in one comparison shares."""
    check_hellinger_samples(n_samples, prior.n)
    return prior.sample_latent(np.random.default_rng(seed), size=n_samples)


def _forward_batch(args):
    forward, prior, latents = args
    return np.stack([forward(prior.transform(v)) for v in latents])


def evaluate_forward_on_samples(
    prior: PriorSpec,
    forward: ForwardMap,
    latents: np.ndarray,
    jobs: int = 1,
) -> np.ndarray:
    """G(u_m) for each latent row, optionally on a process pool."""
    if jobs <= 1 or latents.shape[0] < 4 * jobs:
        return np.stack([forward(prior.transform(v)) for v in latents])
    chunks = np.array_split(latents, jobs)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = list(pool.map(_forward_batch, [(forward, prior, c) for c in chunks]))
    return np.concatenate(parts)


def _potentials(g: np.ndarray, obs: ObservationSet) -> np.ndarray:
    r = obs.values[None, :] - g
    return np.sum(r * r, axis=1) / (2.0 * obs.noise_std ** 2)


def hellinger_between(
    prior: PriorSpec,
    obs: ObservationSet,
    forward_a: ForwardMap,
    forward_b: ForwardMap,
    n_samples: int,
    seed: int = 0,
    obs_b: Optional[ObservationSet] = None,
    jobs: int = 1,
) -> HellingerEstimate:
    """Hellinger distance between two posteriors sharing the same prior.

    Uses one common set of prior samples for both sides, so identical
    forward maps (and identical data) give exactly zero.  Raises
    FloatingPointError when an evidence estimate falls below 1e-300.
    """
    latents = _common_latents(prior, n_samples, seed)
    g_a = evaluate_forward_on_samples(prior, forward_a, latents, jobs)
    g_b = g_a if forward_b is forward_a else evaluate_forward_on_samples(
        prior, forward_b, latents, jobs
    )
    phi_a = _potentials(g_a, obs)
    phi_b = _potentials(g_b, obs if obs_b is None else obs_b)
    return _hellinger_from_potentials(phi_a, phi_b)


@dataclass
class StudyRow:
    label: float
    estimate: HellingerEstimate
    forward_discrepancy: float

    @property
    def hellinger(self) -> float:
        return self.estimate.value

    @property
    def stderr(self) -> float:
        return self.estimate.stderr


@dataclass
class StudyReport:
    """Posterior-approximation ladder against a fixed reference forward."""

    rows: list
    control_value: float
    fitted_constant: float
    monotone_nonincreasing: bool
    meta: dict = field(default_factory=dict)


def posterior_convergence_study(
    prior: PriorSpec,
    obs: ObservationSet,
    ladder: Sequence[tuple[float, ForwardMap]],
    reference: ForwardMap,
    n_samples: int,
    seed: int = 0,
    jobs: int = 1,
) -> StudyReport:
    """Hellinger distances posterior(approx) vs posterior(reference).

    All rungs share one common sample set.  The report records the mean
    forward discrepancy per rung, the fitted constant
    max d / sqrt(discrepancy), the A = B control (always exactly 0), and
    whether the distances decrease along the ladder as given.
    """
    latents = _common_latents(prior, n_samples, seed)
    g_ref = evaluate_forward_on_samples(prior, reference, latents, jobs)
    phi_ref = _potentials(g_ref, obs)
    control = _hellinger_from_potentials(phi_ref, phi_ref).value
    rows = []
    for label, fwd in ladder:
        g_n = evaluate_forward_on_samples(prior, fwd, latents, jobs)
        phi_n = _potentials(g_n, obs)
        disc = float(np.mean(np.abs(g_n - g_ref)))
        estimate = _hellinger_from_potentials(phi_n, phi_ref)
        rows.append(StudyRow(float(label), estimate, disc))
    dists = np.asarray([r.hellinger for r in rows])
    discs = np.asarray([max(r.forward_discrepancy, 1e-300) for r in rows])
    fitted = float(np.max(dists / np.sqrt(discs))) if rows else 0.0
    return StudyReport(
        rows=rows,
        control_value=control,
        fitted_constant=fitted,
        monotone_nonincreasing=bool(np.all(np.diff(dists) <= 1e-14)),
        meta={"n_samples": n_samples, "seed": seed},
    )


def place_observation_points(
    sol: FrontTrackingSolution, times: Sequence[float], x_range: tuple[float, float]
) -> list[tuple[float, float]]:
    """One observation point per time, outside shock neighborhoods.

    Scans 400 points of x_range at each time and keeps the candidate
    farthest from every shock stronger than 0.05; errors out if no
    candidate is farther than 0.02 from them.
    """
    catalog = sol.shock_catalog(0.05)
    points = []
    xs = np.linspace(x_range[0], x_range[1], 400)
    for t in times:
        dists = np.asarray([catalog.min_distance(x, t) for x in xs])
        k = int(np.argmax(dists))
        if dists[k] <= 0.02:
            raise ValueError(f"no observation point at t={t} clears the shock set by 0.02")
        points.append((float(xs[k]), float(t)))
    return points


def shock_containment_fraction(
    prior: PriorSpec,
    approx_forward,
    ref_forward,
    latents: np.ndarray,
    shock_threshold: float,
    clearance: float,
) -> float:
    """Fraction of samples whose strong approximate shocks stay within
    ``clearance`` of the reference run's strong-shock set."""
    ok = 0
    for v in latents:
        sample = prior.transform(v)
        sol_a = approx_forward.solve(sample)
        sol_r = ref_forward.solve(sample)
        cat_r = sol_r.shock_catalog(shock_threshold)
        cat_a = sol_a.shock_catalog(shock_threshold)
        segments = zip(cat_a.x0.tolist(), cat_a.t0.tolist(), cat_a.x1.tolist(), cat_a.t1.tolist())
        contained = all(
            cat_r.covers(xq, tq, clearance)
            for x0, t0, x1, t1 in segments
            for xq, tq in ((x0, t0), (0.5 * (x0 + x1), 0.5 * (t0 + t1)), (x1, t1))
        )
        ok += contained
    return ok / max(len(latents), 1)
