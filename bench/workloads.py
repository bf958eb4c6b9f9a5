"""The three seeded workloads: inputs, one op, and the checks on its outputs.

Every workload builds all of its inputs from the workload seed in its
constructor, so the program only ever sees generated inputs.  ``op(i)``
runs op number ``i``, checks its outputs, raises ``CheckError`` when a
check fails, and returns the counts that must repeat exactly for a given
seed.  Calls into ``shockline`` go through module attributes
(``ft.evolve``, ``cli.main`` ...) at call time, so the traced run sees
them through its wrappers.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile

import numpy as np

from shockline import bayes, cli, filippov, flux, front_tracking as ft

VELOCITY_SPEC = {"kind": "linear-traffic", "w_max": 1.0, "rho_max": 1.0}
# Monte Carlo seeds of the four invert variants, the same for every workload
# seed.  Their 20 prior samples cost about the same at the level-10
# reference, and with them the [4, 6] Hellinger ladder stayed decreasing,
# as the CLI's --check requires, for the data of 1000 workload seeds.
MC_SEEDS = (100, 116, 131, 162)


class CheckError(Exception):
    """An output check of one op failed."""


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _bit_reversal(n: int) -> np.ndarray:
    """Permutation of range(n), n a power of two, whose every prefix of
    length 2**k visits the ranks evenly."""
    bits = n.bit_length() - 1
    return np.asarray([int(format(j, f"0{bits}b")[::-1], 2) for j in range(n)])


def _stratified(tv: np.ndarray, size: int) -> np.ndarray:
    """Indices of ``size`` candidates that cover the total-variation
    quantiles of the candidate pool evenly, in bit-reversal order.

    Solve cost grows with the total variation of the data.  Taking every
    k-th candidate by total variation, in an order whose prefixes stay
    spread over the ranks, keeps the cost mix of a run close to the same
    for every seed and every run length.
    """
    step = tv.size // size
    by_tv = np.argsort(tv, kind="stable")[step // 2::step][:size]
    return by_tv[_bit_reversal(size)]


class Workload:
    """One closed-loop caller; ops run back to back in one process."""

    name = ""
    cycle = 1  # runs stop only at whole cycles
    window = 1  # leading ops whose counts are recorded and must repeat
    # test hook: called with an op's outputs before they are checked
    corrupt = None

    def warm_up(self) -> None:
        self.op(0)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# fine_solve


def check_fine(out: dict) -> None:
    """Conservation, TVD and maximum principle of the slices; a well-formed
    car path."""
    q, fl, T = out["initial"], out["flux"], max(out["times"])
    bp = q.breakpoints
    reach = fl.lipschitz_norm * T + 1.0
    window = (float(bp[0]) - reach, float(bp[-1]) + reach)
    m0 = q.integral(*window)
    rate = fl(q.far_left) - fl(q.far_right)
    tv0, lo, hi = q.total_variation(), q.min_value(), q.max_value()
    for t, s in zip(out["times"], out["slices"]):
        drift = s.integral(*window) - m0 - rate * t
        if not abs(drift) <= 1e-10:
            raise CheckError(f"mass drift {drift:.3e} at t={t}")
        if not s.total_variation() <= tv0 + 1e-10:
            raise CheckError(f"total variation grew by t={t}")
        if not (s.min_value() >= lo - 1e-12 and s.max_value() <= hi + 1e-12):
            raise CheckError(f"new extremum at t={t}")
    traj = out["track"]
    for name in ("times", "positions", "speeds"):
        if not np.all(np.isfinite(getattr(traj, name))):
            raise CheckError(f"non-finite track {name}")
    if not np.all(np.diff(traj.times) > 0):
        raise CheckError("track node times do not increase")


class FineSolve(Workload):
    """Exact solves that alternate two scenario kinds.

    Even ops: level-10 random traffic data on [-1, 2], 4-8 jumps, T = 2.
    Odd ops: a level-12 draw from the criterion-16 prior (n = 16 on
    [-1, 1.5]), T = 1.2, car from (-0.5, 0.01): criterion 16's reference
    forward.
    """

    name = "fine_solve"
    window = 32
    per_kind = 256
    pool_factor = 8

    def __init__(self, seed: int, workdir: str):
        self.velocity = flux.LinearTrafficVelocity(1.0, 1.0)
        self.fluxes = {lv: flux.traffic_flux_from_velocity(self.velocity, lv) for lv in (10, 12)}
        self.items = [self._traffic(_rng(seed, 1)), self._prior(_rng(seed, 2))]
        self.seen: dict[int, dict] = {}

    def _traffic(self, rng) -> list:
        n = self.per_kind * self.pool_factor
        jumps = rng.integers(4, 9, size=n)
        cands, tv = [], np.empty(n)
        for k in range(n):
            bps = np.sort(rng.uniform(-1.0, 2.0, jumps[k]))
            vals = rng.uniform(0.02, 0.98, jumps[k] + 1)
            x0 = float(rng.uniform(-1.0, 0.0))
            cands.append((bps, vals, x0))
            tv[k] = np.sum(np.abs(np.diff(np.floor(vals * 2.0 ** 10))))
        return [
            (10, 2.0, ft.StepFunction(cands[k][0], cands[k][1]), cands[k][2])
            for k in _stratified(tv, self.per_kind)
        ]

    def _prior(self, rng) -> list:
        prior = bayes.PriorSpec(kind="initial-field", n=16, length_scale=0.5,
                                window=(-1.0, 1.5))
        latents = prior.sample_latent(rng, size=self.per_kind * self.pool_factor)
        values = np.floor(bayes.latent_to_unit_interval(latents) * 2.0 ** 12)
        tv = np.sum(np.abs(np.diff(values, axis=1)), axis=1)
        return [(12, 1.2, prior.transform(latents[k]), -0.5) for k in _stratified(tv, self.per_kind)]

    def op(self, i: int) -> dict:
        kind = self.items[i % 2]
        key = i % (2 * self.per_kind)
        level, T, rho, x0 = kind[(i // 2) % self.per_kind]
        fl = self.fluxes[level]
        q = ft.quantize_step(rho, level)
        sol = ft.evolve(q, fl, T)
        times = (0.5 * T, T)
        out = {
            "initial": q,
            "flux": fl,
            "times": times,
            "slices": [sol.slice(t) for t in times],
            "track": filippov.track(sol, self.velocity, x0, 0.01, T),
        }
        if self.corrupt is not None:
            self.corrupt(out)
        check_fine(out)
        counts = {
            f"l{level}.events": len(sol.events),
            f"l{level}.collisions": sol.collision_count,
            f"l{level}.fronts": sol.front_count,
            "track.nodes": int(out["track"].times.size),
        }
        if self.seen.setdefault(key, counts) != counts:
            raise CheckError(f"scenario {key} gave other counts on a repeat: {counts}")
        return counts


# ---------------------------------------------------------------------------
# pcn_posterior


def check_chain(run) -> None:
    """Every potential and every chain state is finite."""
    if not np.all(np.isfinite(run.potentials)):
        raise CheckError("non-finite potential in the chain")
    if not np.all(np.isfinite(run.latent_chain)):
        raise CheckError("non-finite chain state")
    if not np.all(np.isfinite(run.mean_values)):
        raise CheckError("non-finite posterior mean")


class PcnPosterior(Workload):
    """Short pCN chains on the criterion-15 problem, one seed per op.

    Prior n = 64 on [-1, 2]; TrajectoryForward at level 6 with the car
    from (-0.5, 0.01) observed at 0.3..1.5; gamma = 0.01; beta = 0.1.
    Each chain starts from its own prior draw.
    """

    name = "pcn_posterior"
    window = 16
    chain_length = 40

    def __init__(self, seed: int, workdir: str):
        velocity = flux.LinearTrafficVelocity(1.0, 1.0)
        self.prior = bayes.PriorSpec(kind="initial-field", n=64, length_scale=0.5,
                                     window=(-1.0, 2.0))
        self.forward = bayes.TrajectoryForward(
            velocity=velocity, level=6, x0=-0.5, t0=0.01, times=(0.3, 0.6, 0.9, 1.2, 1.5)
        )
        rng = _rng(seed, 3)
        truth = self.prior.transform(self.prior.sample_latent(rng))
        self.obs = bayes.synth_observations(self.forward, truth, 0.01,
                                            seed=int(rng.integers(2 ** 31)))
        self.chain_seeds = np.random.SeedSequence([seed, 4]).generate_state(4096)

    def op(self, i: int) -> dict:
        seed = int(self.chain_seeds[i % self.chain_seeds.size])
        run = bayes.run_pcn(self.prior, self.obs, self.forward, self.chain_length, 0.1, seed)
        out = {"run": run}
        if self.corrupt is not None:
            self.corrupt(out)
        check_chain(out["run"])
        return {"pcn.accepted": int(np.sum(run.accepted))}


# ---------------------------------------------------------------------------
# cli_roundtrip


def check_cli(out: dict, reference) -> None:
    """Exit code 0 under --check, and artifacts byte-identical to the first
    cycle's artifacts of the same config."""
    if out["code"] != 0:
        raise CheckError(f"shockline {out['command']} exited with {out['code']}")
    if reference is None:
        return
    if sorted(out["artifacts"]) != sorted(reference):
        raise CheckError(f"{out['command']} wrote other files than in the first cycle")
    for name, data in out["artifacts"].items():
        if hashlib.sha256(data).digest() != reference[name]:
            raise CheckError(f"{out['command']} artifact {name} differs from the first cycle")


class CliRoundtrip(Workload):
    """In-process ``shockline.cli.main([..., "--check"])`` calls, each into a
    fresh output directory, cycling solve, track, stability, viscous, synth,
    invert.  Four config variants take turns cycle by cycle.

    The invert config's Monte Carlo seed is a constant per variant, so its
    Hellinger ladder draws the same prior samples, and costs the same, for
    every workload seed; the workload seed sets the scenario data, the
    car, the truth and the observation noise.
    """

    name = "cli_roundtrip"
    commands = ("solve", "track", "stability", "viscous", "synth", "invert")
    cycle = len(commands)
    variants = 4
    window = cycle * variants

    def __init__(self, seed: int, workdir: str):
        os.environ.pop("SHOCKLINE_OUT", None)
        self.root = tempfile.mkdtemp(prefix="cli-", dir=workdir)
        rng = _rng(seed, 5)
        self.configs = []
        for v in range(self.variants):
            paths = {}
            for cmd, cfg in self._scenario(rng, v).items():
                paths[cmd] = os.path.join(self.root, f"v{v}-{cmd}.json")
                with open(paths[cmd], "w", encoding="utf-8") as fh:
                    json.dump(cfg, fh)
            self.configs.append(paths)
        self.reference: dict[tuple, dict] = {}

    @staticmethod
    def _scenario(rng, variant: int) -> dict:
        # stop-and-go traffic: dense and light platoons alternate, so every
        # variant has about as many shocks and fans, and costs about the same
        jumps = 12
        spacing = 3.0 / jumps
        bps = np.linspace(-1.0, 2.0, jumps) + rng.uniform(-0.4, 0.4, jumps) * spacing
        light = rng.uniform(0.1, 0.4, jumps + 1)
        dense = rng.uniform(0.6, 0.9, jumps + 1)
        vals = np.where(np.arange(jumps + 1) % 2 == 0, light, dense)
        initial = {"breakpoints": bps.tolist(), "values": vals.tolist()}
        base = {"velocity": VELOCITY_SPEC, "initial": initial, "horizon": 2.0,
                "level": 8, "times": [1.0, 2.0], "seed": int(rng.integers(2 ** 31))}
        car = {"x0": float(rng.uniform(-1.3, -1.1)), "t0": 0.1}
        inversion = {
            "prior": {"kind": "initial-field", "n": 16, "length_scale": 0.5,
                      "window": [-1.0, 1.5]},
            "forward": {"kind": "trajectory", "times": [0.4, 0.8, 1.2]},
            "synthetic": {"truth_latent": rng.standard_normal(16).tolist(),
                          "noise_std": 0.05, "seed": int(rng.integers(2 ** 31))},
        }
        invert_base = {"velocity": VELOCITY_SPEC,
                       "initial": {"breakpoints": [0.0], "values": [0.3, 0.7]},
                       "horizon": 1.2, "level": 5, "seed": MC_SEEDS[variant],
                       "particle": {"x0": -0.5, "t0": 0.01}}
        return {
            "solve": base,
            "track": dict(base, particle=car),
            "stability": dict(base, particle=car, stability={
                "target": "initial", "family": "shift",
                "epsilons": [0.125, 0.0625, 0.03125, 0.015625]}),
            "viscous": dict(base, viscous={
                "epsilon": 0.0125, "n_cells": 2000, "window": [-3.5, 4.5],
                "snapshot_times": [1.0, 2.0]}),
            "synth": dict(invert_base, inversion=inversion),
            "invert": dict(invert_base, inversion=dict(
                inversion,
                sampler={"chain_length": 40, "beta": 0.2},
                ladder={"levels": [4, 6], "reference": 10, "n_samples": 20},
            )),
        }

    def warm_up(self) -> None:
        out_dir = os.path.join(self.root, "warm-up")
        cli.main(["solve", "--config", self.configs[0]["solve"], "--out", out_dir])
        shutil.rmtree(out_dir)

    def op(self, i: int) -> dict:
        command = self.commands[i % self.cycle]
        variant = (i // self.cycle) % self.variants
        out_dir = os.path.join(self.root, f"op-{i}")
        try:
            code = cli.main([command, "--config", self.configs[variant][command],
                             "--out", out_dir, "--check"])
            artifacts = {}
            if os.path.isdir(out_dir):
                for name in sorted(os.listdir(out_dir)):
                    with open(os.path.join(out_dir, name), "rb") as fh:
                        artifacts[name] = fh.read()
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        out = {"command": command, "code": code, "artifacts": artifacts}
        if self.corrupt is not None:
            self.corrupt(out)
        key = (variant, command)
        check_cli(out, self.reference.get(key))
        self.reference.setdefault(
            key, {n: hashlib.sha256(d).digest() for n, d in out["artifacts"].items()}
        )
        return {
            "config.bytes_written": sum(len(d) for d in out["artifacts"].values()),
            f"cli.{command}.artifacts": len(out["artifacts"]),
        }

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {w.name: w for w in (FineSolve, PcnPosterior, CliRoundtrip)}
