"""The boundaries the benchmark's traced run wraps must exist where it looks.

``bench/tracing.py`` wraps functions by module attribute and methods by
their class's own ``__dict__``; a rename, a move or an inherited method
would otherwise only surface as a failing ``bench/run.py --trace 1``.
"""

import importlib.util
import inspect
import json
import os
import subprocess
import sys

import shockline

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_boundaries_exist():
    functions, methods = load_tracing()._targets()
    for module, attr, _, _ in functions:
        assert inspect.isfunction(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    for cls, attr, _, _ in methods:
        assert attr in cls.__dict__, f"{cls.__name__}.{attr} is not defined on the class"


# Installs the wrappers in a fresh interpreter, since they replace module
# attributes for the rest of the process, and prints the span count by name
# after each of two runs.  The first is a level-4 traffic solve and track:
# its concave fan is read off the flux's chain and its convex chord off the
# chain's two ends, so it calls no envelope.  The second is a fan across the
# inflection of a non-concave rho*w(rho) flux, whose concave envelope must
# bridge the convex kink.
TRACED_RUN = """
import importlib.util, json, sys
import numpy as np
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)
from shockline import filippov, flux, front_tracking

def counts():
    calls = np.bincount(tracer.arrays()["name"], minlength=len(tracer.names))
    return dict(zip(tracer.names, calls.tolist()))

f = flux.piecewise_linearize(flux.TrafficQuadraticFlux(), 4)
sol = front_tracking.evolve(front_tracking.StepFunction([0.0, 0.5], [0.75, 0.25, 0.5]), f, 1.0)
filippov.track(sol, flux.LinearTrafficVelocity(), -0.5, 0.1)
runs = [counts()]
w = flux.TableVelocity([0.0, 0.5, 1.0], [2.0, 0.25, 0.0])
g = flux.traffic_flux_from_velocity(w, 4)
front_tracking.evolve(front_tracking.StepFunction([0.0], [0.75, 0.25]), g, 1.0)
runs.append(counts())
print(json.dumps(runs))
"""


def test_traced_boundaries_are_called():
    src = os.path.dirname(os.path.dirname(shockline.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, TRACING],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    calls, total = json.loads(run.stdout)
    assert calls["flux.envelope"] == 0
    assert calls["front_tracking.evolve"] == 1
    assert calls["filippov.track"] == 1
    assert total["flux.envelope"] > calls["flux.envelope"]
    assert total["front_tracking.evolve"] == 2


# Runs one small ``cli.main([..., "--check"])`` of each subcommand with the
# wrappers installed, as the traced benchmark run does, and prints the exit
# codes and how often each note was taken.  A note reads the result or the
# arguments of the call it wraps (a field's horizon, dt and x; a Hellinger
# result's sample count; the forward and latents of a batch; the text of a
# write), so a reshaped result or signature makes the run fail here.
TRACED_CLI_RUN = """
import importlib.util, json, os, sys
import numpy as np
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)
from shockline import cli

codes = {}
for command, path in json.loads(sys.argv[2]).items():
    codes[command] = cli.main([command, "--config", path, "--out",
                               os.path.join(sys.argv[3], command), "--check"])
taken = np.bincount(np.frombuffer(tracer.note_key, dtype=np.int32),
                    minlength=len(tracer.note_names))
print(json.dumps({"codes": codes, "notes": dict(zip(tracer.note_names, taken.tolist()))}))
"""

VELOCITY = {"kind": "linear-traffic", "w_max": 1.0, "rho_max": 1.0}
SCENARIO = {"velocity": VELOCITY, "horizon": 1.0, "level": 6, "times": [0.5, 1.0],
            "initial": {"breakpoints": [0.0, 0.5], "values": [0.5, 0.75, 0.375]},
            "particle": {"x0": -0.5, "t0": 0.1}}
INVERSION = {"prior": {"kind": "initial-field", "n": 8, "window": [-1.0, 1.5]},
             "forward": {"kind": "trajectory", "times": [0.5, 1.0]},
             "synthetic": {"truth_latent": [0.4, 0.4, -0.3, -0.3, 0.1, 0.1, 0.0, 0.0],
                           "noise_std": 0.05, "seed": 5}}
CLI_CONFIGS = {
    "solve": SCENARIO,
    "track": SCENARIO,
    "stability": dict(SCENARIO, stability={"target": "initial", "family": "shift",
                                           "epsilons": [0.125, 0.0625, 0.03125]}),
    "viscous": dict(SCENARIO, viscous={"epsilon": 0.05, "n_cells": 100}),
    "synth": dict(SCENARIO, inversion=INVERSION),
    "invert": dict(SCENARIO, inversion=dict(
        INVERSION, sampler={"chain_length": 10, "beta": 0.2},
        ladder={"levels": [3, 4], "reference": 5, "n_samples": 20})),
}


def test_every_note_survives_a_traced_run_of_each_command(tmp_path):
    paths = {}
    for command, cfg in CLI_CONFIGS.items():
        paths[command] = str(tmp_path / f"{command}.json")
        with open(paths[command], "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
    src = os.path.dirname(os.path.dirname(shockline.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("SHOCKLINE_OUT", None)
    run = subprocess.run(
        [sys.executable, "-c", TRACED_CLI_RUN, TRACING, json.dumps(paths), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["codes"] == dict.fromkeys(CLI_CONFIGS, 0), run.stderr
    for note in ("viscous.cell_steps", "pcn.steps", "hellinger.samples",
                 "hellinger.forward_evals", "config.bytes_written", "track.nodes",
                 "evolve.events"):
        assert result["notes"].get(note, 0) > 0, note


# Runs a short pCN chain on a level-6 trajectory forward with the wrappers
# installed, as the traced pcn_posterior run does, and prints the names of
# each forward span's direct children, the transform and track span
# counts, and the number of track spans that took a node-count note.
TRACED_FORWARD_RUN = """
import importlib.util, json, sys
import numpy as np
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)
from shockline import bayes, flux

prior = bayes.PriorSpec(kind="initial-field", n=64, length_scale=0.5, window=(-1.0, 2.0))
forward = bayes.TrajectoryForward(velocity=flux.LinearTrafficVelocity(1.0, 1.0), level=6,
                                  x0=-0.5, t0=0.01, times=(0.3, 0.6, 0.9, 1.2, 1.5))
truth = prior.transform(prior.sample_latent(np.random.default_rng(1)))
obs = bayes.synth_observations(forward, truth, 0.01, seed=2)
tracer.reset()
bayes.run_pcn(prior, obs, forward, 6, 0.1, 3)
sp = tracer.arrays()
names = [tracer.names[i] for i in sp["name"].tolist()]
parents = sp["parent"].tolist()
forwards = [i for i, name in enumerate(names) if name == "bayes.forward"]
key = tracer.note_names.index("track.nodes") if "track.nodes" in tracer.note_names else -1
noted = np.frombuffer(tracer.note_span, dtype=np.int32)[
    np.frombuffer(tracer.note_key, dtype=np.int32) == key]
print(json.dumps({
    "children": [sorted(names[j] for j, p in enumerate(parents) if p == i) for i in forwards],
    "transforms": names.count("bayes.transform"),
    "tracks": names.count("filippov.track"),
    "noted_tracks": sorted(set(names[j] for j in noted.tolist())) + [int(noted.size)],
}))
"""


def test_a_traced_forward_keeps_its_layer_split():
    src = os.path.dirname(os.path.dirname(shockline.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", TRACED_FORWARD_RUN, TRACING],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    # the first state and six proposals: one forward each
    assert len(result["children"]) == 7
    for children in result["children"]:
        assert children == ["filippov.track", "front_tracking.evolve",
                            "front_tracking.quantize_step"]
    assert result["transforms"] == result["tracks"] == 7
    assert result["noted_tracks"] == ["filippov.track", 7]


# Checks one level-8 track with the wrappers installed, as the traced
# cli_roundtrip run does, and prints the span count by name.  The check's
# batched lookup is private, so only its fallbacks reach evaluate_field.
TRACED_CHECK_RUN = """
import importlib.util, json, sys
import numpy as np
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)
from shockline import filippov, flux, front_tracking

w = flux.LinearTrafficVelocity()
data = front_tracking.StepFunction([-0.5, 0.0, 0.5, 1.0], [0.25, 0.75, 0.0, 0.875, 0.375])
sol = front_tracking.evolve(data, flux.traffic_flux_from_velocity(w, 8), 2.0)
traj = filippov.track(sol, w, -1.0, 0.1)
tracer.reset()
worst = filippov.check_speed_inclusion(traj, sol, w)
calls = np.bincount(tracer.arrays()["name"], minlength=len(tracer.names))
print(json.dumps({"worst": worst, "segments": int(traj.speeds.size),
                  "calls": dict(zip(tracer.names, calls.tolist()))}))
"""


def test_a_traced_speed_inclusion_check_opens_one_span():
    src = os.path.dirname(os.path.dirname(shockline.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", TRACED_CHECK_RUN, TRACING],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["segments"] > 10
    assert result["calls"]["filippov.speed_inclusion"] == 1
    assert result["calls"].get("front_tracking.evaluate_field", 0) < result["segments"]
    # the tracer wraps evaluate_field by name; its signature stays (x, t)
    params = inspect.signature(shockline.FrontTrackingSolution.evaluate_field).parameters
    assert list(params) == ["self", "x", "t"]
