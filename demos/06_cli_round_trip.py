"""Driving the command-line interface end to end.

Writes a scenario config, solves it, restarts from a saved slice, tracks a
car, and runs the synthetic-data inversion loop, all through the same entry
point the installed `shockline` command uses.  Restarting from the t = 1
slice reproduces the direct t = 2 slice exactly: the evolution is a
semigroup and the CSV round trip is lossless.
"""

import json
import pathlib
import tempfile

from shockline import l1_distance
from shockline.cli import main
from shockline.config import read_slice_csv

BASE = pathlib.Path(tempfile.mkdtemp(prefix="shockline-demo-"))
VELOCITY = {"kind": "linear-traffic", "w_max": 1.0, "rho_max": 1.0}


def write_config(name, payload):
    path = BASE / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


solve_cfg = {
    "velocity": VELOCITY,
    "initial": {"breakpoints": [0.0, 0.5], "values": [0.5, 0.75, 0.375]},
    "horizon": 2.0,
    "level": 8,
    "times": [1.0, 2.0],
}
cfg = write_config("solve.json", solve_cfg)
code = main(["solve", "--config", cfg, "--out", str(BASE / "run"), "--check"])
print(f"solve exit code {code}, outputs:")
for p in sorted((BASE / "run").iterdir()):
    print(f"  {p.name}")
events = json.loads((BASE / "run" / "events.json").read_text())
print(f"  {len(events['events'])} events, {events['collisions']} collisions")

mid = read_slice_csv(str(BASE / "run" / "slice_00.csv"))
restart_cfg = dict(solve_cfg, horizon=1.0, times=[1.0],
                   initial={"breakpoints": list(mid.breakpoints),
                            "values": list(mid.values)})
main(["solve", "--config", write_config("restart.json", restart_cfg),
      "--out", str(BASE / "restart")])
direct = read_slice_csv(str(BASE / "run" / "slice_01.csv"))
again = read_slice_csv(str(BASE / "restart" / "slice_00.csv"))
print(f"restart gap {l1_distance(direct, again, (-4.0, 5.0)):.1e}")

track_cfg = dict(solve_cfg, particle={"x0": -0.5, "t0": 0.1})
main(["track", "--config", write_config("track.json", track_cfg),
      "--out", str(BASE / "track")])
lines = (BASE / "track" / "trajectory.csv").read_text().splitlines()
print(f"track wrote {len(lines) - 1} nodes; last: {lines[-1]}")

truth_latent = [0.3, -0.5, 1.2, 0.8, -1.1, 0.4, 0.0, -0.7,
                0.9, 1.5, -0.2, 0.6, -1.3, 0.1, 0.7, -0.4]
invert_cfg = {
    "velocity": VELOCITY,
    "initial": {"breakpoints": [0.0], "values": [0.5, 0.5]},
    "horizon": 2.0,
    "level": 5,
    "particle": {"x0": -0.5, "t0": 0.01},
    "inversion": {
        "prior": {"kind": "initial-field", "n": 16, "length_scale": 0.5,
                  "window": [-1.0, 1.5]},
        "forward": {"kind": "trajectory", "times": [0.5, 1.0, 1.5]},
        "synthetic": {"noise_std": 0.05, "seed": 5,
                      "truth_latent": truth_latent},
        "sampler": {"chain_length": 400, "beta": 0.2, "burn_in": 100},
    },
}
main(["synth", "--config", write_config("synth.json", invert_cfg),
      "--out", str(BASE / "data")])
invert_cfg["inversion"]["observations_file"] = str(
    BASE / "data" / "observations.json"
)
main(["invert", "--config", write_config("invert.json", invert_cfg),
      "--out", str(BASE / "posterior")])
summary = json.loads((BASE / "posterior" / "summary.json").read_text())
print(f"invert acceptance {summary['acceptance_rate']:.3f}, "
      f"chain of {summary['chain_length']} steps")
print(f"\nartifacts under {BASE}")
