"""End-to-end command-line runs against temp scenario files."""

import json
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shockline import bayes
from shockline.bayes import (
    MAX_CHAIN_LENGTH,
    MAX_CHAIN_VALUES,
    MAX_HELLINGER_SAMPLES,
    MAX_HELLINGER_VALUES,
    MAX_PRIOR_N,
    PriorSpec,
    TrajectoryForward,
    ViscousTrajectoryForward,
    hellinger_between,
    run_pcn,
    synth_observations,
)
from shockline import cli, experiments
from shockline.cli import main
from shockline.config import ConfigError, load_scenario, read_slice_csv, write_slice_csv
from shockline.flux import (
    MAX_LEVEL,
    BurgersQuadraticFlux,
    LinearTrafficVelocity,
    PiecewiseLinearFlux,
    TableVelocity,
    TrafficQuadraticFlux,
)
from shockline.front_tracking import StepFunction, l1_distance
from shockline.viscous import (
    CFL_SAFETY,
    MAX_CELLS,
    MAX_LEVEL_VALUES,
    MAX_STEPS,
    march_grid,
    solve_viscous,
)

VELOCITY = {"kind": "linear-traffic", "w_max": 1.0, "rho_max": 1.0}

SOLVE_CFG = {
    "velocity": VELOCITY,
    "initial": {"breakpoints": [0.0, 0.5], "values": [0.5, 0.75, 0.375]},
    "horizon": 2.0,
    "level": 8,
    "times": [1.0, 2.0],
    "seed": 3,
}

TRACK_CFG = dict(SOLVE_CFG, particle={"x0": -0.5, "t0": 0.1})

STABILITY_CFG = dict(
    TRACK_CFG,
    stability={"target": "initial", "family": "shift",
               "epsilons": [0.125, 0.0625, 0.03125]},
)

TABLE_VELOCITY = {"kind": "table", "breakpoints": [0.0, 0.5, 1.0], "values": [1.0, 0.5, 0.0]}
TABLE_STABILITY_CFG = dict(
    STABILITY_CFG, velocity=TABLE_VELOCITY,
    stability={"target": "velocity", "family": "tilt", "epsilons": [0.125, 0.0625, 0.03125]},
)

VISCOUS_CFG = {
    "velocity": VELOCITY,
    "initial": {"breakpoints": [0.0], "values": [0.3, 0.7]},
    "horizon": 1.0,
    "level": 8,
    "viscous": {"epsilon": 0.05, "n_cells": 400, "snapshot_times": [0.5, 1.0]},
}

INVERT_CFG = {
    "velocity": VELOCITY,
    "initial": {"breakpoints": [0.0], "values": [0.3, 0.7]},
    "horizon": 1.5,
    "level": 5,
    "seed": 11,
    "particle": {"x0": -0.5, "t0": 0.01},
    "inversion": {
        "prior": {"kind": "initial-field", "n": 16, "window": [-1.0, 1.5]},
        "forward": {"kind": "trajectory", "times": [0.5, 1.0, 1.5]},
        "synthetic": {
            "truth_latent": [0.4, 0.4, 0.4, 0.4, -0.3, -0.3, -0.3, -0.3,
                             0.1, 0.1, 0.1, 0.1, 0.0, 0.0, 0.0, 0.0],
            "noise_std": 0.05,
            "seed": 5,
        },
        "sampler": {"chain_length": 150, "beta": 0.2},
    },
}

LADDER_CFG = dict(INVERT_CFG, inversion=dict(
    INVERT_CFG["inversion"],
    sampler={"chain_length": 20, "beta": 0.2},
    ladder={"levels": [3, 4], "reference": 6, "n_samples": 20},
))


@pytest.fixture(autouse=True)
def clean_out_env(monkeypatch):
    monkeypatch.delenv("SHOCKLINE_OUT", raising=False)


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_dir_bytes(d):
    return {name: (d / name).read_bytes() for name in sorted(os.listdir(d))}


def test_solve_writes_slices_events_and_summary(tmp_path):
    cfg = write_cfg(tmp_path, SOLVE_CFG)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--check"]) == 0
    for name in ("slice_00.csv", "slice_01.csv", "events.json", "summary.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["slices"] == ["slice_00.csv", "slice_01.csv"]
    events = json.loads((out / "events.json").read_text())
    assert events["collisions"] >= 0
    assert len(events["events"]) >= 1


def test_solve_is_byte_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, SOLVE_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out_b)]) == 0
    assert read_dir_bytes(out_a) == read_dir_bytes(out_b)


def test_env_var_overrides_out_flag(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, SOLVE_CFG)
    ignored, used = tmp_path / "ignored", tmp_path / "used"
    monkeypatch.setenv("SHOCKLINE_OUT", str(used))
    assert main(["solve", "--config", cfg, "--out", str(ignored)]) == 0
    assert (used / "summary.json").exists()
    assert not ignored.exists()


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_missing_config_exits_2(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_zero_release_time_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, dict(TRACK_CFG, particle={"x0": -1.0, "t0": 0.0}))
    assert main(["track", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("block", [
    {"velocity": {"kind": "table", "breakpoints": [0.0, 0.5, 1.0], "values": [1.0, np.nan, 0.0]}},
    {"flux": {"kind": "piecewise-linear", "breakpoints": [0.0, 0.5, 1.0],
              "values": [0.0, np.inf, 0.0]}},
    {"flux": {"kind": "piecewise-linear", "breakpoints": [0.0, 0.5, np.inf],
              "values": [0.0, 0.25, 0.0]}},
], ids=["nan-velocity-value", "inf-flux-value", "inf-flux-breakpoint"])
def test_non_finite_nodes_exit_2(tmp_path, block):
    data = {k: v for k, v in SOLVE_CFG.items() if k != "velocity"}
    cfg = write_cfg(tmp_path, dict(data, **block))
    text = (tmp_path / "cfg.json").read_text()
    assert "NaN" in text or "Infinity" in text  # json writes them and parses them back
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command, cfg, message", [
    ("solve", dict(SOLVE_CFG, level=float("inf")), "bad scenario: 'level' is Infinity"),
    ("solve", dict(SOLVE_CFG, initial={"breakpoints": [0.0, 0.5], "values": [None, 0.75, 0.375]}),
     "bad initial block: 'values'[0] is null"),
    ("track", dict(TRACK_CFG, particle={"x0": float("nan"), "t0": 0.1}),
     "bad particle block: 'x0' is NaN"),
    ("solve", dict(SOLVE_CFG, times=[1.0, -float("inf")]), "bad scenario: 'times'[1] is -Infinity"),
], ids=["infinite_level", "null_initial_value", "nan_particle_x0", "negative_infinite_time"])
def test_non_standard_numbers_exit_2_before_any_solve(tmp_path, capsys, monkeypatch,
                                                      command, cfg, message):
    def no_solve(*args):
        raise AssertionError("evolve called on a config that should be rejected")

    monkeypatch.setattr(cli, "evolve", no_solve)
    path = write_cfg(tmp_path, cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {message}, not a JSON number" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, message", [
    ("solve", dict(SOLVE_CFG, level="OVERFLOW"), "bad scenario: 'level' is Infinity"),
    ("track", dict(TRACK_CFG, particle={"x0": "OVERFLOW", "t0": 0.1}),
     "bad particle block: 'x0' is Infinity"),
    ("solve", dict(SOLVE_CFG, times=[1.0, "-OVERFLOW"]), "bad scenario: 'times'[1] is -Infinity"),
], ids=["overflowing_level", "overflowing_particle_x0", "overflowing_negative_time"])
def test_number_literals_that_overflow_exit_2_before_any_solve(tmp_path, capsys, monkeypatch,
                                                              command, cfg, message):
    def no_solve(*args):
        raise AssertionError("evolve called on a config that should be rejected")

    monkeypatch.setattr(cli, "evolve", no_solve)
    path = write_cfg(tmp_path, cfg)
    text = (tmp_path / "cfg.json").read_text().replace('"OVERFLOW"', "1e400")
    (tmp_path / "cfg.json").write_text(text.replace('"-OVERFLOW"', "-1e400"))
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {message}, not a JSON number" in capsys.readouterr().err


@pytest.mark.parametrize("field", [
    {"horizon": "soon"}, {"horizon": float("nan")}, {"horizon": float("inf")},
    {"times": 1.0}, {"level": None},
    {"initial": {"breakpoints": None, "values": [0.3, 0.7]}},
    {"initial": {"breakpoints": [], "values": None}},
    {"initial": {"breakpoints": [0.0, 0.5], "values": [-1, 0.75, 0.375]}},
    {"velocity": dict(VELOCITY, rho_max=0.5)},
    {"particle": {"x0": -0.5, "t0": 5.0}},
])
def test_bad_scenario_fields_exit_2(tmp_path, field):
    cfg = write_cfg(tmp_path, dict(SOLVE_CFG, **field))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_unknown_command_exits_nonzero(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SOLVE_CFG)
    assert main(["explode", "--config", cfg]) != 0
    capsys.readouterr()


def test_track_writes_trajectory(tmp_path):
    cfg = write_cfg(tmp_path, TRACK_CFG)
    out = tmp_path / "out"
    assert main(["track", "--config", cfg, "--out", str(out), "--check"]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,z,speed"
    assert len(lines) >= 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["start"] == [-0.5, 0.1]
    assert summary["sticking_spans"] == []


def test_stability_report_files(tmp_path):
    cfg = write_cfg(tmp_path, STABILITY_CFG)
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out), "--check"]) == 0
    report = json.loads((out / "rate_report.json").read_text())
    assert all(report["bound_satisfied"])
    lines = (out / "rate_report.csv").read_text().splitlines()
    assert lines[0] == "epsilon,error,bound,bound_holds"
    assert len(lines) == 4


def test_stability_short_ladder_is_a_solver_error(tmp_path):
    bad = dict(STABILITY_CFG)
    bad["stability"] = dict(bad["stability"], epsilons=[0.125, 0.0625])
    cfg = write_cfg(tmp_path, bad)
    assert main(["stability", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_stability_velocity_target_defaults_to_scale(tmp_path):
    cfg = write_cfg(tmp_path, dict(STABILITY_CFG, stability={
        "target": "velocity", "epsilons": [0.125, 0.0625, 0.03125]}))
    assert main(["stability", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "rate_report.json").read_text())
    assert report["label"] == "flux/scale" and report["meta"]["family"] == "scale"


@pytest.mark.parametrize("stability", [
    {"target": "initial", "family": "bogus"},
    {"target": "velocity", "family": "bogus"},
    {"target": "velocity", "family": "shift"},
    {"target": "bogus"},
    {"target": "initial", "window": ["a", "b"]},
    {"target": "initial", "window": [1.0, 0.0]},
], ids=["initial_bogus", "velocity_bogus", "velocity_shift", "unknown_target",
        "window_not_numbers", "inverted_window"])
def test_bad_stability_block_exits_2_before_any_solve(tmp_path, capsys, monkeypatch, stability):
    def no_solve(*args, **kwargs):
        raise AssertionError("a stability study ran")

    monkeypatch.setattr(cli, "initial_field_stability", no_solve)
    monkeypatch.setattr(cli, "flux_stability", no_solve)
    block = dict(stability, epsilons=[0.125, 0.0625, 0.03125])
    cfg = write_cfg(tmp_path, dict(STABILITY_CFG, stability=block))
    assert main(["stability", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [
    dict(STABILITY_CFG, level=0),
    dict(STABILITY_CFG, stability=dict(STABILITY_CFG["stability"], epsilons=[0, 0.0625, 0.03125])),
    dict(STABILITY_CFG, stability=dict(STABILITY_CFG["stability"], epsilons=[-0.125, 0.0625])),
    dict(STABILITY_CFG, initial={"breakpoints": [], "values": [0.5]}),
    dict(STABILITY_CFG, stability={"target": "velocity", "epsilons": [2.0, 1.0, 0.5]}),
    *(dict(cfg, velocity=dict(TABLE_VELOCITY, values=values))
      for cfg in (STABILITY_CFG, TABLE_STABILITY_CFG)
      for values in ([1.0, 1.0, 0.0], [1.0, 0.5, 0.1])),
], ids=["density_floor_quantized_to_zero", "zero_epsilon", "negative_epsilon",
        "shift_without_a_jump", "scale_past_the_lipschitz_norm",
        *(f"{target}_target_table_{fault}" for target in ("initial", "velocity")
          for fault in ("not_strictly_decreasing", "not_zero_at_rho_max"))])
def test_stability_ladders_no_study_can_run_exit_2_before_any_solve(tmp_path, capsys,
                                                                   monkeypatch, cfg):
    def no_solve(*args, **kwargs):
        raise AssertionError("evolve called on a config that should be rejected")

    monkeypatch.setattr(experiments, "evolve", no_solve)
    path = write_cfg(tmp_path, cfg)
    assert main(["stability", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error: bad stability block" in capsys.readouterr().err


def test_json_artifacts_write_booleans_as_booleans(tmp_path):
    cfg = write_cfg(tmp_path, STABILITY_CFG)
    assert main(["stability", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    text = (tmp_path / "s" / "rate_report.json").read_text()
    report = json.loads(text)
    assert report["bound_satisfied"] == [True, True, True]
    assert report["meta"]["sticking_free"] is True
    assert '"sticking_free": true' in text
    noiseless = dict(INVERT_CFG, inversion=dict(
        INVERT_CFG["inversion"],
        synthetic=dict(INVERT_CFG["inversion"]["synthetic"], noise_std=0.0),
    ))
    cfg = write_cfg(tmp_path, noiseless, "noiseless.json")
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    obs = json.loads((tmp_path / "o" / "observations.json").read_text())
    assert obs["meta"]["noiseless"] is True
    assert obs["meta"]["seed"] == 5 and type(obs["meta"]["seed"]) is int


def with_inversion(**blocks):
    return dict(INVERT_CFG, inversion=dict(INVERT_CFG["inversion"], **blocks))


def with_synthetic(**fields):
    return with_inversion(synthetic=dict(INVERT_CFG["inversion"]["synthetic"], **fields))


def with_prior(**fields):
    return with_inversion(prior=dict(INVERT_CFG["inversion"]["prior"], **fields))


def with_sampler(**fields):
    return with_inversion(sampler=dict(INVERT_CFG["inversion"]["sampler"], **fields))


@pytest.mark.parametrize("command, cfg, message", [
    ("solve", dict(SOLVE_CFG, level=6.99), "bad 'level' in the scenario: must be an integer, "
                                           "not 6.99"),
    ("solve", dict(SOLVE_CFG, level=True), "bad 'level' in the scenario: must be an integer, "
                                           "not a boolean"),
    ("solve", dict(SOLVE_CFG, level="7"), "bad 'level' in the scenario: must be an integer, "
                                          "not a string"),
    ("solve", dict(SOLVE_CFG, horizon="1.5"), "bad 'horizon' in the scenario: must be a number, "
                                              "not a string"),
    ("solve", dict(SOLVE_CFG, initial={"breakpoints": [0.0], "values": ["0.3", True]}),
     "bad 'values' in the initial block: must be a number, not a string"),
    ("solve", dict(SOLVE_CFG, initial={"breakpoints": [0.0], "values": [0.3, True]}),
     "bad 'values' in the initial block: must be a number, not a boolean"),
    ("solve", dict(SOLVE_CFG, velocity=dict(VELOCITY, w_max="2")),
     "bad 'w_max' in the velocity block: must be a number, not a string"),
    ("viscous", dict(VISCOUS_CFG, viscous=dict(VISCOUS_CFG["viscous"], n_cells=400.5)),
     "bad 'n_cells' in the viscous block: must be an integer, not 400.5"),
    ("invert", with_prior(lenght_scale=0.5), "bad prior block: unknown key 'lenght_scale'"),
    ("invert", with_sampler(chain_lenght=10), "bad sampler block: unknown key 'chain_lenght'"),
    ("invert", with_sampler(seed=1), "bad sampler block: unknown key 'seed'"),
    ("solve", dict(SOLVE_CFG, horizn=2.0), "bad scenario: unknown key 'horizn'"),
    ("solve", dict(SOLVE_CFG, velocity=dict(VELOCITY, kind="linear")),
     "bad velocity block: kind 'linear' is not one of linear-traffic, table"),
    ("solve", dict(SOLVE_CFG, velocity=dict(VELOCITY, breakpoints=[0.0, 1.0])),
     "bad velocity block: LinearTrafficVelocity.__init__() got an unexpected keyword "
     "argument 'breakpoints'"),
    ("solve", dict(SOLVE_CFG, level=MAX_LEVEL + 1),
     f"bad 'level' in the scenario: level must be in [0, {MAX_LEVEL}], got {MAX_LEVEL + 1}"),
    ("invert", with_inversion(forward=dict(INVERT_CFG["inversion"]["forward"],
                                           level=MAX_LEVEL + 1)),
     "bad 'level' in the forward block: level must be in"),
    ("invert", with_inversion(sampler={"chain_length": 20, "beta": 0.2},
                              ladder={"levels": [3, MAX_LEVEL + 1]}),
     "bad 'levels' in the ladder block: level must be in"),
    ("invert", with_inversion(sampler={"chain_length": 20, "beta": 0.2},
                              ladder={"levels": [3], "reference": MAX_LEVEL + 1}),
     "bad 'reference' in the ladder block: level must be in"),
], ids=["fractional_level", "boolean_level", "string_level", "string_horizon",
        "string_initial_value", "boolean_initial_value", "string_w_max", "fractional_n_cells",
        "misspelt_prior_key", "misspelt_sampler_key", "sampler_seed", "misspelt_scenario_key",
        "unknown_velocity_kind", "key_of_another_velocity_kind", "level_past_the_bound",
        "forward_level_past_the_bound", "ladder_level_past_the_bound",
        "reference_level_past_the_bound"])
def test_malformed_fields_exit_2_before_any_solve_naming_block_and_field(
        tmp_path, capsys, monkeypatch, command, cfg, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solver ran on a config that should be rejected")

    for name in ("evolve", "solve_viscous", "run_pcn", "synth_observations"):
        monkeypatch.setattr(cli, name, no_solve)
    path = write_cfg(tmp_path, cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_a_scenario_shared_by_every_command_keeps_its_other_blocks(tmp_path):
    shared = dict(STABILITY_CFG, viscous=VISCOUS_CFG["viscous"],
                  inversion=LADDER_CFG["inversion"])
    path = write_cfg(tmp_path, shared)
    for command in cli.COMMANDS:
        assert load_scenario(path, command).horizon == 2.0


MALFORMED_SYNTHETIC = {
    "noise_std_not_a_number": with_synthetic(noise_std="x"),
    "negative_noise_std": with_synthetic(noise_std=-1),
    "seed_not_a_number": with_synthetic(seed="x"),
    "truth_latent_wrong_length": with_synthetic(truth_latent=[0.1, 0.2, 0.3]),
    "negative_seed": with_synthetic(seed=-1),
    "truth_outside_the_flux_domain": with_synthetic(truth={"breakpoints": [0.0],
                                                           "values": [0.3, 1.5]}),
}


@pytest.mark.parametrize("cfg", [
    with_inversion(forward={"kind": "pointwise", "times": [0.5, 1.0]}),
    with_inversion(forward={"kind": "viscous-trajectory", "times": [0.5, 1.0]}),
    with_inversion(sampler={"chain_length": "ten", "beta": 0.2}),
    with_inversion(forward={"kind": "pointwise", "times": [0.5, 1.0], "positions": "ab"}),
    with_inversion(forward={"kind": "ball-average", "times": [0.5, 1.0],
                            "positions": [0.0, 0.5], "radius": -1}),
    with_inversion(forward={"kind": "ball-average", "times": [0.5, 1.0],
                            "positions": [0.0, 0.5], "radius": np.inf}),
    with_inversion(forward={"kind": "trajectory", "times": [0.5, 1.0, 1.5],
                            "x0": -0.5, "t0": 0.75}),
    with_inversion(forward={"kind": "pointwise", "times": [0.5, 1.0], "positions": [0.0]}),
    with_inversion(sampler={"chain_length": 0, "beta": 0.2}),
    with_inversion(sampler={"chain_length": 150, "beta": 2}),
    with_inversion(forward={"kind": "viscous-trajectory", "times": [0.5, 1.0], "epsilon": -1}),
    with_inversion(forward={"kind": "viscous-trajectory", "times": [0.5, 1.0], "epsilon": 0.05,
                            "n_cells": 2}),
    with_inversion(forward={"kind": "viscous-trajectory", "times": [0.5, 1.0], "epsilon": 0.05,
                            "store_every": 0}),
    with_inversion(forward={"kind": "trajectory", "times": [0.5, 1.0, 1.5], "x0": 0.25}),
    with_inversion(sampler={"chain_length": 150, "beta": 0.2, "thin": -1}),
    with_inversion(sampler={"chain_length": 150, "beta": 0.2, "thin": 0}),
    dict(INVERT_CFG, seed=-1),
    dict(INVERT_CFG, velocity=dict(VELOCITY, rho_max=0.8)),
    with_inversion(prior={"kind": "velocity", "n": 16, "window": [0.0, 1.0]}),
    *(with_inversion(prior={"kind": "velocity", "n": 12, "window": [0, 1], "w_max": w_max},
                     forward={"kind": "velocity-trajectory", "times": [0.5, 1.0]},
                     synthetic={"truth_latent": [0.0] * 12}) for w_max in (0, -1)),
    with_inversion(forward={"kind": "viscous-trajectory", "times": [0.5, 1.0, 1.5],
                            "epsilon": 0.05, "n_cells": MAX_CELLS}),
    with_inversion(forward={"kind": "viscous-trajectory", "times": [0.5, 1.0, 1.5],
                            "epsilon": 0.05, "n_cells": 100},
                   sampler={"chain_length": 5, "beta": 0.2},
                   ladder={"levels": [3, 4], "reference": 6, "n_samples": 20}),
    *MALFORMED_SYNTHETIC.values(),
], ids=["pointwise_without_positions", "viscous_without_epsilon", "chain_length_not_a_number",
        "positions_not_numbers", "negative_radius", "infinite_radius", "t0_after_first_time",
        "positions_and_times_unpaired", "zero_chain_length", "beta_above_one",
        "negative_viscous_epsilon", "viscous_n_cells_too_few", "viscous_store_every_zero",
        "forward_x0_without_t0", "negative_thin", "zero_thin", "negative_scenario_seed",
        "prior_range_outside_the_flux_domain", "velocity_prior_on_a_field_forward",
        "velocity_prior_with_zero_w_max", "velocity_prior_with_negative_w_max",
        "viscous_forward_with_more_steps_than_the_bound",
        "ladder_of_a_forward_without_a_level",
        *MALFORMED_SYNTHETIC])
def test_malformed_inversion_blocks_exit_2(tmp_path, capsys, cfg):
    path = write_cfg(tmp_path, cfg)
    assert main(["invert", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def with_size(cfg, block, key, value):
    """``cfg`` with ``key`` of the viscous block or of an inversion block set to ``value``."""
    if block == "viscous":
        return dict(cfg, viscous=dict(cfg["viscous"], **{key: value}))
    inv = cfg["inversion"]
    return dict(cfg, inversion=dict(inv, **{block: dict(inv.get(block, {}), **{key: value})}))


VISCOUS_FORWARD = {"kind": "viscous-trajectory", "times": [0.5, 1.0, 1.5], "epsilon": 0.05}
SIZE_FIELDS = [  # (command, config, block, key, bound)
    ("viscous", VISCOUS_CFG, "viscous", "n_cells", MAX_CELLS),
    ("invert", with_inversion(forward=VISCOUS_FORWARD), "forward", "n_cells", MAX_CELLS),
    ("invert", INVERT_CFG, "prior", "n", MAX_PRIOR_N),
    ("invert", INVERT_CFG, "sampler", "chain_length", MAX_CHAIN_LENGTH),
    ("invert", LADDER_CFG, "ladder", "n_samples", MAX_HELLINGER_SAMPLES),
]


@pytest.mark.parametrize("command, cfg, block, key, bound", SIZE_FIELDS,
                         ids=[f"{block}.{key}" for _, _, block, key, _ in SIZE_FIELDS])
def test_size_fields_past_their_bound_exit_2(tmp_path, capsys, command, cfg, block, key, bound):
    for value in (bound + 1, 10 ** 12):
        path = write_cfg(tmp_path, with_size(cfg, block, key, value))
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert f"must be at most {bound}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_sizes_past_their_bound_raise_before_any_array_is_built(monkeypatch):
    step = StepFunction([0.0], [0.25, 0.5])
    flux, velocity = TrafficQuadraticFlux(), LinearTrafficVelocity()
    prior = PriorSpec(kind="initial-field", n=16, window=(-1.0, 1.5))
    wide = PriorSpec(kind="initial-field", n=MAX_PRIOR_N, window=(-1.0, 1.5))
    forward = TrajectoryForward(velocity=velocity, level=4, x0=-0.5, t0=0.01, times=(0.5, 1.0))
    obs = synth_observations(forward, prior.transform(np.zeros(16)), 0.05, seed=1)
    # the bounds themselves pass the checks
    bayes.check_pcn_settings(MAX_CHAIN_LENGTH, 0.1, 0, 16)
    bayes.check_pcn_settings(MAX_CHAIN_VALUES // MAX_PRIOR_N, 0.1, 0, MAX_PRIOR_N)
    bayes.check_hellinger_samples(MAX_HELLINGER_SAMPLES, 16)
    bayes.check_hellinger_samples(MAX_HELLINGER_VALUES // MAX_PRIOR_N, MAX_PRIOR_N)
    PriorSpec(n=MAX_PRIOR_N)

    def dt0(n_cells):
        """The step on ``n_cells`` cells of (-1, 1) before it lands on the
        horizon, the same whatever the horizon, so (k - 0.5) * dt0 takes k steps."""
        dx = 2.0 / n_cells
        return CFL_SAFETY / (2.0 * flux.lipschitz_norm / dx + 2.0 * 0.05 / (dx * dx))

    steps = dict(window=(-1.0, 1.0), n_cells=4)
    assert march_grid(step, flux, 0.05, (MAX_STEPS - 0.5) * dt0(4), **steps)[3] == MAX_STEPS
    # k steps store k + 1 levels of 64 cells
    levels, k = dict(window=(-1.0, 1.0), n_cells=64), MAX_LEVEL_VALUES // 64 - 1
    assert march_grid(step, flux, 0.05, (k - 0.5) * dt0(64), **levels)[3] == k

    def no_array(*args, **kwargs):
        raise AssertionError("an array was built")

    for name in ("empty", "zeros", "full", "arange", "linspace", "array", "asarray",
                 "concatenate", "stack"):
        monkeypatch.setattr(np, name, no_array)
    monkeypatch.setattr(np.random, "default_rng", no_array)
    calls = [
        (lambda: solve_viscous(step, flux, 0.05, 1.0, n_cells=MAX_CELLS + 1), MAX_CELLS),
        (lambda: ViscousTrajectoryForward(velocity, flux, 0.05, -0.5, 0.01, (0.5,),
                                          n_cells=MAX_CELLS + 1), MAX_CELLS),
        (lambda: solve_viscous(step, flux, 0.05, (MAX_STEPS + 0.5) * dt0(4), **steps), MAX_STEPS),
        (lambda: ViscousTrajectoryForward(velocity, flux, 0.05, -0.5, 0.01, (0.5,),
                                          n_cells=MAX_CELLS), MAX_STEPS),
        (lambda: solve_viscous(step, flux, 0.05, (k + 0.5) * dt0(64), **levels),
         MAX_LEVEL_VALUES),
        (lambda: PriorSpec(n=MAX_PRIOR_N + 1), MAX_PRIOR_N),
        (lambda: run_pcn(prior, obs, forward, MAX_CHAIN_LENGTH + 1, 0.1, 0), MAX_CHAIN_LENGTH),
        (lambda: run_pcn(wide, obs, forward, MAX_CHAIN_VALUES // MAX_PRIOR_N + 1, 0.1, 0),
         MAX_CHAIN_VALUES),
        (lambda: hellinger_between(prior, obs, forward, forward, MAX_HELLINGER_SAMPLES + 1),
         MAX_HELLINGER_SAMPLES),
        (lambda: hellinger_between(wide, obs, forward, forward,
                                   MAX_HELLINGER_VALUES // MAX_PRIOR_N + 1),
         MAX_HELLINGER_VALUES),
    ]
    for call, bound in calls:
        with pytest.raises(ValueError, match=f"must be at most {bound}"):
            call()


def with_latents(n, **blocks):
    """INVERT_CFG with a prior of ``n`` latent points, and ``blocks``."""
    inv = INVERT_CFG["inversion"]
    return with_inversion(prior=dict(inv["prior"], n=n),
                          synthetic=dict(inv["synthetic"], truth_latent=[0.0] * n), **blocks)


def forward_levels_first_past_the_bound():
    """The fewest cells whose viscous-trajectory forward, storing every
    step, stores more than MAX_LEVEL_VALUES values (bisection)."""
    fits, past = 4, MAX_CELLS
    while past - fits > 1:
        mid = (fits + past) // 2
        try:
            ViscousTrajectoryForward(LinearTrafficVelocity(), TrafficQuadraticFlux(), 0.05,
                                     -0.5, 0.01, (0.5, 1.0, 1.5), n_cells=mid, store_every=1)
            fits = mid
        except ValueError:
            past = mid
    return past


PRODUCTS = {  # (config by the value that sets the product, that value at the bound, bound)
    "chain_length_x_n": (lambda m: with_latents(256, sampler={"chain_length": m, "beta": 0.2}),
                         MAX_CHAIN_VALUES // 256, MAX_CHAIN_VALUES),
    "n_samples_x_n": (lambda m: with_latents(256, sampler={"chain_length": 20, "beta": 0.2},
                                             ladder={"levels": [3], "n_samples": m}),
                      MAX_HELLINGER_VALUES // 256, MAX_HELLINGER_VALUES),
    "stored_levels_x_cells": (lambda m: with_inversion(forward=dict(VISCOUS_FORWARD, n_cells=m,
                                                                    store_every=1)),
                              None, MAX_LEVEL_VALUES),
}


@pytest.mark.parametrize("product", PRODUCTS)
def test_size_products_just_past_their_bound_exit_2(tmp_path, capsys, monkeypatch, product):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solver ran on a config that should be rejected")

    for name in ("run_pcn", "synth_observations"):
        monkeypatch.setattr(cli, name, no_solve)
    make, at_bound, bound = PRODUCTS[product]
    if at_bound is None:
        at_bound = forward_levels_first_past_the_bound() - 1
    load_scenario(write_cfg(tmp_path, make(at_bound)), "invert")
    path = write_cfg(tmp_path, make(at_bound + 1))
    assert main(["invert", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert f"must be at most {bound}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("window", [[-4.0, 4.0], None], ids=["given_window", "default_window"])
def test_viscous_march_past_the_step_bound_exits_2_at_load(tmp_path, capsys, monkeypatch, window):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_viscous called on a config that should be rejected")

    monkeypatch.setattr(cli, "solve_viscous", no_solve)
    # 2**20 cells on a window about 8 wide take about 1.9e9 steps to horizon 1
    blk = dict(VISCOUS_CFG["viscous"], n_cells=MAX_CELLS)
    if window is not None:
        blk["window"] = window
    out = tmp_path / "o"
    assert main(["viscous", "--config", write_cfg(tmp_path, dict(VISCOUS_CFG, viscous=blk)),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: bad viscous block: time steps must be at most {MAX_STEPS}" in err
    assert not out.exists()


def test_viscous_block_passes_only_the_settings_it_names(tmp_path):
    # a size the block leaves out takes solve_viscous's own default
    times, settings = load_scenario(write_cfg(tmp_path, VISCOUS_CFG), "viscous").viscous
    assert times == (0.5, 1.0)
    assert settings == {"epsilon": 0.05, "horizon": 1.0, "n_cells": 400,
                        "keep_times": (0.5, 1.0, 0.0, 1.0)}


FLUX_ONLY_INVERT_CFG = dict(
    {k: v for k, v in INVERT_CFG.items() if k != "velocity"}, flux={"kind": "traffic-quadratic"}
)


@pytest.mark.parametrize("forward", [
    {"kind": "trajectory", "times": [0.5, 1.0, 1.5]},
    {"kind": "pointwise", "times": [0.5, 1.0], "positions": [0.0, 0.5]},
    {"kind": "ball-average", "times": [0.5, 1.0], "positions": [0.0, 0.5], "radius": 0.1},
    {"kind": "viscous-trajectory", "times": [0.5, 1.0, 1.5], "epsilon": 0.05, "n_cells": 100},
], ids=["trajectory", "pointwise", "ball-average", "viscous-trajectory"])
def test_forwards_without_a_velocity_spec_exit_2(tmp_path, capsys, forward):
    cfg = dict(FLUX_ONLY_INVERT_CFG, inversion=dict(INVERT_CFG["inversion"], forward=forward))
    path = write_cfg(tmp_path, cfg)
    assert main(["synth", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "needs a velocity spec" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", MALFORMED_SYNTHETIC.values(), ids=MALFORMED_SYNTHETIC)
def test_malformed_synthetic_blocks_exit_2_in_synth(tmp_path, capsys, cfg):
    path = write_cfg(tmp_path, cfg)
    assert main(["synth", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg", [
    ("synth", INVERT_CFG), ("invert", INVERT_CFG), ("stability", STABILITY_CFG),
])
def test_negative_seed_flag_exits_2(tmp_path, capsys, command, cfg):
    path = write_cfg(tmp_path, cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2
    assert "config error: --seed must be nonnegative" in capsys.readouterr().err


def test_synth_is_seed_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, INVERT_CFG)
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["synth", "--config", cfg, "--out", str(out_a), "--check"]) == 0
    assert main(["synth", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "observations.json").read_bytes() == (
        out_b / "observations.json"
    ).read_bytes()
    assert main(["synth", "--config", cfg, "--out", str(out_c), "--seed", "9"]) == 0
    obs_a = json.loads((out_a / "observations.json").read_text())
    obs_c = json.loads((out_c / "observations.json").read_text())
    assert obs_a["values"] != obs_c["values"]
    assert obs_a["kind"] == "trajectory"


def test_invert_runs_a_chain(tmp_path):
    cfg = write_cfg(tmp_path, INVERT_CFG)
    out = tmp_path / "out"
    assert main(["invert", "--config", cfg, "--out", str(out), "--check"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 < summary["acceptance_rate"] < 1.0
    assert summary["chain_length"] == 150
    assert len(summary["posterior_mean_values"]) == 16
    lines = (out / "chain.csv").read_text().splitlines()
    assert lines[0].startswith("step,potential,accepted,v0")
    assert len(lines) == 151


def test_invert_ladder_rows_match_pairwise_estimates(tmp_path):
    cfg = write_cfg(tmp_path, LADDER_CFG)
    out = tmp_path / "out"
    assert main(["invert", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    inv = LADDER_CFG["inversion"]
    prior = PriorSpec(kind="initial-field", n=16, window=(-1.0, 1.5))
    w = LinearTrafficVelocity(1.0, 1.0)
    times = tuple(inv["forward"]["times"])

    def forward(level):
        return TrajectoryForward(w, level, -0.5, 0.01, times)

    synth = inv["synthetic"]
    truth = prior.transform(np.asarray(synth["truth_latent"]))
    obs = synth_observations(forward(5), truth, synth["noise_std"], synth["seed"])
    expected = [
        {"level": n, **hellinger_between(prior, obs, forward(n), forward(6), 20,
                                         seed=LADDER_CFG["seed"]).to_dict()}
        for n in (3, 4)
    ]
    assert summary["hellinger_table"] == expected


def test_invert_empty_ladder_exits_2(tmp_path):
    bad = dict(LADDER_CFG, inversion=dict(LADDER_CFG["inversion"], ladder={"levels": []}))
    cfg = write_cfg(tmp_path, bad)
    assert main(["invert", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_ladder_with_too_few_samples_exits_2_before_the_chain(tmp_path, capsys):
    bad = dict(LADDER_CFG, inversion=dict(
        LADDER_CFG["inversion"], ladder=dict(LADDER_CFG["inversion"]["ladder"], n_samples=5)))
    cfg = write_cfg(tmp_path, bad)
    out = tmp_path / "o"
    assert main(["invert", "--config", cfg, "--out", str(out)]) == 2
    assert "n_samples too small" in capsys.readouterr().err
    assert not (out / "chain.csv").exists()


def observed_inversion(forward, **observations):
    """INVERT_CFG inverting inline noisy observations instead of synthetic data."""
    inv = {k: v for k, v in INVERT_CFG["inversion"].items() if k != "synthetic"}
    obs = dict({"values": [0.1, 0.2], "noise_std": 0.05}, **observations)
    return dict(INVERT_CFG, inversion=dict(
        inv, forward=forward, observations=obs, sampler={"chain_length": 5, "beta": 0.2}))


TRAJECTORY_AT = {"kind": "trajectory", "times": [0.4, 0.8]}
POINTWISE_AT = {"kind": "pointwise", "times": [0.4, 0.8], "positions": [0.0, 0.5]}
BALLS_AT = dict(POINTWISE_AT, kind="ball-average", radius=0.1)


@pytest.mark.parametrize("forward, observations", [
    (TRAJECTORY_AT, {"kind": "pointwise", "times": [0.9, 0.95], "positions": [5, 6]}),
    (TRAJECTORY_AT, {"kind": "trajectory", "times": [0.4, 0.9]}),
    (TRAJECTORY_AT, {"kind": "trajectory", "times": [0.4, 0.8], "positions": [0.0, 0.5]}),
    (POINTWISE_AT, {"kind": "pointwise", "times": [0.4, 0.8], "positions": [5, 6]}),
    (POINTWISE_AT, {"kind": "pointwise", "times": [0.4, 0.8]}),
    (BALLS_AT, {"kind": "ball-average", "times": [0.4, 0.8], "positions": [0.0, 0.5],
                "radius": 0.2}),
], ids=["kind", "times", "positions_on_a_path", "positions", "no_positions", "radius"])
def test_observations_of_another_geometry_exit_2_before_the_chain(
        tmp_path, capsys, forward, observations):
    cfg = write_cfg(tmp_path, observed_inversion(forward, **observations))
    out = tmp_path / "o"
    assert main(["invert", "--config", cfg, "--out", str(out)]) == 2
    assert "config error: bad observations" in capsys.readouterr().err
    assert not (out / "chain.csv").exists()


@pytest.mark.parametrize("forward", [TRAJECTORY_AT, POINTWISE_AT, BALLS_AT],
                         ids=["trajectory", "pointwise", "ball-average"])
def test_observations_of_the_forward_geometry_are_inverted(tmp_path, forward):
    geometry = {k: v for k, v in forward.items() if k != "kind"}
    cfg = write_cfg(tmp_path, observed_inversion(forward, kind=forward["kind"], **geometry))
    assert main(["invert", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("viscous", [
    {"epsilon": -1}, {"epsilon": float("nan")}, {"epsilon": float("inf")}, {"n_cells": 2},
    {"store_every": 0}, {"cfl_safety": 2}, {"window": [1.0, 0.0]},
], ids=["negative_epsilon", "nan_epsilon", "infinite_epsilon", "two_cells",
        "store_every_zero", "cfl_safety_above_one", "inverted_window"])
def test_bad_viscous_settings_exit_2(tmp_path, capsys, viscous):
    bad = dict(VISCOUS_CFG, viscous=dict(VISCOUS_CFG["viscous"], **viscous))
    cfg = write_cfg(tmp_path, bad)
    out = tmp_path / "o"
    assert main(["viscous", "--config", cfg, "--out", str(out)]) == 2
    assert "config error: bad viscous block" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_viscous_window_not_numbers_exits_2(tmp_path, capsys):
    bad = dict(VISCOUS_CFG, viscous=dict(VISCOUS_CFG["viscous"], window=["a", "b"]))
    cfg = write_cfg(tmp_path, bad)
    assert main(["viscous", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("times, message", [
    ({"viscous": dict(VISCOUS_CFG["viscous"], snapshot_times=[0.5, 2.0])},
     "bad viscous block: time 2.0 outside [0, 1.0]"),
    ({"viscous": dict(VISCOUS_CFG["viscous"], snapshot_times=[-0.5, 1.0])},
     "bad viscous block: time -0.5 outside [0, 1.0]"),
    # the scenario's own times, the fallback, are checked when the file loads
    ({"viscous": {"epsilon": 0.05, "n_cells": 400}, "times": [0.5, 1.5]},
     "output times must lie in [0, horizon]"),
], ids=["snapshot_above_horizon", "negative_snapshot", "fallback_time_above_horizon"])
def test_viscous_times_outside_the_horizon_exit_2_before_the_solve(tmp_path, capsys, monkeypatch,
                                                                   times, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_viscous called on a config that should be rejected")

    monkeypatch.setattr(cli, "solve_viscous", no_solve)
    cfg = write_cfg(tmp_path, dict(VISCOUS_CFG, **times))
    out = tmp_path / "o"
    assert main(["viscous", "--config", cfg, "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_viscous_snapshots_and_mass_accounting(tmp_path):
    cfg = write_cfg(tmp_path, VISCOUS_CFG)
    out = tmp_path / "out"
    assert main(["viscous", "--config", cfg, "--out", str(out), "--check"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["snapshots"] == ["snapshot_00.csv", "snapshot_01.csv"]
    drift = summary["mass_final"] - summary["mass_initial"]
    assert drift == pytest.approx(summary["boundary_account"], abs=1e-8)
    lines = (out / "snapshot_00.csv").read_text().splitlines()
    assert lines[0] == "x,v"
    assert len(lines) == 401


def test_slice_csv_round_trip(tmp_path):
    step = StepFunction([0.0, 0.5], [0.5, 0.75, 0.375])
    path = tmp_path / "slice.csv"
    write_slice_csv(str(path), step)
    again = read_slice_csv(str(path))
    assert np.array_equal(again.breakpoints, step.breakpoints)
    assert np.array_equal(again.values, step.values)


def test_solve_restart_matches_direct_run(tmp_path):
    cfg = write_cfg(tmp_path, SOLVE_CFG)
    out_a = tmp_path / "a"
    assert main(["solve", "--config", cfg, "--out", str(out_a)]) == 0
    mid = read_slice_csv(str(out_a / "slice_00.csv"))  # state at t = 1
    restart = {
        "velocity": VELOCITY,
        "initial": {"breakpoints": list(mid.breakpoints), "values": list(mid.values)},
        "horizon": 1.0,
        "level": 8,
        "times": [1.0],
    }
    cfg_b = write_cfg(tmp_path, restart, name="restart.json")
    out_b = tmp_path / "b"
    assert main(["solve", "--config", cfg_b, "--out", str(out_b)]) == 0
    final_direct = read_slice_csv(str(out_a / "slice_01.csv"))
    final_restart = read_slice_csv(str(out_b / "slice_00.csv"))
    assert l1_distance(final_direct, final_restart, (-4.0, 5.0)) <= 1e-10


# Runs of a single-field mutation of the configs above that fail for a
# reason only the run can find (exit 3): none; every run exits 0, 2 or 4.
RUNTIME_FAILURES = set()
MUTATED_CONFIGS = [("solve", SOLVE_CFG), ("track", TRACK_CFG), ("stability", STABILITY_CFG),
                   ("stability", TABLE_STABILITY_CFG), ("viscous", VISCOUS_CFG),
                   ("invert", INVERT_CFG), ("invert", LADDER_CFG)]
MUTATIONS = [-1, 0, 0.5, "x", None, [], {}, float("nan"), float("inf"), True]


def leaf_paths(node, path=()):
    """Paths to the leaves of a config, and to the first element of each list."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, path + (key,))
        return
    yield path
    if isinstance(node, list) and node:
        yield path + (0,)


def mutated(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def test_single_field_mutations_exit_3_only_for_runtime_failures(tmp_path, capsys):
    path, runs, exit_3 = tmp_path / "cfg.json", 0, set()
    for command, base in MUTATED_CONFIGS:
        for at in leaf_paths(base):
            for value in MUTATIONS:
                path.write_text(json.dumps(mutated(base, at, value)))
                code = main([command, "--config", str(path), "--out", str(tmp_path / f"o{runs}")])
                assert code in (0, 2, 3, 4)
                if code == 3:
                    exit_3.add((command, ".".join(map(str, at)), json.dumps(value)))
                runs += 1
    capsys.readouterr()
    assert runs == 1310
    assert exit_3 == RUNTIME_FAILURES


def test_flux_blocks_build_their_flux(tmp_path):
    base = {k: v for k, v in SOLVE_CFG.items() if k != "velocity"}
    for spec, want in [
        ({"kind": "traffic-quadratic"}, TrafficQuadraticFlux(1.0, 1.0)),
        ({"kind": "traffic-quadratic", "w_max": 2, "rho_max": 1.0}, TrafficQuadraticFlux(2.0)),
        ({"kind": "burgers-quadratic"}, BurgersQuadraticFlux()),
        ({"kind": "piecewise-linear", "breakpoints": [0.0, 0.5, 1.0], "values": [0, 1, 0]},
         PiecewiseLinearFlux(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))),
    ]:
        flux = load_scenario(write_cfg(tmp_path, dict(base, flux=spec)), "solve").flux
        assert type(flux) is type(want)
        for x in np.linspace(*want.domain, 17):
            assert flux(x) == want(x)
    with pytest.raises(ConfigError, match="kind 'cubic' is not one of"):
        load_scenario(write_cfg(tmp_path, dict(base, flux={"kind": "cubic"})), "solve")


def test_velocity_blocks_build_their_velocity(tmp_path):
    for spec, want in [
        ({"kind": "linear-traffic", "w_max": 0.8}, LinearTrafficVelocity(0.8, 1.0)),
        ({"kind": "table", "breakpoints": [0.0, 0.5, 1.0], "values": [1.0, 0.4, 0.0]},
         TableVelocity(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.4, 0.0]))),
    ]:
        w = load_scenario(write_cfg(tmp_path, dict(SOLVE_CFG, velocity=spec)), "solve").velocity
        assert type(w) is type(want)
        for r in np.linspace(0, 1, 17):
            assert w(r) == want(r)


def test_prior_block_builds_its_prior(tmp_path):
    prior = {"kind": "velocity", "n": 12, "length_scale": 0.3, "amplitude": 0.7,
             "window": [0, 1], "mean": 0.1, "w_max": 0.9}
    cfg = dict(INVERT_CFG, inversion={
        "prior": prior, "forward": {"kind": "velocity-trajectory", "times": [0.5, 1.0]},
        "synthetic": {"truth_latent": [0.0] * 12}})
    got = load_scenario(write_cfg(tmp_path, cfg), "synth").prior
    assert got == PriorSpec(kind="velocity", n=12, length_scale=0.3, amplitude=0.7,
                            window=(0.0, 1.0), mean=0.1, w_max=0.9)
    truth = {"truth": {"breakpoints": [0.0], "values": [0.3, 0.7]}}
    cfg = with_inversion(prior={}, synthetic=truth)
    assert load_scenario(write_cfg(tmp_path, cfg), "synth").prior == PriorSpec()


def field_paths(node, path=()):
    """Paths to every field of a config, blocks included, and to the first
    element of each list."""
    if path:
        yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from field_paths(value, path + (key,))
    elif isinstance(node, list) and node:
        yield path + (0,)


REPLACED_FIELDS = [(command, base, at) for command, base in MUTATED_CONFIGS
                   for at in field_paths(base)]
# JSON values of every type; integers, integral floats among them, stay
# within the level bound, so no replacement asks for an outsized grid
SMALL_INTEGERS = st.integers(-MAX_LEVEL, MAX_LEVEL)
JSON_SCALARS = st.one_of(
    SMALL_INTEGERS, SMALL_INTEGERS.map(float), st.floats().filter(lambda x: not x.is_integer()),
    st.booleans(), SMALL_INTEGERS.map(str), st.sampled_from(["0.5", "-1e3", "NaN"]),
    st.text(max_size=4), st.none(),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=2),
    max_leaves=4,
)


@given(st.sampled_from(REPLACED_FIELDS), JSON_VALUES)
def test_single_field_replacements_load_or_raise_config_error(tmp_path_factory, field, value):
    command, base, at = field
    path = tmp_path_factory.getbasetemp() / "replaced.json"
    path.write_text(json.dumps(mutated(base, at, value)))
    try:
        load_scenario(str(path), command)
    except ConfigError:
        pass
