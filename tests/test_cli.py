"""Command-line interface: outputs, exit codes and determinism."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import semiband.cli
from semiband.cli import main


def write_config(tmp_path: Path, payload: dict, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


DIRAC_CFG = {
    "model": {"model": "dirac_electric", "m": 1.0, "e": 1.0,
              "field": {"kind": "gaussian", "amplitude": 0.5,
                        "center": [0, 0, 0], "width": 1.5}},
    "hbar": 0.01,
    "seed": 7,
    "points": [{"R": [0.1, 0.2, 0.3], "P": [0.5, -0.4, 0.8]}],
}


def test_diagonalize_single_point(tmp_path):
    cfg = write_config(tmp_path, DIRAC_CFG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "diagonalize"]) == 0
    lines = (out / "energies.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header + one row
    report = json.loads((out / "energies.json").read_text())
    assert report["schema_version"] == 1
    assert len(report["records"]) == 1
    assert report["errors"] == []


def test_diagonalize_grid_row_count(tmp_path):
    cfg_data = dict(DIRAC_CFG)
    cfg_data.pop("points")
    cfg_data["grid"] = {"R": [[0, 0, 1], [0, 0, 1], [0, 0, 1]],
                        "P": [[0.5, 1.5, 3], [0.2, 0.2, 1], [-0.3, 0.3, 2]]}
    cfg = write_config(tmp_path, cfg_data)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "diagonalize"]) == 0
    rows = (out / "energies.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 3 * 1 * 2


def test_diagonalize_invalid_model_exits_one(tmp_path):
    cfg = write_config(tmp_path, {"model": {"model": "bogus"}, "points": []})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "diagonalize"]) == 1


def test_point_level_errors_exit_two(tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"model": "neutrino_metric",
                  "field": {"kind": "uniform", "value": 1.0}},
        "points": [{"R": [0, 0, 0], "P": [0, 0, 1]},
                   {"R": [0, 0, 0], "P": [0, 0, 0]}],
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "diagonalize"]) == 2
    report = json.loads((out / "energies.json").read_text())
    assert len(report["records"]) == 1
    assert len(report["errors"]) == 1
    assert report["errors"][0]["index"] == 1


def test_diagonalize_deterministic_bytes(tmp_path):
    cfg_data = dict(DIRAC_CFG)
    cfg_data.pop("points")
    cfg_data["random_points"] = {"count": 4, "p_range": [0.5, 2.0]}
    cfg = write_config(tmp_path, cfg_data)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out1), "diagonalize"]) == 0
    assert main(["--config", cfg, "--out", str(out2), "diagonalize"]) == 0
    assert (out1 / "energies.json").read_bytes() == \
        (out2 / "energies.json").read_bytes()
    assert (out1 / "energies.csv").read_bytes() == \
        (out2 / "energies.csv").read_bytes()


def test_connections_and_jobs_flag(tmp_path):
    cfg_data = dict(DIRAC_CFG)
    cfg_data["points"] = [{"R": [0, 0, 0], "P": [0.5, 0.1, 0.9]},
                          {"R": [0.1, 0, 0], "P": [0.2, -0.6, 1.1]}]
    cfg = write_config(tmp_path, cfg_data)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["--config", cfg, "--out", str(out1), "connections"]) == 0
    assert main(["--config", cfg, "--out", str(out2), "--jobs", "4",
                 "connections"]) == 0
    # A worker pool must not change the result ordering or the values.
    assert (out1 / "connections.json").read_bytes() == \
        (out2 / "connections.json").read_bytes()


def test_connections_rejects_nonpositive_hbar(tmp_path):
    # Every per-point subcommand needs a finite hbar > 0 and writes nothing
    # without one.
    cfg = write_config(tmp_path, DIRAC_CFG)
    out = tmp_path / "o"
    for command in ("diagonalize", "connections", "curvature"):
        for hbar in ("0", "-0.01", "nan", "inf"):
            assert main(["--config", cfg, "--out", str(out),
                         "--hbar", hbar, command]) == 1
            assert not out.exists()


@pytest.mark.parametrize("command,argv,extra", [
    ("diagonalize", ["--order", "3"], {}),
    ("diagonalize", [], {"representation": "covarient"}),
    ("connections", [], {"connection_order": "1"}),
    ("diagonalize", [], {"tolerances": {"fd_base": math.nan}}),
    ("diagonalize", [], {"tolerances": {"fd_base": 0}}),
    ("diagonalize", [], {"tolerances": {"gap": -1, "degeneracy": "nan"}}),
    ("connections", [], {"tolerances": {"overlap": math.inf}}),
    ("diagonalize", [], {"tolerances": {"gap": None}}),
    ("diagonalize", [], {"points": []}),
    ("diagonalize", [], {"points": None, "random_points": {"count": 0}}),
    ("curvature", [], {"points": None, "random_points": {"count": -2}}),
])
def test_invalid_choices_are_config_errors(tmp_path, command, argv, extra):
    # A None value drops the key, so "random_points" is not shadowed by the
    # base config's "points".
    cfg = write_config(tmp_path, {key: value for key, value
                                  in {**DIRAC_CFG, **extra}.items()
                                  if value is not None})
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), *argv, command]) == 1
    assert not out.exists()


GRID = {"R": [[0, 0, 1], [0, 0, 1], [0, 0, 1]],
        "P": [[0.5, 1.5, 2], [0.2, 0.2, 1], [-0.3, 0.3, 2]]}


@pytest.mark.parametrize("extra", [
    {"order": 1.5},
    {"order": True},
    {"order": "1"},
    {"points": None, "random_points": {"count": 2.7}},
    {"points": None, "random_points": {"count": True}},
    {"points": None,
     "grid": {**GRID, "P": [[0.5, 1.5, 2.9], [0.2, 0.2, 1], [-0.3, 0.3, 2]]}},
    {"seed": 1.7},
    {"seed": True},
    {"seed": 1.7, "command": "verify", "suites_to_run": ["symmetrized-bracket"]},
    {"cases": 2.9, "command": "bracket-check"},
    {"max_degree": 2.5, "command": "bracket-check"},
    {"dims": [1.5], "command": "bracket-check"},
    {"dims": [1, "2"], "command": "bracket-check"},
    {"seed": 1.7, "command": "bracket-check"},
    {"command": "trajectory",
     "model": {"model": "neutrino_metric",
               "field": {"kind": "uniform", "value": 1.0}},
     "trajectory": {"steps": 5, "pair_lambdas": False, "lambda": 1.5}},
], ids=["order-1.5", "order-true", "order-str", "count-2.7", "count-true",
        "grid-2.9", "seed-1.7", "seed-true", "verify-seed-1.7",
        "cases-2.9", "max-degree-2.5", "dims-1.5", "dims-str",
        "bracket-seed-1.7", "lambda-1.5"])
def test_non_integral_orders_and_counts_are_config_errors(tmp_path, extra):
    # Such values used to be truncated by int() and run silently.
    extra = dict(extra)
    command = extra.pop("command", "diagonalize")
    cfg = write_config(tmp_path, {key: value for key, value
                                  in {**DIRAC_CFG, **extra}.items()
                                  if value is not None})
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), command]) == 1
    assert not out.exists()


def test_integral_float_orders_and_counts_are_accepted(tmp_path):
    # JSON 1e0 and 3e0 parse as floats; integral ones count as integers,
    # as for the trajectory steps.
    for extra, rows in (({"order": 1e0}, 1),
                        ({"points": None, "random_points": {"count": 3e0}}, 3),
                        ({"points": None, "grid": {
                            **GRID, "R": [[0, 0, 1.0], [0, 0, 1], [0, 0, 1]]}},
                         4)):
        cfg = write_config(tmp_path, {key: value for key, value
                                      in {**DIRAC_CFG, **extra}.items()
                                      if value is not None})
        out = tmp_path / f"o{rows}"
        assert main(["--config", cfg, "--out", str(out), "diagonalize"]) == 0
        lines = (out / "energies.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + rows
        assert lines[1].split(",")[7] == str(int(extra.get("order", 2)))

    # The seed and the bracket-check counts likewise: the same bytes as
    # with plain integers.
    for command, stem, ints, floats in (
            ("diagonalize", "energies.json",
             {"points": None, "random_points": {"count": 2}, "seed": 5},
             {"points": None, "random_points": {"count": 2}, "seed": 5e0}),
            ("bracket-check", "bracket_report.json",
             {"seed": 3, "cases": 4, "max_degree": 3, "dims": [1, 2]},
             {"seed": 3e0, "cases": 4e0, "max_degree": 3e0,
              "dims": [1e0, 2e0]})):
        written = []
        for label, extra in (("int", ints), ("float", floats)):
            cfg = write_config(tmp_path, {key: value for key, value
                                          in {**DIRAC_CFG, **extra}.items()
                                          if value is not None})
            out = tmp_path / f"{command}-{label}"
            assert main(["--config", cfg, "--out", str(out), command]) == 0
            written.append((out / stem).read_bytes())
        assert written[0] == written[1]
    ray = {**NEUTRINO_RAY_CFG["trajectory"], "pair_lambdas": False,
           "lambda": -1e0}
    cfg = write_config(tmp_path, dict(NEUTRINO_RAY_CFG, trajectory=ray))
    out = tmp_path / "ray"
    assert main(["--config", cfg, "--out", str(out), "trajectory"]) == 0
    manifest = json.loads((out / "trajectory_manifest.json").read_text())
    assert manifest["lambdas"] == [-1]


def test_curvature_output(tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"model": "neutrino_metric",
                  "field": {"kind": "gaussian", "amplitude": 0.4,
                            "center": [0.3, 0.1, -0.2], "width": 2.0}},
        "hbar": 0.01,
        "points": [{"R": [0.1, 0.2, 0.3], "P": [0.4, -0.7, 0.5]}],
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "curvature"]) == 0
    rec = json.loads((out / "curvature.json").read_text())["records"][0]
    P = np.array(rec["P"])
    closed = -P / np.linalg.norm(P) ** 3
    assert np.max(np.abs(np.array(rec["band_theta_lam+1"]) - closed)) <= 1e-8


def test_trajectory_outputs_and_bad_dt(tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"model": "neutrino_metric",
                  "field": {"kind": "linear", "gradient": [0.05, 0, 0],
                            "offset": 1.5}},
        "hbar": 0.001,
        "trajectory": {"r0": [0, 0, 0], "P0": [0, 0, 1.0], "dt": 0.01,
                       "steps": 100, "method": "rk4", "pair_lambdas": True},
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "trajectory"]) == 0
    for lam in ("+1", "-1"):
        lines = (out / f"trajectory_lam{lam}.csv").read_text().splitlines()
        assert lines[0].split(",") == ["t", "r_x", "r_y", "r_z", "P_x", "P_y",
                                       "P_z", "lambda", "eps", "speed"]
        assert len(lines) == 102
    manifest = json.loads((out / "trajectory_manifest.json").read_text())
    assert len(manifest["runs"]) == 2
    assert manifest["runs"][0]["helicity_drift"] <= 1e-9

    bad = write_config(tmp_path, {
        "model": {"model": "neutrino_metric",
                  "field": {"kind": "uniform", "value": 1.0}},
        "trajectory": {"dt": -1.0, "steps": 10},
    }, name="bad.json")
    assert main(["--config", bad, "--out", str(out), "trajectory"]) == 1

    dirac = write_config(tmp_path, dict(DIRAC_CFG, trajectory={"steps": 10}),
                         name="dirac.json")
    assert main(["--config", dirac, "--out", str(tmp_path / "d"),
                 "trajectory"]) == 1
    assert not (tmp_path / "d").exists()


NEUTRINO_RAY_CFG = {
    "model": {"model": "neutrino_metric",
              "field": {"kind": "uniform", "value": 1.0}},
    "hbar": 0.001,
    "trajectory": {"r0": [0, 0, 0], "P0": [0, 0, 1.0], "dt": 0.01,
                   "steps": 5},
}


def test_trajectory_zero_momentum_reported_per_run(tmp_path):
    cfg = write_config(tmp_path, dict(
        NEUTRINO_RAY_CFG, trajectory={"P0": [0, 0, 0], "steps": 5}))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", cfg, "--out", str(out), "trajectory"]) == 2
    manifest = json.loads((out / "trajectory_manifest.json").read_text())
    assert manifest["runs"] == []
    assert [e["lambda"] for e in manifest["errors"]] == [1, -1]
    assert all("|P0|" in e["error"] for e in manifest["errors"])


def test_trajectory_integrator_failure_reported_per_run(tmp_path, monkeypatch):
    real = semiband.cli.integrate_ray

    def failing_minus(model, r0, P0, lam, *args):
        if lam == -1:
            raise RuntimeError("rk45 step rejection overflow")
        return real(model, r0, P0, lam, *args)

    monkeypatch.setattr(semiband.cli, "integrate_ray", failing_minus)
    cfg = write_config(tmp_path, NEUTRINO_RAY_CFG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "trajectory"]) == 2
    manifest = json.loads((out / "trajectory_manifest.json").read_text())
    assert [run["lambda"] for run in manifest["runs"]] == [1]
    assert (out / "trajectory_lam+1.csv").exists()
    assert manifest["errors"] == [
        {"lambda": -1, "error": "RuntimeError: rk45 step rejection overflow"}]


@pytest.mark.parametrize("section, top", [
    ({"steps": -3, "dt": math.nan}, {}),
    ({"dt": math.inf}, {}),
    ({"steps": 0}, {}),
    ({"steps": 2.5}, {}),
    ({"r0": [math.nan, 0, 0]}, {}),
    ({"P0": [0, 0, math.inf]}, {}),
    ({"r0": [0, 0]}, {}),
    ({"dt": None}, {}),
    ({}, {"hbar": math.nan}),
    ({}, {"hbar": -1e-3}),
], ids=repr)
def test_trajectory_rejects_bad_inputs_before_any_run(tmp_path, section, top):
    cfg = write_config(tmp_path, dict(
        NEUTRINO_RAY_CFG, **top,
        trajectory=dict(NEUTRINO_RAY_CFG["trajectory"], **section)))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "trajectory"]) == 1
    assert not out.exists()


def test_trajectory_accepts_integral_float_steps(tmp_path):
    cfg = write_config(tmp_path, dict(
        NEUTRINO_RAY_CFG, trajectory=dict(NEUTRINO_RAY_CFG["trajectory"],
                                          steps=5.0)))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "trajectory"]) == 0
    manifest = json.loads((out / "trajectory_manifest.json").read_text())
    assert manifest["steps"] == 5


def test_trajectory_non_finite_state_reported_per_run(tmp_path):
    cfg = write_config(tmp_path, dict(
        NEUTRINO_RAY_CFG, trajectory=dict(NEUTRINO_RAY_CFG["trajectory"],
                                          P0=[0, 0, 1e150])))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "trajectory"]) == 2
    manifest = json.loads((out / "trajectory_manifest.json").read_text())
    assert manifest["runs"] == []
    assert all(e["error"].startswith("FloatingPointError")
               for e in manifest["errors"])


def test_verify_suite_filter_and_tamper(tmp_path):
    out = tmp_path / "out"
    assert main(["--out", str(out), "--suite", "bracket", "verify"]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    names = [s["name"] for s in report["suites"]]
    assert names == ["bracket-product-rule", "bracket-invariance",
                     "symmetrized-bracket"]

    # An absurd tolerance must surface as a listed failure and exit code 2.
    cfg = write_config(tmp_path, {
        "suites": {"neutrino-curvature": {"tolerance": 1e-20, "points": 2}}})
    code = main(["--config", cfg, "--out", str(out), "--suite",
                 "neutrino-curvature", "verify"])
    assert code == 2
    report = json.loads((out / "verify_report.json").read_text())
    assert report["suites"][0]["passed"] is False

    assert main(["--out", str(out), "--suite", "no-such-suite", "verify"]) == 1


def test_bracket_check_command(tmp_path):
    out = tmp_path / "out"
    assert main(["--out", str(out), "--seed", "1", "bracket-check"]) == 0
    report = json.loads((out / "bracket_report.json").read_text())
    assert report["cases"] == 200
    assert report["exact"] == 200
    assert report["pure_sum_brackets_vanish"] is True

    cfg = write_config(tmp_path, {"max_degree": 9})
    assert main(["--config", cfg, "--out", str(out), "bracket-check"]) == 1


@pytest.mark.parametrize("payload", [{"dims": []}, {"cases": 1}, {"cases": 0}])
def test_bracket_check_rejects_vacuous_case_lists(tmp_path, payload):
    # Zero cases per dimension would report "0/0 cases exact" as a pass.
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "bracket-check"]) == 1
    assert not out.exists()
