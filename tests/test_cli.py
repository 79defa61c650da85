"""Command-line interface: outputs, exit codes and determinism."""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import semiband.cli
import semiband.verify
from semiband.cli import main
from semiband.models import NeutrinoMetric
from semiband.verify import ALL_SUITES, BRACKET_SUITES, SuiteResult


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


def test_main_builds_no_parser_per_call(tmp_path, monkeypatch):
    # The parser is built once, at import; a call only parses its argv.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cfg = write_config(tmp_path, DIRAC_CFG)
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["--config", cfg, "--out", str(out), "--order", "0",
                     "diagonalize"]) == 0
    assert built == []


def test_a_flag_of_one_call_does_not_reach_the_next(tmp_path):
    # --order 0, then no --order: the second call takes the config's order
    # (2 by default), and its files are those of a call without the first.
    cfg = write_config(tmp_path, DIRAC_CFG)
    assert main(["--config", cfg, "--out", str(tmp_path / "zero"),
                 "--order", "0", "diagonalize"]) == 0
    for run in ("after", "fresh"):
        assert main(["--config", cfg, "--out", str(tmp_path / run),
                     "diagonalize"]) == 0
    report = json.loads((tmp_path / "after" / "energies.json").read_text())
    assert [rec["order"] for rec in report["records"]] == [2]
    for name in ("energies.json", "energies.csv"):
        assert ((tmp_path / "after" / name).read_bytes()
                == (tmp_path / "fresh" / name).read_bytes())


def test_help_text_and_unknown_command(capsys):
    commands = ["diagonalize", "connections", "curvature", "trajectory",
                "verify", "bracket-check"]
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert text.startswith("usage: semiband [-h] [--config CONFIG]")
    for line in ["{" + ",".join(commands) + "}",
                 "Block-diagonal band energies, Berry data and ray tracing "
                 "for matrix-valued Hamiltonians.",
                 "--config CONFIG JSON configuration file",
                 "--order ORDER expansion order (0, 1, 2)",
                 "--hbar HBAR value of hbar", "--seed SEED random seed",
                 "--out OUT output directory",
                 "--suite SUITE verification suite name (verify)",
                 "--jobs JOBS accepted for compatibility; points always run "
                 "in order, in chunks, in one thread"]:
        assert line in text
    with pytest.raises(SystemExit) as stop:
        main(["nope"])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nope'" in err
    assert all(command in err for command in commands)


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
    for command, stem in (("diagonalize", "energies"),
                          ("curvature", "curvature")):
        out1, out2 = tmp_path / f"{command}-a", tmp_path / f"{command}-b"
        assert main(["--config", cfg, "--out", str(out1), command]) == 0
        assert main(["--config", cfg, "--out", str(out2), command]) == 0
        for suffix in (".json", ".csv"):
            assert (out1 / (stem + suffix)).read_bytes() == \
                (out2 / (stem + suffix)).read_bytes()


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


@pytest.mark.parametrize("hbar", [True, "0.02"], ids=repr)
@pytest.mark.parametrize("command", ["diagonalize", "connections",
                                     "curvature"])
def test_point_commands_reject_non_number_hbar(tmp_path, capsys, command,
                                               hbar):
    # Only a finite real JSON number is an hbar: a bool is not taken as 1
    # and a string is not parsed.
    cfg = write_config(tmp_path, dict(DIRAC_CFG, hbar=hbar))
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), command]) == 1
    assert "hbar must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,argv,extra", [
    ("diagonalize", ["--order", "3"], {}),
    ("diagonalize", [], {"representation": "covarient"}),
    ("connections", [], {"connection_order": "1"}),
    # fd_base and overlap are no tolerances: unknown names, whatever the value.
    ("diagonalize", [], {"tolerances": {"fd_base": math.nan}}),
    ("diagonalize", [], {"tolerances": {"fd_base": 0}}),
    ("diagonalize", [], {"tolerances": {"gap": -1, "degeneracy": "nan"}}),
    ("connections", [], {"tolerances": {"overlap": math.inf}}),
    ("diagonalize", [], {"tolerances": {"gap": None}}),
    ("diagonalize", [], {"points": []}),
    ("diagonalize", [], {"points": None, "random_points": {"count": 0}}),
    ("curvature", [], {"points": None, "random_points": {"count": -2}}),
    # Model and field parameters must be finite real numbers.
    ("diagonalize", [], {"model": {"model": "dirac_electric", "m": "abc"}}),
    ("diagonalize", [], {"model": {"model": "dirac_electric", "m": [1]}}),
    ("diagonalize", [], {"model": {"model": "dirac_electric", "m": True}}),
    ("diagonalize", [], {"model": {"model": "dirac_electric", "e": "nan"}}),
    ("curvature", [], {"model": {"model": "dirac_electric", "field": {
        "kind": "uniform", "value": None}}}),
    ("connections", [], {"model": {"model": "dirac_electric", "field": {
        "kind": "gaussian", "width": "nan"}}}),
    ("diagonalize", [], {"model": {"model": "neutrino_metric", "field": {
        "kind": "linear", "gradient": [0.1, 0, math.inf], "offset": 1.5}}}),
    ("diagonalize", [], {"model": {"model": "dirac_electric", "field": {
        "kind": "coulomb", "charge": False}}}),
    ("diagonalize", [], {"model": {"model": "dirac_electric", "field": {
        "kind": "polynomial", "terms": [[0.5, [1, "2", 0]]]}}}),
    ("diagonalize", [], {"model": {"model": "neutrino_metric", "field": {
        "kind": "reciprocal"}}}),
    # two_level terms: integer exponents >= 0, a known ordering, objects.
    ("diagonalize", [], {"model": {"model": "two_level", "h0": [
        {"coef": "1", "r_exp": [1.5, 0, 0]}]}}),
    ("diagonalize", [], {"model": {"model": "two_level", "h0": [
        {"coef": "1", "r_exp": [-1, 0, 0]}]}}),
    ("connections", [], {"model": {"model": "two_level", "h0": [
        {"coef": "1", "sym": "bogus"}]}}),
    ("diagonalize", [], {"model": {"model": "two_level", "h0": [3]}}),
    ("curvature", [], {"model": {"model": "two_level", "h0": [
        {"coef": "1", "r_exp": None}]}}),
    # Tolerances and grid bounds must be finite real numbers.
    ("diagonalize", [], {"tolerances": {"gap": True}}),
    ("connections", [], {"tolerances": {"gap": "1e-6"}}),
    ("diagonalize", [], {"points": None, "grid": {
        "R": [[True, 1, 1], [0, 0, 1], [0, 0, 1]],
        "P": [[0.5, 0.5, 1], [0.2, 0.2, 1], [0.3, 0.3, 1]]}}),
    ("diagonalize", [], {"points": None, "grid": {
        "R": [[0, 0, 1], [0, 0, 1], [0, 0, 1]],
        "P": [["0.5", 0.5, 1], [0.2, 0.2, 1], [0.3, 0.3, 1]]}}),
    # Config sections of the wrong JSON type.
    ("diagonalize", [], {"tolerances": 5}),
    ("diagonalize", [], {"points": None, "random_points": 3}),
    ("diagonalize", [], {"points": None, "grid": 5}),
    ("trajectory", [], {"model": {"model": "neutrino_metric"},
                        "trajectory": 5}),
    ("diagonalize", [], {"points": None, "random_points": {"p_range": 5}}),
    ("connections", [], {"points": None, "grid": {
        "R": [1, 2, 3], "P": [[0.5, 0.5, 1], [0.2, 0.2, 1], [0.3, 0.3, 1]]}}),
    ("diagonalize", [], {"points": 7}),
    ("verify", [], {"suites": 5}),
    ("verify", [], {"suites_to_run": ["free-field-degeneracy"],
                    "suites": {"free-field-degeneracy": 5}}),
    ("verify", [], {"suites_to_run": 5}),
    ("verify", [], {"suites_to_run": [["free-field-degeneracy"]]}),
    # An unknown tolerance name.
    ("diagonalize", [], {"tolerances": {"gapp": 0.5}}),
    # Suite overrides name parameters of the suite, with values of the kind
    # of the parameter's default.
    ("verify", [], {"suites_to_run": ["free-field-degeneracy"],
                    "suites": {"free-field-degeneracy": {"bogus": 1}}}),
    ("verify", [], {"suites_to_run": ["free-field-degeneracy"],
                    "suites": {"no-such-suite": {}}}),
    ("verify", [], {"suites_to_run": ["neutrino-curvature"],
                    "suites": {"neutrino-curvature": {"points": "2"}}}),
    ("verify", [], {"suites_to_run": ["neutrino-curvature"],
                    "suites": {"neutrino-curvature": {"points": True}}}),
    ("verify", [], {"suites_to_run": ["neutrino-curvature"],
                    "suites": {"neutrino-curvature": {"points": 2.5}}}),
    ("verify", [], {"suites_to_run": ["neutrino-curvature"],
                    "suites": {"neutrino-curvature": {"tolerance": "1e-8"}}}),
    ("verify", [], {"suites_to_run": ["neutrino-curvature"],
                    "suites": {"neutrino-curvature": {"tolerance": math.nan}}}),
    ("verify", [], {"suites": {"symmetrized-bracket": {"seed": False}}}),
    # Every tolerance must be finite and > 0.
    ("diagonalize", [], {"tolerances": {"block": math.nan}}),
    ("connections", [], {"tolerances": {"unitarity": 0}}),
    ("curvature", [], {"tolerances": {"degeneracy": math.inf}}),
    # Exactly one point source: the base config's "points" and a second one.
    ("diagonalize", [], {"random_points": {"count": 5}}),
    ("connections", [], {"grid": {
        "R": [[0, 0, 1], [0, 0, 1], [0, 0, 1]],
        "P": [[0.5, 0.5, 1], [0.2, 0.2, 1], [0.3, 0.3, 1]]}}),
    # A gaussian width or coulomb softening whose powers, which the jets
    # divide by, overflow or underflow to 0.
    ("diagonalize", [], {"model": {"model": "dirac_electric", "field": {
        "kind": "gaussian", "width": 1e200}}}),
    ("curvature", [], {"model": {"model": "dirac_electric", "field": {
        "kind": "gaussian", "width": 1e-100}}}),
    ("connections", [], {"model": {"model": "neutrino_metric", "field": {
        "kind": "coulomb", "softening": 1e-70}}}),
    ("trajectory", [], {"model": {"model": "neutrino_metric", "field": {
        "kind": "coulomb", "softening": 1e-70}}}),
    # An empty suite list runs nothing, which must not read as a pass.
    ("verify", [], {"suites_to_run": []}),
])
def test_invalid_choices_are_config_errors(tmp_path, capsys, command, argv,
                                           extra):
    # A None value drops the key, so "random_points" is not shadowed by the
    # base config's "points".
    cfg = write_config(tmp_path, {key: value for key, value
                                  in {**DIRAC_CFG, **extra}.items()
                                  if value is not None})
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), *argv, command]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name,value", [("fd_base", 1e-3), ("overlap", 1e-6)])
def test_fixed_stencil_base_and_overlap_floor_are_no_tolerances(
        tmp_path, capsys, name, value):
    # The stencil base and the gauge-overlap floor are constants of the
    # finite-difference cross-check: a config cannot set them.
    cfg = write_config(tmp_path, dict(DIRAC_CFG, tolerances={name: value}))
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "diagonalize"]) == 1
    assert not out.exists()
    assert f"unknown tolerance {name!r}" in capsys.readouterr().err


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
    # bracket-check refuses any "dims" key, these malformed ones too.
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
             {"seed": 3, "cases": 4, "max_degree": 3},
             {"seed": 3e0, "cases": 4e0, "max_degree": 3e0})):
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


_MODEL_METHODS = ("hamiltonian", "analytic_frame", "analytic_connections",
                  "d_hamiltonian", "d2_hamiltonian", "d_analytic_connections")


def test_curvature_makes_one_model_pass_per_point(tmp_path, monkeypatch):
    # The 4 points make one chunk, and the chunk one batched curvature pass;
    # each helicity curvature adds one batched gauge-term gradient to it.
    # They used to rebuild the frame and the connection gradients once per
    # helicity, and the pass used to run once per point.
    calls = dict.fromkeys(_MODEL_METHODS, 0)
    for name in _MODEL_METHODS:
        def counting(self, x, *args, _real=getattr(NeutrinoMetric, name),
                     _name=name):
            calls[_name] += 1
            return _real(self, x, *args)
        monkeypatch.setattr(NeutrinoMetric, name, counting)
    cfg = write_config(tmp_path, {
        "model": {"model": "neutrino_metric",
                  "field": {"kind": "gaussian", "amplitude": 0.4,
                            "center": [0.3, 0.1, -0.2], "width": 2.0}},
        "hbar": 0.01, "seed": 2,
        "random_points": {"count": 4, "p_range": [0.5, 2.0]},
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "curvature"]) == 0
    assert calls == {**dict.fromkeys(_MODEL_METHODS, 1),
                     "d_analytic_connections": 1 + 2}
    records = json.loads((out / "curvature.json").read_text())["records"]
    assert all(len(rec["band_theta_lam+1"]) == 3 for rec in records)


def test_curvature_reports_a_non_finite_point(tmp_path):
    # At |P| = 1e-150 the neutrino curvatures overflow.  The point is
    # reported on its own, as band energies are, instead of written as NaN.
    cfg = write_config(tmp_path, {
        "model": {"model": "neutrino_metric",
                  "field": {"kind": "gaussian", "amplitude": 0.4,
                            "center": [0.3, 0.1, -0.2], "width": 2.0}},
        "hbar": 0.01,
        "points": [{"R": [0.1, 0.2, -0.3], "P": [0.5, -0.4, 0.8]},
                   {"R": [0.1, 0.2, -0.3], "P": [1e-150, 0, 0]}],
    })
    out = tmp_path / "out"
    with warnings.catch_warnings():
        # numpy's overflow warnings, as a run outside the tests shows them.
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["--config", cfg, "--out", str(out), "curvature"]) == 2
    report = json.loads((out / "curvature.json").read_text())
    assert [e["index"] for e in report["errors"]] == [1]
    assert report["errors"][0]["error"].startswith("FloatingPointError")
    assert len(report["records"]) == 1
    assert "nan" not in (out / "curvature.csv").read_text().lower()


@pytest.mark.parametrize("command,stem", [
    ("connections", "connections"), ("diagonalize", "energies"),
    ("curvature", "curvature")])
def test_a_non_finite_frame_is_reported_per_point(tmp_path, command, stem):
    # V = 1e300 x overflows at x = 1e10, so H is not finite there.  Every
    # per-point command lists the point as a FloatingPointError of its
    # frame, and none writes a NaN.
    cfg = write_config(tmp_path, {
        "model": {"model": "dirac_electric", "field": {
            "kind": "linear", "gradient": [1e300, 0, 0]}},
        "points": [{"R": [1e10, 0, 0], "P": [0.3, 0.2, 0.1]}],
    })
    out = tmp_path / "out"
    with warnings.catch_warnings():
        # numpy's overflow warnings, as a run outside the tests shows them.
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["--config", cfg, "--out", str(out), command]) == 2
    report = json.loads((out / f"{stem}.json").read_text())
    assert report["errors"] == [{"index": 0, "error": "FloatingPointError: "
                                 "frame is not finite: H, eps0 or U0"}]
    assert report["records"] == []
    for name in (f"{stem}.json", f"{stem}.csv"):
        assert "nan" not in (out / name).read_text().lower()


def test_connections_refuse_a_non_finite_set(tmp_path):
    # At x = 0 the frame is finite (V = 0), but the corrected connections
    # of grad V = 1e300 overflow: the point is listed, as band energies and
    # curvatures are, and no NaN is written.
    cfg = write_config(tmp_path, {
        "model": {"model": "dirac_electric", "field": {
            "kind": "linear", "gradient": [1e300, 0, 0]}},
        "points": [{"R": [0, 0.5, 0], "P": [0.3, 0.2, 0.1]}],
    })
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["--config", cfg, "--out", str(out), "connections"]) == 2
    report = json.loads((out / "connections.json").read_text())
    assert report["errors"] == [{"index": 0, "error": "FloatingPointError: "
                                 "connection set is not finite"}]
    assert report["records"] == []
    assert "nan" not in (out / "connections.csv").read_text().lower()


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


def test_trajectory_run_that_raises_anything_is_reported_per_run(tmp_path):
    # F = 1/n on a profile of constant 1e-110: the reciprocal jet divides by
    # n^3, which underflows to 0, so each run raises a ValueError naming the
    # profile value.
    cfg = write_config(tmp_path, dict(NEUTRINO_RAY_CFG, model={
        "model": "neutrino_metric",
        "field": {"kind": "polynomial", "terms": [[1e-110, [0, 0, 0]]]}}))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "trajectory"]) == 2
    manifest = json.loads((out / "trajectory_manifest.json").read_text())
    assert manifest["runs"] == []
    assert manifest["errors"] == [
        {"lambda": lam, "error": "ValueError: profile value 1e-110 is out of "
         "range: its square or cube underflows to 0"}
        for lam in (1, -1)]


@pytest.mark.parametrize("value", [1e110, 1e160])
def test_trajectory_lists_an_overflowing_profile_per_run(tmp_path, value):
    # F = 1/n on a constant profile whose cube (1e110) or square (1e160)
    # overflows: each run names the profile value, as for an underflow.
    cfg = write_config(tmp_path, dict(NEUTRINO_RAY_CFG, model={
        "model": "neutrino_metric",
        "field": {"kind": "uniform", "value": value}}))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "trajectory"]) == 2
    manifest = json.loads((out / "trajectory_manifest.json").read_text())
    assert manifest["runs"] == []
    assert manifest["errors"] == [
        {"lambda": lam, "error": f"ValueError: profile value {value!r} is out "
         "of range: its square or cube overflows"}
        for lam in (1, -1)]


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
    ({"dt": True}, {}),
    ({"dt": "0.01"}, {}),
    ({"r0": [True, 0, 0]}, {}),
    ({"P0": [0, 0, "1"]}, {}),
    ({"r0": "abc"}, {}),
    ({}, {"hbar": True}),
    ({}, {"hbar": "0.02"}),
    ({"pair_lambdas": "false"}, {}),
    ({"pair_lambdas": 0}, {}),
    # lambda and method go through `dynamics.check_ray_inputs` too.
    ({"pair_lambdas": False, "lambda": 2}, {}),
    ({"pair_lambdas": False, "lambda": 0}, {}),
    ({"pair_lambdas": False, "lambda": True}, {}),
    ({"method": "euler"}, {}),
    ({"method": "RK45", "pair_lambdas": False}, {}),
    ({"r0": 5}, {}),
    ({"P0": 5}, {}),
    ({"P0": None}, {}),
    ({"r0": [1, [2], 3]}, {}),
], ids=repr)
def test_trajectory_rejects_bad_inputs_before_any_run(tmp_path, section, top):
    cfg = write_config(tmp_path, dict(
        NEUTRINO_RAY_CFG, **top,
        trajectory=dict(NEUTRINO_RAY_CFG["trajectory"], **section)))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "trajectory"]) == 1
    assert not out.exists()


@pytest.mark.parametrize("key", ["r0", "P0"])
@pytest.mark.parametrize("value", [5, None, {"x": 1}, [1, [2], 3]], ids=repr)
def test_trajectory_names_the_start_key_that_is_not_a_vector(tmp_path, capsys,
                                                             key, value):
    cfg = write_config(tmp_path, dict(
        NEUTRINO_RAY_CFG,
        trajectory=dict(NEUTRINO_RAY_CFG["trajectory"], **{key: value})))
    assert main(["--config", cfg, "--out", str(tmp_path / "out"),
                 "trajectory"]) == 1
    assert capsys.readouterr().err == (
        f"error: trajectory: {key} must have three components, "
        f"not {value!r}\n")


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


@pytest.mark.parametrize("suite,overrides", [
    ("neutrino-curvature", {"points": 0}),
    ("free-field-degeneracy", {"points": 0}),
    ("dirac-canonical-oracle", {"points": -3}),
    # These run half their sample per profile or per dimension.
    ("neutrino-energy-oracle", {"points": 1}),
    ("bracket-product-rule", {"cases": 1}),
    ("bracket-invariance", {"cases": 1}),
    # Without an R or P letter every bracket is 0.
    ("bracket-product-rule", {"max_degree": 0}),
    ("bracket-invariance", {"max_degree": 0}),
])
def test_verify_refuses_a_sample_that_tests_nothing(tmp_path, capsys, suite,
                                                    overrides):
    # Over an empty sample the worst error stays 0, which would read as PASS.
    cfg = write_config(tmp_path, {"suites_to_run": [suite],
                                  "suites": {suite: overrides}})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "verify"]) == 1
    assert not out.exists()
    (key,) = overrides
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"suite {suite} parameter {key}" in err


def test_verify_passes_regardless_of_wall_clock(tmp_path, monkeypatch):
    # A suite that appears to take 20 s still passes on its errors alone,
    # and no wall-clock field reaches the report.
    clock = iter(range(0, 10 ** 6, 20))
    monkeypatch.setattr(semiband.verify.time, "perf_counter",
                        lambda: float(next(clock)))
    cfg = write_config(tmp_path, {
        "suites": {"dirac-canonical-oracle": {"points": 3}}})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--suite",
                 "dirac-canonical-oracle", "verify"]) == 0
    (suite,) = json.loads((out / "verify_report.json").read_text())["suites"]
    assert suite["passed"] is True
    assert set(suite["metrics"]) == {"points", "max_rel_err", "tolerance"}


def _suite_metrics(report: dict) -> dict:
    return {suite["name"]: suite["metrics"] for suite in report["suites"]}


def test_bracket_check_command(tmp_path):
    out = tmp_path / "out"
    assert main(["--out", str(out), "--seed", "1", "bracket-check"]) == 0
    report = json.loads((out / "bracket_report.json").read_text())
    assert set(report) == {"schema_version", "seed", "all_passed", "suites",
                           "pure_sum_brackets_vanish"}
    assert report["seed"] == 1 and report["all_passed"] is True
    metrics = _suite_metrics(report)
    assert list(metrics) == BRACKET_SUITES
    for name in ("bracket-product-rule", "bracket-invariance"):
        assert metrics[name] == {"cases": 200, "failures": 0}
    assert report["pure_sum_brackets_vanish"] is True


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_bracket_check_runs_the_verify_bracket_suites(tmp_path, seed):
    # One implementation: the top-level cases and max_degree of bracket-check
    # are the parameters of the two random suites under verify.
    params = {"cases": 4, "max_degree": 3}
    check = write_config(tmp_path, params)
    assert main(["--config", check, "--out", str(tmp_path / "check"),
                 "--seed", str(seed), "bracket-check"]) == 0
    verify = write_config(tmp_path, {"suites": {
        "bracket-product-rule": params, "bracket-invariance": params}})
    assert main(["--config", verify, "--out", str(tmp_path / "verify"),
                 "--seed", str(seed), "--suite", "bracket", "verify"]) == 0
    checked = json.loads((tmp_path / "check/bracket_report.json").read_text())
    verified = json.loads(
        (tmp_path / "verify/verify_report.json").read_text())
    assert checked["suites"] == verified["suites"]
    assert _suite_metrics(checked)["bracket-invariance"]["cases"] == 4


def test_a_new_bracket_suite_reaches_bracket_check(tmp_path, monkeypatch):
    monkeypatch.setitem(ALL_SUITES, "extra-bracket", lambda seed: SuiteResult(
        "extra-bracket", True, {"cases": 1, "failures": 0}))
    monkeypatch.setattr(semiband.verify, "BRACKET_SUITES",
                        [*BRACKET_SUITES, "extra-bracket"])
    out = tmp_path / "out"
    assert main(["--out", str(out), "bracket-check"]) == 0
    report = json.loads((out / "bracket_report.json").read_text())
    assert [s["name"] for s in report["suites"]][-1] == "extra-bracket"


def test_verify_is_imported_only_by_the_commands_that_run_it():
    # A fresh interpreter: this one imported `semiband.verify` above.
    src = Path(semiband.cli.__file__).resolve().parents[1]
    code = ("import sys, semiband, semiband.cli\n"
            "assert 'semiband.verify' not in sys.modules\n"
            "assert 'semiband.stencils' not in sys.modules\n"
            "from semiband import run_suites\n"
            "assert 'run_suites' in semiband.__all__\n"
            "assert run_suites is sys.modules['semiband.verify'].run_suites\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_bracket_check_takes_degrees_above_eight(tmp_path):
    # No degree cap: the checks never symmetrize, and `verify` runs the
    # same two at max_degree 14.
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"max_degree": 9, "cases": 4})
    assert main(["--config", cfg, "--out", str(out), "bracket-check"]) == 0
    report = json.loads((out / "bracket_report.json").read_text())
    metrics = _suite_metrics(report)
    for name in ("bracket-product-rule", "bracket-invariance"):
        assert metrics[name] == {"cases": 4, "failures": 0}
    assert report["all_passed"] is True


@pytest.mark.parametrize("payload", [
    {"dims": []}, {"cases": 1}, {"cases": 0},
    {"dims": [0], "cases": 4}, {"dims": [-2, 1]}, {"max_degree": 0},
    {"dims": [1, 2]},
])
def test_bracket_check_rejects_vacuous_case_lists(tmp_path, capsys, payload):
    # The rules of `verify`: fewer than 2 cases would leave a dimension
    # without a case, and a max_degree < 1 draws no R or P letter, so every
    # bracket is 0.  The internal dimensions are the suites' own: a config
    # that sets "dims" is refused, whatever its value.
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "bracket-check"]) == 1
    assert not out.exists()
    (key, *_) = payload
    err = capsys.readouterr().err
    assert (repr(key) if key == "dims" else f"parameter {key} ") in err


def test_halved_suites_report_the_sample_that_ran(tmp_path):
    # These suites run half their sample per dimension or per profile, so
    # an odd request runs one fewer, and the report says so.
    for suite, key, asked, ran in (("bracket-product-rule", "cases", 3, 2),
                                   ("bracket-invariance", "cases", 5, 4),
                                   ("neutrino-energy-oracle", "points", 3, 2)):
        cfg = write_config(tmp_path, {"suites": {suite: {key: asked}}})
        out = tmp_path / suite
        assert main(["--config", cfg, "--out", str(out), "--suite", suite,
                     "verify"]) == 0
        (got,) = json.loads((out / "verify_report.json").read_text())["suites"]
        assert got["metrics"][key] == ran


def test_every_json_output_is_in_the_stdlib_format(tmp_path):
    # Determinism tests compare two runs of one writer; this one compares
    # each file with the stdlib's rendering of its own content.
    runs = [
        (DIRAC_CFG, "diagonalize", 0),
        ({**DIRAC_CFG, "order": 1}, "diagonalize", 0),
        (DIRAC_CFG, "connections", 0),
        (DIRAC_CFG, "curvature", 0),
        ({"model": {"model": "neutrino_metric",
                    "field": {"kind": "uniform", "value": 1.0}},
          "points": [{"R": [0, 0, 0], "P": [0.2, 0.1, 1]},
                     {"R": [0, 0, 0], "P": [0, 0, 0]}]}, "diagonalize", 2),
        ({"model": {"model": "neutrino_metric",
                    "field": {"kind": "linear", "gradient": [0.1, 0, 0],
                              "offset": 1.5}},
          "random_points": {"count": 2}}, "curvature", 0),
        (NEUTRINO_RAY_CFG, "trajectory", 0),
        (dict(NEUTRINO_RAY_CFG, trajectory=dict(
            NEUTRINO_RAY_CFG["trajectory"], P0=[0, 0, 0])), "trajectory", 2),
        ({"suites": {"dirac-canonical-oracle": {"points": 3}}},
         "verify", 0),
        ({"cases": 4, "max_degree": 3}, "bracket-check", 0),
    ]
    checked = 0
    for i, (cfg, command, code) in enumerate(runs):
        out = tmp_path / f"o{i}"
        argv = ["--config", write_config(tmp_path, cfg), "--out", str(out)]
        if command == "verify":
            argv += ["--suite", "dirac-canonical-oracle"]
        assert main(argv + [command]) == code
        for path in sorted(out.glob("*.json")):
            text = path.read_text()
            assert json.dumps(json.loads(text), indent=1,
                              sort_keys=True) + "\n" == text, path.name
            checked += 1
    assert checked == len(runs)


_EDGE_NUMBERS = [-0.0, 5e-324, 1e-310, 1e16, 1e22, 0.1, -2.5e-7, 1e300]


def _order2_chunk(special):
    """A chunk laid out as an order-2 `diagonalize` chunk (its diagnostics
    hold "fd"), with constants of every kind and `special` numbers among its
    values, and the records and rows the stdlib writers make of it."""
    rng = np.random.default_rng(len(special))
    N, n = 3, 2
    R, P = rng.normal(size=(N, 3)), rng.normal(size=(N, 3))
    parts, eps = rng.normal(size=(N, n, 5)), rng.normal(size=(N, n, n, 2))
    defect, off = rng.normal(size=N), rng.normal(size=N)
    R.flat[:len(special)] = special
    eps.flat[-len(special):] = special[::-1]
    values, (Rc, Pc, partc, dc, oc, epsc) = semiband.cli._pack(
        R, P, parts, defect, off, eps)
    hbar, text = np.float64(0.01), 'can{on}ical, "x"'
    fd = {"order": 4, "discrepancy": 0.0, "fallbacks": 0}
    record = {"R": Rc, "P": Pc, "bands": partc[:, 0], "eps": epsc,
              "hbar": hbar, "order": 2, "partial": False,
              "representation": text, "lambdas": [1, -1],
              "diagnostics": {"bracket_unavailable": True, "fd": fd,
                              "hermiticity_defect": dc, "offblock_norm": oc}}
    row = [Rc, Pc, hbar, 2, partc, dc, oc, True, text]
    records = [{"R": R[i].tolist(), "P": P[i].tolist(),
                "bands": parts[i, :, 0].tolist(), "eps": eps[i].tolist(),
                "hbar": hbar, "order": 2, "partial": False,
                "representation": text, "lambdas": [1, -1],
                "diagnostics": {"bracket_unavailable": True, "fd": fd,
                                "hermiticity_defect": float(defect[i]),
                                "offblock_norm": float(off[i])}}
               for i in range(N)]
    rows = [[*R[i].tolist(), *P[i].tolist(), hbar, 2,
             *parts[i].ravel().tolist(), float(defect[i]), float(off[i]), True,
             text] for i in range(N)]
    return semiband.cli._Chunk(values, record, row), records, rows


@pytest.mark.parametrize("special", [
    _EDGE_NUMBERS,
    # JSON spells these apart from their repr: the chunk's records take the
    # stdlib-format writer, its rows do not.
    _EDGE_NUMBERS + [math.nan, math.inf, -math.inf],
], ids=["finite", "non-finite"])
def test_chunk_renderer_matches_the_stdlib_writers(special):
    import csv
    import io

    chunk, records, rows = _order2_chunk(special)
    texts, lines = semiband.cli._render(chunk, 0)
    assert texts == [json.dumps(r, indent=1, sort_keys=True) for r in records]
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    assert "".join(lines) == buf.getvalue()
    # The whole file: the envelope around the records at their depth, and
    # an error message that JSON and `str.format` both have to escape.
    errors = [{"index": 4, "error": 'ValueError: {bad} "point"\n\tat é中'}]
    envelope = {"schema_version": 1, "model": {"model": "m{}"}, "seed": 7,
                "errors": errors}
    texts = semiband.cli._render(chunk, 2)[0]
    for given, want in ((texts, records), ([], [])):
        assert semiband.cli._file_text(envelope, given) == json.dumps(
            {**envelope, "records": want}, indent=1, sort_keys=True)


def test_chunk_renderer_matches_the_stdlib_writers_on_layout_edges():
    # Empty columns, a 0-d column at the top level, a key that JSON and
    # `str.format` both escape, and texts that hold a column's mark, "\0<i>",
    # inside a longer string, which stay texts.
    import csv
    import io

    N, mark = 3, "ValueError: \x001"
    x = np.random.default_rng(11).normal(size=(N, 2))
    values, (first, pair, flat, rows) = semiband.cli._pack(
        x[:, 0], x, np.zeros((N, 0)), np.zeros((N, 3, 0)))
    key = 'k{0}"\x000'
    record = {"x": first, key: {"pair": pair, "flat": flat, "rows": rows,
                                "note": mark}}
    chunk = semiband.cli._Chunk(values, record, [first, mark, pair, flat])
    records = [{"x": float(x[i, 0]), key: {
        "pair": x[i].tolist(), "flat": [], "rows": [[], [], []],
        "note": mark}} for i in range(N)]
    texts, lines = semiband.cli._render(chunk, 0)
    assert texts == [json.dumps(r, indent=1, sort_keys=True) for r in records]
    buf = io.StringIO()
    csv.writer(buf).writerows([[x[i, 0], mark, *x[i]] for i in range(N)])
    assert "".join(lines) == buf.getvalue()
    # An error that quotes the placeholder of the records list stays text.
    envelope = {"schema_version": 1, "model": {"model": key}, "seed": 7,
                "errors": [{"index": 1, "error": mark},
                           {"index": 2, "error": '"records": "\x00records"'},
                           {"index": 3, "error": "\x00records"}]}
    texts = semiband.cli._render(chunk, 2)[0]
    assert semiband.cli._file_text(envelope, texts) == json.dumps(
        {**envelope, "records": records}, indent=1, sort_keys=True)


def _column_chunk(special):
    """A chunk whose columns repeat: constant columns (0.0 and -0.0 apart),
    columns equal to earlier ones, `special` numbers as columns of their
    own and inside a varying one; its constants hold `%`, braces and a
    `str.format` field.  With the records and rows the stdlib writers make
    of it."""
    N = 4
    rng = np.random.default_rng(12)
    a, b = rng.normal(size=N), rng.normal(size=N)
    mixed = b.copy()
    mixed[:len(special)] = special[:N]
    cols = [a, np.full(N, 0.25), a, np.full(N, -0.0), np.full(N, 0.0),
            mixed, np.full(N, 0.25), b, mixed,
            *(np.full(N, v) for v in special)]
    values, (vec, pair, rest) = semiband.cli._pack(
        np.stack(cols[:3], axis=1), np.stack(cols[3:7], axis=1).reshape(N, 2, 2),
        np.stack(cols[7:], axis=1))
    text = "100% {12} {x} %s %%"
    record = {"vec": vec, "pair": pair, "rest": rest, "note": text,
              "key %(a)s {12}": {"n": 2, "flag": True, "x": vec[1]}}
    row = [vec, text, pair, 2, rest, "{12}%"]
    records = [{"vec": values[i, :3].tolist(),
                "pair": values[i, 3:7].reshape(2, 2).tolist(),
                "rest": values[i, 7:].tolist(), "note": text,
                "key %(a)s {12}": {"n": 2, "flag": True,
                                   "x": float(values[i, 1])}}
               for i in range(N)]
    rows = [[*values[i, :3].tolist(), text, *values[i, 3:7].tolist(), 2,
             *values[i, 7:].tolist(), "{12}%"] for i in range(N)]
    return semiband.cli._Chunk(values, record, row), records, rows


@pytest.mark.parametrize("special", [
    [-0.0, 5e-324, 1e-310, 1e22],
    [-0.0, 5e-324, math.nan, math.inf, -math.inf],
], ids=["finite", "non-finite"])
def test_column_renderer_matches_the_stdlib_writers(special):
    import csv
    import io

    chunk, records, rows = _column_chunk(special)
    for level in (0, 2):
        texts, lines = semiband.cli._render(chunk, level)
        assert texts == [json.dumps(r, indent=1, sort_keys=True).replace(
            "\n", "\n" + " " * level) for r in records]
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        assert "".join(lines) == buf.getvalue()
    envelope = {"schema_version": 1, "model": {"model": "m%s{0}"}, "seed": 7,
                "errors": [{"index": 3, "error": "ValueError: 50% {1}"}]}
    assert semiband.cli._file_text(envelope, texts) == json.dumps(
        {**envelope, "records": records}, indent=1, sort_keys=True)
    # Layouts without a column still give one record and row per point.
    bare = semiband.cli._Chunk(chunk.values, {"note": "50%"}, ["50%", 2])
    assert semiband.cli._render(bare, 0) == (
        ['{\n "note": "50%"\n}'] * len(rows), ["50%,2\r\n"] * len(rows))


def test_each_distinct_column_is_turned_into_text_once(monkeypatch):
    # One repr per element of a distinct varying column and one per
    # distinct constant column; repeated columns share their texts.
    import csv
    import io

    calls = []

    def counting(x):
        calls.append(x)
        return float.__repr__(x)

    monkeypatch.setattr(semiband.cli, "_repr", counting)
    chunk, records, rows = _column_chunk([-0.0, 5e-324, 1e-310, 1e22])
    values = chunk.values
    distinct = {col.tobytes(): col for col in values.T.view(np.int64)}
    varying = sum(len(set(col.tolist())) > 1 for col in distinct.values())
    constant = len(distinct) - varying
    assert (len(distinct), varying, constant) == (9, 3, 6)
    texts, lines = semiband.cli._render(chunk, 0)
    assert len(calls) == varying * len(values) + constant
    assert texts == [json.dumps(r, indent=1, sort_keys=True) for r in records]
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    assert "".join(lines) == buf.getvalue()
