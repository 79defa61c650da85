"""Config objects: one reader, undeclared keys refused, defaults pinned."""

import json
from fractions import Fraction

import numpy as np
import pytest

import semiband.cli
from semiband.cli import main
from semiband.fields import REQUIRED, make_field, read_config
from semiband.frames import Tolerances
from semiband.models import (
    ComponentTerm, _term_from_config, make_model, random_batch,
)

POINT = {"R": [0.1, 0.2, 0.3], "P": [0.5, -0.4, 0.8]}
GRID = {"R": [[0, 0, 1], [0, 0, 1], [0, 0, 1]],
        "P": [[0.5, 1.5, 2], [0.2, 0.2, 1], [-0.3, 0.3, 2]]}


def _dirac(field: dict) -> dict:
    return {"model": {"model": "dirac_electric", "field": field},
            "points": [POINT]}


def _neutrino(field: dict) -> dict:
    return {"model": {"model": "neutrino_metric", "field": field},
            "points": [POINT]}


BOGUS = {"bogus": 1}
GAUSSIAN = {"kind": "gaussian", "amplitude": 0.5, "width": 1.5}

# (command, config with one undeclared "bogus" key, the object the error
# names).
UNDECLARED = {
    "uniform field": ("diagonalize", _dirac(
        {"kind": "uniform", "value": 0.1, **BOGUS}), "uniform field"),
    "linear field": ("diagonalize", _dirac(
        {"kind": "linear", "gradient": [0.1, 0, 0], **BOGUS}),
        "linear field"),
    "polynomial field": ("diagonalize", _dirac(
        {"kind": "polynomial", "terms": [[0.2, [1, 0, 0]]], **BOGUS}),
        "polynomial field"),
    "gaussian field": ("diagonalize", _dirac({**GAUSSIAN, **BOGUS}),
                       "gaussian field"),
    "coulomb field": ("diagonalize", _dirac(
        {"kind": "coulomb", "charge": 0.5, **BOGUS}), "coulomb field"),
    "reciprocal field": ("diagonalize", _neutrino(
        {"kind": "reciprocal", "base": {"kind": "uniform", "value": 0.8},
         **BOGUS}), "reciprocal field"),
    "reciprocal base": ("diagonalize", _neutrino(
        {"kind": "reciprocal", "base": {"kind": "uniform", "value": 0.8,
                                        **BOGUS}}), "uniform field"),
    "dirac_electric model": ("diagonalize", {
        "model": {"model": "dirac_electric", "m": 1.0, **BOGUS},
        "points": [POINT]}, "dirac_electric model"),
    "neutrino_metric model": ("connections", {
        "model": {"model": "neutrino_metric", **BOGUS}, "points": [POINT]},
        "neutrino_metric model"),
    "two_level model": ("curvature", {
        "model": {"model": "two_level", **BOGUS}, "points": [POINT]},
        "two_level model"),
    "two_level term": ("diagonalize", {
        "model": {"model": "two_level", "h0": [{"coef": "1/2", **BOGUS}]},
        "points": [POINT]}, "term"),
    "points entry": ("diagonalize", {
        "model": {"model": "dirac_electric"}, "points": [
            POINT, {**POINT, **BOGUS}]}, "point #1"),
    "grid": ("connections", {
        "model": {"model": "dirac_electric"}, "grid": {**GRID, **BOGUS}},
        "grid"),
    "random_points": ("curvature", {
        "model": {"model": "dirac_electric"},
        "random_points": {"count": 2, **BOGUS}}, "random_points"),
    "trajectory": ("trajectory", {
        "model": {"model": "neutrino_metric"},
        "trajectory": {"steps": 5, **BOGUS}}, "trajectory"),
    "tolerances": ("diagonalize", {
        "model": {"model": "dirac_electric"}, "points": [POINT],
        "tolerances": {"gap": 1e-6, **BOGUS}}, "tolerances"),
    "suite override": ("verify", {
        "suites_to_run": ["free-field-degeneracy"],
        "suites": {"free-field-degeneracy": {"points": 2, **BOGUS}}},
        "suite free-field-degeneracy"),
}


@pytest.mark.parametrize("case", list(UNDECLARED))
def test_an_undeclared_key_is_refused(tmp_path, capsys, case):
    command, payload, what = UNDECLARED[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert what in err and "'bogus'" in err


@pytest.mark.parametrize("command,payload,message", [
    ("diagonalize", _dirac({"kind": "gaussian", "widht": 2.0}),
     "gaussian field: unknown key 'widht'"),
    ("diagonalize", {"model": {"model": "dirac_electric", "mass": 2.0},
                     "points": [POINT]},
     "dirac_electric model: unknown key 'mass'"),
    ("diagonalize", {"model": {"model": "two_level", "h0": [
        {"coef": "1", "rexp": [1, 0, 0]}]}, "points": [POINT]},
     "two_level terms: term: unknown key 'rexp'"),
    ("trajectory", {"model": {"model": "neutrino_metric"},
                    "trajectory": {"step": 5}},
     "trajectory: unknown key 'step'"),
    ("diagonalize", {"model": {"model": "dirac_electric"},
                     "random_points": {"cout": 3}},
     "random_points: unknown key 'cout'"),
    ("diagonalize", {"model": {"model": "dirac_electric"},
                     "points": [POINT], "tolerances": {"gapp": 1e-6}},
     "tolerances: unknown tolerance 'gapp'"),
    ("verify", {"suites": {"free-field-degeneracy": {"point": 2}}},
     "suite free-field-degeneracy: unknown parameter 'point'"),
])
def test_a_misspelt_key_is_named(tmp_path, capsys, command, payload,
                                 message):
    # The first five once ran on the default of the key they meant.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("case", list(UNDECLARED))
def test_the_same_configs_without_the_key_run(tmp_path, case):
    # So the refusal above is the key's, not the rest of the config's.
    command, payload, _ = UNDECLARED[case]
    text = json.dumps(payload).replace(', "bogus": 1', "").replace(
        '"bogus": 1, ', "")
    assert "bogus" not in text
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                 command]) == 0


def test_reader_names_the_first_undeclared_key_then_a_missing_one():
    keys = {"a": 1, "b": REQUIRED}
    assert read_config({"b": 2}, keys, "thing") == {"a": 1, "b": 2}
    with pytest.raises(ValueError, match="^thing: unknown key 'y'$"):
        read_config({"y": 0, "a": 2, "z": 0}, keys, "thing")
    with pytest.raises(ValueError, match="^thing: missing key 'b'$"):
        read_config({"a": 2}, keys, "thing")
    with pytest.raises(ValueError, match="^thing: unknown item 'z'$"):
        read_config({"z": 0}, keys, "thing", "item")
    with pytest.raises(ValueError, match=r"^thing must be an object, not \[\]$"):
        read_config([], keys, "thing")
    # The declared table is not changed by a read.
    assert keys == {"a": 1, "b": REQUIRED}


@pytest.mark.parametrize("payload,message", [
    ({"model": "dirac_electric", "field": {"kind": "reciprocal"}},
     "reciprocal field: missing key 'base'"),
    ({"model": "two_level", "h0": [{"r_exp": [1, 0, 0]}]},
     "two_level terms: term: missing key 'coef'"),
    ({"model": "dirac_electric", "field": {"kind": ["gaussian"]}},
     "unknown field kind ['gaussian']"),
    ({"model": ["dirac_electric"]}, "unknown model ['dirac_electric']"),
])
def test_missing_keys_and_unhashable_names_are_value_errors(payload, message):
    with pytest.raises(ValueError) as info:
        make_model(payload)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# Defaults: each lives in one place; these are the values configs that omit
# the optional keys have always read.
# ---------------------------------------------------------------------------

FIELD_DEFAULTS = [
    ({"kind": "uniform"}, {"kind": "uniform", "value": 0.0}),
    ({"kind": "linear"},
     {"kind": "linear", "gradient": [0.0, 0.0, 0.0], "offset": 0.0}),
    ({"kind": "polynomial", "terms": []}, {"kind": "polynomial", "terms": []}),
    ({"kind": "gaussian"}, {"kind": "gaussian", "amplitude": 1.0,
                            "center": [0.0, 0.0, 0.0], "width": 1.0}),
    ({"kind": "coulomb"}, {"kind": "coulomb", "charge": 1.0,
                           "softening": 0.5}),
    ({"kind": "reciprocal", "base": {"kind": "uniform"}},
     {"kind": "reciprocal", "base": {"kind": "uniform", "value": 0.0}}),
]


@pytest.mark.parametrize("cfg,expected", FIELD_DEFAULTS,
                         ids=[c["kind"] for c, _ in FIELD_DEFAULTS])
def test_field_defaults(cfg, expected):
    # JSON text, so 0 and 0.0 differ.
    field = make_field(cfg)
    assert json.dumps(field.to_config()) == json.dumps(expected)
    # The constructor is the one home of the defaults.
    kwargs = {k: v for k, v in cfg.items() if k != "kind"}
    if "base" in kwargs:
        kwargs["base"] = make_field(kwargs["base"])
    assert json.dumps(type(field)(**kwargs).to_config()) == json.dumps(
        expected)


def test_a_polynomial_without_terms_is_refused():
    with pytest.raises(ValueError, match="^polynomial terms must be"):
        make_field({"kind": "polynomial"})


@pytest.mark.parametrize("name,expected", [
    ("dirac_electric", {"model": "dirac_electric", "m": 1.0, "e": 1.0,
                        "field": {"kind": "uniform", "value": 0.0}}),
    ("neutrino_metric", {"model": "neutrino_metric",
                         "field": {"kind": "uniform", "value": 1.0}}),
    ("two_level", {
        "model": "two_level",
        "h0": [{"coef": "3/10", "r_exp": [1, 0, 0], "p_exp": [0, 1, 0],
                "sym": "half"}],
        "h": [[], [], [
            {"coef": "1", "r_exp": [0, 0, 0], "p_exp": [0, 0, 0],
             "sym": "half"},
            {"coef": "1/5", "r_exp": [2, 0, 0], "p_exp": [0, 0, 0],
             "sym": "half"},
            {"coef": "1/10", "r_exp": [0, 0, 0], "p_exp": [0, 0, 2],
             "sym": "half"}]]}),
])
def test_model_defaults(name, expected):
    assert make_model({"model": name}).to_config() == expected
    # A model's own config builds it again, and the null two_level parts
    # read as the defaults.
    assert make_model(expected).to_config() == expected
    if name == "two_level":
        assert make_model({"model": name, "h0": None, "h": None}
                          ).to_config() == expected


def test_term_defaults():
    assert _term_from_config({"coef": "2/3"}) == ComponentTerm(
        Fraction(2, 3), (0, 0, 0), (0, 0, 0), "half")
    assert _term_from_config({"coef": 2}) == ComponentTerm(Fraction(2))


def test_cli_section_defaults(tmp_path):
    assert semiband.cli._tolerances({}) == Tolerances(
        degeneracy=1e-8, gap=1e-6, block=1e-10, unitarity=1e-12)
    assert semiband.cli._tolerances({"tolerances": {"gap": 1}}) == \
        Tolerances(gap=1.0)
    got = semiband.cli._resolve_points({"random_points": {}},
                                       np.random.default_rng(3))
    ref = random_batch(np.random.default_rng(3), 10, 0.3, 3.0)
    assert got.R.tobytes() == ref.R.tobytes()
    assert got.P.tobytes() == ref.P.tobytes()

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"model": "neutrino_metric"},
                               "trajectory": {"steps": 3}}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "pair"),
                 "trajectory"]) == 0
    manifest = json.loads(
        (tmp_path / "pair" / "trajectory_manifest.json").read_text())
    assert {k: manifest[k] for k in ("dt", "method", "r0", "P0", "lambdas",
                                     "hbar")} == {
        "dt": 0.01, "method": "rk4", "r0": [0.0, 0.0, 0.0],
        "P0": [0.0, 0.0, 1.0], "lambdas": [1, -1], "hbar": 0.001}
    cfg.write_text(json.dumps({"model": {"model": "neutrino_metric"},
                               "trajectory": {"pair_lambdas": False,
                                              "steps": 3}}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "one"),
                 "trajectory"]) == 0
    manifest = json.loads(
        (tmp_path / "one" / "trajectory_manifest.json").read_text())
    assert manifest["lambdas"] == [1]


def test_trajectory_steps_default(monkeypatch, tmp_path):
    # 1000 steps unless the config says otherwise; the integrator is
    # replaced, so nothing runs them.
    seen = []

    def fake(model, r0, P0, lam, hbar, dt, steps, method):
        seen.append(steps)
        raise RuntimeError("not run")

    monkeypatch.setattr(semiband.cli, "integrate_ray", fake)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"model": "neutrino_metric"}}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                 "trajectory"]) == 2
    assert seen == [1000, 1000]
