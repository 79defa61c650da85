"""Point batches: one (N, ...) pass per chunk equals the single-point path
bit for bit, for energies and for curvatures, and a failing point in a chunk
is reported on its own."""

import json

import numpy as np
import pytest

import semiband.cli
from semiband.cli import main
from semiband.dynamics import band_curvature_vector, berry_curvatures
from semiband.energy import CHUNK, band_energy, band_energy_batch
from semiband.models import PhasePoint, make_model, random_points
from tests.test_cli import write_config
from tests.test_energy import _group_rotated
from tests.test_frames import BENCHMARK_CONFIGS
from tests.test_tangents import _FrameLess, _VariableMassDirac, _twisted

# Polynomial terms with exponents 2 and 3, whose array power would round
# differently from the per-point scalar power; h3 = 1/5 - R_z^3 changes sign,
# so both branches of the gauge term's `lift` run within one batch.
CUBIC_TWO_LEVEL = {
    "model": "two_level",
    "h0": [{"coef": "1/3", "r_exp": [2, 0, 0], "p_exp": [0, 0, 1]}],
    "h": [[{"coef": "1/4", "p_exp": [3, 0, 0]}],
          [{"coef": "1/5", "r_exp": [0, 2, 0]},
           {"coef": "1/6", "p_exp": [0, 3, 0]}],
          [{"coef": "1/5"}, {"coef": "-1", "r_exp": [0, 0, 3]}]],
}
MODELS = {**{name: (lambda cfg=cfg: make_model(cfg))
             for name, cfg in BENCHMARK_CONFIGS.items()},
          "frameless_dirac": lambda: _FrameLess(
              make_model(BENCHMARK_CONFIGS["dirac_electric"])),
          "frameless_two_level": lambda: _FrameLess(
              make_model(BENCHMARK_CONFIGS["two_level_generic"])),
          "two_level_cubic": lambda: make_model(CUBIC_TWO_LEVEL),
          # The gauge-turned models carry a nonzero within-group A^P, so
          # every pairing product of the first-order record is live.
          "rotated_dirac": lambda: _group_rotated(
              make_model(BENCHMARK_CONFIGS["dirac_electric"]),
              np.random.default_rng(8)),
          "twisted_dirac": lambda: _twisted(
              make_model(BENCHMARK_CONFIGS["dirac_electric"]), 1),
          "twisted_variable_mass": lambda: _twisted(
              _VariableMassDirac([0.3, -0.2, 0.25]), 2)}
FIELDS = ("eps", "zeroth", "first", "second", "bracket_term")


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()     # signed zeros too


@pytest.mark.parametrize("name", sorted(MODELS))
def test_batch_equals_point_bit_for_bit(name):
    model = MODELS[name]()
    points = random_points(np.random.default_rng(11), CHUNK + 6, 0.3, 3.0)
    for order in (0, 1, 2):
        for representation in ("canonical", "covariant"):
            batch = band_energy_batch(model, points, 0.01, order,
                                      representation)
            assert len(batch) == len(points)
            for x, got in zip(points, batch):
                want = band_energy(model, x, 0.01, order, representation)
                assert_same_bits(got.point.R, x.R)
                assert_same_bits(got.point.P, x.P)
                for field in FIELDS:
                    assert_same_bits(getattr(got, field), getattr(want, field))
                assert got.partial == want.partial
                assert got.diagnostics.keys() == want.diagnostics.keys()
                for key in ("offblock_norm", "hermiticity_defect"):
                    assert type(got.diagnostics[key]) is float
                    assert_same_bits(got.diagnostics[key],
                                     want.diagnostics[key])
                assert (got.diagnostics["bracket_unavailable"]
                        == want.diagnostics["bracket_unavailable"])


CURVATURE_BLOCKS = ("theta_rr", "theta_pp", "theta_pr")


@pytest.mark.parametrize("name", sorted(MODELS))
def test_batch_curvatures_equal_point_bit_for_bit(name):
    model = MODELS[name]()
    points = random_points(np.random.default_rng(11), 12, 0.3, 3.0)
    x = PhasePoint.stack(points)
    if not model.has_analytic_frame:
        with pytest.raises(NotImplementedError):
            berry_curvatures(model, x, 0.05)
        return
    if name == "two_level_cubic":
        h3 = model.h_vector(x)[:, 2]
        assert (h3 >= 0).any() and (h3 < 0).any()
    cset = berry_curvatures(model, x, 0.05)
    bands = {lam: band_curvature_vector(model, x, lam)
             for lam in (+1, -1)} if model.n == 4 else {}
    for i, point in enumerate(points):
        want = berry_curvatures(model, point, 0.05)
        for block in CURVATURE_BLOCKS:
            assert_same_bits(getattr(cset, block)[i], getattr(want, block))
        for lam, got in bands.items():
            assert_same_bits(got[i], band_curvature_vector(model, point, lam))


def test_batch_report_carries_the_point_axis():
    model = make_model(BENCHMARK_CONFIGS["dirac_electric"])
    points = random_points(np.random.default_rng(12), 3, 0.3, 3.0)
    rep = band_energy(model, PhasePoint.stack(points), 0.01, 2)
    assert rep.eps.shape == (3, 4, 4)
    assert rep.band_values().shape == (3, 4)
    assert rep.diagnostics["offblock_norm"].shape == (3,)
    assert [r.point.R.tolist() for r in rep.split()] == \
        [x.R.tolist() for x in points]


@pytest.mark.parametrize("name", ["two_level_generic", "dirac_electric"])
def test_split_refuses_a_one_point_report(name):
    # A one-point report has no point axis to split along; a one-point
    # batch has one.
    model = make_model(BENCHMARK_CONFIGS[name])
    x = PhasePoint.of([0.3, 0.5, -0.2], [0.7, -0.4, 1.1])
    rep = band_energy(model, x, 0.01, 2)
    with pytest.raises(ValueError, match="batch"):
        rep.split()
    assert len(band_energy(model, PhasePoint.stack([x]), 0.01, 2).split()) == 1


def test_stack_refuses_no_points():
    # An empty stack would have batch_shape () and read as one point.
    with pytest.raises(ValueError, match="at least one point"):
        PhasePoint.stack([])
    model = make_model(BENCHMARK_CONFIGS["two_level_generic"])
    assert band_energy_batch(model, [], 0.01) == []


def test_batch_raises_if_any_point_would():
    model = make_model(BENCHMARK_CONFIGS["neutrino_metric"])
    points = random_points(np.random.default_rng(13), 5, 0.3, 3.0)
    points[3] = PhasePoint.of([0.1, 0.2, 0.3], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"\|P\| = 0"):
        band_energy_batch(model, points, 0.01, 1)


def _bad_points(bad: dict, count: int) -> list:
    rng = np.random.default_rng(14)
    pts = [{"R": rng.uniform(-1, 1, 3).tolist(),
            "P": rng.uniform(-2, 2, 3).tolist()} for _ in range(count)]
    pts[CHUNK + 3] = bad
    return pts


# Two inputs that fail at one point: P = 0 for the massless model, and
# |h| = 0 for a two-level model whose h vanishes at R_y = P_x = R_z = 0.
BAD_CASES = {
    "neutrino_p0": (BENCHMARK_CONFIGS["neutrino_metric"],
                    {"R": [0.1, 0.2, 0.3], "P": [0.0, 0.0, 0.0]},
                    "ValueError: |P| = 0 is not allowed"),
    "two_level_h0": ({"model": "two_level", "h0": [],
                      "h": [[{"coef": "1/4", "p_exp": [1, 0, 0]}],
                            [{"coef": "1/5", "r_exp": [0, 1, 0]}],
                            [{"coef": "1", "r_exp": [0, 0, 1]}]]},
                     {"R": [0.4, 0.0, 0.0], "P": [0.0, 1.0, 1.0]},
                     "GapError: two_level bands are degenerate"),
}
COMMANDS = {
    "diagonalize": ("energies", {"order": 1}),
    "connections": ("connections", {"connection_order": "0"}),
    "curvature": ("curvature", {}),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("case", sorted(BAD_CASES))
def test_failing_point_in_a_chunk_is_reported_alone(tmp_path, monkeypatch,
                                                     case, command):
    model, bad, message = BAD_CASES[case]
    stem, extra = COMMANDS[command]
    points = _bad_points(bad, 2 * CHUNK + 5)
    cfg = write_config(tmp_path, {"model": model, "hbar": 0.01,
                                  "points": points, **extra})
    chunked, single = tmp_path / "chunked", tmp_path / "single"
    assert main(["--config", cfg, "--out", str(chunked), command]) == 2
    monkeypatch.setattr(semiband.cli, "CHUNK", 1)
    assert main(["--config", cfg, "--out", str(single), command]) == 2
    for suffix in (".json", ".csv"):
        assert (chunked / (stem + suffix)).read_bytes() == \
            (single / (stem + suffix)).read_bytes()
    report = json.loads((chunked / f"{stem}.json").read_text())
    assert [e["index"] for e in report["errors"]] == [CHUNK + 3]
    assert report["errors"][0]["error"].startswith(message)
    good = [p for i, p in enumerate(points) if i != CHUNK + 3]
    assert [(r["R"], r["P"]) for r in report["records"]] == \
        [(p["R"], p["P"]) for p in good]
