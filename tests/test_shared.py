"""Shared model intermediates: a frame evaluates its model at a copy of its
point with a memo, where the built-in models make each intermediate that
their methods share once per frame; the memo stays with that frame."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from semiband import models
from semiband.dynamics import berry_curvatures
from semiband.energy import band_energy
from semiband.frames import classical_frame
from semiband.models import (
    PhasePoint, TwoLevel, make_model, random_points,
)
from semiband.stencils import derivative_along
from semiband.verify import connections_fd
from tests.test_batch import CUBIC_TWO_LEVEL
from tests.test_frames import BENCHMARK_CONFIGS
from tests.test_models import _gauge_models

HBAR = 0.01
METHODS = ("hamiltonian", "d_hamiltonian", "d2_hamiltonian",
           "analytic_frame", "analytic_connections", "d_analytic_connections")


def _points():
    pts = random_points(np.random.default_rng(31), 6, 0.3, 3.0)
    return {"point": pts[0], "batch": PhasePoint.stack(pts[1:])}


def _count(monkeypatch):
    """Counts of the field jets, monomial-table passes (by order) and squared
    norms (P.P, which the |P| = 0 test of `check_point` reads, or h.h) made
    from now on."""
    counts = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(models, "_jet", counting("_jet", models._jet))
    table_pass = TwoLevel._table_pass

    def counting_pass(self, x, order, pw):
        counts[f"table{order}"] += 1
        return table_pass(self, x, order, pw)

    monkeypatch.setattr(TwoLevel, "_table_pass", counting_pass)
    dot = models._dot

    def counting_dot(a, b):
        counts["v.v"] += a is b
        return dot(a, b)

    monkeypatch.setattr(models, "_dot", counting_dot)
    return counts


def _once_per_frame(model, top: int) -> Counter:
    """What one frame makes: each of these once, for derivative order `top`
    of H (2 for the curvature)."""
    if isinstance(model, TwoLevel):
        want = Counter({f"table{order}": 1 for order in range(top + 1)})
    else:
        want = Counter({"_jet": 1})
    want["v.v"] = 1
    return +want


@pytest.mark.parametrize("where", ["point", "batch"])
@pytest.mark.parametrize("name", sorted(BENCHMARK_CONFIGS))
def test_each_shared_intermediate_is_made_once_per_frame(
        monkeypatch, name, where):
    model = make_model(BENCHMARK_CONFIGS[name])
    x = _points()[where]
    counts = _count(monkeypatch)
    for order in (0, 1, 2):
        for representation in ("canonical", "covariant"):
            counts.clear()
            band_energy(model, x, HBAR, order, representation)
            assert +counts == _once_per_frame(model, order), \
                (order, representation)
    counts.clear()
    berry_curvatures(model, x, HBAR)
    assert +counts == _once_per_frame(model, 2)


def test_every_frame_makes_its_own_intermediates(monkeypatch):
    # Two evaluations at one caller's point share nothing: the memo is the
    # frame's, and the caller's point never gets one.
    for name, cfg in BENCHMARK_CONFIGS.items():
        model = make_model(cfg)
        model.groups                # the model's layout, made once
        before = set(vars(model))
        x = _points()["point"]
        counts = _count(monkeypatch)
        band_energy(model, x, HBAR, 2)
        once = +counts
        band_energy(model, x, HBAR, 2)
        assert +counts == Counter({k: 2 * v for k, v in once.items()}), name
        assert x._memo is None
        assert set(vars(model)) == before, name
        monkeypatch.undo()


def test_points_derived_from_a_frames_point_carry_no_memo():
    # `dataclasses.replace` included: a moved point with the frame's memo
    # would read the frame's values.
    model = make_model(BENCHMARK_CONFIGS["neutrino_metric"])
    points = _points()
    frame = classical_frame(model, points["point"])
    batch = classical_frame(model, points["batch"])
    assert frame.point._memo and batch.point._memo
    assert points["point"]._memo is None and points["batch"]._memo is None
    derived = [frame.point.shifted(axis, 1e-3) for axis in range(6)]
    derived += [batch.point.point(i) for i in range(5)]
    derived += [PhasePoint.stack([frame.point, frame.point]),
                dataclasses.replace(frame.point, R=frame.point.R + 1e-3)]
    assert all(y._memo is None for y in derived)


def _plain(frame):
    """The frame with its point swapped for a plain copy."""
    x = frame.point
    return dataclasses.replace(frame, point=PhasePoint(x.R, x.P))


@pytest.mark.parametrize("name", sorted(BENCHMARK_CONFIGS))
def test_stencils_at_a_frames_point_see_no_memo(name):
    # A stencil that read the anchor's memo at its shifted points would
    # return zero derivatives; both equal those at a plain point bit for bit.
    model = make_model(BENCHMARK_CONFIGS[name])
    frame = classical_frame(model, _points()["point"])
    plain = _plain(frame)
    assert plain.point._memo is None and frame.point._memo
    assert (connections_fd(frame).A.tobytes()
            == connections_fd(plain).A.tobytes())
    for method in ("hamiltonian", "d_hamiltonian", "d2_hamiltonian"):
        f = getattr(model, method)
        for axis in range(6):
            got = derivative_along(f, frame.point, axis)
            ref = derivative_along(f, plain.point, axis)
            assert got.tobytes() == ref.tobytes(), (method, axis)
    assert derivative_along(model.hamiltonian, frame.point, 3).any()


def _models():
    out = {name: make_model(cfg) for name, cfg in BENCHMARK_CONFIGS.items()}
    out["two_level_cubic"] = make_model(CUBIC_TWO_LEVEL)
    out["dirac_coulomb"] = make_model({
        "model": "dirac_electric",
        "field": {"kind": "coulomb", "charge": 0.7, "softening": 0.6}})
    out["neutrino_polynomial"] = make_model({
        "model": "neutrino_metric",
        "field": {"kind": "polynomial",
                  "terms": [[1.5, [0, 0, 0]], [0.1, [1, 0, 0]],
                            [0.05, [0, 2, 1]]]}})
    out.update(_gauge_models())
    return out


def _bytes(value):
    if isinstance(value, tuple):
        return [np.asarray(v).tobytes() for v in value]
    return np.asarray(value).tobytes()


@pytest.mark.parametrize("where", ["point", "batch"])
@pytest.mark.parametrize("name", sorted(_models()))
def test_methods_at_a_frames_point_keep_their_bits(name, where):
    # At a point with a fresh memo, as a frame makes it, every method fills
    # and reads the memo, in either call order, and returns the bits it
    # returns at a plain point.
    model = _models()[name]
    x = _points()[where]
    ref = {m: _bytes(getattr(model, m)(x)) for m in METHODS}
    for order in (METHODS, METHODS[::-1]):
        y = x._with_memo()
        for m in order:
            assert _bytes(getattr(model, m)(y)) == ref[m], m
        assert y._memo


def test_shared_arrays_are_read_only():
    model = make_model(BENCHMARK_CONFIGS["dirac_electric"])
    frame = classical_frame(model, _points()["point"])
    kept = [v for value in frame.point._memo.values()
            for v in (value if isinstance(value, tuple) else (value,))
            if isinstance(v, np.ndarray)]
    assert kept and not any(v.flags.writeable for v in kept)
