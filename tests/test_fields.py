"""Analytic field derivatives against central finite differences."""

import math

import numpy as np
import pytest

from semiband.fields import (
    CoulombRegularizedField,
    GaussianField,
    LinearField,
    PolynomialField,
    ReciprocalField,
    UniformField,
    make_field,
)


def fd_gradient(field, r, h=1e-5):
    """Central-difference gradient, used to validate the analytic one."""
    r = np.asarray(r, dtype=float)
    out = np.zeros(3)
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = h
        out[axis] = (field.value(r + e) - field.value(r - e)) / (2 * h)
    return out


def fd_hessian(field, r, h=1e-4):
    r = np.asarray(r, dtype=float)
    out = np.zeros((3, 3))
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = h
        out[:, axis] = (field.gradient(r + e) - field.gradient(r - e)) / (2 * h)
    return 0.5 * (out + out.T)


FIELDS = [
    UniformField(0.7),
    LinearField([0.3, -0.2, 0.5], 1.1),
    PolynomialField([(0.5, (2, 0, 0)), (-0.3, (1, 1, 0)), (0.2, (0, 0, 3))]),
    GaussianField(amplitude=0.8, center=[0.2, -0.1, 0.3], width=1.4),
    CoulombRegularizedField(charge=1.3, softening=0.6),
    ReciprocalField(GaussianField(0.4, [0.1, 0.0, -0.2], 2.0)),
]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
def test_gradient_matches_finite_differences(field):
    rng = np.random.default_rng(5)
    for _ in range(20):
        r = rng.uniform(-1.5, 1.5, 3)
        if field.kind == "reciprocal":
            pass  # base profile stays positive on this box
        g = field.gradient(r)
        g_fd = fd_gradient(field, r)
        scale = max(np.max(np.abs(g)), 1.0)
        assert np.max(np.abs(g - g_fd)) <= 1e-6 * scale


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.kind)
def test_hessian_and_laplacian(field):
    rng = np.random.default_rng(6)
    for _ in range(10):
        r = rng.uniform(-1.5, 1.5, 3)
        h = field.hessian(r)
        h_fd = fd_hessian(field, r)
        scale = max(np.max(np.abs(h)), 1.0)
        assert np.max(np.abs(h - h_fd)) <= 1e-5 * scale
        assert abs(field.laplacian(r) - np.trace(h)) < 1e-12


@pytest.mark.parametrize("field", FIELDS + [
    ReciprocalField(PolynomialField([(2.0, (0, 0, 0)), (0.3, (1, 2, 0)),
                                     (-0.2, (0, 1, 3))])),
    ReciprocalField(CoulombRegularizedField(charge=1.3, softening=0.6)),
], ids=lambda f: f.kind + ("_" + f.base.kind if hasattr(f, "base") else ""))
def test_third_derivatives_match_fd_of_jet(field):
    rng = np.random.default_rng(7)
    h = 1e-4
    for _ in range(10):
        r = rng.uniform(-1.5, 1.5, 3)
        d3 = np.array(field.d3(r))
        fd = np.zeros((3, 3, 3))
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd[:, :, k] = (np.array(field.jet(r + e)[2])
                           - np.array(field.jet(r - e)[2])) / (2 * h)
        scale = max(np.max(np.abs(d3)), 1.0)
        assert d3.shape == (3, 3, 3)
        assert np.max(np.abs(d3 - fd)) <= 1e-6 * scale
        for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
            assert np.max(np.abs(d3 - d3.transpose(perm))) <= 1e-14 * scale


def test_reciprocal_chain_rule():
    base = LinearField([0.1, 0.0, 0.0], 2.0)
    f = ReciprocalField(base)
    r = np.array([1.0, 0.0, 0.0])
    n = 2.1
    assert abs(f.value(r) - 1 / n) < 1e-15
    assert abs(f.gradient(r)[0] + 0.1 / n ** 2) < 1e-15
    assert abs(f.hessian(r)[0, 0] - 2 * 0.01 / n ** 3) < 1e-15


def test_reciprocal_rejects_nonpositive_profile():
    f = ReciprocalField(LinearField([1.0, 0.0, 0.0], 0.0))
    with pytest.raises(ValueError):
        f.value(np.array([-1.0, 0.0, 0.0]))


def test_make_field_round_trip():
    for field in FIELDS:
        rebuilt = make_field(field.to_config())
        r = np.array([0.3, -0.4, 0.5])
        assert abs(rebuilt.value(r) - field.value(r)) < 1e-14


def test_make_field_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_field({"kind": "vortex"})
    with pytest.raises(ValueError):
        make_field("not a dict")


def test_gaussian_validates_width():
    with pytest.raises(ValueError):
        GaussianField(width=0.0)


def _coulomb_hessian(field, r):
    """b r_i r_j + a delta_ij in index form, the reference for the literal."""
    s = math.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2] + field.a * field.a)
    a, b = -field.q / s ** 3, 3 * field.q / s ** 5
    return tuple(tuple(b * ri * rj + a * (i == j) for j, rj in enumerate(r))
                 for i, ri in enumerate(r))


def _reciprocal_hessian(field, r):
    """-n_ij/n^2 + 2 n_i n_j/n^3 in index form, in the literal's order."""
    n, g, h = field.base.jet(r)
    a, b = -1.0 / n ** 2, 2.0 / n ** 3
    return tuple(tuple(a * h[i][j] + b * g[i] * g[j] for j in range(3))
                 for i in range(3))


@pytest.mark.parametrize("field, reference", [
    (CoulombRegularizedField(1.3, 0.4), _coulomb_hessian),
    (CoulombRegularizedField(-0.7, 0.3), _coulomb_hessian),
    (ReciprocalField(GaussianField(1.5, [0.3, -0.2, 0.1], 3.0)),
     _reciprocal_hessian),
    (ReciprocalField(CoulombRegularizedField(0.8, 0.5)), _reciprocal_hessian),
], ids=["coulomb", "coulomb-negative", "reciprocal-gaussian",
        "reciprocal-coulomb"])
def test_hessian_literals_match_index_form_bit_for_bit(field, reference):
    # repr tells -0.0 from 0.0, so signed zeros on the axes count too.
    rng = np.random.default_rng(8)
    points = [rng.normal(size=3).tolist() for _ in range(50)] + [
        [0.0, 0.0, 0.3], [0.0, -0.0, -0.3], [-0.0, 0.2, 0.0], [0.0] * 3]
    for r in points:
        assert repr(field.jet(r)[2]) == repr(reference(field, r))
