"""Analytic field derivatives against central finite differences."""

import itertools
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


OUT_OF_RANGE_FIELDS = [
    # s^2 overflows: s ** 2 raised OverflowError.
    ({"kind": "gaussian", "width": 1e200}, "gaussian width"),
    # s^4 underflows to 0: every jet divided by it.
    ({"kind": "gaussian", "width": 1e-100}, "gaussian width"),
    # a^5 underflows to 0: the jet at r = 0 divided by it.
    ({"kind": "coulomb", "softening": 1e-70}, "coulomb softening"),
    # a^5 overflows: every jet raised OverflowError from s ** 5.
    ({"kind": "coulomb", "softening": 1e70}, "coulomb softening"),
]


@pytest.mark.parametrize("cfg, name", OUT_OF_RANGE_FIELDS, ids=repr)
def test_make_field_refuses_parameters_whose_powers_leave_the_float_range(
        cfg, name):
    with pytest.raises(ValueError, match=f"^{name} .* is out of range"):
        make_field(cfg)


@pytest.mark.parametrize("field", [
    GaussianField(1.0, [0.0, 0.0, 0.0], 1.1e77),
    GaussianField(1.0, [0.0, 0.0, 0.0], 1.3e-81),
    CoulombRegularizedField(1.0, 4.4e61),
    CoulombRegularizedField(1.0, 1.9e-65),
], ids=repr)
def test_parameters_at_the_ends_of_the_range_give_jets(field):
    assert len(field.jet((0.0, 0.0, 0.0))) == 13


def _coulomb_hessian(field, r):
    """b r_i r_j + a delta_ij in index form, the reference for the literal,
    row by row."""
    s = math.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2] + field.a * field.a)
    a, b = -field.q / s ** 3, 3 * field.q / s ** 5
    return tuple(b * ri * rj + a * (i == j)
                 for i, ri in enumerate(r) for j, rj in enumerate(r))


def _reciprocal_hessian(field, r):
    """-n_ij/n^2 + 2 n_i n_j/n^3 in index form, in the literal's order, row
    by row."""
    jet = field.base.jet(r)
    n, g, h = jet[0], jet[1:4], jet[4:]
    a, b = -1.0 / n ** 2, 2.0 / n ** 3
    return tuple(a * h[3 * i + j] + b * g[i] * g[j]
                 for i in range(3) for j in range(3))


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
        assert repr(field.jet(r)[4:]) == repr(reference(field, r))


# -- The flat layout against the nested one ---------------------------------

_Z3 = (0.0, 0.0, 0.0)
_Z33 = (_Z3, _Z3, _Z3)


def nested_jet(field, r):
    """(value, (gx, gy, gz), 3x3 tuple hessian) by each kind's formulas in
    the nested layout the fields had before the flat one: the bit-for-bit
    reference of `jet`."""
    x, y, z = (float(v) for v in r)
    if isinstance(field, UniformField):
        return field.c, _Z3, _Z33
    if isinstance(field, LinearField):
        gx, gy, gz = field.g
        return gx * x + gy * y + gz * z + field.c, field.g, _Z33
    if isinstance(field, PolynomialField):
        xyz = (x, y, z)

        def mono(exps):
            return xyz[0] ** exps[0] * xyz[1] ** exps[1] * xyz[2] ** exps[2]

        def lower(exps, axis):
            return tuple(e - (k == axis) for k, e in enumerate(exps))

        v, g, h = 0.0, [0.0] * 3, [[0.0] * 3 for _ in range(3)]
        for c, exps in field.terms:
            v += c * mono(exps)
            for i in range(3):
                if exps[i] == 0:
                    continue
                ci, ei = c * exps[i], lower(exps, i)
                g[i] += ci * mono(ei)
                for j in range(3):
                    if ei[j]:
                        h[i][j] += ci * ei[j] * mono(lower(ei, j))
        return v, tuple(g), tuple(map(tuple, h))
    if isinstance(field, GaussianField):
        dx, dy, dz = x - field.r0[0], y - field.r0[1], z - field.r0[2]
        s2 = field.s ** 2
        v = field.A * math.exp(-(dx * dx + dy * dy + dz * dz) / (2 * s2))
        a, b = -v / s2, v / field.s ** 4
        hxy, hxz, hyz = b * dx * dy, b * dx * dz, b * dy * dz
        return v, (a * dx, a * dy, a * dz), (
            (b * dx * dx + a, hxy, hxz), (hxy, b * dy * dy + a, hyz),
            (hxz, hyz, b * dz * dz + a))
    if isinstance(field, CoulombRegularizedField):
        s = math.sqrt(x * x + y * y + z * z + field.a * field.a)
        a, b = -field.q / s ** 3, 3 * field.q / s ** 5
        bx, by, bz, o = b * x, b * y, b * z, a * 0.0
        return field.q / s, (a * x, a * y, a * z), (
            (bx * x + a, bx * y + o, bx * z + o),
            (by * x + o, by * y + a, by * z + o),
            (bz * x + o, bz * y + o, bz * z + a))
    assert isinstance(field, ReciprocalField)
    n, (gx, gy, gz), h = nested_jet(field.base, r)
    if n <= 0:
        raise ValueError("profile must stay positive")
    a, b = -1.0 / n ** 2, 2.0 / n ** 3
    (hxx, hxy, hxz), (hyx, hyy, hyz), (hzx, hzy, hzz) = h
    bx, by, bz = b * gx, b * gy, b * gz
    return 1.0 / n, (a * gx, a * gy, a * gz), (
        (a * hxx + bx * gx, a * hxy + bx * gy, a * hxz + bx * gz),
        (a * hyx + by * gx, a * hyy + by * gy, a * hyz + by * gz),
        (a * hzx + bz * gx, a * hzy + bz * gy, a * hzz + bz * gz))


def flattened(nested):
    """A nested tuple's floats in row-major order."""
    if not isinstance(nested, tuple):
        return (nested,)
    return tuple(itertools.chain.from_iterable(map(flattened, nested)))


_KINDS = [
    UniformField(0.7),
    LinearField([0.3, -0.0, 0.5], 1.1),
    PolynomialField([(1.5, (0, 0, 0)), (0.5, (2, 0, 0)), (-0.3, (1, 1, 0)),
                     (0.2, (0, 0, 3)), (0.05, (1, 2, 1))]),
    GaussianField(amplitude=0.8, center=[0.2, -0.1, 0.3], width=1.4),
    CoulombRegularizedField(charge=1.3, softening=0.6),
    CoulombRegularizedField(charge=-0.7, softening=0.3),
]
# Every kind, and the reciprocal of each positive one: the polynomial's
# large constant term keeps it positive on the sampled points.
FLAT_FIELDS = _KINDS + [ReciprocalField(f) for f in _KINDS[:5]]
FLAT_IDS = [f.kind for f in _KINDS[:5]] + ["coulomb-negative"] + [
    f"reciprocal_{f.kind}" for f in _KINDS[:5]]


@pytest.mark.parametrize("field", FLAT_FIELDS, ids=FLAT_IDS)
def test_flat_jet_and_d3_keep_the_nested_formulas_bits(field):
    # repr tells -0.0 from 0.0, so signed zeros count: the axis points give
    # -0.0 gradients and Coulomb's `a * 0.0` off-diagonal term.
    rng = np.random.default_rng(12)
    points = [rng.uniform(-0.8, 0.8, 3).tolist() for _ in range(30)] + [
        [0.0, 0.0, 0.3], [0.0, -0.0, -0.3], [-0.0, 0.3, 0.2], [0.0] * 3,
        [0.2, -0.1, 0.3], [0.2, -0.1, -0.0]]
    for r in points:
        jet = field.jet(r)
        assert len(jet) == 13
        assert all(type(v) is float for v in jet)
        v, g, h = nested_jet(field, r)
        assert repr(jet) == repr(flattened((v, g, h)))
        # The views read the flat jet.
        assert repr(field.value(r)) == repr(v)
        assert field.gradient(r).tobytes() == np.array(g).tobytes()
        assert field.hessian(r).shape == (3, 3)
        assert field.hessian(r).tobytes() == np.array(h).tobytes()
        assert repr(field.laplacian(r)) == repr(h[0][0] + h[1][1] + h[2][2])


def test_the_signed_zero_cases_are_sampled():
    # Coulomb at x = -0.0: bx * y is -0.0 and stays so only because the
    # off-diagonal adds a * 0.0 = -0.0; at x = +0.0 the gradient a * x is
    # -0.0.
    field = CoulombRegularizedField(charge=1.3, softening=0.6)
    assert repr(field.jet([-0.0, 0.3, 0.2])[5]) == "-0.0"
    assert repr(field.jet([0.0, 0.3, 0.2])[1]) == "-0.0"
    assert repr(GaussianField(0.8, [0.2, -0.1, 0.3], 1.4).jet(
        [0.2, -0.1, 0.7])[1]) == "-0.0"

