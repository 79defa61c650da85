"""Built-in Hamiltonians: Hermiticity, frames, connections, closed forms."""

import itertools

import numpy as np
import pytest

from semiband.fields import GaussianField, LinearField, UniformField
from semiband.models import (
    ALPHA,
    BETA,
    SIGMA,
    SX,
    SY,
    SZ,
    DiracElectric,
    Model,
    NeutrinoMetric,
    PhasePoint,
    TwoLevel,
    _dot,
    _jet,
    _outer,
    _pow,
    make_model,
    random_batch,
    random_points,
)
from tests.test_fields import FLAT_FIELDS, FLAT_IDS, nested_jet


def p_cross_sigma(P):
    out = []
    for l in range(3):
        m = np.zeros((4, 4), dtype=complex)
        for j in range(3):
            for k in range(3):
                e = (l - j) * (j - k) * (k - l) / 2
                if e:
                    m += e * P[j] * SIGMA[k]
        out.append(m)
    return out


def all_models():
    return [
        DiracElectric(m=1.0, e=1.0,
                      field=GaussianField(0.5, [0.1, 0.0, -0.2], 1.3)),
        NeutrinoMetric(profile=LinearField([0.05, -0.02, 0.03], 1.5)),
        TwoLevel(),
    ]


def test_dirac_free_eigenvalues():
    # m=1, e=0, P=(0,0,1): eigenvalues +-sqrt(2), each twice
    model = DiracElectric(m=1.0, e=0.0)
    H = model.hamiltonian(PhasePoint.of([0, 0, 0], [0, 0, 1]))
    vals = np.sort(np.linalg.eigvalsh(H))
    s2 = np.sqrt(2.0)
    assert np.allclose(vals, [-s2, -s2, s2, s2], atol=1e-14)


def test_dirac_rest_hamiltonian():
    model = DiracElectric(m=0.7, e=1.0, field=UniformField(0.0))
    H = model.hamiltonian(PhasePoint.of([0, 0, 0], [0, 0, 0]))
    assert np.allclose(H, 0.7 * BETA)


def test_neutrino_flat_eigenvalues():
    model = NeutrinoMetric(profile=UniformField(1.0))
    H = model.hamiltonian(PhasePoint.of([0, 0, 0], [0, 0, 1]))
    assert np.allclose(H, ALPHA[2])
    vals = np.sort(np.linalg.eigvalsh(H))
    assert np.allclose(vals, [-1, -1, 1, 1], atol=1e-14)


def test_massless_rejects_zero_momentum():
    model = NeutrinoMetric(profile=UniformField(1.0))
    with pytest.raises(ValueError):
        model.hamiltonian(PhasePoint.of([0, 0, 0], [0, 0, 0]))


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
def test_hamiltonian_hermitian_everywhere(model):
    rng = np.random.default_rng(11)
    for _ in range(1000):
        R = rng.uniform(-2, 2, 3)
        P = rng.uniform(-2, 2, 3)
        if np.linalg.norm(P) < 1e-3:
            P[0] += 0.5
        H = model.hamiltonian(PhasePoint.of(R, P))
        assert np.max(np.abs(H - H.conj().T)) <= 1e-13 * max(np.linalg.norm(H), 1.0)


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
def test_analytic_frame_block_diagonalizes(model):
    rng = np.random.default_rng(12)
    for _ in range(50):
        x = PhasePoint.of(rng.uniform(-1, 1, 3),
                          rng.uniform(-1, 1, 3) + np.array([0.0, 0.0, 1.5]))
        eps0, U0 = model.analytic_frame(x)
        H = model.hamiltonian(x)
        rot = U0 @ H @ U0.conj().T
        assert np.linalg.norm(U0 @ U0.conj().T - np.eye(model.n)) <= 1e-13
        mask = model.groups[:, None] != model.groups[None, :]
        assert np.max(np.abs(rot[mask])) <= 1e-12 * np.linalg.norm(H)
        assert np.max(np.abs(np.real(np.diag(rot)) - eps0)) <= 1e-12 * max(
            np.max(np.abs(eps0)), 1.0)


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
def test_numerical_eigenvalues_match_analytic(model):
    rng = np.random.default_rng(13)
    for _ in range(50):
        x = PhasePoint.of(rng.uniform(-1, 1, 3),
                          rng.uniform(-1, 1, 3) + np.array([0.0, 0.0, 1.5]))
        eps0, _U0 = model.analytic_frame(x)
        vals = np.linalg.eigvalsh(model.hamiltonian(x))
        scale = max(np.max(np.abs(vals)), 1.0)
        assert np.max(np.abs(np.sort(vals) - np.sort(eps0))) <= 1e-10 * scale


def test_dirac_free_frame_is_fw_rotation():
    model = DiracElectric(m=1.0, e=0.0)
    x = PhasePoint.of([0.2, -0.4, 0.1], [0.3, 0.7, -0.5])
    eps0, U0 = model.analytic_frame(x)
    E = model.energy_scale(x)
    rot = U0 @ model.hamiltonian(x) @ U0.conj().T
    assert np.allclose(rot, BETA * E, atol=1e-13)
    assert np.allclose(eps0, [E, E, -E, -E])


def test_neutrino_frame_classical_value():
    model = NeutrinoMetric(profile=LinearField([0.1, 0.0, 0.0], 2.0))
    x = PhasePoint.of([0.5, 0.0, 0.0], [0.0, 0.0, 0.8])
    eps0, U0 = model.analytic_frame(x)
    F = 1.0 / 2.05
    rot = U0 @ model.hamiltonian(x) @ U0.conj().T
    assert np.allclose(rot, BETA * F * 0.8, atol=1e-13)


def test_neutrino_flat_frame_unit_momentum():
    model = NeutrinoMetric(profile=UniformField(1.0))
    eps0, _ = model.analytic_frame(PhasePoint.of([0, 0, 0], [0, 0, 1]))
    assert np.allclose(eps0, [1, 1, -1, -1])


def test_dirac_projected_connection_closed_form():
    model = DiracElectric(m=1.0, e=1.0, field=UniformField(0.0))
    x = PhasePoint.of([0, 0, 0], [0.4, -0.8, 1.1])
    E = model.energy_scale(x)
    A_R, A_P = np.split(model.analytic_connections(x), 2)
    pxs = p_cross_sigma(x.P)
    mask = model.groups[:, None] == model.groups[None, :]
    for l in range(3):
        proj = np.where(mask, A_R[l], 0.0)
        assert np.allclose(proj, pxs[l] / (2 * E * (E + 1.0)), atol=1e-13)
        assert np.max(np.abs(A_P[l])) == 0.0


def test_dirac_projected_connection_vanishing_component():
    # At P = (0, 0, p) the z component of P x Sigma vanishes.
    model = DiracElectric(m=1.0, e=0.0)
    x = PhasePoint.of([0, 0, 0], [0, 0, 0.9])
    A_R = model.analytic_connections(x)[:3]
    mask = model.groups[:, None] == model.groups[None, :]
    assert np.max(np.abs(np.where(mask, A_R[2], 0.0))) <= 1e-14


def test_neutrino_momentum_connection_vanishes():
    model = NeutrinoMetric(profile=GaussianField(0.4, [0, 0, 0], 2.0))
    A_P = model.analytic_connections(PhasePoint.of([0.3, 0.1, 0.2],
                                                   [0.5, -0.2, 0.9]))[3:]
    assert max(np.max(np.abs(a)) for a in A_P) == 0.0


def test_bracket_hamiltonian_vanishes_flag():
    for model in all_models():
        assert model.bracket_h_vanishes


def test_groups_follow_the_declared_band_groups():
    class ThreeGroups(Model):
        n = 5
        band_groups = (2, 1, 2)

    assert ThreeGroups().groups.tolist() == [0, 0, 1, 2, 2]
    for model in all_models():
        sizes = np.bincount(model.groups).tolist()
        assert tuple(sizes) == model.band_groups
        assert np.all(np.diff(model.groups) >= 0)


def test_two_level_diagonal_case():
    model = TwoLevel()  # h purely along z, positive
    x = PhasePoint.of([0.3, 0.1, -0.2], [0.2, 0.5, 0.4])
    eps0, U0 = model.analytic_frame(x)
    assert np.allclose(U0, np.eye(2), atol=1e-14)
    h3 = model.h_vector(x)[2]
    h0 = reference_values([model.h0], x)[0]
    assert np.allclose(eps0, [h0 + h3, h0 - h3])


def test_two_level_generic_direction_frame():
    cfg = {
        "h0": [],
        "h": [[{"coef": "1/4", "p_exp": [1, 0, 0]}],
              [{"coef": "1/5", "r_exp": [0, 1, 0]}],
              [{"coef": "1"}]],
    }
    model = make_model({"model": "two_level", **cfg})
    assert not model.z_only
    rng = np.random.default_rng(14)
    for _ in range(30):
        x = PhasePoint.of(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        eps0, U0 = model.analytic_frame(x)
        rot = U0 @ model.hamiltonian(x) @ U0.conj().T
        assert abs(rot[0, 1]) <= 1e-12
        assert np.allclose(np.real(np.diag(rot)), eps0, atol=1e-12)


def test_two_level_degenerate_point_rejected():
    cfg = {"h0": [], "h": [[], [], [{"coef": "1", "r_exp": [1, 0, 0]}]]}
    model = make_model({"model": "two_level", **cfg})
    with pytest.raises(ValueError):
        model.analytic_frame(PhasePoint.of([0, 0, 0], [1, 0, 0]))


def test_hellmann_feynman_matches_fd():
    from semiband.frames import classical_frame

    for model in all_models():
        x = PhasePoint.of([0.3, -0.2, 0.4], [0.6, 0.1, 0.9])
        frame = classical_frame(model, x)
        grads = frame.grads
        h = 1e-5
        for axis in range(6):
            ep = model.analytic_frame(x.shifted(axis, h))[0]
            em = model.analytic_frame(x.shifted(axis, -h))[0]
            fd = (ep - em) / (2 * h)
            assert np.max(np.abs(grads[axis] - fd)) <= 1e-7 * max(
                1.0, np.max(np.abs(fd)))


def test_make_model_round_trip_and_errors():
    for model in all_models():
        rebuilt = make_model(model.to_config())
        x = PhasePoint.of([0.2, 0.1, -0.3], [0.4, 0.5, 0.6])
        assert np.allclose(rebuilt.hamiltonian(x), model.hamiltonian(x))
    with pytest.raises(ValueError):
        make_model({"model": "unknown"})
    with pytest.raises(ValueError):
        make_model({})


@pytest.mark.parametrize("h0", [
    [{"coef": "1", "r_exp": [1.5, 0, 0]}],
    [{"coef": "1", "p_exp": [0, -1, 0]}],
    [{"coef": "1", "sym": "bogus"}],
    [3],
    [{"coef": "1", "r_exp": None}],
], ids=["fractional-exponent", "negative-exponent", "bogus-sym",
        "term-not-an-object", "null-exponents"])
def test_two_level_rejects_malformed_terms(h0):
    # A fractional exponent was truncated by int(), a negative one or an
    # unknown ordering was accepted, and the last two raised TypeError.
    with pytest.raises(ValueError, match="two_level terms"):
        make_model({"model": "two_level", "h0": h0})


def _random_points_loop(rng, count, pmin, pmax):
    """The per-point draws `random_points` replaces: the reference."""
    pts = []
    for _ in range(count):
        R = rng.uniform(-1.0, 1.0, 3)
        P = rng.uniform(-1.0, 1.0, 3)
        P *= rng.uniform(pmin, pmax) / np.linalg.norm(P)
        pts.append(PhasePoint.of(R, P))
    return pts


@pytest.mark.parametrize("p_range", [(0.3, 3.0), (0.1, 10.0), (0.5, 0.5)])
@pytest.mark.parametrize("seed", [0, 7, 41])
def test_random_points_equal_the_per_point_loop(seed, p_range):
    for count in (0, 1, 500):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        batch_rng = np.random.default_rng(seed)
        got = random_points(rng, count, *p_range)
        ref = _random_points_loop(ref_rng, count, *p_range)
        # The CLI's one batch of the same draw.
        batch = random_batch(batch_rng, count, *p_range)
        assert len(got) == len(ref) == count
        assert batch.R.shape == batch.P.shape == (count, 3)
        for i, (x, y) in enumerate(zip(got, ref)):
            assert x.R.tobytes() == y.R.tobytes() == batch.R[i].tobytes()
            assert x.P.tobytes() == y.P.tobytes() == batch.P[i].tobytes()
        # The generator is left where the loop leaves it.
        assert rng.random() == ref_rng.random() == batch_rng.random()


@pytest.mark.parametrize("p_range", [("a", 3.0), (None, 3.0), (True, 3.0),
                                     (0.3, np.inf), (np.nan, 3.0), (3.0, 0.3)])
def test_random_points_rejects_bad_momentum_ranges(p_range):
    with pytest.raises(ValueError, match="p_range"):
        random_points(np.random.default_rng(0), 3, *p_range)


def test_dirac_analytic_dh():
    model = DiracElectric(m=1.0, e=0.8,
                          field=GaussianField(0.5, [0.1, 0.0, -0.2], 1.3))
    x = PhasePoint.of([0.3, -0.2, 0.4], [0.6, 0.1, 0.9])
    h = 1e-6
    for axis in range(6):
        fd = (model.hamiltonian(x.shifted(axis, h))
              - model.hamiltonian(x.shifted(axis, -h))) / (2 * h)
        assert np.max(np.abs(model.d_hamiltonian(x)[axis] - fd)) <= 1e-7


def _two_level_with_gauge(h3: str) -> TwoLevel:
    """A two_level model with every component live and mixed R-P products;
    the sign of h3 picks the branch of the gauge term's `lift`."""
    return TwoLevel(
        h0_terms=[{"coef": "1/10", "r_exp": [1, 0, 0], "p_exp": [0, 1, 0]}],
        h_terms=[[{"coef": "1/4", "p_exp": [1, 0, 0]},
                  {"coef": "1/3", "r_exp": [0, 0, 1], "p_exp": [0, 2, 0]}],
                 [{"coef": "1/5", "r_exp": [0, 1, 0]},
                  {"coef": "-1/2", "r_exp": [1, 0, 0], "p_exp": [0, 0, 1]}],
                 [{"coef": h3}, {"coef": "1/10", "r_exp": [0, 0, 2]}]])


def _second_derivative_models():
    return all_models() + [_two_level_with_gauge("1"),
                           _two_level_with_gauge("-1")]


@pytest.mark.parametrize("model", _second_derivative_models(),
                         ids=lambda m: m.name)
def test_d2_hamiltonian_matches_fd(model):
    x = PhasePoint.of([0.3, -0.2, 0.4], [0.6, 0.1, 0.9])
    d2 = model.d2_hamiltonian(x)
    assert d2.shape == (6, 6, model.n, model.n)
    h = 1e-6
    for b in range(6):
        fd = (model.d_hamiltonian(x.shifted(b, h))
              - model.d_hamiltonian(x.shifted(b, -h))) / (2 * h)
        assert np.max(np.abs(d2[b] - fd)) <= 1e-7 * max(1.0, np.max(np.abs(fd)))


@pytest.mark.parametrize("model", _second_derivative_models(),
                         ids=lambda m: m.name)
def test_gauge_term_gradient_matches_fd(model):
    # Both lift branches of two_level: h3 > 0 and h3 < 0 off the h3 axis.
    x = PhasePoint.of([0.3, -0.2, 0.4], [0.6, 0.1, 0.9])

    gauge = model.analytic_connections
    h = 1e-5
    fd = np.stack([(gauge(x.shifted(b, h)) - gauge(x.shifted(b, -h))) / (2 * h)
                   for b in range(6)])
    got = model.d_analytic_connections(x)
    assert got.shape == (6, 6, model.n, model.n)
    # Only the z-only two_level model has a vanishing gauge term.
    assert np.max(np.abs(fd)) > 1e-3 or getattr(model, "z_only", False)
    assert np.max(np.abs(got - fd)) <= 1e-8 * max(1.0, np.max(np.abs(fd)))


# Term-by-term evaluation of the declared terms: the reference the compiled
# monomial tables must reproduce bit for bit.

def _ref_power(c, e):
    if e == 0:
        return None
    if e == 1:
        return c
    if isinstance(c, float):
        return c ** e
    return np.array([v ** e for v in c.tolist()])


def _ref_coords(x):
    if not x.batch_shape:
        return x.R.tolist() + x.P.tolist()
    return list(x.R.T) + list(x.P.T)


def _ref_term_value(t, c):
    v = float(t.coef)
    for i in range(3):
        a, b = _ref_power(c[i], t.r_exp[i]), _ref_power(c[3 + i], t.p_exp[i])
        f = b if a is None else a if b is None else a * b
        if f is not None:
            v = v * f
    return v


def _ref_term_derivative(t, c, axes):
    exps = list(t.r_exp + t.p_exp)
    k = 1
    for a in axes:
        k *= exps[a]
        exps[a] -= 1
    if not k:
        return 0.0
    v = float(t.coef) * k
    for ci, e in zip(c, exps):
        if e:
            v = v * _ref_power(ci, e)
    return v


def reference_values(parts, x):
    c = _ref_coords(x)
    sums = [sum(_ref_term_value(t, c) for t in terms) for terms in parts]
    if not x.batch_shape:
        return np.array(sums, dtype=float)
    return np.array([v + np.zeros(x.batch_shape) for v in sums])


def reference_derivs(parts, x, order):
    out = np.zeros((len(parts),) + x.batch_shape + (6,) * order)
    c = _ref_coords(x)
    for k, terms in enumerate(parts):
        for t in terms:
            live = [a for a, e in enumerate(t.r_exp + t.p_exp) if e]
            for axes in itertools.product(live, repeat=order):
                out[k][(Ellipsis, *axes)] += _ref_term_derivative(t, c, axes)
    return out


def reference_jet(parts, x, order):
    if order == 0:
        return reference_values(parts, x)
    return reference_derivs(parts, x, order)


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


_TABLE_MODELS = {
    "default": {},
    # "half" and "rp" terms; R_i P_i pairs (shared axis index i); exponents
    # >= 2 (repeated axes in the derivatives); constant and cubic terms.
    "mixed": {
        "h0_terms": [{"coef": "1/10", "r_exp": [1, 0, 0], "p_exp": [1, 1, 0]},
                     {"coef": "-2/7", "r_exp": [3, 1, 0], "p_exp": [2, 0, 1],
                      "sym": "rp"}],
        "h_terms": [[{"coef": "1/4", "p_exp": [1, 0, 0]},
                     {"coef": "1/3", "r_exp": [0, 0, 1], "p_exp": [0, 2, 0],
                      "sym": "rp"},
                     {"coef": "3", "r_exp": [1, 0, 0], "p_exp": [1, 0, 0]}],
                    [{"coef": "1/5", "r_exp": [0, 1, 0]},
                     {"coef": "-1/2", "r_exp": [1, 0, 0], "p_exp": [0, 0, 1]},
                     {"coef": "1/9", "r_exp": [0, 2, 0]}],
                    [{"coef": "-1"}, {"coef": "1/10", "r_exp": [0, 0, 2]},
                     {"coef": "5/3", "r_exp": [2, 0, 1], "p_exp": [0, 3, 0]}]],
    },
    # Empty components: no h0, and h1 empty next to a live h2.
    "empty": {"h0_terms": [],
              "h_terms": [[], [{"coef": "1/2", "r_exp": [0, 2, 0],
                                "p_exp": [0, 2, 0]}], [{"coef": "2"}]]},
}


def _table_points():
    pts = random_points(np.random.default_rng(21), 8, 0.3, 3.0)
    # Zero coordinates make signed-zero terms: a sum starting from +0.0
    # turns a lone -0.0 into +0.0.
    zeros = [PhasePoint.of([0.0, -0.5, 0.3], [0.4, 0.0, 0.7]),
             PhasePoint.of([-0.2, 0.0, 0.0], [0.0, -0.3, 0.0])]
    return {"point": pts[0], "batch": PhasePoint.stack(pts[3:8]),
            "zeros": PhasePoint.stack(zeros), "zero": zeros[0]}


@pytest.mark.parametrize("where", ["point", "batch", "zero", "zeros"])
@pytest.mark.parametrize("name", sorted(_TABLE_MODELS))
def test_monomial_tables_equal_the_term_loops(name, where):
    model = TwoLevel(**_TABLE_MODELS[name])
    x = _table_points()[where]
    # One pass over every order, and one pass per order.
    together = model._jets(x, range(3))
    for order in range(3):
        ref = reference_jet(model.parts, x, order)
        assert _same_bytes(together[order], ref)
        assert _same_bytes(model._jets(x, (order,))[0], ref)
    assert _same_bytes(model.h_vector(x), reference_values(model.h, x).T)
    methods = [model.hamiltonian, model.d_hamiltonian, model.d2_hamiltonian]
    for order, method in enumerate(methods):
        assert _same_bytes(method(x),
                           model._sigma(reference_jet(model.parts, x, order)))


def _seven_op_sigma(c):
    """c0 1 + c1 sigma_x + c2 sigma_y + c3 sigma_z by seven operations: a
    product and a sum per term, as `TwoLevel._sigma` once made it."""
    out = c[0][..., None, None] * np.eye(2, dtype=complex)
    for ck, s in zip(c[1:], (SX, SY, SZ)):
        out = out + ck[..., None, None] * s
    return out


@pytest.mark.parametrize("shape", [(), (6,), (6, 6), (6, 6, 6), (5,),
                                   (5, 6, 6), (5, 6, 6, 6)])
def test_sigma_keeps_the_bits_of_the_seven_operation_sum(shape):
    # Signed zeros, infinities and NaNs included: (-0, -0, -1.18, -0) gives
    # -0.0 at entry [0, 0], which a `sum(0)` over the terms makes +0.0.
    rng = np.random.default_rng(len(shape) + sum(shape))
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.18])
    for _ in range(40):
        c = rng.normal(size=(4,) + shape)
        pick = rng.random(c.shape) < 0.4
        c[pick] = rng.choice(special, size=pick.sum())
        with np.errstate(invalid="ignore"):         # inf * 0 in both
            assert _same_bytes(TwoLevel._sigma(c), _seven_op_sigma(c))
    c = np.array([-0.0, -0.0, -1.18, -0.0]).reshape((4,) + (1,) * len(shape))
    c = np.broadcast_to(c, (4,) + shape).copy()
    got = TwoLevel._sigma(c)
    assert _same_bytes(got, _seven_op_sigma(c))
    assert np.signbit(got[..., 0, 0].real).all()


def _nested_conversion(field, R):
    """(value, gradient, hessian) at R (3,) or (N, 3), converted to arrays
    as `_jet` did before the flat layout: the nested jets by `zip` and
    `map`, one point without `zip`."""
    if R.ndim == 1:
        return tuple(map(np.array, nested_jet(field, R)))
    return tuple(map(np.array,
                     zip(*[nested_jet(field, r) for r in R.tolist()])))


@pytest.mark.parametrize("where", ["point", "batch"])
@pytest.mark.parametrize("field", FLAT_FIELDS, ids=FLAT_IDS)
def test_field_arrays_equal_the_nested_conversion(field, where):
    R = np.random.default_rng(23).uniform(-0.8, 0.8, (7, 3))
    R[0] = [0.0, -0.0, 0.3]                     # signed zeros
    if where == "point":
        R = R[0]
    jet = _nested_conversion(field, R)
    got = _jet(field, R)
    assert len(got) == 3
    for a, b in zip(got, jet):
        assert _same_bytes(a, b)


def _reference_gauge(model, x, top):
    """h, |h|, lift and the derivatives of h of orders 1 to `top` of the
    gauge term from the term loops, and the singular-gauge error the
    quotient rule raises."""
    h = reference_values(model.h, x).T.copy()
    h1, h2, h3 = h[..., 0], h[..., 1], h[..., 2]
    hn = np.sqrt(_dot(h, h))
    up = h3 >= 0
    lift = hn + h3
    if not up.all():
        lift = np.where(up, lift, (_pow(h1, 2) + _pow(h2, 2))
                        / np.where(up, 1.0, hn - h3))
    d = reference_derivs(model.h, x, 1)
    flat = lift == 0.0
    if flat.any() and (flat & ((hn == 0.0) | d[0].any(axis=-1)
                               | d[1].any(axis=-1))).any():
        raise ValueError("two_level gauge is singular at h1 = h2 = 0, h3 <= 0")
    return (h, hn, lift, d) + tuple(reference_derivs(model.h, x, k)
                                    for k in range(2, top + 1))


def reference_gauge_stacks(model, x):
    """The quotient rule on w = N / Q (N = h1 grad h2 - h2 grad h1,
    Q = 2 |h| lift) with every derivative of h from the term loops:
    (gauge stack, its gradient)."""
    h, hn, lift, d, dd = _reference_gauge(model, x, 2)
    on = lift != 0
    w = ((h[..., 0, None] * d[1] - h[..., 1, None] * d[0])
         / np.where(on, 2 * hn * lift, 1.0)[..., None])
    w[~on] = 0.0
    G = TwoLevel._gauge_stack(w)
    if not on.any():
        return G, np.zeros(x.batch_shape + (6, 6, 2, 2), dtype=complex)
    d0, d1, d2 = d
    d = np.ascontiguousarray(np.moveaxis(d, 0, -2))
    lift = np.where(on, lift, 1.0)
    h1, h2, h3 = h[..., 0, None], h[..., 1, None], h[..., 2, None]
    hn_, lift_ = hn[..., None], lift[..., None]
    up = h3 >= 0
    dn = (h[..., None, :] @ d)[..., 0, :] / hn_
    dlift = dn + d2
    if not up.all():
        below = np.where(up, 1.0, hn_ - h3)
        dlift = np.where(up, dlift, (2 * (h1 * d0 + h2 * d1)
                                     - lift_ * (dn - d2)) / below)
    N = h1 * d1 - h2 * d0
    dN = (_outer(d0, d1) - _outer(d1, d0)
          + h1[..., None] * dd[1] - h2[..., None] * dd[0])
    Q = 2 * hn * lift
    Q_ = Q[..., None, None]
    dQ = 2 * (dn * lift_ + hn_ * dlift)
    dw = dN / Q_ - _outer(dQ, N) / _pow(Q, 2)[..., None, None]

    def live(v):
        o = on.reshape(on.shape + (1,) * (v.ndim + 2 - on.ndim))
        return np.where(o, TwoLevel._gauge_stack(v), 0.0)

    return G, live(dw)


_Z_MINUS = [[], [], [{"coef": "-1"}, {"coef": "1/5", "r_exp": [2, 0, 0]}]]


def _gauge_models():
    return {
        "z-only-up": TwoLevel(),
        "z-only-down": TwoLevel(h_terms=_Z_MINUS),
        "generic-up": _two_level_with_gauge("1"),
        "generic-down": _two_level_with_gauge("-1"),
    }


@pytest.mark.parametrize("where", ["point", "batch"])
@pytest.mark.parametrize("name", sorted(_gauge_models()))
def test_gauge_term_and_gradients_equal_the_quotient_rule(name, where):
    # The z-only term is a structural zero; its bytes, signed zeros
    # included, are still those of the quotient rule on both lift branches.
    model = _gauge_models()[name]
    x = _table_points()[where]
    h3 = model.h_vector(x)[..., 2]
    assert (h3 > 0).all() if name.endswith("up") else (h3 < 0).all()
    G, dG = reference_gauge_stacks(model, x)
    assert _same_bytes(model.analytic_connections(x), G)
    assert _same_bytes(model.d_analytic_connections(x), dG)
    if model.z_only:
        assert np.signbit(G.real).any() and not G.any()


@pytest.mark.parametrize("h_terms, xs", [
    # z-only, one point on each lift branch.
    ([[], [], [{"coef": "1", "r_exp": [1, 0, 0]}]], [0.4, -0.7]),
    # h1 = x^2 with h3 < 0: at x = 0, lift = 0 and grad h1 = 0 (no error).
    ([[{"coef": "1", "r_exp": [2, 0, 0]}], [], [{"coef": "-1"}]], [0.0, 0.0]),
], ids=["z-only-both-branches", "generic-flat-everywhere"])
def test_gauge_term_off_the_generic_branch(h_terms, xs):
    model = TwoLevel(h_terms=h_terms)
    x = PhasePoint.stack([PhasePoint.of([xs[0], 0, 0], [0.1, 0.2, 0.3]),
                          PhasePoint.of([xs[1], 0.1, 0], [0.3, -0.2, 0.5])])
    G, dG = reference_gauge_stacks(model, x)
    assert _same_bytes(model.analytic_connections(x), G)
    assert _same_bytes(model.d_analytic_connections(x), dG)


_GAUGE_METHODS = ("analytic_connections", "d_analytic_connections")


@pytest.mark.parametrize("h_terms, R", [
    # z-only, h3 = x = 0: |h| = 0.
    ([[], [], [{"coef": "1", "r_exp": [1, 0, 0]}]], [0.0, 0.3, 0.1]),
    # h1 = p_x = 0 with a live gradient and h3 < 0.
    ([[{"coef": "1", "p_exp": [1, 0, 0]}], [], [{"coef": "-1"}]],
     [0.2, 0.3, 0.1]),
], ids=["z-only-zero", "generic-below-axis"])
def test_singular_gauge_errors_keep_type_and_message(h_terms, R):
    model = TwoLevel(h_terms=h_terms)
    bad = PhasePoint.of(R, [0.0, 0.4, 0.5])
    good = PhasePoint.of([0.5, 0.3, 0.1], [0.2, 0.4, 0.5])
    for x in (bad, PhasePoint.stack([good, bad])):
        with pytest.raises(ValueError) as ref:
            _reference_gauge(model, x, 1)
        for method in _GAUGE_METHODS:
            with pytest.raises(ValueError) as got:
                getattr(model, method)(x)
            assert str(got.value) == str(ref.value) == (
                "two_level gauge is singular at h1 = h2 = 0, h3 <= 0")


def test_degenerate_frame_error_keeps_type_and_message():
    model = TwoLevel(h_terms=[[], [], [{"coef": "1", "r_exp": [1, 0, 0]}]])
    bad = PhasePoint.of([0.0, 0.3, 0.1], [0.1, 0.2, 0.3])
    good = PhasePoint.of([0.5, 0.3, 0.1], [0.1, 0.2, 0.3])
    for x in (bad, PhasePoint.stack([good, bad])):
        with pytest.raises(ValueError,
                           match=r"^two_level bands are degenerate where "
                                 r"\|h\| = 0$"):
            model.analytic_frame(x)
