"""Energy pipeline: generator, corrected connections, order-by-order terms."""

import copy
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import semiband.energy
import semiband.frames
import semiband.stencils
from semiband.fields import (
    GaussianField, LinearField, ScalarField, UniformField,
)
from semiband.models import (
    BETA, DiracElectric, NeutrinoMetric, PhasePoint, TwoLevel, make_model,
)
from semiband.frames import berry_connections, classical_frame, conjugate
from semiband.energy import band_energy, corrected_connections, first_order
from semiband.dynamics import berry_curvatures
from semiband.verify import connections_fd, covariant_reexpansion
from semiband.weyl import QC, WeylExpr
from tests.test_frames import BENCHMARK_CONFIGS
from tests.test_models import p_cross_sigma

GAUSS = GaussianField(0.8, [0.2, -0.1, 0.3], 1.4)


def dirac(field=GAUSS):
    return DiracElectric(m=1.0, e=1.0, field=field)


def neutrino(profile=None):
    return NeutrinoMetric(profile=profile or LinearField([0.05, -0.02, 0.03], 1.5))


X = PhasePoint.of([0.3, 0.5, -0.2], [0.7, -0.4, 1.1])

GENERIC_TWO_LEVEL = {
    "model": "two_level",
    "h0": [{"coef": "1/10", "r_exp": [1, 0, 0], "p_exp": [0, 1, 0]}],
    "h": [[{"coef": "1/4", "p_exp": [1, 0, 0]}],
          [{"coef": "1/5", "r_exp": [0, 1, 0]}],
          [{"coef": "1"}, {"coef": "1/10", "r_exp": [0, 0, 2]}]],
}


def corrected(model, hbar):
    frame = classical_frame(model, X)
    conns0 = berry_connections(frame)
    first = first_order(frame, conns0)
    return frame, conns0, corrected_connections(first, hbar)


def first_order_frame(frame, conns0, hbar):
    """(U, U1, B, hr) of the first-order frame U = (1 + hbar U1) U0 with
    U1 = B + hr, hr = -(i/4) sum_l [A0^{R_l}, A0^{P_l}], and B the
    generator of the first-order record."""
    B = first_order(frame, conns0).B
    hr = -0.25j * (conns0.A @ conns0.cA).sum(-3)
    U1 = B + hr
    return (np.eye(frame.n) + hbar * U1) @ frame.U0, U1, B, hr


def test_rotation_generator_neutrino_vanishes():
    model = neutrino()
    frame = classical_frame(model, X)
    conns = berry_connections(frame)
    B = first_order(frame, conns).B
    assert np.max(np.abs(B)) <= 1e-13


def test_rotation_generator_dirac_closed_form():
    model = dirac()
    frame = classical_frame(model, X)
    conns = berry_connections(frame)
    B = first_order(frame, conns).B
    E = model.energy_scale(X)
    gV = model.field.gradient(X.R)
    closed = (BETA / (2 * E)) @ sum(
        gV[l] * frame.project(conns.A_R[l], "offdiag") for l in range(3)
    )
    assert np.max(np.abs(B - closed)) <= 1e-8
    # Anti-Hermitian, purely cross-group
    assert np.max(np.abs(B + B.conj().T)) <= 1e-13
    assert np.max(np.abs(frame.project(B, "diag"))) <= 1e-13


def test_rotation_generator_uniform_potential_vanishes():
    model = dirac(UniformField(0.4))
    frame = classical_frame(model, X)
    conns = berry_connections(frame)
    assert np.max(np.abs(first_order(frame, conns).B)) <= 1e-13


def test_corrected_connections_neutrino_unchanged():
    _frame, conns0, conns = corrected(neutrino(), 0.05)
    for axis in range(6):
        assert np.max(np.abs(conns.A[axis] - conns0.A[axis])) <= 1e-12


def test_corrected_connections_dirac_momentum_closed_form():
    # A^P_l = (i hbar e beta / 4E) (P- A0^R . grad) grad_l W
    model = dirac()
    hbar = 0.05
    frame, conns0, conns = corrected(model, hbar)
    E = model.energy_scale(X)
    hess = model.field.hessian(X.R)
    G = [frame.project(conns0.A_R[l], "offdiag") for l in range(3)]
    for l in range(3):
        closed = 1j * hbar / (4 * E) * BETA @ sum(
            G[k] * hess[k, l] for k in range(3))
        assert np.max(np.abs(conns.A_P[l] - closed)) <= 1e-10
        assert np.max(np.abs(conns.A_P[l] - conns.A_P[l].conj().T)) <= 1e-13


def test_corrected_connections_uniform_field_unchanged():
    _frame, conns0, conns = corrected(dirac(UniformField(0.0)), 0.1)
    for axis in range(6):
        assert np.max(np.abs(conns.A[axis] - conns0.A[axis])) <= 1e-12


def test_first_order_dirac_matches_closed_form():
    model = dirac()
    hbar = 0.03
    rep = band_energy(model, X, hbar, order=1)
    E = model.energy_scale(X)
    gW = model.field.gradient(X.R)  # e = 1
    pxs = p_cross_sigma(X.P)
    closed = hbar * sum(gW[l] * pxs[l] for l in range(3)) / (2 * E * (E + 1))
    assert np.max(np.abs(rep.first - closed)) <= 1e-12
    assert np.max(np.abs(rep.zeroth - np.diag(rep.point.P @ np.zeros(3)
                                              + [E + model.field.value(X.R),
                                                 E + model.field.value(X.R),
                                                 -E + model.field.value(X.R),
                                                 -E + model.field.value(X.R)]))) \
        <= 1e-12


def test_first_order_free_dirac_vanishes():
    rep = band_energy(dirac(UniformField(0.0)), X, 0.1, order=1)
    assert np.max(np.abs(rep.first)) <= 1e-14


def test_first_order_flat_neutrino_vanishes():
    rep = band_energy(neutrino(UniformField(1.0)), X, 0.1, order=1)
    assert np.max(np.abs(rep.first)) <= 1e-14


def test_second_order_free_fields_vanish():
    for model in (dirac(UniformField(0.0)), neutrino(UniformField(1.0))):
        rep = band_energy(model, X, 0.1, order=2)
        assert np.max(np.abs(rep.first)) <= 1e-12
        assert np.max(np.abs(rep.second)) <= 1e-12
        assert np.max(np.abs(rep.bracket_term)) <= 1e-12


def test_covariant_flat_metric_value():
    model = neutrino(UniformField(1.0))
    rep = band_energy(model, X, 0.1, order=2, representation="covariant")
    E = np.linalg.norm(X.P)
    assert np.allclose(rep.eps, BETA * E, atol=1e-12)


def test_bracket_term_neutrino_closed_form():
    model = neutrino()
    hbar = 0.04
    rep = band_energy(model, X, hbar, order=2)
    E = np.linalg.norm(X.P)
    gF = model.F.gradient(X.R)
    expected = -(hbar ** 2) / (4 * E) * float(X.P @ gF) * np.eye(4)
    assert np.allclose(rep.bracket_term, expected, atol=1e-14)
    assert not rep.partial


def test_bracket_term_dirac_zero():
    rep = band_energy(dirac(), X, 0.05, order=2)
    assert np.max(np.abs(rep.bracket_term)) == 0.0


def test_bracket_term_two_level_symbolic_vs_closed_form():
    # Declared half-symmetrized products of commuting scalars: the engine
    # must return the exact zero of (i/4)[grad A, grad B] for every band.
    model = TwoLevel()
    term = model.ordering_bracket_term(X, 0.3)
    assert np.max(np.abs(term)) == 0.0
    # An ordered (non-symmetrized) declaration has bracket (i/2) grad A.grad B;
    # its energy contribution is dropped by Hermitization, and the defect is
    # what the report records.
    cfg = {"h0": [{"coef": "1/2", "r_exp": [1, 0, 0], "p_exp": [1, 0, 0],
                   "sym": "rp"}],
           "h": [[], [], [{"coef": "1"}]]}
    ordered = TwoLevel(h0_terms=cfg["h0"], h_terms=cfg["h"])
    raw = ordered.ordering_bracket_term(X, 0.3)
    # -(hbar/2) * (i/2) * c: purely imaginary diagonal
    assert abs(raw[0, 0] - (-0.3 / 2) * 0.5j * 0.5) < 1e-15
    rep = band_energy(ordered, X, 0.3, order=2)
    assert np.max(np.abs(rep.bracket_term)) == 0.0
    assert rep.diagnostics["hermiticity_defect"] > 0.0


# The "half" monomials of ROADMAP item 1c, each as c (A B + B A)/2 in h0 of
# a z-only model with h3 = 1 and c = 1/10: the exact bracket <eps0> of both
# bands, and the order-2 bracket term -(hbar/2)<eps0> it gives, Hermitized.
# These values have the opposite sign of each term's Weyl correction; item
# 1c decides which sign is right, and a fix that flips them re-pins them
# here in the same change.
_C = Fraction(1, 10)
_HALF_MONOMIAL_BRACKETS = [
    ([2, 0, 0], [2, 0, 0], WeylExpr.hbar().scaled(QC.of(-_C)),
     lambda R, P, hbar: 0.1 * hbar ** 2 / 2),
    ([3, 0, 0], [3, 0, 0],
     WeylExpr.monomial(hpow=2, mat=((QC.of(0, Fraction(9, 20)),),))
     + WeylExpr.monomial([1, 0, 0], [1, 0, 0], 1, ((QC.of(-9 * _C),),)),
     lambda R, P, hbar: 4.5 * 0.1 * hbar ** 2 * R[..., 0] * P[..., 0]),
    ([1, 1, 0], [1, 1, 0], WeylExpr.hbar().scaled(QC.of(-_C / 2)),
     lambda R, P, hbar: 0.1 * hbar ** 2 / 4),
]


@pytest.mark.parametrize("r_exp, p_exp, bracket, term",
                         _HALF_MONOMIAL_BRACKETS,
                         ids=["RxRxPxPx", "Rx3Px3", "RxRyPxPy"])
def test_half_monomial_brackets_are_pinned(r_exp, p_exp, bracket, term):
    model = TwoLevel(
        h0_terms=[{"coef": "1/10", "r_exp": r_exp, "p_exp": p_exp,
                   "sym": "half"}],
        h_terms=[[], [], [{"coef": "1"}]])
    assert model._band_brackets[0] == bracket
    assert model._band_brackets[1] == bracket
    rng = np.random.default_rng(5)
    x = PhasePoint.stack([PhasePoint.of(rng.uniform(-1, 1, 3),
                                        rng.uniform(0.3, 1.2, 3))
                          for _ in range(4)])
    for hbar in (0.01, 0.05):
        rep = band_energy(model, x, hbar, order=2)
        want = np.broadcast_to(term(x.R, x.P, hbar), (4,))
        for band in (0, 1):
            got = rep.bracket_term[:, band, band]
            assert np.allclose(got.real, want, rtol=1e-15, atol=0.0)
            assert not got.imag.any()
        assert not rep.bracket_term[:, 0, 1].any()


def test_bracket_term_unavailable_flags_partial():
    cfg = {"h0": [],
           "h": [[{"coef": "1/4", "p_exp": [1, 0, 0]}],
                 [{"coef": "1/5", "r_exp": [0, 1, 0]}],
                 [{"coef": "1"}]]}
    model = TwoLevel(h0_terms=cfg["h0"], h_terms=cfg["h"])
    rep = band_energy(model, X, 0.05, order=2)
    assert rep.partial
    assert np.max(np.abs(rep.bracket_term)) == 0.0


# The generic two_level model at X with hbar = 0.05, recorded from the
# per-axis implementation that the (6, n, n) stack layout replaced.  It is the
# only built-in model with a nonzero A^P, so the only one whose order-2 result
# depends on the signs of the R <-> P pairing (`frames.conjugate`) in hr, B
# and the covariant commutator strings; it has no closed-form oracle.
TWO_LEVEL_PINNED_BANDS = {
    "canonical": ([1.0120324401425247, -1.036032315319312],
                  [1.0045657153660195e-07, 2.43666411979888e-08]),
    "covariant": ([1.0120317875212361, -1.0360316880575846],
                  [4.9731825676702e-08, 4.9731825676702e-08]),
}
TWO_LEVEL_PINNED_CONNECTIONS = np.array([
    [[0.006004985501906068, 0.001020435308713452 - 0.12026357984380644j],
     [0.001020435308713452 + 0.12026357984380644j, -0.00600498550190606]],
    [[4.040623968072453e-20, -0.0001468051170961978 - 1.2555762052954956e-06j],
     [-0.0001468051170961978 + 1.2555762052954956e-06j, 4.0408686555418506e-20]],
    [[0.0, -1.7209558293420704e-18 - 4.302389573355176e-19j],
     [-1.7209558293420704e-18 + 4.302389573355176e-19j, 0.0]],
    [[-2.6633501752816187e-20, 1.0044609642416118e-06 + 0.000118627922670529j],
     [1.0044609642416118e-06 - 0.000118627922670529j, -2.6607725107875133e-20]],
    [[0.008433275007892158, 0.09718521216722358 - 0.0008268767193796856j],
     [0.09718521216722358 + 0.0008268767193796856j, -0.008433275007892161]],
    [[5.238108610291968e-07, 0.0019028470099766634 + 0.0033402884391877316j],
     [0.0019028470099766634 - 0.0033402884391877316j, -5.238108610293806e-07]],
])


def test_generic_two_level_order2_is_pinned():
    model = make_model(GENERIC_TWO_LEVEL)
    hbar = 0.05
    for representation, (bands, second) in TWO_LEVEL_PINNED_BANDS.items():
        rep = band_energy(model, X, hbar, 2, representation)
        assert np.max(np.abs(rep.band_values() - bands)) \
            <= 1e-12 * np.max(np.abs(bands))
        # The order-2 part alone, relative to its own size: a sign error in
        # the pairing moves it at the 1e-8 level.
        assert np.max(np.abs(np.real(np.diag(rep.second)) - second)) \
            <= 1e-10 * np.max(np.abs(second))
    _frame, _conns0, conns = corrected(model, hbar)
    assert np.max(np.abs(conns.A - TWO_LEVEL_PINNED_CONNECTIONS)) \
        <= 1e-12 * np.max(np.abs(TWO_LEVEL_PINNED_CONNECTIONS))


class _NaNGradientField(ScalarField):
    """A finite potential whose gradient is NaN."""

    def jet(self, r):
        return (0.3, math.nan) + (0.0,) * 11


def test_non_finite_energy_raises():
    # NaN compares False against the block-diagonality guard, so the
    # finiteness check is what stops a NaN energy.
    model = dirac(_NaNGradientField())
    with np.errstate(invalid="ignore"):
        for order in (1, 2):
            with pytest.raises(FloatingPointError):
                band_energy(model, X, 0.01, order=order)


def test_frame_first_order_gauge_and_unitarity():
    model = dirac()
    frame = classical_frame(model, X)
    conns0 = berry_connections(frame)
    U, U1, B, hr = first_order_frame(frame, conns0, 0.01)
    # hr vanishes when the momentum connection does
    assert np.max(np.abs(hr)) <= 1e-14
    # anti-Hermitian part of the generator is the rotation generator
    anti = 0.5 * (U1 - U1.conj().T)
    assert np.max(np.abs(anti - B)) <= 1e-13
    assert np.max(np.abs(frame.project(anti, "diag"))) <= 1e-12
    # hbar -> 0 limit
    U0_only, *_ = first_order_frame(frame, conns0, 0.0)
    assert np.allclose(U0_only, frame.U0)
    # (d U / d hbar) U^+ has no within-group anti-Hermitian part; the exact
    # derivative of (1 + hbar U1) U0 is U1 U0.
    dU = (U1 @ frame.U0) @ U.conj().T
    anti_dU = 0.5 * (dU - dU.conj().T)
    assert np.max(np.abs(frame.project(anti_dU, "diag"))) <= 1e-12


def test_frame_first_order_uniform_is_zeroth():
    model = dirac(UniformField(0.0))
    frame = classical_frame(model, X)
    conns0 = berry_connections(frame)
    U, U1, B, hr = first_order_frame(frame, conns0, 0.1)
    assert np.max(np.abs(U1)) <= 1e-13
    assert np.allclose(U, frame.U0)


def test_energy_reports_hermitian_and_block_diagonal():
    rng = np.random.default_rng(21)
    for model in (dirac(), neutrino()):
        for _ in range(200):
            R = rng.uniform(-1, 1, 3)
            P = rng.uniform(-1, 1, 3)
            P *= rng.uniform(0.4, 3.0) / np.linalg.norm(P)
            x = PhasePoint.of(R, P)
            rep = band_energy(model, x, 0.02, order=2)
            assert np.max(np.abs(rep.eps - rep.eps.conj().T)) <= 1e-12
            off = classical_frame(model, x).project(rep.eps, "offdiag")
            assert np.linalg.norm(off) <= 1e-10 * np.linalg.norm(rep.eps)


def test_covariant_reexpansion_matches_canonical():
    model = dirac()
    ratios = []
    for hb in (1e-1, 1e-2, 1e-3):
        can = band_energy(model, X, hb, order=2).eps
        reexp = covariant_reexpansion(model, X, hb)
        ratios.append(np.max(np.abs(can - reexp)) / hb ** 3)
    assert ratios[-1] <= 10 * ratios[0] + 1e-6


def test_order_validation():
    with pytest.raises(ValueError):
        band_energy(dirac(), X, 0.01, order=3)
    with pytest.raises(ValueError):
        band_energy(dirac(), X, 0.01, representation="mixed")
    # True == 1 and False == 0, but a bool is not an order.
    for order in (True, False):
        with pytest.raises(ValueError, match="order must be 0, 1 or 2"):
            band_energy(dirac(), X, 0.01, order=order)


def test_unsupported_hamiltonian_bracket_hook():
    model = dirac()
    model.bracket_h_vanishes = False
    with pytest.raises(NotImplementedError, match="unsupported model"):
        band_energy(model, X, 0.01)


def test_order2_takes_no_stencil(monkeypatch):
    # Every derivative of an order-2 point is exact at the point: no stencil,
    # one frame, one U0 grad H U0^+ stack (one d_hamiltonian call) and one
    # d2_hamiltonian call, in either representation.
    calls = []
    real = semiband.stencils.derivative_along

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("semiband") and hasattr(module, "derivative_along"):
            monkeypatch.setattr(module, "derivative_along", counting)
    for model in (dirac(), make_model(GENERIC_TWO_LEVEL)):
        counts = {"analytic_frame": 0, "d_hamiltonian": 0,
                  "d2_hamiltonian": 0}
        for name in counts:
            real_method = getattr(model, name)

            def counting_method(*args, name=name, real_method=real_method):
                counts[name] += 1
                return real_method(*args)

            monkeypatch.setattr(model, name, counting_method)
        for representation in ("canonical", "covariant"):
            calls.clear()
            counts.update(analytic_frame=0, d_hamiltonian=0, d2_hamiltonian=0)
            rep = band_energy(model, X, 0.01, order=2,
                              representation=representation)
            assert calls == []
            assert counts["analytic_frame"] <= 1
            assert counts["d_hamiltonian"] <= 1
            assert counts["d2_hamiltonian"] == 1
            fd = rep.diagnostics["fd"]
            assert (fd.fallbacks, fd.discrepancy) == (0, 0.0)


def test_d_eps0_is_made_only_where_it_is_read(monkeypatch):
    # FirstOrder.DE is made on first read, by the canonical order-2 energy;
    # the covariant energy and the curvature pass never make it.
    calls = []
    real = semiband.energy._D_eps0
    monkeypatch.setattr(semiband.energy, "_D_eps0",
                        lambda *args: calls.append(1) or real(*args))
    model = dirac()
    runs = {
        "canonical": lambda: band_energy(model, X, 0.01, 2, "canonical"),
        "covariant": lambda: band_energy(model, X, 0.01, 2, "covariant"),
        "curvature": lambda: berry_curvatures(model, X, 0.01),
    }
    for kind, run in runs.items():
        calls.clear()
        run()
        assert len(calls) == (kind == "canonical"), kind


def test_conjugate_of_a0_is_built_once_per_point(monkeypatch):
    # conjugate(A0) is kept on the connection set; a point used to build it
    # four times in the canonical order-2 energy and seven times in the
    # covariant one.  The other calls conjugate A1 and the gradient stacks;
    # the curvature pass builds no second derivatives of the connections
    # and adds no call to the five of its covariant variables;
    # conjugate(P+A0) is the projection of conjugate(A0).  A batch makes the
    # same calls as one point.
    args = []
    real = semiband.frames.conjugate

    def counting(S):
        args.append(S.copy())
        return real(S)

    for name, module in list(sys.modules.items()):
        if name.startswith("semiband") and hasattr(module, "conjugate"):
            monkeypatch.setattr(module, "conjugate", counting)
    model = dirac()
    batch = PhasePoint.stack([X, PhasePoint.of([0.3, -0.5, 0.2],
                                               [-0.6, 0.9, 0.4])])
    runs = {
        "canonical": lambda x: band_energy(model, x, 0.01, 2, "canonical"),
        "covariant": lambda x: band_energy(model, x, 0.01, 2, "covariant"),
        "curvature": lambda x: berry_curvatures(model, x, 0.01),
    }
    for x in (X, batch):
        A0 = berry_connections(classical_frame(model, x)).A
        for kind, run in runs.items():
            args.clear()
            run(x)
            total = {"canonical": 7, "covariant": 6, "curvature": 5}[kind]
            assert len(args) == total, kind
            assert sum(S.shape == A0.shape and np.array_equal(S, A0)
                       for S in args) == 1, kind


def test_order2_point_builds_b_from_its_own_inversion(monkeypatch):
    # The first-order record takes B from the K-inversion it performs for
    # grad B: an order-2 point makes four band-commutator inversions (the
    # connections, their gradients, B and grad B), in either
    # representation, for one point and for a batch.
    counts = {"invert_band_commutator": 0}
    for name, module in list(sys.modules.items()):
        if name.startswith("semiband") and hasattr(module,
                                                   "invert_band_commutator"):
            real = module.invert_band_commutator

            def counting(*args, real=real):
                counts["invert_band_commutator"] += 1
                return real(*args)

            monkeypatch.setattr(module, "invert_band_commutator", counting)
    batch = PhasePoint.stack([X, PhasePoint.of([0.3, -0.5, 0.2],
                                               [-0.6, 0.9, 0.4])])
    for model in (dirac(), neutrino(), make_model(GENERIC_TWO_LEVEL)):
        for x in (X, batch):
            for representation in ("canonical", "covariant"):
                counts.update(invert_band_commutator=0)
                band_energy(model, x, 0.01, 2, representation)
                assert counts == {"invert_band_commutator": 4}


def rotated_model(model, D, omega):
    """The model with its frame turned by the within-group unitary D(x), whose
    (D grad D^+) = -omega is constant over phase space, and its declared gauge
    term and that term's gradient turned with it.  D and the model take one
    point or a batch.

    X = U0 grad U0^+ becomes D X D^+ + D grad D^+, so the gauge term G becomes
    D G D^+ + conjugate(i D grad D^+), and grad_b (D G_a D^+) is
    G'[b, a] = [omega_b, D G_a D^+] + D grad_b G_a D^+.
    """
    rotated = copy.copy(model)
    shift = conjugate(-1j * omega)

    def turn(x, S, axes):
        """D S D^+ for a stack S with `axes` phase axes."""
        Dx = D(x)
        Dx = Dx.reshape(Dx.shape[:-2] + (1,) * axes + Dx.shape[-2:])
        return Dx @ S @ Dx.conj().swapaxes(-1, -2)

    def analytic_frame(x):
        eps0, U0 = model.analytic_frame(x)
        return eps0, D(x) @ U0

    def analytic_connections(x):
        return turn(x, model.analytic_connections(x), 1) + shift

    def d_analytic_connections(x):
        G = turn(x, model.analytic_connections(x), 1)[..., None, :, :, :]
        wb = omega[:, None]
        return (wb @ G - G @ wb
                + turn(x, model.d_analytic_connections(x), 2))

    rotated.analytic_frame = analytic_frame
    rotated.analytic_connections = analytic_connections
    rotated.d_analytic_connections = d_analytic_connections
    return rotated


def _group_rotated(model, rng):
    """The model with its frame rotated by a constant unitary D within each
    band group, and its declared within-group gauge term (and the term's
    gradient, D grad G D^+) rotated with it."""
    D = np.zeros((model.n, model.n), dtype=complex)
    for g in np.unique(model.groups):
        idx = np.flatnonzero(model.groups == g)
        z = rng.normal(size=(idx.size, idx.size)) \
            + 1j * rng.normal(size=(idx.size, idx.size))
        q, _r = np.linalg.qr(z)
        D[np.ix_(idx, idx)] = q
    return rotated_model(model, lambda x: D,
                         np.zeros((6, model.n, model.n), dtype=complex))


def test_group_rotated_connections_match_fd():
    # The direct guard on the rotated gauge term: block eigenvalues of the
    # energy do not notice an unrotated term, the connections do.
    rng = np.random.default_rng(8)
    for model in (dirac(), neutrino(), make_model(GENERIC_TWO_LEVEL)):
        rotated = _group_rotated(model, rng)
        for x in (X, PhasePoint.of([-0.4, 0.2, 0.6], [-0.3, 0.9, 0.5])):
            frame = classical_frame(rotated, x)
            exact, fd = berry_connections(frame), connections_fd(frame)
            for k in range(6):
                assert np.max(np.abs(exact.A[k] - fd.A[k])) <= 1e-6


def _block_eigenvalues(eps, groups):
    return np.concatenate([np.linalg.eigvalsh(eps[np.ix_(idx, idx)])
                           for idx in (np.flatnonzero(groups == g)
                                       for g in np.unique(groups))])


def test_energy_is_invariant_under_constant_group_rotation():
    # A constant rotation within the band groups is a gauge change: block
    # eigenvalues of the order-2 energy must not move.  (A position-dependent
    # rotation moves canonical energies at O(hbar) and is not an invariant.)
    rng = np.random.default_rng(8)
    for model in (dirac(), neutrino(), make_model(GENERIC_TWO_LEVEL)):
        rotated = _group_rotated(model, rng)
        for x in (X, PhasePoint.of([-0.4, 0.2, 0.6], [-0.3, 0.9, 0.5])):
            for representation in ("canonical", "covariant"):
                ref = band_energy(model, x, 0.1, 2, representation).eps
                got = band_energy(rotated, x, 0.1, 2, representation).eps
                ref_vals = _block_eigenvalues(ref, model.groups)
                got_vals = _block_eigenvalues(got, model.groups)
                assert np.max(np.abs(got_vals - ref_vals)) \
                    <= 1e-10 * np.max(np.abs(ref_vals))


_MODEL_METHODS = ("hamiltonian", "analytic_frame", "d_hamiltonian",
                  "d2_hamiltonian", "analytic_connections",
                  "d_analytic_connections", "ordering_bracket_term")


@pytest.mark.parametrize("name", sorted(BENCHMARK_CONFIGS))
def test_one_call_per_model_method_per_point(name, monkeypatch):
    # A frame's methods share what they have in common through the frame's
    # memo, so one order-2 energy or curvature point calls each model method
    # and the field's jet once; only the energy adds the bracket term.
    model = make_model(BENCHMARK_CONFIGS[name])
    field = getattr(model, "field", None) or getattr(model, "F", None)
    calls = {}
    for owner, attr in ([(model, attr) for attr in _MODEL_METHODS]
                        + ([(field, "jet")] if field is not None else [])):
        def counting(*args, _real=getattr(owner, attr), _attr=attr):
            calls[_attr] = calls.get(_attr, 0) + 1
            return _real(*args)
        monkeypatch.setattr(owner, attr, counting)
    once = dict.fromkeys(_MODEL_METHODS[:-1] + (("jet",) if field else ()), 1)
    x = PhasePoint.of([0.3, -0.2, 0.5], [0.6, 0.4, -0.9])
    for representation in ("canonical", "covariant"):
        calls.clear()
        band_energy(model, x, 0.01, 2, representation)
        assert calls == {**once, "ordering_bracket_term": 1}
    calls.clear()
    berry_curvatures(model, x, 0.01)
    assert calls == once
