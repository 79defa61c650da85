"""Exact phase-space tangents and the first-order Moyal residuals.

`energy.first_order` differentiates A0, B and W exactly at a point, and
`dynamics.berry_curvatures` the covariant shifts one order further.  Here
both are checked against stencils over the same fields, and the first-order
frame (B, hr and W) against the Moyal-product conditions that need no oracle:
U = (1 + hbar U1) U0 is unitary and U * H * U^+ is block diagonal at O(hbar).
grad A0 is checked against the flatness of U0 grad U0^+, which the
curvature pass relies on and which needs no oracle either.
"""

import sys

import numpy as np
import pytest

import semiband.dynamics
import semiband.stencils
from semiband.models import (
    ALPHA, BETA, SIGMA, DiracElectric, Model, PhasePoint, _ap, _dot,
    make_model, random_points,
)
from semiband.frames import (
    DEFAULT_TOL,
    BandFrame,
    ConnectionSet,
    _comm,
    berry_connections,
    classical_frame,
    conjugate,
    frame_field,
    hermitize,
)
from semiband.energy import (
    band_energy,
    first_order,
    first_order_kernel,
    frame_first_order,
    kernel_gradient,
    rotation_generator,
)
from semiband.dynamics import (
    _helicity_spinor,
    band_curvature_vector,
    berry_curvatures,
    covariant_variables,
)
from semiband.stencils import derivative_along
from tests.test_dynamics import positive_block_connection
from tests.test_energy import (
    _block_eigenvalues, _group_rotated, rotated_model,
)
from tests.test_frames import BENCHMARK_CONFIGS


class _VariableMassDirac(DiracElectric):
    """H = alpha.P + beta m(R), m = 1 + k.R: the cross-group frame depends on
    R, so the B pairing term of `rotation_generator` is live once the frame
    is turned within the groups.  Takes one point or a batch."""

    def __init__(self, k):
        super().__init__(m=1.0, e=0.0)
        self.k = np.asarray(k, dtype=float)

    def _mass(self, x):
        return 1.0 + _dot(x.R, self.k)

    def hamiltonian(self, x):
        self.check_point(x)
        return self._mass(x)[..., None, None] * BETA + _ap(x.P)

    def d_hamiltonian(self, x):
        return np.broadcast_to(np.stack([k * BETA for k in self.k] + ALPHA),
                               x.batch_shape + (6, 4, 4))

    def d2_hamiltonian(self, x):
        return np.zeros(x.batch_shape + (6, 6, 4, 4), dtype=complex)

    def analytic_frame(self, x):
        # The free-particle rotation of `DiracElectric` at the local mass.
        m = self._mass(x)
        E = np.sqrt(_dot(x.P, x.P) + m * m)
        U0 = (((E + m)[..., None, None] * np.eye(4) + BETA @ _ap(x.P))
              / np.sqrt(2 * E * (E + m))[..., None, None])
        return E[..., None] * np.array([1.0, 1.0, -1.0, -1.0]), U0

    def _gauge_f(self, x):
        """f = 2E(E+m), E = sqrt(P^2 + m^2), m = 1 + k.R: (f, grad f) over
        the six axes; R enters through m.  U0 grad_m U0^+ has no
        within-group part, so the gauge term keeps its constant-mass form
        (P x Sigma)/f."""
        m, P, k = self._mass(x), x.P, self.k
        E = np.sqrt(_dot(P, P) + m * m)
        f_m = 4 * m + 2 * E + 2 * m * m / E
        f_P = ((4 * E + 2 * m) / E)[..., None] * P
        df = np.concatenate([f_m[..., None] * k, f_P], axis=-1)
        return 2 * E * (E + m), df


def _twisted(model, seed):
    """The model's frame turned by D(x) = blockdiag(exp(i th1 n1.sigma),
    exp(i th2 n2.sigma)) with th linear in (R, P): a point-dependent
    within-group gauge for two 2-dim groups, with A^P != 0 inside them."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(-0.6, 0.6, size=(2, 6))
    nsig = []
    for n in rng.normal(size=(2, 3)):
        n /= np.linalg.norm(n)
        nsig.append(sum(n[i] * s for i, s in enumerate(SIGMA[:3]))[:2, :2])
    omega = np.zeros((6, 4, 4), dtype=complex)
    for k, sl in enumerate((slice(0, 2), slice(2, 4))):
        omega[:, sl, sl] = 1j * np.multiply.outer(c[k], nsig[k])

    def D(x):
        z = np.concatenate([x.R, x.P], axis=-1)
        out = np.zeros(x.batch_shape + (4, 4), dtype=complex)
        for k, sl in enumerate((slice(0, 2), slice(2, 4))):
            th = _dot(z, c[k])[..., None, None]
            out[..., sl, sl] = (np.cos(th) * np.eye(2)
                                + 1j * np.sin(th) * nsig[k])
        return out

    return rotated_model(model, D, omega)


class _FrameLess(Model):
    """A model seen through its Hamiltonian only: eigensolver frame and the
    parallel within-group gauge."""

    def __init__(self, inner):
        self.inner = inner
        self.name = "frameless_" + inner.name
        self.n, self.band_groups = inner.n, inner.band_groups
        self.massless = inner.massless

    def hamiltonian(self, x):
        return self.inner.hamiltonian(x)

    def d_hamiltonian(self, x):
        return self.inner.d_hamiltonian(x)

    def d2_hamiltonian(self, x):
        return self.inner.d2_hamiltonian(x)


def _phase_field(model, y, anchor, hbar):
    """[A0, B, W] at y, (8, n, n), in the gauge that the exact tangents
    differentiate: the model's analytic gauge, or the gauge aligned to the
    anchor frame."""
    at = frame_field(anchor)
    eps0, U0 = at(y)
    frame = BandFrame(np.asarray(eps0, dtype=float),
                      np.asarray(U0, dtype=complex), anchor.groups, y, model)
    if model.has_analytic_frame:
        conns = berry_connections(frame)
    else:
        # The stencil connections at y of the field aligned to the anchor,
        # not to a frame at y: X = U0 grad U0^+.
        X = frame.U0 @ np.stack([
            derivative_along(lambda z: at(z)[1].conj().T, y, axis)
            for axis in range(6)])
        conns = ConnectionSet(hermitize(conjugate(1j * X)), "0")
    return np.concatenate([conns.A, [rotation_generator(frame, conns),
                                     first_order_kernel(frame, conns)]])


def _dirac():
    return make_model(BENCHMARK_CONFIGS["dirac_electric"])


def _generic():
    return make_model(BENCHMARK_CONFIGS["two_level_generic"])


TANGENT_CASES = {
    **{name: (lambda cfg=cfg: make_model(cfg))
       for name, cfg in BENCHMARK_CONFIGS.items()},
    "rotated_dirac": lambda: _group_rotated(_dirac(), np.random.default_rng(8)),
    "rotated_neutrino": lambda: _group_rotated(
        make_model(BENCHMARK_CONFIGS["neutrino_metric"]),
        np.random.default_rng(9)),
    "rotated_two_level": lambda: _group_rotated(_generic(),
                                                np.random.default_rng(10)),
    "twisted_dirac": lambda: _twisted(_dirac(), 1),
    "twisted_variable_mass": lambda: _twisted(
        _VariableMassDirac([0.3, -0.2, 0.25]), 2),
    "frameless_dirac": lambda: _FrameLess(_dirac()),
    "frameless_variable_mass": lambda: _FrameLess(
        _VariableMassDirac([0.3, -0.2, 0.25])),
}


@pytest.mark.parametrize("case", sorted(TANGENT_CASES))
def test_exact_field_gradients_match_stencil(case):
    model = TANGENT_CASES[case]()
    hbar = 0.01
    rng = np.random.default_rng(40)
    points = random_points(rng, 2, 0.3, 3.0)
    for x in points:
        frame = classical_frame(model, x)
        first = first_order(frame, berry_connections(frame))
        fd = np.stack([derivative_along(
            lambda y: _phase_field(model, y, frame, hbar), x, axis)
            for axis in range(6)])
        # The z-only two_level fields vanish identically.
        scale = max(float(np.max(np.abs(fd))), 1e-12)
        for exact, want in ((first.dA, fd[:, :6]), (first.dB, fd[:, 6]),
                            (kernel_gradient(first), fd[:, 7])):
            assert exact.shape == want.shape
            assert np.max(np.abs(exact - want)) <= 1e-6 * scale


@pytest.mark.parametrize("case", [*sorted(BENCHMARK_CONFIGS), "twisted_dirac",
                                  "twisted_variable_mass"])
def test_record_generator_is_rotation_generator(case):
    # The first-order record builds B from its own K-inversion and pairing
    # product: the value of `rotation_generator`, rounded in another order,
    # at one point and for a batch.
    model = TANGENT_CASES[case]()
    points = random_points(np.random.default_rng(42), 4, 0.3, 3.0)
    for x in points + [PhasePoint.stack(points)]:
        frame = classical_frame(model, x)
        conns = berry_connections(frame)
        want = rotation_generator(frame, conns)
        got = first_order(frame, conns).B
        assert got.shape == want.shape
        scale = np.max(np.abs(conns.A))
        assert np.max(np.abs(got - want)) <= 1e-15 * scale


def moyal_residuals(model, x):
    """(unitarity, P- T, P+ T - W/2) of the first-order frame at x.

    With X = U0 grad U0^+ = i conjugate(A), M = U0 grad H U0^+ and E = diag
    eps0, the O(hbar) parts of U * U^+ and U * H * U^+ are
      U1 + U1^+ + (i/2) sum_l [X_{P_l}, X_{R_l}]  and
      T = U1 E + E U1^+ + (i/2) sum_l (X_{P_l} M_{R_l} - X_{R_l} M_{P_l}
          + (d_{R_l}E - E X_{R_l}) X_{P_l} - (d_{P_l}E - E X_{P_l}) X_{R_l}).
    """
    frame = classical_frame(model, x)
    conns = berry_connections(frame)
    _U, U1, _B, _hr = frame_first_order(frame, conns, 0.0)
    X = 1j * conjugate(conns.A)
    M = frame.dH
    E = np.diag(frame.eps0)
    dE = np.stack([np.diag(g) for g in frame.grads])
    XR, XP, MR, MP = X[:3], X[3:], M[:3], M[3:]
    unit = U1 + U1.conj().T + 0.5j * (XP @ XR - XR @ XP).sum(0)
    T = U1 @ E + E @ U1.conj().T + 0.5j * (
        XP @ MR - XR @ MP + (dE[:3] - E @ XR) @ XP
        - (dE[3:] - E @ XP) @ XR).sum(0)
    W = first_order_kernel(frame, conns)
    return (float(np.max(np.abs(unit))),
            float(np.max(np.abs(frame.project(T, "offdiag")))),
            float(np.max(np.abs(frame.project(T, "diag") - W / 2))))


MOYAL_CASES = {
    **{name: (lambda cfg=cfg: make_model(cfg))
       for name, cfg in BENCHMARK_CONFIGS.items()},
    "twisted_dirac": TANGENT_CASES["twisted_dirac"],
    "twisted_variable_mass": TANGENT_CASES["twisted_variable_mass"],
}


@pytest.mark.parametrize("case", sorted(MOYAL_CASES))
def test_first_order_moyal_residuals(case):
    # The judge of the R <-> P signs in hr (unitarity) and in the B pairing
    # term (P- T) on the twisted models, where both are live.
    model = MOYAL_CASES[case]()
    rng = np.random.default_rng(41)
    for x in random_points(rng, 3, 0.3, 3.0):
        scale = max(1.0, float(np.max(np.abs(classical_frame(model, x).eps0))))
        assert max(moyal_residuals(model, x)) <= 1e-12 * scale


@pytest.mark.parametrize("case", sorted(BENCHMARK_CONFIGS))
def test_order1_covariant_first_is_the_order2_one(case):
    # Order 1 in covariant variables is eps0 plus the first-order commutator
    # string, the `first` of the order-2 covariant report bit for bit, on
    # one point and on a batch.
    model = make_model(BENCHMARK_CONFIGS[case])
    points = random_points(np.random.default_rng(46), 3, 0.3, 3.0)
    for x in (points[0], PhasePoint.stack(points)):
        one = band_energy(model, x, 0.01, 1, "covariant")
        two = band_energy(model, x, 0.01, 2, "covariant")
        assert one.first.tobytes() == two.first.tobytes()
        assert one.eps.tobytes() == (one.zeroth + one.first).tobytes()
        assert not one.second.any() and not one.bracket_term.any()


@pytest.mark.parametrize("case", ["dirac_electric", "neutrino_metric"])
def test_order1_covariant_spectra_do_not_see_the_frame(case):
    # The covariant order-1 energy has the same block spectra in the model's
    # analytic frame and in the eigensolver's parallel gauge; the canonical
    # one does not, so the check can tell the two apart.
    model = make_model(BENCHMARK_CONFIGS[case])
    points = PhasePoint.stack(random_points(np.random.default_rng(47), 6,
                                            0.3, 3.0))

    def worst(representation):
        eps = [band_energy(m, points, 0.01, 1, representation).eps
               for m in (model, _FrameLess(model))]
        return max(
            np.max(np.abs(np.sort(_block_eigenvalues(a, model.groups))
                          - np.sort(_block_eigenvalues(b, model.groups))))
            / np.max(np.abs(a)) for a, b in zip(*eps))

    assert worst("covariant") <= 1e-12
    assert worst("canonical") > 1e-6


def test_twisted_models_exercise_the_pairing_terms():
    # Guards the guard: on the twisted models hr and the B pairing term are
    # far from zero, so a sign error in either shows in the residuals.
    x = PhasePoint.of([0.3, 0.5, -0.2], [0.7, -0.4, 1.1])
    for case in ("twisted_dirac", "twisted_variable_mass"):
        model = MOYAL_CASES[case]()
        frame = classical_frame(model, x)
        conns = berry_connections(frame)
        _U, _U1, _B, hr = frame_first_order(frame, conns, 0.0)
        A = conns.A
        pairing = (frame.project(A, "offdiag")
                   @ conjugate(frame.project(A, "diag"))).sum(0)
        assert np.max(np.abs(hr)) > 1e-2
        if case == "twisted_variable_mass":
            assert np.max(np.abs(pairing + pairing.conj().T)) > 1e-2


def stencil_curvatures(model, x, hbar, tol=DEFAULT_TOL):
    """(theta_rr, theta_pp, theta_pr) with grad a from a 4th-order stencil
    over `covariant_variables`: the finite-difference reference for the exact
    curvature pass."""
    def shifts(y):
        return covariant_variables(classical_frame(model, y, tol),
                                   hbar).shift_per_hbar()

    a = shifts(x)
    aR, aP = a[:3], a[3:]
    d = np.stack([derivative_along(shifts, x, axis) for axis in range(6)])
    d_PR, d_RP = d[3:, :3], d[:3, 3:]
    rr = d_PR - d_PR.swapaxes(0, 1) - 1j * _comm(aR[:, None], aR[None])
    pp = -(d_RP - d_RP.swapaxes(0, 1)) - 1j * _comm(aP[:, None], aP[None])
    pr = (-(d[:3, :3] + d[3:, 3:].swapaxes(0, 1))
          - 1j * _comm(aP[:, None], aR[None]))
    return rr, pp, pr


CURVATURE_CASES = sorted(c for c in TANGENT_CASES
                         if not c.startswith("frameless"))


@pytest.mark.parametrize("case", CURVATURE_CASES)
def test_exact_curvature_matches_stencil(case):
    # The O(hbar) part is what the second-order pass adds, so both a small
    # and a large hbar are checked.  A block that vanishes analytically (Dirac
    # theta_pp, neutrino theta_pr) holds only stencil roundoff; its scale is
    # floored at 1e-6 of the whole set.
    model = TANGENT_CASES[case]()
    rng = np.random.default_rng(42)
    for x in random_points(rng, 2, 0.3, 3.0):
        for hbar in (0.01, 0.1):
            cs = berry_curvatures(model, x, hbar)
            exact = (cs.theta_rr, cs.theta_pp, cs.theta_pr)
            ref = stencil_curvatures(model, x, hbar)
            whole = max(float(np.max(np.abs(b))) for b in ref)
            for got, want in zip(exact, ref):
                scale = max(float(np.max(np.abs(want))), 1e-6 * whole)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-6 * scale


def flatness_residual(model, x):
    """(residual, scale) of the flatness of X = U0 grad U0^+ at x, per point.

    grad_c X_a - grad_a X_c = [X_a, X_c] makes the pairing curl of the
    order-0 connections' gradient dA[c, a] = grad_c A^a equal i [A^c, A^a]
    in the [R, R], [P, P] and [P, R] blocks:
      dA[P_i, R_j] - dA[P_j, R_i] = i [A^{R_i}, A^{R_j}],
      -(dA[R_i, P_j] - dA[R_j, P_i]) = i [A^{P_i}, A^{P_j}],
      -(dA[R_i, R_j] + dA[P_j, P_i]) = i [A^{P_i}, A^{R_j}].
    The scale is the larger of |dA| and |[A, A]| at each point.
    """
    frame = classical_frame(model, x)
    conns = berry_connections(frame)
    A, dA = conns.A, first_order(frame, conns).dA
    K = 1j * _comm(A[..., :, None, :, :], A[..., None, :, :, :])
    R, P = slice(0, 3), slice(3, 6)
    d_PR, d_RP = dA[..., P, R, :, :], dA[..., R, P, :, :]
    curl = (d_PR - d_PR.swapaxes(-4, -3), -(d_RP - d_RP.swapaxes(-4, -3)),
            -(dA[..., R, R, :, :] + dA[..., P, P, :, :].swapaxes(-4, -3)))
    want = (K[..., R, R, :, :], K[..., P, P, :, :], K[..., P, R, :, :])
    axes = (-4, -3, -2, -1)
    residual = np.max([np.max(np.abs(c - w), axis=axes)
                       for c, w in zip(curl, want)], axis=0)
    scale = np.maximum(np.max(np.abs(dA), axis=axes),
                       np.max(np.abs(K), axis=axes))
    return residual, scale


@pytest.mark.parametrize("case", sorted(TANGENT_CASES))
def test_connection_gradient_is_flat(case):
    # The identity the curvature pass takes the curl of grad grad A0 from,
    # checked on grad A0 itself at one point and on a batch.  It needs no
    # oracle, and a declared gauge term that does not match its frame
    # breaks it.  The frame-less record, in the gauge parallel to the frame
    # at the point, obeys it too.
    model = TANGENT_CASES[case]()
    points = random_points(np.random.default_rng(48), 4, 0.3, 3.0)
    for x in (points[0], PhasePoint.stack(points)):
        residual, scale = flatness_residual(model, x)
        assert residual.shape == x.batch_shape
        assert (residual <= 1e-13 * scale).all()


def test_flatness_sees_a_gauge_term_off_its_frame(monkeypatch):
    # Guards the guard: a constant within-group term added to the declared
    # gauge term leaves grad A0 as it is but not [A0, A0].
    model = TANGENT_CASES["dirac_electric"]()
    extra = np.zeros((6, 4, 4), dtype=complex)
    extra[0, :2, :2] = 0.3 * SIGMA[2][:2, :2]
    real = model.analytic_connections
    monkeypatch.setattr(model, "analytic_connections",
                        lambda y: real(y) + extra)
    x = PhasePoint.of([0.3, 0.5, -0.2], [0.7, -0.4, 1.1])
    residual, scale = flatness_residual(model, x)
    assert residual > 1e-3 * scale


@pytest.mark.parametrize("case", ["dirac_electric", "rotated_dirac",
                                  "twisted_dirac", "twisted_variable_mass"])
def test_band_curvature_vector_matches_stencil(case):
    model = TANGENT_CASES[case]()
    rng = np.random.default_rng(43)
    for x in random_points(rng, 2, 0.3, 3.0):
        dP = [derivative_along(lambda y: positive_block_connection(model, y),
                               x, 3 + i) for i in range(3)]
        curl = np.array([dP[(k + 1) % 3][(k + 2) % 3] - dP[(k + 2) % 3][(k + 1) % 3]
                         for k in range(3)])
        for lam in (+1, -1):
            got = band_curvature_vector(model, x, lam)
            chi = _helicity_spinor(x.P, lam)
            want = np.real(np.einsum("i,kij,j->k", chi.conj(), curl, chi))
            assert np.max(np.abs(got - want)) \
                <= 1e-6 * max(float(np.max(np.abs(curl))), 1e-12)


@pytest.mark.parametrize("inner", [_dirac, _generic])
def test_frameless_curvature_is_refused(inner):
    # The within-group gauge enters the curvature at O(hbar), and a
    # frame-less model declares none; the stencil used to differentiate the
    # zero within-group connection of the parallel gauge and return 0.
    x = PhasePoint.of([0.3, 0.5, -0.2], [0.7, -0.4, 1.1])
    with pytest.raises(NotImplementedError):
        berry_curvatures(_FrameLess(inner()), x, 0.0)
    with pytest.raises(NotImplementedError):
        berry_curvatures(_FrameLess(inner()), x, 0.05)
    # Without an analytic frame there is no gauge term to differentiate.
    with pytest.raises(NotImplementedError, match="frameless_"):
        band_curvature_vector(_FrameLess(inner()), x, 1)


def test_curvature_takes_no_stencil_and_one_covariant_pass(monkeypatch):
    # One covariant pass, whose first-order record the second-order pass
    # reuses: one d2_hamiltonian call per point.
    calls = []
    real = semiband.stencils.derivative_along

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("semiband") and hasattr(module, "derivative_along"):
            monkeypatch.setattr(module, "derivative_along", counting)
    cov_calls = []
    real_cov = semiband.dynamics.covariant_variables
    monkeypatch.setattr(semiband.dynamics, "covariant_variables",
                        lambda *a, **k: cov_calls.append(1) or real_cov(*a, **k))
    x = PhasePoint.of([0.3, 0.5, -0.2], [0.7, -0.4, 1.1])
    for case in BENCHMARK_CONFIGS:
        model = TANGENT_CASES[case]()
        frames, hessians = [], []
        real_frame = model.analytic_frame
        real_d2 = model.d2_hamiltonian
        monkeypatch.setattr(model, "analytic_frame",
                            lambda y: frames.append(1) or real_frame(y))
        monkeypatch.setattr(model, "d2_hamiltonian",
                            lambda y: hessians.append(1) or real_d2(y))
        cov_calls.clear()
        berry_curvatures(model, x, 0.05)
        assert len(hessians) == 1
        if case == "neutrino_metric":
            band_curvature_vector(model, x, 1)
        assert calls == []
        assert len(cov_calls) == 1
        assert len(frames) <= 2



_GAUGE_CASES = ["dirac_electric", "neutrino_metric", "rotated_dirac",
                "twisted_dirac", "twisted_variable_mass"]
# Points with a zero momentum component, where products of zeros carry
# signs.
_ZERO_COMPONENT_POINTS = [PhasePoint.of([0.1, 0.0, -0.2], [0.0, 0.5, 0.0]),
                          PhasePoint.of([0.0, 0.0, 0.0], [0.7, 0.0, -1.1]),
                          PhasePoint.of([0.3, 0.2, 0.1], [0.0, 0.0, 1.3])]


@pytest.mark.parametrize("case", _GAUGE_CASES)
def test_band_curvature_vector_from_gauge_gradient_is_the_record_path(
        case, monkeypatch):
    # grad_P A^R on the positive block is the gradient of the declared gauge
    # term: the band-commutator inversion writes only cross-group entries,
    # so the helicity curvature from the gauge gradient is the one from the
    # first-order record's grad A0 bit for bit.
    model = TANGENT_CASES[case]()
    points = (random_points(np.random.default_rng(44), 6, 0.3, 3.0)
              + _ZERO_COMPONENT_POINTS)
    xs = list(points)
    if case in BENCHMARK_CONFIGS:       # the test-only wrappers take one point
        xs.append(PhasePoint.stack(points))
    for x in xs:
        got = {lam: band_curvature_vector(model, x, lam) for lam in (+1, -1)}
        record = covariant_variables(classical_frame(model, x), 0.05).first.dA
        with monkeypatch.context() as patch:
            patch.setattr(model, "d_analytic_connections", lambda _y: record)
            for lam in (+1, -1):
                want = band_curvature_vector(model, x, lam)
                assert got[lam].shape == x.P.shape
                assert got[lam].tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["dirac_electric", "neutrino_metric"])
def test_band_curvature_vector_makes_one_gauge_call(case, monkeypatch):
    model = TANGENT_CASES[case]()
    calls = dict.fromkeys(("analytic_frame", "d_hamiltonian",
                           "d2_hamiltonian", "d_analytic_connections"), 0)
    for name in calls:
        def counting(y, _real=getattr(model, name), _name=name):
            calls[_name] += 1
            return _real(y)
        monkeypatch.setattr(model, name, counting)
    single = PhasePoint.of([0.3, 0.5, -0.2], [0.7, -0.4, 1.1])
    batch = PhasePoint.stack(random_points(np.random.default_rng(45), 5,
                                           0.3, 3.0))
    for x in (single, batch):
        for key in calls:
            calls[key] = 0
        band_curvature_vector(model, x, -1)
        assert calls == {"analytic_frame": 0, "d_hamiltonian": 0,
                         "d2_hamiltonian": 0, "d_analytic_connections": 1}
