"""Exact phase-space tangents and the first-order Moyal residuals.

`energy.first_order` differentiates A0, B and W exactly at a point, and
`dynamics.berry_curvatures` the covariant shifts one order further.  Here
both are checked against stencils over the same fields, and the first-order
frame (B, hr and W) against the Moyal-product conditions that need no oracle:
U = (1 + hbar U1) U0 is unitary and U * H * U^+ is block diagonal at O(hbar).
"""

import sys

import numpy as np
import pytest

import semiband.dynamics
import semiband.stencils
from semiband.models import (
    ALPHA, BETA, SIGMA, DiracElectric, Model, PhasePoint, _pxs_gauge_gradient,
    _pxs_gauge_hessian, make_model, random_points,
)
from semiband.frames import (
    DEFAULT_TOL,
    BandFrame,
    Tolerances,
    _comm,
    _rotated_dH,
    berry_connections,
    classical_frame,
    conjugate,
    connections_fd,
    eps0_gradients,
    frame_field,
    project,
)
from semiband.energy import (
    first_order,
    first_order_kernel,
    frame_first_order,
    rotation_generator,
)
from semiband.dynamics import (
    _helicity_spinor,
    band_curvature_vector,
    berry_curvatures,
    covariant_variables,
    positive_block_connection,
)
from semiband.stencils import derivative_along
from tests.test_energy import _group_rotated, rotated_model
from tests.test_frames import BENCHMARK_CONFIGS


class _VariableMassDirac(DiracElectric):
    """H = alpha.P + beta m(R), m = 1 + k.R: the cross-group frame depends on
    R, so the B pairing term of `rotation_generator` is live once the frame
    is turned within the groups."""

    def __init__(self, k):
        super().__init__(m=1.0, e=0.0)
        self.k = np.asarray(k, dtype=float)

    def _at(self, x):
        return DiracElectric(m=1.0 + self.k @ x.R, e=0.0)

    def hamiltonian(self, x):
        return self._at(x).hamiltonian(x)

    def d_hamiltonian(self, x):
        return np.stack([k * BETA for k in self.k] + ALPHA)

    def d2_hamiltonian(self, x):
        return np.zeros((6, 6, 4, 4), dtype=complex)

    def d3_hamiltonian(self, x):
        return np.zeros((6, 6, 6, 4, 4), dtype=complex)

    def analytic_frame(self, x):
        return self._at(x).analytic_frame(x)

    def analytic_connections(self, x):
        # U0 grad_m U0^+ has no within-group part: the gauge term keeps its
        # constant-mass form (P x Sigma)/f with f = 2E(E+m).
        return self._at(x).analytic_connections(x)

    def _f_jet(self, x):
        """f = 2E(E+m), E = sqrt(P^2 + m^2), m = 1 + k.R: (f, grad f,
        grad grad f) over the six axes; R enters through m."""
        m = 1.0 + self.k @ x.R
        E = float(np.sqrt(x.P @ x.P + m * m))
        f_m = 4 * m + 2 * E + 2 * m * m / E
        f_P = (4 * E + 2 * m) * x.P / E
        f_mm = 4 + 6 * m / E - 2 * m ** 3 / E ** 3
        f_mP = 2 * (x.P @ x.P) * x.P / E ** 3
        f_PP = (4 + 2 * m / E) * np.eye(3) - 2 * m * np.outer(x.P, x.P) / E ** 3
        ddf = np.block([[f_mm * np.outer(self.k, self.k),
                         np.outer(self.k, f_mP)],
                        [np.outer(f_mP, self.k), f_PP]])
        return 2 * E * (E + m), np.concatenate([f_m * self.k, f_P]), ddf

    def d_analytic_connections(self, x):
        f, df, _ddf = self._f_jet(x)
        return _pxs_gauge_gradient(x.P, f, df)

    def d2_analytic_connections(self, x):
        return _pxs_gauge_hessian(x.P, *self._f_jet(x))


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
        z = np.concatenate([x.R, x.P])
        out = np.zeros((4, 4), dtype=complex)
        for k, sl in enumerate((slice(0, 2), slice(2, 4))):
            th = c[k] @ z
            out[sl, sl] = np.cos(th) * np.eye(2) + 1j * np.sin(th) * nsig[k]
        return out

    return rotated_model(model, D, omega)


class _FrameLess(Model):
    """A model seen through its Hamiltonian only: eigensolver frame and the
    parallel within-group gauge."""

    def __init__(self, inner):
        self.inner = inner
        self.name = "frameless_" + inner.name
        self.n, self.band_groups = inner.n, inner.band_groups
        self.groups = inner.groups
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
    eps0, U0 = frame_field(model, anchor)(y)
    frame = BandFrame(np.asarray(eps0, dtype=float),
                      np.asarray(U0, dtype=complex), anchor.groups, y)
    if model.has_analytic_frame:
        conns = berry_connections(model, y, hbar, frame=frame)
    else:
        conns = connections_fd(model, y, hbar, frame=anchor)
    return np.concatenate([conns.A, [rotation_generator(model, frame, conns),
                                     first_order_kernel(model, frame, conns)]])


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
        first = first_order(model, frame,
                            berry_connections(model, x, hbar, frame=frame))
        fd = np.stack([derivative_along(
            lambda y: _phase_field(model, y, frame, hbar), x, axis)
            for axis in range(6)])
        # The z-only two_level fields vanish identically.
        scale = max(float(np.max(np.abs(fd))), 1e-12)
        for exact, want in ((first.dA, fd[:, :6]), (first.dB, fd[:, 6]),
                            (first.dW, fd[:, 7])):
            assert exact.shape == want.shape
            assert np.max(np.abs(exact - want)) <= 1e-6 * scale


def moyal_residuals(model, x):
    """(unitarity, P- T, P+ T - W/2) of the first-order frame at x.

    With X = U0 grad U0^+ = i conjugate(A), M = U0 grad H U0^+ and E = diag
    eps0, the O(hbar) parts of U * U^+ and U * H * U^+ are
      U1 + U1^+ + (i/2) sum_l [X_{P_l}, X_{R_l}]  and
      T = U1 E + E U1^+ + (i/2) sum_l (X_{P_l} M_{R_l} - X_{R_l} M_{P_l}
          + (d_{R_l}E - E X_{R_l}) X_{P_l} - (d_{P_l}E - E X_{P_l}) X_{R_l}).
    """
    frame = classical_frame(model, x)
    conns = berry_connections(model, x, 0.0, frame=frame)
    _U, U1, _B, _hr = frame_first_order(model, frame, conns, 0.0)
    X = 1j * conjugate(conns.A)
    M = _rotated_dH(model, frame)
    E = np.diag(frame.eps0)
    dE = np.stack([np.diag(g) for g in eps0_gradients(model, frame)])
    XR, XP, MR, MP = X[:3], X[3:], M[:3], M[3:]
    unit = U1 + U1.conj().T + 0.5j * (XP @ XR - XR @ XP).sum(0)
    T = U1 @ E + E @ U1.conj().T + 0.5j * (
        XP @ MR - XR @ MP + (dE[:3] - E @ XR) @ XP
        - (dE[3:] - E @ XP) @ XR).sum(0)
    W = first_order_kernel(model, frame, conns)
    return (float(np.max(np.abs(unit))),
            float(np.max(np.abs(project(T, frame.groups, "offdiag")))),
            float(np.max(np.abs(project(T, frame.groups, "diag") - W / 2))))


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


def test_twisted_models_exercise_the_pairing_terms():
    # Guards the guard: on the twisted models hr and the B pairing term are
    # far from zero, so a sign error in either shows in the residuals.
    x = PhasePoint.of([0.3, 0.5, -0.2], [0.7, -0.4, 1.1])
    for case in ("twisted_dirac", "twisted_variable_mass"):
        model = MOYAL_CASES[case]()
        frame = classical_frame(model, x)
        conns = berry_connections(model, x, 0.0, frame=frame)
        _U, _U1, _B, hr = frame_first_order(model, frame, conns, 0.0)
        A = conns.A
        pairing = (project(A, frame.groups, "offdiag")
                   @ conjugate(project(A, frame.groups, "diag"))).sum(0)
        assert np.max(np.abs(hr)) > 1e-2
        if case == "twisted_variable_mass":
            assert np.max(np.abs(pairing + pairing.conj().T)) > 1e-2


def stencil_curvatures(model, x, hbar, tol=DEFAULT_TOL):
    """(theta_rr, theta_pp, theta_pr) with grad a from a 4th-order stencil
    over `covariant_variables`: the finite-difference reference for the exact
    curvature pass."""
    def shifts(y):
        return covariant_variables(model, y, hbar, tol).shift_per_hbar()

    a = shifts(x)
    aR, aP = a[:3], a[3:]
    d = np.stack([derivative_along(shifts, x, axis, tol.fd_base)
                  for axis in range(6)])
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


def test_curvature_does_not_depend_on_fd_base():
    x = PhasePoint.of([0.3, 0.5, -0.2], [0.7, -0.4, 1.1])
    wide = Tolerances(fd_base=2e-3)
    for case in ("dirac_electric", "neutrino_metric", "two_level_generic"):
        model = TANGENT_CASES[case]()
        a = berry_curvatures(model, x, 0.05)
        b = berry_curvatures(model, x, 0.05, wide)
        for block in ("theta_rr", "theta_pp", "theta_pr"):
            assert np.array_equal(getattr(a, block), getattr(b, block))
        if model.n == 4:
            assert np.array_equal(band_curvature_vector(model, x, 1),
                                  band_curvature_vector(model, x, 1, wide))
