"""Covariant variables, curvatures and the ray integrator."""

import math

import numpy as np
import pytest

from semiband.fields import (
    CoulombRegularizedField,
    GaussianField,
    LinearField,
    PolynomialField,
    ScalarField,
    UniformField,
)
from semiband.models import BETA, DiracElectric, NeutrinoMetric, PhasePoint
from semiband.dynamics import (
    _ray_rates,
    band_curvature_vector,
    berry_curvatures,
    covariant_variables,
    integrate_fixed,
    integrate_ray,
    positive_block_connection,
    ray_rhs,
)
from semiband.oracles import neutrino_velocity_modulus
from tests.test_models import p_cross_sigma

GAUSS = GaussianField(0.8, [0.2, -0.1, 0.3], 1.4)
X = PhasePoint.of([0.1, 0.2, 0.3], [0.4, -0.7, 0.5])


def neutrino(profile=None):
    return NeutrinoMetric(profile=profile or LinearField([0.05, -0.02, 0.03], 1.5))


def ray_energy(model, r, P, hbar):
    """The positive-band scalar energy F(r)|P| - (hbar^2/4|P|) P.grad F,
    written out apart from the ray kernel."""
    E = np.linalg.norm(P)
    return (model.F.value(r) * E
            - hbar ** 2 / (4 * E) * (np.asarray(P) @ model.F.gradient(r)))


def test_covariant_vars_neutrino_closed_form():
    model = neutrino()
    hbar = 0.05
    cov = covariant_variables(model, X, hbar)
    E = np.linalg.norm(X.P)
    pxs = p_cross_sigma(X.P)
    for i in range(3):
        assert np.allclose(cov.r[i], X.R[i] * np.eye(4)
                           + hbar * pxs[i] / (2 * E ** 2), atol=1e-12)
        assert np.allclose(cov.p[i], X.P[i] * np.eye(4), atol=1e-12)


def test_covariant_vars_dirac_closed_form():
    model = DiracElectric(m=1.0, e=1.0, field=GAUSS)
    hbar = 0.05
    cov = covariant_variables(model, X, hbar)
    E = model.energy_scale(X)
    gW = model.field.gradient(X.R)
    pxs = p_cross_sigma(X.P)
    for i in range(3):
        shift2 = 0.5 * hbar ** 2 * BETA * (
            E ** 2 * gW[i] - float(X.P @ gW) * X.P[i]) / (4 * E ** 5)
        closed = X.R[i] * np.eye(4) + hbar * pxs[i] / (2 * E * (E + 1)) + shift2
        assert np.max(np.abs(cov.r[i] - closed)) <= 1e-10
        assert np.allclose(cov.p[i], X.P[i] * np.eye(4), atol=1e-12)


def test_covariant_vars_classical_limit():
    cov = covariant_variables(neutrino(), X, 0.0)
    for i in range(3):
        assert np.allclose(cov.r[i], X.R[i] * np.eye(4))
        assert np.allclose(cov.p[i], X.P[i] * np.eye(4))


def test_covariant_vars_hermitian():
    cov = covariant_variables(DiracElectric(m=1.0, e=1.0, field=GAUSS), X, 0.05)
    for comp in cov.x:
        assert np.max(np.abs(comp - comp.conj().T)) <= 1e-12


def test_curvature_antisymmetry_and_fd_consistency():
    model = neutrino()
    cs = berry_curvatures(model, X, 0.02)
    assert np.max(np.abs(cs.theta_rr + cs.theta_rr.transpose(1, 0, 2, 3))) <= 1e-14
    assert np.max(np.abs(cs.theta_pp + cs.theta_pp.transpose(1, 0, 2, 3))) <= 1e-14
    # Independent finite-difference evaluation of the same commutator algebra,
    # with plain second-order stencils on the covariant shift components.
    hbar = 0.02
    h = 1e-4

    def shift(y, axis):
        cov = covariant_variables(model, y, hbar)
        return cov.shift_per_hbar()[axis]

    for i, j in ((0, 1), (1, 2)):
        dPi_aj = (shift(X.shifted(3 + i, h), j)
                  - shift(X.shifted(3 + i, -h), j)) / (2 * h)
        dPj_ai = (shift(X.shifted(3 + j, h), i)
                  - shift(X.shifted(3 + j, -h), i)) / (2 * h)
        a_i, a_j = shift(X, i), shift(X, j)
        ref = dPi_aj - dPj_ai - 1j * (a_i @ a_j - a_j @ a_i)
        assert np.max(np.abs(cs.theta_rr[i, j] - ref)) <= 1e-6


def test_curvature_free_dirac_pp_vanishes():
    model = DiracElectric(m=1.0, e=1.0, field=UniformField(0.0))
    cs = berry_curvatures(model, PhasePoint.of([0, 0, 0], [0, 0, 0.8]), 0.02)
    assert np.max(np.abs(cs.theta_pp)) <= 1e-10


def test_band_curvature_closed_form():
    model = neutrino(GaussianField(0.4, [0.3, 0.1, -0.2], 2.0))
    rng = np.random.default_rng(31)
    for _ in range(10):
        P = rng.uniform(-1, 1, 3)
        P *= rng.uniform(0.4, 2.5) / np.linalg.norm(P)
        x = PhasePoint.of(rng.uniform(-1, 1, 3), P)
        for lam in (+1, -1):
            theta = band_curvature_vector(model, x, lam)
            ref = -lam * P / np.linalg.norm(P) ** 3
            assert np.max(np.abs(theta - ref)) <= 1e-8 * np.max(np.abs(ref))


def test_positive_block_connection_closed_form():
    model = neutrino()
    a = positive_block_connection(model, X)
    E = np.linalg.norm(X.P)
    pxs = p_cross_sigma(X.P)
    for l in range(3):
        assert np.allclose(a[l], pxs[l][:2, :2] / (2 * E ** 2), atol=1e-12)


def test_ray_rhs_flat_space():
    model = neutrino(UniformField(1.0))
    rdot, Pdot = ray_rhs(np.zeros(3), np.array([0, 0, 2.0]), +1, model, 1e-3)
    assert np.allclose(Pdot, 0.0)
    assert np.allclose(rdot, [0, 0, 1.0])


def test_ray_rhs_rejects_other_models():
    with pytest.raises(NotImplementedError):
        ray_rhs(np.zeros(3), np.array([0, 0, 1.0]), 1,
                DiracElectric(m=1.0, e=1.0), 1e-3)


def test_ray_rhs_momentum_underflow():
    with pytest.raises(ValueError):
        ray_rhs(np.zeros(3), np.zeros(3), 1, neutrino(), 1e-3)


def test_flat_ray_is_exact():
    model = neutrino(UniformField(1.0))
    traj = integrate_ray(model, [0, 0, 0], [0, 0, 2.0], +1, 1e-3, 1e-3,
                         10000, "rk4")
    fin = traj.final()
    assert np.max(np.abs(fin.r - np.array([0, 0, 10.0]))) <= 1e-10
    assert traj.helicity_drift <= 1e-12
    assert traj.energy_drift <= 1e-12


def test_spin_hall_antisymmetry_and_conservation():
    model = neutrino(LinearField([0.05, 0.0, 0.0], 1.5))
    hbar = 1e-3
    up = integrate_ray(model, [0, 0, 0], [0, 0, 1.0], +1, hbar, 1e-2, 2000)
    dn = integrate_ray(model, [0, 0, 0], [0, 0, 1.0], -1, hbar, 1e-2, 2000)
    # Transverse (y) displacement flips sign with the helicity.
    assert abs(up.final().r[1] + dn.final().r[1]) <= 1e-9
    assert abs(up.final().r[1]) > 1e-5  # and is actually nonzero
    assert up.helicity_drift <= 1e-9
    assert up.energy_drift <= 1e-8


def test_velocity_modulus_along_path():
    model = neutrino(LinearField([0.05, 0.0, 0.0], 1.5))
    hbar = 1e-3
    traj = integrate_ray(model, [0, 0, 0], [0, 0, 1.0], +1, hbar, 1e-2, 500)
    for s in traj.states[::50]:
        ref = neutrino_velocity_modulus(s.r, s.P, model, hbar, s.lam)
        assert abs(s.speed - ref) <= 1e-8


def test_rk45_matches_rk4():
    model = neutrino(GaussianField(0.3, [2.0, 0.5, 0.0], 2.5))
    t_rk4 = integrate_ray(model, [0, 0, 0], [0.2, 0, 1.0], +1, 1e-3, 1e-2,
                          500, "rk4")
    t_rk45 = integrate_ray(model, [0, 0, 0], [0.2, 0, 1.0], +1, 1e-3, 1e-2,
                           500, "rk45")
    assert np.max(np.abs(t_rk45.final().r - t_rk4.final().r)) <= 1e-7
    assert t_rk45.final().t == pytest.approx(5.0, abs=1e-12)


def test_integrate_validation():
    model = neutrino()
    with pytest.raises(ValueError):
        integrate_ray(model, [0, 0, 0], [0, 0, 1.0], +1, 1e-3, -0.1, 10)
    with pytest.raises(ValueError):
        integrate_ray(model, [0, 0, 0], [0, 0, 1.0], 2, 1e-3, 0.1, 10)
    with pytest.raises(ValueError):
        integrate_ray(model, [0, 0, 0], [0, 0, 1.0], +1, 1e-3, 0.1, 10,
                      "euler")


def test_rk4_convergence_order():
    omega = np.array([0.3, -0.2, 0.7])

    def rot(_t, y):
        return np.cross(omega, y)

    y0 = np.array([1.0, 0.2, -0.4])
    T = 2.0
    errs, dts = [], []
    for nsteps in (50, 100, 200, 400):
        dt = T / nsteps
        yT = integrate_fixed(rot, 0.0, y0, dt, nsteps)[-1][1]
        w = np.linalg.norm(omega)
        k = omega / w
        ang = w * T
        exact = (y0 * np.cos(ang) + np.cross(k, y0) * np.sin(ang)
                 + k * (k @ y0) * (1 - np.cos(ang)))
        errs.append(np.linalg.norm(yT - exact))
        dts.append(dt)
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert abs(slope - 4.0) <= 0.2


def test_trajectory_self_convergence():
    model = neutrino(GaussianField(0.3, [2.0, 0.5, 0.0], 2.5))

    def final_r(nsteps):
        dt = 2.0 / nsteps
        return integrate_ray(model, [0, 0, 0], [0.2, 0, 1.0], +1, 1e-3,
                             dt, nsteps).final().r

    ref = final_r(3200)
    errs = [np.max(np.abs(final_r(n) - ref)) for n in (50, 100, 200)]
    slope = np.polyfit(np.log([2.0 / n for n in (50, 100, 200)]),
                       np.log(errs), 1)[0]
    assert abs(slope - 4.0) <= 0.3


def test_energy_record_matches_ray_energy():
    model = neutrino(LinearField([0.05, 0.0, 0.0], 1.5))
    traj = integrate_ray(model, [0, 0, 0], [0, 0, 1.0], +1, 1e-3, 1e-2, 50)
    s = traj.states[25]
    assert s.eps == pytest.approx(ray_energy(model, s.r, s.P, 1e-3), abs=1e-14)


def _finite_inputs(**changes):
    args = dict(r0=[0.0, 0.0, 0.0], P0=[0.0, 0.0, 1.0], hbar=1e-3, dt=1e-2,
                steps=10)
    args.update(changes)
    return args


@pytest.mark.parametrize("changes", [
    dict(dt=math.nan), dict(dt=math.inf), dict(dt=0.0),
    dict(steps=0), dict(steps=-3), dict(steps=2.5), dict(steps=True),
    dict(r0=[math.nan, 0.0, 0.0]), dict(P0=[0.0, 0.0, math.inf]),
    dict(hbar=math.nan), dict(hbar=-1e-3), dict(hbar=math.inf),
], ids=repr)
def test_integrate_ray_rejects_bad_inputs(changes):
    a = _finite_inputs(**changes)
    with pytest.raises(ValueError):
        integrate_ray(neutrino(), a["r0"], a["P0"], +1, a["hbar"], a["dt"],
                      a["steps"])


class _Cliff(ScalarField):
    """n = 1 for x < 0.05 and NaN beyond: a state that turns non-finite."""

    def jet(self, r):
        zero = (0.0, 0.0, 0.0)
        return (1.0 if r[0] < 0.05 else math.nan), zero, (zero, zero, zero)


def test_non_finite_state_mid_run_raises():
    model = NeutrinoMetric(profile=_Cliff())
    with pytest.raises(FloatingPointError, match="non-finite"):
        integrate_ray(model, [0, 0, 0], [1.0, 0, 0], +1, 1e-3, 1e-2, 20)
    # |P|^3 overflows a float: reported the same way, not as OverflowError.
    with pytest.raises(FloatingPointError, match="overflow"):
        integrate_ray(neutrino(UniformField(1.0)), [0, 0, 0], [0, 0, 1e150],
                      +1, 1e-3, 1e-2, 5)


HAMILTON_PROFILES = [
    LinearField([0.05, -0.02, 0.03], 1.5),
    GaussianField(0.4, [0.3, 0.1, -0.2], 2.0),
    PolynomialField([(1.5, (0, 0, 0)), (0.1, (2, 0, 0)), (0.05, (1, 1, 0)),
                     (0.02, (0, 0, 3))]),
    CoulombRegularizedField(charge=1.0, softening=0.5),
]


@pytest.mark.parametrize("profile", HAMILTON_PROFILES, ids=lambda f: f.kind)
def test_ray_equations_are_hamiltons_equations(profile):
    # Pdot = -d eps/dr and rdot - hbar Pdot x Theta = d eps/dP, against
    # central differences of ray_energy; needs no closed form.
    model = neutrino(profile)
    hbar, h = 0.1, 1e-5
    rng = np.random.default_rng(17)
    for _ in range(5):
        r = rng.uniform(-1, 1, 3)
        P = rng.uniform(-1, 1, 3)
        P *= rng.uniform(0.4, 2.5) / np.linalg.norm(P)
        d_r, d_P = np.zeros(3), np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            d_r[i] = (ray_energy(model, r + e, P, hbar)
                      - ray_energy(model, r - e, P, hbar)) / (2 * h)
            d_P[i] = (ray_energy(model, r, P + e, hbar)
                      - ray_energy(model, r, P - e, hbar)) / (2 * h)
        for lam in (+1, -1):
            rdot, Pdot = ray_rhs(r, P, lam, model, hbar)
            theta = -lam * P / np.linalg.norm(P) ** 3
            assert np.max(np.abs(Pdot + d_r)) <= 1e-7 * np.max(np.abs(d_r))
            normal = rdot - hbar * np.cross(Pdot, theta)
            assert np.max(np.abs(normal - d_P)) <= 1e-7 * np.max(np.abs(d_P))


def test_spinor_rate_is_the_p_cross_sigma_generator():
    # sum_l Pdot_l (P x sigma)_l / 2|P|^2 equals (Pdot x P).sigma / 2|P|^2.
    model = neutrino(GaussianField(0.4, [0.3, 0.1, -0.2], 2.0))
    rng = np.random.default_rng(3)
    for _ in range(5):
        y = rng.normal(size=10)
        ydot = np.array(_ray_rates(model.F, +1, 0.1, y.tolist())[0])
        P, chi = y[3:6], y[6:8] + 1j * y[8:10]
        pxs = p_cross_sigma(P)
        gen = sum(ydot[3 + l] * pxs[l][:2, :2] for l in range(3)) / (2 * P @ P)
        ref = 1j * gen @ chi
        assert np.max(np.abs(ydot[6:8] + 1j * ydot[8:10] - ref)) <= 1e-14


# Final states of 200-step RK4 runs (dt = 1e-2, hbar = 1e-3) from
# r0 = (0.1, -0.2, 0.05), P0 = (0.3, 0.1, 1.0), recorded from the numpy
# implementation of the ray equations that the float kernel replaced.
RAY_PROFILES = {
    "linear": LinearField([0.05, 0.0, 0.0], 1.5),
    "gaussian": GaussianField(1.5, [0.3, -0.2, 0.1], 3.0),
}
PINNED_RAYS = {
    ("linear", +1): dict(
        r=[0.5038831578871041, -0.07490037791527533, 1.3006012840758914],
        P=[0.34600252458940023, 0.1, 1.0],
        eps=0.6968829571733481, speed=0.6556542294954903,
        helicity_drift=2.220446049250313e-16,
        energy_drift=3.3306690738754696e-16),
    ("linear", -1): dict(
        r=[0.5038831578871041, -0.07497858321653382, 1.3006091046060166],
        P=[0.34600252458940023, 0.1, 1.0],
        eps=0.6968829571733481, speed=0.6556542294954905,
        helicity_drift=6.661338147750939e-16,
        energy_drift=3.3306690738754696e-16),
    ("gaussian", +1): dict(
        r=[0.5104656475298651, -0.07021147566937985, 1.3529151874396528],
        P=[0.3001239589800332, 0.09001205490029406, 0.9076610548281349],
        eps=0.7008587540608562, speed=0.7298928918133878,
        helicity_drift=4.440892098500626e-16,
        energy_drift=4.196643033083092e-14),
    ("gaussian", -1): dict(
        r=[0.5104642329584305, -0.07026381481246119, 1.3529208457253912],
        P=[0.30012406609261844, 0.09001601806595101, 0.9076606263777932],
        eps=0.7008587540608558, speed=0.7298928918133878,
        helicity_drift=4.440892098500626e-16,
        energy_drift=4.163336342344337e-14),
}


@pytest.mark.parametrize("profile, lam", list(PINNED_RAYS), ids=str)
def test_pinned_reference_rays(profile, lam):
    ref = PINNED_RAYS[profile, lam]
    traj = integrate_ray(neutrino(RAY_PROFILES[profile]), [0.1, -0.2, 0.05],
                         [0.3, 0.1, 1.0], lam, 1e-3, 1e-2, 200, "rk4")
    fin = traj.final()
    assert np.max(np.abs(fin.r - ref["r"])) <= 1e-12
    assert np.max(np.abs(fin.P - ref["P"])) <= 1e-12
    for key in ("eps", "speed"):
        assert abs(getattr(fin, key) - ref[key]) <= 1e-12
    for key in ("helicity_drift", "energy_drift"):
        assert abs(getattr(traj, key) - ref[key]) <= 1e-12
