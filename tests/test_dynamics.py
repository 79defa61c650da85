"""Covariant variables, curvatures and the ray integrator."""

import math
import warnings

import numpy as np
import pytest

from semiband.fields import (
    CoulombRegularizedField,
    GaussianField,
    LinearField,
    PolynomialField,
    ReciprocalField,
    ScalarField,
    UniformField,
)
from semiband import dynamics
from semiband.energy import band_energy
from semiband.models import (
    BETA, SX, SY, SZ, DiracElectric, NeutrinoMetric, PhasePoint, _dot,
    make_model,
)
from semiband.dynamics import (
    _CK_A,
    _CK_B4,
    _CK_B5,
    _helicity_spinor,
    _ray_kernel,
    _rk4,
    _rk45,
    band_curvature_vector,
    berry_curvatures,
    check_ray_inputs,
    covariant_variables,
    integrate_ray,
    ray_rhs,
)
from semiband.frames import berry_connections, classical_frame
from semiband.oracles import neutrino_velocity_modulus
from tests.test_fields import nested_jet
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
    cov = covariant_variables(classical_frame(model, X), hbar)
    E = np.linalg.norm(X.P)
    pxs = p_cross_sigma(X.P)
    for i in range(3):
        assert np.allclose(cov.r[i], X.R[i] * np.eye(4)
                           + hbar * pxs[i] / (2 * E ** 2), atol=1e-12)
        assert np.allclose(cov.p[i], X.P[i] * np.eye(4), atol=1e-12)


def test_covariant_vars_dirac_closed_form():
    model = DiracElectric(m=1.0, e=1.0, field=GAUSS)
    hbar = 0.05
    cov = covariant_variables(classical_frame(model, X), hbar)
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
    cov = covariant_variables(classical_frame(neutrino(), X), 0.0)
    for i in range(3):
        assert np.allclose(cov.r[i], X.R[i] * np.eye(4))
        assert np.allclose(cov.p[i], X.P[i] * np.eye(4))


def test_covariant_vars_hermitian():
    model = DiracElectric(m=1.0, e=1.0, field=GAUSS)
    cov = covariant_variables(classical_frame(model, X), 0.05)
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
        cov = covariant_variables(classical_frame(model, y), hbar)
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


@pytest.mark.parametrize("lam", [2, 0, -2, True, 1.0, -1.0, "1", None])
def test_band_curvature_vector_rejects_bad_lam(lam):
    # lam = 2 used to give the lam = +1 value: the helicity spinor took the
    # eigenvalue nearest to lam.
    with pytest.raises(ValueError, match="lam must be the integer"):
        band_curvature_vector(neutrino(), X, lam)


def test_band_curvature_vector_needs_a_two_state_positive_group():
    # The two_level positive group is one state; the helicity contraction
    # used to die inside numpy's matmul.
    model = make_model({"model": "two_level"})
    with pytest.raises(NotImplementedError, match="two_level"):
        band_curvature_vector(model, X, 1)


def test_curvatures_raise_instead_of_returning_non_finite():
    # Toward |P| = 0 the neutrino curvatures overflow; band_energy already
    # raised there, and the curvatures used to return NaN.  Each point gives
    # finite blocks or a FloatingPointError (|P|^2 = 0 is refused earlier).
    model = neutrino(GaussianField(0.4, [0.3, 0.1, -0.2], 2.0))
    refused = []
    with np.errstate(all="ignore"):
        for e in (3, 10, 30, 50, 100, 150):
            x = PhasePoint.of([0.1, 0.2, -0.3], [10.0 ** -e, 0.0, 0.0])
            calls = [lambda: berry_curvatures(model, x, 0.01).theta_rr,
                     *(lambda lam=lam: band_curvature_vector(model, x, lam)
                       for lam in (+1, -1))]
            for call in calls:
                try:
                    assert np.isfinite(call()).all()
                except FloatingPointError:
                    refused.append(e)
        with pytest.raises(FloatingPointError):
            band_energy(model, x, 0.01)
    # The walk reaches the overflow: the largest |P| is finite, the
    # smallest refused by all three calls.
    assert 3 not in refused and refused.count(150) == 3
    # |P| = 0 itself is refused as a point, as by the frame.
    with pytest.raises(ValueError, match="not allowed"):
        band_curvature_vector(model, PhasePoint.of([0.1, 0.2, -0.3],
                                                   [0.0, 0.0, 0.0]), 1)


def positive_block_connection(model, x):
    """The position connection on the positive-energy block, (3, 2, 2): the
    reference that `band_curvature_vector` is differentiated against."""
    conns = berry_connections(classical_frame(model, x))
    pos = np.flatnonzero(model.groups == 0)
    return conns.A_R[:, pos[:, None], pos]


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


def test_rk45_rejection_overflow():
    def stiffish(y):
        return (y[0] ** 2 + 1.0,)

    with pytest.raises(RuntimeError, match="rejection overflow"):
        _rk45(stiffish, (1.0,), 1.0, rtol=1e-16, atol=0.0, max_rejections=3)


def test_integrate_validation():
    model = neutrino()
    with pytest.raises(ValueError):
        integrate_ray(model, [0, 0, 0], [0, 0, 1.0], +1, 1e-3, -0.1, 10)
    with pytest.raises(ValueError):
        integrate_ray(model, [0, 0, 0], [0, 0, 1.0], 2, 1e-3, 0.1, 10)
    with pytest.raises(ValueError):
        integrate_ray(model, [0, 0, 0], [0, 0, 1.0], +1, 1e-3, 0.1, 10,
                      "euler")


ZEROS7 = (0.0,) * 7


def padded_rotation(omega):
    """omega x y in the first three of the ray stepper's ten slots, zero
    rates in the other seven, then the two values the stepper passes
    through."""
    def rates(y):
        return (*np.cross(omega, y[:3]).tolist(), *ZEROS7, 0.0, 0.0)

    return rates


def test_rk4_convergence_order():
    omega = np.array([0.3, -0.2, 0.7])
    rot = padded_rotation(omega)

    y0 = np.array([1.0, 0.2, -0.4])
    T = 2.0
    errs, dts = [], []
    for nsteps in (50, 100, 200, 400):
        dt = T / nsteps
        yT = np.array(_rk4(rot, (*y0.tolist(), *ZEROS7), dt,
                           nsteps)[-1][1][:3])
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
                steps=10, lam=+1, method="rk4")
    args.update(changes)
    return args


@pytest.mark.parametrize("changes", [
    dict(dt=math.nan), dict(dt=math.inf), dict(dt=0.0),
    dict(steps=0), dict(steps=-3), dict(steps=2.5), dict(steps=True),
    dict(r0=[math.nan, 0.0, 0.0]), dict(P0=[0.0, 0.0, math.inf]),
    dict(hbar=math.nan), dict(hbar=-1e-3), dict(hbar=math.inf),
    dict(lam=True), dict(lam=1.0),
    dict(hbar=True), dict(dt=True), dict(hbar="0.1"), dict(dt="0.1"),
    dict(r0=[True, 0.0, 0.0]), dict(P0=[0.0, 0.0, "0.1"]),
    dict(lam=2), dict(lam=0), dict(method="euler"), dict(method="RK4"),
], ids=repr)
def test_integrate_ray_rejects_bad_inputs(changes):
    a = _finite_inputs(**changes)
    with pytest.raises(ValueError):
        integrate_ray(neutrino(), a["r0"], a["P0"], a["lam"], a["hbar"],
                      a["dt"], a["steps"], a["method"])
    # The same rules, without a model: the CLI checks each run this way.
    with pytest.raises(ValueError):
        check_ray_inputs(a["hbar"], a["dt"], a["steps"], a["r0"], a["P0"],
                         a["lam"], a["method"])


@pytest.mark.parametrize("key", ["r0", "P0"])
@pytest.mark.parametrize("value", [5, None, [1.0, [2.0], 3.0]], ids=repr)
def test_a_start_that_is_not_a_vector_is_named(key, value):
    a = _finite_inputs(**{key: value})
    with pytest.raises(ValueError, match=f"^{key} must have three components"):
        check_ray_inputs(a["hbar"], a["dt"], a["steps"], a["r0"], a["P0"],
                         a["lam"], a["method"])


class _Cliff(ScalarField):
    """n = 1 for x < 0.05 and NaN beyond: a state that turns non-finite."""

    def jet(self, r):
        return (1.0 if r[0] < 0.05 else math.nan,) + (0.0,) * 12


def test_non_finite_state_mid_run_raises():
    model = NeutrinoMetric(profile=_Cliff())
    for method in ("rk4", "rk45"):
        with pytest.raises(FloatingPointError, match="non-finite"):
            integrate_ray(model, [0, 0, 0], [1.0, 0, 0], +1, 1e-3, 1e-2, 20,
                          method)
    # |P|^3 overflows a float: reported the same way, not as OverflowError.
    with pytest.raises(FloatingPointError, match="overflow"):
        integrate_ray(neutrino(UniformField(1.0)), [0, 0, 0], [0, 0, 1e150],
                      +1, 1e-3, 1e-2, 5)



def test_start_check_runs_on_plain_floats():
    # The start check runs the kernel on floats, as the stepper does: a
    # profile gradient near the float limit fails the run with the
    # stepper's messages, and no numpy scalar warns on the way.
    model = neutrino(LinearField([1e300, 0, 0], 1.5))
    messages = {"rk4": "^ray state overflowed: ",
                "rk45": "^ray state turned non-finite at t = 0.001$"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method, message in messages.items():
            with pytest.raises(FloatingPointError, match=message):
                integrate_ray(model, [0, 0, 0], [0.3, 0.1, 1.0], +1, 1e-3,
                              1e-2, 10, method)


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
    rates = _ray_kernel(model.F, +1, 0.1)
    for _ in range(5):
        y = rng.normal(size=10)
        ydot = np.array(rates(y.tolist())[:10])
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


class _Counting(ScalarField):
    """A profile that counts its jets: one per evaluation of the ray rates."""

    def __init__(self, base):
        self.base, self.jets = base, 0

    def jet(self, r):
        self.jets += 1
        return self.base.jet(r)


@pytest.mark.parametrize("profile", list(RAY_PROFILES))
def test_rk4_ray_rate_budget_and_records(profile):
    # The start check, 4 stages per step and one record at the end; every
    # other record is the rates of its step's first stage.
    counting = _Counting(RAY_PROFILES[profile])
    model, steps, hbar = neutrino(counting), 25, 1e-3
    counting.jets = 0
    traj = integrate_ray(model, [0.1, -0.2, 0.05], [0.3, 0.1, 1.0], -1, hbar,
                         1e-2, steps, "rk4")
    assert counting.jets == 4 * steps + 2
    for s in traj.states:
        k = _ray_kernel(model.F, -1, hbar)([*s.r, *s.P, 1, 0, 0, 0])
        assert s.eps == k[10]
        assert s.speed == math.sqrt(k[0] ** 2 + k[1] ** 2 + k[2] ** 2)


def _numpy_rk4(f, y0, dt, steps):
    """Classic RK4 on numpy arrays: the bit-for-bit reference of the float
    stepper."""
    t, y = 0.0, np.asarray(y0, dtype=float).copy()
    out = [(t, y.copy())]
    for _ in range(steps):
        k1 = f(t, y)
        k2 = f(t + dt / 2, y + dt / 2 * k1)
        k3 = f(t + dt / 2, y + dt / 2 * k2)
        k4 = f(t + dt, y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        out.append((t, y.copy()))
    return out


def _numpy_rk45_step(f, t, y, dt):
    """One Cash-Karp step on arrays: (y5, max |y5 - y4|)."""
    ks = [f(t, y)]
    for i in range(1, 6):
        yi = y + dt * sum(a * k for a, k in zip(_CK_A[i], ks))
        ks.append(f(t + dt * sum(_CK_A[i]), yi))
    y5 = y + dt * sum(b * k for b, k in zip(_CK_B5, ks))
    y4 = y + dt * sum(b * k for b, k in zip(_CK_B4, ks))
    return y5, float(np.max(np.abs(y5 - y4)))


def _numpy_rk45(f, t0, y0, t_end, rtol=1e-10, atol=1e-12,
                max_rejections=2000):
    """Adaptive Cash-Karp on numpy arrays, with the ray's tolerances: the
    bit-for-bit reference of the float stepper.  Its sums start from 0 and
    run in stage order, zero weights included."""
    t, y = t0, np.asarray(y0, dtype=float).copy()
    dt = (t_end - t0) / 100
    out = [(t, y.tolist())]
    rejected = 0
    while t < t_end - 1e-15 * max(1.0, abs(t_end)):
        dt = min(dt, t_end - t)
        y_new, err = _numpy_rk45_step(f, t, y, dt)
        if not math.isfinite(err):
            raise FloatingPointError(
                f"ray state turned non-finite at t = {t + dt:g}")
        scale = atol + rtol * float(np.max(np.abs(y)))
        if err <= scale or dt <= 1e-14:
            t += dt
            y = y_new
            out.append((t, y.tolist()))
            factor = 2.0 if err == 0 else min(2.0, 0.9 * (scale / err) ** 0.2)
            dt *= factor
        else:
            rejected += 1
            if rejected > max_rejections:
                raise RuntimeError("rk45 step rejection overflow")
            dt *= max(0.1, 0.9 * (scale / err) ** 0.25)
    return out, rejected


def _reference_ray_rates(F, lam, hbar, y):
    """The ray equations as the array stepper evaluated them on the nested
    jet, kept apart from `_ray_kernel`: ((rdot, Pdot, Re chidot, Im chidot),
    eps, |P|)."""
    x, y_, z, px, py, pz, ar, br, ai, bi = y
    E2 = px * px + py * py + pz * pz
    E = math.sqrt(E2)
    if E < 1e-12:
        raise ValueError("|P| underflow along the ray")
    Fv, (gx, gy, gz), h = nested_jet(F, (x, y_, z))
    pg = px * gx + py * gy + pz * gz
    c, k = hbar ** 2 / 4.0, hbar ** 2 / (4 * E)
    # Pdot = -grad_r eps, eps = F|P| - (hbar^2/4|P|) P.grad F.
    dpx = k * (h[0][0] * px + h[0][1] * py + h[0][2] * pz) - E * gx
    dpy = k * (h[1][0] * px + h[1][1] * py + h[1][2] * pz) - E * gy
    dpz = k * (h[2][0] * px + h[2][1] * py + h[2][2] * pz) - E * gz
    # rdot = grad_P eps + hbar Pdot x Theta with Theta = -lam P/|P|^3; the
    # spinor turns with chidot = i w.sigma chi, w = (Pdot x P)/2|P|^2.
    cx, cy, cz = dpy * pz - dpz * py, dpz * px - dpx * pz, dpx * py - dpy * px
    a, b = Fv / E + c * pg / E ** 3, -lam * hbar / E ** 3
    rdx, rdy, rdz = (a * px - k * gx + b * cx, a * py - k * gy + b * cy,
                     a * pz - k * gz + b * cz)
    wx, wy, wz = cx / (2 * E2), cy / (2 * E2), cz / (2 * E2)
    u_re, u_im = wz * ar + wx * br + wy * bi, wz * ai + wx * bi - wy * br
    v_re, v_im = wx * ar - wy * ai - wz * br, wx * ai + wy * ar - wz * bi
    ydot = (rdx, rdy, rdz, dpx, dpy, dpz, -u_im, -v_im, u_re, v_re)
    return ydot, Fv * E - k * pg, E


def _numpy_ray(model, r0, P0, lam, hbar, dt, steps, method):
    """(t, r, P, eps, speed, helicity) per sample from array stepping of
    `_reference_ray_rates` and a separate record pass over the samples."""
    F = model.F

    def rhs(_t, y):
        return np.array(_reference_ray_rates(F, lam, hbar, y.tolist())[0])

    chi = _helicity_spinor(np.asarray(P0, dtype=float), lam)
    y0 = np.concatenate([r0, P0, chi.real, chi.imag])
    if method == "rk4":
        samples = _numpy_rk4(rhs, y0, dt, steps)
    else:
        samples = [(t, np.array(y))
                   for t, y in _numpy_rk45(rhs, 0.0, y0, dt * steps)[0]]
    out = []
    for t, y in samples:
        ydot, eps, E = _reference_ray_rates(F, lam, hbar, y.tolist())
        px, py, pz, ar, br, ai, bi = y[3:].tolist()
        hel = (pz * (ar * ar + ai * ai - br * br - bi * bi)
               + 2 * px * (ar * br + ai * bi) + 2 * py * (ar * bi - ai * br)
               ) / (E * (ar * ar + ai * ai + br * br + bi * bi))
        speed = math.sqrt(ydot[0] ** 2 + ydot[1] ** 2 + ydot[2] ** 2)
        out.append((t, y[0:3].tolist(), y[3:6].tolist(), eps, speed, hel))
    return out


# The profiles whose rays are compared with the reference arithmetic, one
# of each kind: the jets of the polynomial and coulomb fields round
# differently from the linear and gaussian ones, the uniform one has a zero
# hessian and the reciprocal one nests a reciprocal jet in F = 1/n.
BIT_PROFILES = {**RAY_PROFILES, "polynomial": HAMILTON_PROFILES[2],
                "coulomb": HAMILTON_PROFILES[3], "uniform": UniformField(1.3),
                "reciprocal": ReciprocalField(RAY_PROFILES["gaussian"])}


@pytest.mark.parametrize("method", ["rk4", "rk45"])
@pytest.mark.parametrize("lam", [+1, -1])
@pytest.mark.parametrize("profile", list(BIT_PROFILES))
def test_float_stepping_is_bit_identical_to_arrays(profile, lam, method):
    model = neutrino(BIT_PROFILES[profile])
    r0, P0, steps = [0.1, -0.2, 0.05], [0.3, 0.1, 1.0], 200
    traj = integrate_ray(model, r0, P0, lam, 1e-3, 1e-2, steps, method)
    got = [(s.t, s.r.tolist(), s.P.tolist(), s.eps, s.speed, s.helicity)
           for s in traj.states]
    assert got == _numpy_ray(model, r0, P0, lam, 1e-3, 1e-2, steps, method)


def _argmin_helicity_spinor(P, lam):
    """The eigenvector of sigma.Phat whose eigenvalue is nearest lam, picked
    by `argmin` as `_helicity_spinor` once did."""
    phat = P / np.sqrt(_dot(P, P))[..., None]
    px, py, pz = np.moveaxis(phat, -1, 0)[..., None, None]
    vals, vecs = np.linalg.eigh(px * SX + py * SY + pz * SZ)
    idx = np.argmin(np.abs(vals - lam), axis=-1)
    return np.take_along_axis(vecs, idx[..., None, None], -1)[..., 0]


@pytest.mark.parametrize("lam", [+1, -1])
def test_helicity_spinor_is_the_eigenvector_nearest_lam(lam):
    # Its bits seed every ray state: the column of eigh is the argmin pick,
    # byte for byte, on one point and on a batch.
    rng = np.random.default_rng(41)
    P = rng.normal(size=(40, 3)) * rng.uniform(1e-3, 1e3, (40, 1))
    P[0], P[1] = [0.0, -0.0, 2.0], [-1e-3, 0.0, 0.0]
    for p in (P, P[0], P[1], P[7]):
        got, want = _helicity_spinor(p, lam), _argmin_helicity_spinor(p, lam)
        assert got.flags.c_contiguous
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_one_public_ray_rhs_call_per_ray(method, monkeypatch):
    # The start check is the ray's only public `ray_rhs` call; the stepper
    # and the records use the private kernel.
    calls = []

    def counting(*args):
        calls.append(args)
        return ray_rhs(*args)

    monkeypatch.setattr(dynamics, "ray_rhs", counting)
    for lam in (+1, -1):
        integrate_ray(neutrino(RAY_PROFILES["gaussian"]), [0.1, -0.2, 0.05],
                      [0.3, 0.1, 1.0], lam, 1e-3, 1e-2, 20, method)
    assert len(calls) == 2


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_trajectory_states_do_not_alias(method):
    traj = integrate_ray(neutrino(RAY_PROFILES["gaussian"]), [0.1, -0.2, 0.05],
                         [0.3, 0.1, 1.0], +1, 1e-3, 1e-2, 20, method)
    states = traj.states
    before = [(s.r.tolist(), s.P.tolist()) for s in states]
    for s in states:
        for v in (s.r, s.P):
            assert isinstance(v, np.ndarray)
            assert v.dtype == np.float64 and v.shape == (3,)
        assert not np.shares_memory(s.r, s.P)
    for i, a in enumerate(states):
        for b in states[i + 1:]:
            assert not np.shares_memory(a.r, b.r)
            assert not np.shares_memory(a.P, b.P)
            assert not np.shares_memory(a.r, b.P)
            assert not np.shares_memory(a.P, b.r)
    states[3].r[:] = -7.0
    states[3].P[1] = 9.0
    for i, s in enumerate(states):
        if i != 3:
            assert (s.r.tolist(), s.P.tolist()) == before[i]
    assert states[3].r.tolist() == [-7.0] * 3
    assert states[3].P.tolist() == [before[3][1][0], 9.0, before[3][1][2]]


def test_rk4_float_step_matches_array_step():
    # The rotating system of the convergence test, stepped both ways.
    omega = np.array([0.3, -0.2, 0.7])

    def rot(_t, y):
        return np.cross(omega, y)

    y0 = np.array([1.0, 0.2, -0.4])
    for nsteps in (50, 400):
        floats = _rk4(padded_rotation(omega), (*y0.tolist(), *ZEROS7),
                      2.0 / nsteps, nsteps)
        arrays = _numpy_rk4(rot, y0, 2.0 / nsteps, nsteps)
        assert [(t, list(y[:3])) for t, y, _k in floats] == [(t, y.tolist())
                                                            for t, y in arrays]
        assert all(y[3:] == ZEROS7 for _t, y, _k in floats)


@pytest.mark.parametrize("lam", [+1, -1])
@pytest.mark.parametrize("profile", list(BIT_PROFILES))
def test_ray_kernel_rounds_as_the_reference_rates(profile, lam):
    # hbar = 9 makes the hbar^2 terms as large as F|P| on these profiles,
    # and hbar^2/4 is no power of two, so how they round shows in the rates.
    F, rng = BIT_PROFILES[profile], np.random.default_rng(7)
    rates = _ray_kernel(F, lam, 9.0)
    for _ in range(20):
        y = rng.normal(size=10).tolist()
        ydot, eps, E = _reference_ray_rates(F, lam, 9.0, y)
        assert rates(y) == (*ydot, eps, E)


def test_verify_rk4_slope_is_the_array_steppers():
    # verify steps its rotation through the ray stepper; its slope is the
    # one array RK4 over np.cross gives, bit for bit.
    from semiband.verify import suite_numerical_plumbing

    omega, y0, T = np.array([0.3, -0.2, 0.7]), np.array([1.0, 0.2, -0.4]), 2.0
    w = np.linalg.norm(omega)
    k, ang = omega / w, w * T
    exact = (y0 * np.cos(ang) + np.cross(k, y0) * np.sin(ang)
             + k * (k @ y0) * (1 - np.cos(ang)))
    errs, dts = [], []
    for nsteps in (50, 100, 200, 400):
        dts.append(T / nsteps)
        yT = _numpy_rk4(lambda _t, y: np.cross(omega, y), y0, dts[-1],
                        nsteps)[-1][1]
        errs.append(float(np.linalg.norm(yT - exact)))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    assert suite_numerical_plumbing().metrics["rk4_slope"] == slope


@pytest.mark.parametrize("lam", [+1, -1])
@pytest.mark.parametrize("profile", ["polynomial", "coulomb"])
def test_ray_stepper_rounds_as_arrays_on_polynomial_and_coulomb(profile, lam):
    # The stepper and array RK4 over the one kernel, on the two jet kinds
    # that round differently from the linear and gaussian ones; each
    # sample's k is the kernel at its state.
    rates = _ray_kernel(BIT_PROFILES[profile], lam, 1e-3)
    P0 = np.array([0.3, 0.1, 1.0])
    chi = _helicity_spinor(P0, lam)
    y0 = (0.1, -0.2, 0.05, *P0.tolist(), *chi.real.tolist(),
          *chi.imag.tolist())
    floats = _rk4(rates, y0, 1e-2, 200)
    arrays = _numpy_rk4(lambda _t, y: np.array(rates(y.tolist())[:10]), y0,
                        1e-2, 200)
    assert [(t, list(y)) for t, y, _k in floats] == [(t, y.tolist())
                                                     for t, y in arrays]
    assert all(k == rates(y) for _t, y, k in floats)
