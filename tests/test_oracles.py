"""Closed-form oracles: limiting cases and structural properties."""

from fractions import Fraction

import numpy as np
import pytest

from semiband.energy import band_energy
from semiband.fields import GaussianField, LinearField, UniformField
from semiband.models import BETA, NeutrinoMetric, PhasePoint, make_model
from semiband.oracles import (
    dirac_energy_canonical_oracle,
    dirac_energy_covariant_oracle,
    neutrino_energy_canonical_oracle,
    neutrino_energy_oracle,
    neutrino_velocity_modulus,
    pauli_energy_oracle,
)

GAUSS = GaussianField(0.8, [0.2, -0.1, 0.3], 1.4)


def test_oracles_hermitian():
    rng = np.random.default_rng(41)
    model = NeutrinoMetric(profile=LinearField([0.05, -0.02, 0.03], 1.5))
    for _ in range(25):
        x = PhasePoint.of(rng.uniform(-1, 1, 3),
                          rng.uniform(-1, 1, 3) + np.array([0, 0, 1.5]))
        for mat in (
            dirac_energy_canonical_oracle(x, 1.0, 1.0, GAUSS, 0.05),
            dirac_energy_covariant_oracle(x, 1.0, 1.0, GAUSS, 0.05),
            pauli_energy_oracle(x, 1.0, 1.0, GAUSS, 0.05),
            neutrino_energy_oracle(x, model, 0.05),
            neutrino_energy_canonical_oracle(x, model, 0.05),
        ):
            assert np.max(np.abs(mat - mat.conj().T)) <= 1e-14


def test_block_oracle_free_field_is_relativistic_energy():
    x = PhasePoint.of([0.1, 0.2, 0.3], [0.4, 0.5, -0.6])
    E = np.sqrt(x.P @ x.P + 1.0)
    out = dirac_energy_canonical_oracle(x, 1.0, 1.0, UniformField(0.0), 0.1)
    assert np.allclose(out, BETA * E, atol=1e-15)


def test_block_oracle_rest_limit_contact_term():
    # At P = 0 and a field stationary point the hbar^2 part is lap W / (8 m^2).
    center = np.array([0.2, -0.1, 0.3])
    x = PhasePoint.of(center, [0.0, 0.0, 0.0])
    m, hbar = 1.0, 0.05
    out = dirac_energy_canonical_oracle(x, m, 1.0, GAUSS, hbar)
    W = GAUSS.value(center)
    lap = GAUSS.laplacian(center)
    expected = BETA * m + W * np.eye(4) + hbar ** 2 * lap / (8 * m ** 2) * np.eye(4)
    assert np.allclose(out, expected, atol=1e-14)


def test_pauli_quadratic_kinetic_term():
    q = 0.3
    x = PhasePoint.of([0, 0, 0], [0, 0, q])
    out = pauli_energy_oracle(x, 1.0, 1.0, UniformField(0.0), 0.1)
    assert np.allclose(out, (q ** 2 / 2 - q ** 4 / 8) * np.eye(2), atol=1e-15)


def test_pauli_spin_orbit_vanishes_for_parallel_gradient():
    field = LinearField([0.0, 0.0, 0.4], 1.0)
    x = PhasePoint.of([0.1, 0.0, 0.0], [0.0, 0.0, 0.7])
    out = pauli_energy_oracle(x, 1.0, 1.0, field, 0.1)
    offdiag = out - np.diag(np.diag(out))
    assert np.max(np.abs(offdiag)) <= 1e-15
    assert abs(out[0, 0] - out[1, 1]) <= 1e-15


def test_neutrino_oracle_flat_profile():
    model = NeutrinoMetric(profile=UniformField(1.0))
    x = PhasePoint.of([0.3, 0.2, 0.1], [0.5, -0.4, 0.7])
    out = neutrino_energy_oracle(x, model, 0.1)
    assert np.allclose(out, BETA * np.linalg.norm(x.P), atol=1e-15)


def test_neutrino_oracle_transverse_gradient():
    # P perpendicular to grad F: the second-order term drops exactly.
    model = NeutrinoMetric(profile=LinearField([0.1, 0.0, 0.0], 2.0))
    x = PhasePoint.of([0.0, 0.0, 0.0], [0.0, 0.0, 0.9])
    out = neutrino_energy_oracle(x, model, 0.1)
    F = model.F.value(x.R)
    assert np.allclose(out, BETA * F * 0.9, atol=1e-15)


def test_pauli_is_low_momentum_limit_of_block_oracle():
    # Coefficient-wise agreement of the positive block over |P|/m in
    # [1e-3, 1e-2] at linear order in the field: the quadratic fit intercepts
    # reproduce the low-momentum oracle's spin-orbit and contact coefficients.
    m, hbar = 1.0, 0.05
    field = GaussianField(amplitude=0.02, center=[0.8, 0.3, -0.2], width=1.5)
    R0 = np.zeros(3)
    gW = field.gradient(R0)
    lap = field.laplacian(R0)
    sig = [np.array([[0, 1], [1, 0]], complex),
           np.array([[0, -1j], [1j, 0]], complex),
           np.array([[1, 0], [0, -1]], complex)]
    direction = np.array([0.6, -0.3, 0.9])
    direction /= np.linalg.norm(direction)
    ts = np.linspace(1e-3, 1e-2, 6)
    so, contact = [], []
    for t in ts:
        P = t * m * direction
        x = PhasePoint.of(R0, P)
        blk = dirac_energy_canonical_oracle(x, m, 1.0, field, hbar)[:2, :2]
        M = sum(np.cross(gW, P)[k] * sig[k] for k in range(3))
        so.append(float(np.real(np.trace(blk @ M.conj().T)
                                / np.trace(M @ M.conj().T))))
        # isolate the hbar^2 lap W piece: subtract the field-free and
        # first-order parts, then remove the field-quadratic (grad W)^2 term
        E = np.sqrt(t ** 2 + 1.0)
        base = E + field.value(R0) + hbar ** 2 * (
            E ** 2 * float(gW @ gW) - float(P @ gW) ** 2) / (8 * E ** 5)
        rest = np.real(np.trace(blk - so[-1] * M)) / 2 - base
        contact.append(rest / (hbar ** 2))
    so0 = np.polyfit(ts ** 2, so, 1)[1]
    c0 = np.polyfit(ts ** 2, contact, 1)[1]
    pauli_ref = pauli_energy_oracle(PhasePoint.of(R0, 1e-3 * direction),
                                    m, 1.0, field, hbar)
    assert abs(so0 - hbar / (4 * m ** 2)) <= 1e-4 * hbar / (4 * m ** 2)
    assert abs(c0 - lap / (8 * m ** 2)) <= 1e-4 * abs(lap / (8 * m ** 2))
    assert pauli_ref.shape == (2, 2)


def test_velocity_modulus_limits():
    flat = NeutrinoMetric(profile=UniformField(1.0))
    assert neutrino_velocity_modulus(np.zeros(3), np.array([0, 0, 1.0]),
                                     flat, 0.1) == 1.0
    uniform = NeutrinoMetric(profile=UniformField(1.25))
    assert neutrino_velocity_modulus(np.array([0.1, 0.2, 0.3]),
                                     np.array([0.4, 0.5, -0.6]),
                                     uniform, 0.05) == 1.0 / 1.25
    graded = NeutrinoMetric(profile=LinearField([0.0, 0.0, 0.2], 1.5))
    r = np.array([0.0, 0.0, 0.5])
    n = 1.6
    # grad n parallel to P: the correction vanishes and v = c/n exactly.
    v = neutrino_velocity_modulus(r, np.array([0, 0, 0.8]), graded, 0.1)
    assert abs(v - 1.0 / n) <= 1e-15



def _term(coef, r=(0, 0, 0), p=(0, 0, 0)) -> dict:
    return {"coef": str(coef), "r_exp": list(r), "p_exp": list(p)}


def _jaynes_cummings(c: Fraction, delta: Fraction, rotated: bool):
    """The Jaynes-Cummings model as a two_level config,
    h0 = (R^2 + P^2)/2 and h = (c R, -c P, delta/2), on (R, P) = (R_x, P_x)
    or, rotated, on (R, P) = (R_x + P_x, R_y + P_x), whose Poisson bracket
    is 1 too, expanded into monomials.  Returns the model and the map from
    a point to its action I = (R^2 + P^2)/2."""
    half, X, Y = Fraction(1, 2), (1, 0, 0), (0, 1, 0)
    if rotated:
        h0 = [_term(half, r=(2, 0, 0)), _term(1, r=X, p=X),
              _term(1, p=(2, 0, 0)), _term(half, r=(0, 2, 0)),
              _term(1, r=Y, p=X)]
        h1 = [_term(c, r=X), _term(c, p=X)]
        h2 = [_term(-c, r=Y), _term(-c, p=X)]

        def pair(x):
            return x.R[..., 0] + x.P[..., 0], x.R[..., 1] + x.P[..., 0]
    else:
        h0 = [_term(half, r=(2, 0, 0)), _term(half, p=(2, 0, 0))]
        h1, h2 = [_term(c, r=X)], [_term(-c, p=X)]

        def pair(x):
            return x.R[..., 0], x.P[..., 0]
    model = make_model({"model": "two_level", "h0": h0,
                        "h": [h1, h2, [_term(half * delta)]]})

    def action(x):
        R, P = pair(x)
        return (R * R + P * P) / 2
    return model, action


def _jaynes_cummings_symbol(I, c: float, delta: float):
    """(sigma0, sigma1), each (..., 2) with the upper band first, of the
    exact band symbols sigma0 + hbar sigma1 + O(hbar^2) of Jaynes-Cummings
    at action I: with s = sqrt(delta^2/4 + 2 c^2 I) and
    b = -delta/2 +/- c^2, sigma0 = I +/- s, sigma1 = +/-1/2 +/- b/(2 s)."""
    sign = np.array([1.0, -1.0])
    s = np.sqrt(delta ** 2 / 4 + 2 * c ** 2 * I)[..., None]
    b = -delta / 2 + sign * c ** 2
    return I[..., None] + sign * s, sign / 2 + sign * b / (2 * s)


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("delta", ["1", "2"])
@pytest.mark.parametrize("c", ["3/10", "3/5", "4/5"])
def test_jaynes_cummings_energy_through_order_one(c, delta, rotated):
    # A^P != 0 in both models; the rotated one moves it along two axes.
    # Orders 0 and 1 of the canonical energy equal the closed form at
    # 1e-12 of scale; order 2 is left out (its hbar^2 term is off).
    c, delta, hbar = Fraction(c), Fraction(delta), 0.01
    model, action = _jaynes_cummings(c, delta, rotated)
    rng = np.random.default_rng(5)
    if rotated:
        R, P = rng.uniform(-1.5, 1.5, (2, 20, 3))
    else:
        I, theta = np.meshgrid([0.5, 1.0, 2.0], [0.3, 1.9, 4.1])
        radius = np.sqrt(2 * I.ravel())
        R, P = rng.uniform(-1.0, 1.0, (2, I.size, 3))
        R[:, 0], P[:, 0] = (radius * np.cos(theta.ravel()),
                            radius * np.sin(theta.ravel()))
    x = PhasePoint(R, P)
    report = band_energy(model, x, hbar, order=1)
    sigma0, sigma1 = _jaynes_cummings_symbol(action(x), float(c), float(delta))
    scale = np.max(np.abs(sigma0), axis=-1, keepdims=True)
    zeroth = np.real(np.diagonal(report.zeroth, 0, -2, -1))
    first = np.real(np.diagonal(report.first, 0, -2, -1)) / hbar
    assert np.all(np.abs(zeroth - sigma0) <= 1e-12 * scale)
    assert np.all(np.abs(first - sigma1) <= 1e-12 * scale)
