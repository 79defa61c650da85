"""Closed-form reference energies for the two shipped applications, and the
band symbols of the Jaynes-Cummings `two_level` config.

These evaluate the final displayed formulas verbatim with the field's own
analytic derivatives; any disagreement with the generic pipeline is attributed
to the pipeline.  The field always enters through W = e V, which reproduces
the displays at e = 1 and keeps the charge bookkeeping consistent at any e.
"""

from __future__ import annotations

import numpy as np

from semiband.fields import ScalarField
from semiband.models import (
    BETA, SIGMA, SX, SY, SZ, NeutrinoMetric, PhasePoint, p_cross_sigma,
)

__all__ = [
    "dirac_energy_canonical_oracle",
    "dirac_energy_covariant_oracle",
    "pauli_energy_oracle",
    "neutrino_energy_oracle",
    "neutrino_energy_canonical_oracle",
    "neutrino_velocity_modulus",
    "jaynes_cummings_symbol",
]


def dirac_energy_canonical_oracle(x: PhasePoint, m: float, e: float,
                                  field: ScalarField, hbar: float) -> np.ndarray:
    """Second-order block energy in canonical variables (weak-field FW form).

    beta E + W + hbar (P x Sigma).grad W / (2E(E+m))
    + hbar^2 beta [E^2 (grad W)^2 - (P.grad W)^2] / (8 E^5)
    + hbar^2 [lap W / (4E(E+m))
              - (2E^2 + 2Em + m^2)(P.grad)^2 W / (8 E^4 (E+m)^2)]
    with W = e V and E = sqrt(P^2 + m^2).
    """
    P = x.P
    E = float(np.sqrt(P @ P + m * m))
    gW = e * field.gradient(x.R)
    hW = e * field.hessian(x.R)
    W = e * field.value(x.R)
    lapW = e * field.laplacian(x.R)
    pxs = p_cross_sigma(P, SIGMA)

    out = BETA * E + W * np.eye(4)
    out = out + hbar * sum(gW[l] * pxs[l] for l in range(3)) / (2 * E * (E + m))
    out = out + (hbar ** 2) * BETA * (
        E ** 2 * float(gW @ gW) - float(P @ gW) ** 2
    ) / (8 * E ** 5)
    pddW = float(P @ hW @ P)
    out = out + (hbar ** 2) * np.eye(4) * (
        lapW / (4 * E * (E + m))
        - (2 * E ** 2 + 2 * E * m + m * m) * pddW / (8 * E ** 4 * (E + m) ** 2)
    )
    return out


def dirac_energy_covariant_oracle(x: PhasePoint, m: float, e: float,
                                  field: ScalarField, hbar: float) -> np.ndarray:
    """Second-order energy over covariant variables, at classical evaluation.

    beta sqrt(p^2 + m^2) + W(r)
    + (hbar^2/2) div_r [ (E^2 grad_r W - (p.grad_r W) p) / (4 E^4) ]
    which at a classical point is
    beta E + W + (hbar^2 / 8E^4) [E^2 lap W - (P.grad)^2 W].
    """
    P = x.P
    E = float(np.sqrt(P @ P + m * m))
    W = e * field.value(x.R)
    hW = e * field.hessian(x.R)
    lapW = e * field.laplacian(x.R)
    pddW = float(P @ hW @ P)
    out = BETA * E + W * np.eye(4)
    out = out + (hbar ** 2) * np.eye(4) * (E ** 2 * lapW - pddW) / (8 * E ** 4)
    return out


def pauli_energy_oracle(x: PhasePoint, m: float, e: float,
                        field: ScalarField, hbar: float) -> np.ndarray:
    """Non-relativistic positive-block limit (c = 1).

    P^2/2m - P^4/8m^3 + W + (hbar/4m^2) sigma.(grad W x P)
    + (hbar^2/8m^2) lap W, the last term being the contact correction.
    """
    P = x.P
    p2 = float(P @ P)
    W = e * field.value(x.R)
    gW = e * field.gradient(x.R)
    lapW = e * field.laplacian(x.R)
    sig = (SX, SY, SZ)
    cross = np.cross(gW, P)
    out = (p2 / (2 * m) - p2 ** 2 / (8 * m ** 3) + W) * np.eye(2, dtype=complex)
    out = out + (hbar / (4 * m ** 2)) * sum(cross[k] * sig[k] for k in range(3))
    out = out + (hbar ** 2 / (8 * m ** 2)) * lapW * np.eye(2)
    return out


def neutrino_energy_oracle(x: PhasePoint, model: NeutrinoMetric,
                           hbar: float) -> np.ndarray:
    """Covariant-form energy of the massless model, at classical evaluation.

    beta F |P| - (hbar^2 / 4|P|) P.grad F, with F = 1/n.
    """
    P = x.P
    E = float(np.linalg.norm(P))
    F = model.F.value(x.R)
    gF = model.F.gradient(x.R)
    return BETA * F * E - (hbar ** 2 / (4 * E)) * float(P @ gF) * np.eye(4)


def neutrino_energy_canonical_oracle(x: PhasePoint, model: NeutrinoMetric,
                                     hbar: float) -> np.ndarray:
    """The covariant-form energy re-expanded in canonical variables.

    Substituting r = R + hbar (P x Sigma)/(2E^2) and Taylor expanding through
    hbar^2 (with the symmetrized product (P x Sigma)_l (P x Sigma)_m ->
    delta_lm P^2 - P_l P_m) gives

    beta F E + (hbar/2E) beta (P x Sigma).grad F
    + (hbar^2/8E^3) beta [E^2 lap F - (P.grad)^2 F] - (hbar^2/4E) P.grad F.
    """
    P = x.P
    E = float(np.linalg.norm(P))
    F = model.F.value(x.R)
    gF = model.F.gradient(x.R)
    hF = model.F.hessian(x.R)
    lapF = float(np.trace(hF))
    pxs = p_cross_sigma(P, SIGMA)
    out = BETA * F * E
    out = out + (hbar / (2 * E)) * BETA @ sum(gF[l] * pxs[l] for l in range(3))
    out = out + (hbar ** 2 / (8 * E ** 3)) * BETA * (
        E ** 2 * lapF - float(P @ hF @ P)
    )
    out = out - (hbar ** 2 / (4 * E)) * float(P @ gF) * np.eye(4)
    return out


def neutrino_velocity_modulus(r: np.ndarray, P: np.ndarray,
                              model: NeutrinoMetric, hbar: float,
                              lam: float = 1.0) -> float:
    """|v| = (c/n)(1 + hbar^2 lam^2/P^2 [(grad ln n)^2 - (P.grad ln n)^2/P^2])^(1/2)."""
    n = model.profile.value(r)
    gn = model.profile.gradient(r)
    glog = gn / n
    p2 = float(P @ P)
    corr = (hbar ** 2) * (lam ** 2) / p2 * (
        float(glog @ glog) - float(P @ glog) ** 2 / p2
    )
    return (1.0 / n) * float(np.sqrt(1.0 + corr))


def jaynes_cummings_symbol(I, c: float, delta: float) -> tuple:
    """(sigma0, sigma1, sigma2), each (..., 2) with the upper band first: the
    hbar^0, hbar^1 and hbar^2 coefficients of the exact band symbols of the
    Jaynes-Cummings `two_level` config h0 = (R^2 + P^2)/2,
    h = (c R, -c P, delta/2), at the action I = (R^2 + P^2)/2.

    With s = sqrt(delta^2/4 + 2 c^2 I), b = -delta/2 +/- c^2 and the upper
    sign for the upper band:
    sigma0 = I +/- s,  sigma1 = +/-1/2 +/- b/(2 s),
    sigma2 = +/-[1/(8 s) - b^2/(8 s^3)] +/- c^4/(8 s^3) -/+ c^6 I/(4 s^5).
    """
    sign = np.array([1.0, -1.0])
    I = np.asarray(I, dtype=float)[..., None]
    s = np.sqrt(delta ** 2 / 4 + 2 * c ** 2 * I)
    b = -delta / 2 + sign * c ** 2
    sigma2 = sign * (1 / (8 * s) - b ** 2 / (8 * s ** 3)
                     + c ** 4 / (8 * s ** 3) - c ** 6 * I / (4 * s ** 5))
    return I + sign * s, sign / 2 + sign * b / (2 * s), sigma2
