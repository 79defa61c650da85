"""Matrix-valued Hamiltonians with analytic frames and their gauge terms.

Three built-in models (units c = 1, hbar is a run parameter):

* ``dirac_electric``  -- H = alpha.P + beta m + e V(R), four components,
  band groups {+E, -E} with E = sqrt(P^2 + m^2).
* ``neutrino_metric`` -- H = (alpha.P F(R) + F(R) alpha.P)/2 with
  F = 1/n(R) for a refractive-index-like profile n; massless, |P| > 0.
* ``two_level``       -- H = h0(R,P) 1 + h(R,P).sigma with polynomial
  components declared term by term (the declaration doubles as the symbolic
  decomposition used for the exact ordering bracket).

Dirac representation throughout: beta = diag(1,1,-1,-1), alpha_i with
off-diagonal Pauli blocks, Sigma = 1 (x) sigma.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from semiband.fields import ScalarField, ReciprocalField, UniformField, make_field
from semiband import weyl

__all__ = [
    "PhasePoint",
    "Model",
    "DiracElectric",
    "NeutrinoMetric",
    "TwoLevel",
    "make_model",
    "p_cross_sigma",
    "random_points",
    "SX", "SY", "SZ", "S0", "BETA", "ALPHA", "SIGMA",
]


SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
S0 = np.eye(2, dtype=complex)

BETA = np.kron(SZ, S0)                       # diag(1, 1, -1, -1)
ALPHA = [np.kron(SX, s) for s in (SX, SY, SZ)]
SIGMA = [np.kron(S0, s) for s in (SX, SY, SZ)]


def p_cross_sigma(P: np.ndarray, sigma) -> list:
    """(P x sigma)_l as matrices, for a Pauli basis `sigma` (SX, SY, SZ or
    SIGMA)."""
    return [P[1] * sigma[2] - P[2] * sigma[1],
            P[2] * sigma[0] - P[0] * sigma[2],
            P[0] * sigma[1] - P[1] * sigma[0]]


# [b, l] = (e_b x Sigma)_l, the P_b derivative of (P x Sigma)_l.
_E_CROSS_SIGMA = np.array([p_cross_sigma(e, SIGMA) for e in np.eye(3)])


def _pxs_gauge_gradient(P: np.ndarray, f: float, df: np.ndarray) -> np.ndarray:
    """grad_b of the gauge stack ((P x Sigma)/f, 0) as (6 b, 6 a, 4, 4), for a
    scalar f(R, P) with gradient df over the six axes."""
    out = np.zeros((6, 6, 4, 4), dtype=complex)
    out[:, :3] = -np.multiply.outer(df / f ** 2,
                                    np.array(p_cross_sigma(P, SIGMA)))
    out[3:, :3] += _E_CROSS_SIGMA / f
    return out


def _pxs_gauge_hessian(P: np.ndarray, f: float, df: np.ndarray,
                       ddf: np.ndarray) -> np.ndarray:
    """grad_c grad_b of the gauge stack ((P x Sigma)/f, 0) as
    (6 c, 6 b, 6 a, 4, 4), for a scalar f(R, P) with gradient df and hessian
    ddf over the six axes."""
    out = np.zeros((6, 6, 6, 4, 4), dtype=complex)
    out[:, :, :3] = np.multiply.outer(2 * np.outer(df, df) / f ** 3
                                      - ddf / f ** 2,
                                      np.array(p_cross_sigma(P, SIGMA)))
    # t[b, c, a] = -(df_b / f^2) (e_c x Sigma)_a, c a momentum axis.
    t = np.multiply.outer(-df / f ** 2, _E_CROSS_SIGMA)
    out[:, 3:, :3] += t
    out[3:, :, :3] += t.swapaxes(0, 1)
    return out


@dataclass(frozen=True)
class PhasePoint:
    """Classical phase-space point (R, P), both real 3-vectors."""

    R: np.ndarray
    P: np.ndarray

    @staticmethod
    def of(R, P) -> "PhasePoint":
        R = np.asarray(R, dtype=float).reshape(3)
        P = np.asarray(P, dtype=float).reshape(3)
        if not (np.all(np.isfinite(R)) and np.all(np.isfinite(P))):
            raise ValueError("phase point must have finite components")
        return PhasePoint(R, P)

    def shifted(self, axis: int, delta: float) -> "PhasePoint":
        """New point displaced along one of the six phase axes (0-2: R, 3-5: P)."""
        R, P = self.R.copy(), self.P.copy()
        if axis < 3:
            R[axis] += delta
        else:
            P[axis - 3] += delta
        return PhasePoint(R, P)

    def coord(self, axis: int) -> float:
        return self.R[axis] if axis < 3 else self.P[axis - 3]


def random_points(rng: np.random.Generator, count: int, pmin: float,
                  pmax: float) -> list:
    """`count` points with R uniform in [-1, 1]^3 and a uniformly drawn
    direction of P rescaled to a length uniform in [pmin, pmax]."""
    pts = []
    for _ in range(count):
        R = rng.uniform(-1.0, 1.0, 3)
        P = rng.uniform(-1.0, 1.0, 3)
        P *= rng.uniform(pmin, pmax) / np.linalg.norm(P)
        pts.append(PhasePoint.of(R, P))
    return pts


class Model:
    """Shared interface of the built-in Hamiltonians."""

    name = "abstract"
    n = 0
    band_groups: tuple = ()
    groups: np.ndarray = np.array([], dtype=int)
    massless = False
    has_analytic_frame = False
    bracket_closed_form = False
    # The applications all satisfy <H> = 0 (pure-R plus pure-P splitting or
    # scalar cross factors); the energy assembly asserts this flag.
    bracket_h_vanishes = True

    def hamiltonian(self, x: PhasePoint) -> np.ndarray:
        raise NotImplementedError

    def d_hamiltonian(self, x: PhasePoint, axis: int) -> np.ndarray:
        """Analytic dH along phase axis (0-2: R components, 3-5: P)."""
        raise NotImplementedError

    def d2_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        """The analytic Hessian of H over the phase axes, (6, 6, n, n)."""
        raise NotImplementedError

    def d3_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        """The analytic third derivatives of H, (6, 6, 6, n, n)."""
        raise NotImplementedError

    def analytic_frame(self, x: PhasePoint):
        raise NotImplementedError(f"model {self.name} has no analytic frame")

    def analytic_connections(self, x: PhasePoint):
        """(A_R, A_P): the within-group parts of i U0 grad_P U0^+ and
        -i U0 grad_R U0^+ in the gauge of `analytic_frame`."""
        raise NotImplementedError(f"model {self.name} has no analytic connections")

    def d_analytic_connections(self, x: PhasePoint) -> np.ndarray:
        """grad_b of the stacked gauge term (A_R, A_P) of
        `analytic_connections`, as (6 b, 6 a, n, n)."""
        raise NotImplementedError(f"model {self.name} has no analytic connections")

    def d2_analytic_connections(self, x: PhasePoint) -> np.ndarray:
        """grad_c grad_b of the stacked gauge term, as (6 c, 6 b, 6 a, n, n)."""
        raise NotImplementedError(f"model {self.name} has no analytic connections")

    def ordering_bracket_term(self, x: PhasePoint, hbar: float) -> np.ndarray:
        """The -(hbar/2) <eps0> energy contribution, from the declared form."""
        raise NotImplementedError(
            "bracket term unavailable: no closed form or factorization declared"
        )

    def check_point(self, x: PhasePoint) -> None:
        if self.massless and np.linalg.norm(x.P) == 0.0:
            raise ValueError(f"|P| = 0 is not allowed for massless model {self.name}")

    def to_config(self) -> dict:
        raise NotImplementedError


class DiracElectric(Model):
    """Relativistic four-component electron in a static electric potential."""

    name = "dirac_electric"
    n = 4
    band_groups = (2, 2)
    groups = np.array([0, 0, 1, 1])
    has_analytic_frame = True
    bracket_closed_form = True   # eps0 = beta E(P) + e V(R) is a pure sum

    def __init__(self, m: float = 1.0, e: float = 1.0,
                 field: ScalarField | None = None):
        if m <= 0:
            raise ValueError("mass must be positive")
        self.m = float(m)
        self.e = float(e)
        self.field = field if field is not None else UniformField(0.0)

    def energy_scale(self, x: PhasePoint) -> float:
        return float(np.sqrt(x.P @ x.P + self.m ** 2))

    def hamiltonian(self, x: PhasePoint) -> np.ndarray:
        self.check_point(x)
        H = self.m * BETA + self.e * self.field.value(x.R) * np.eye(4)
        for i in range(3):
            H = H + x.P[i] * ALPHA[i]
        return H

    def d_hamiltonian(self, x: PhasePoint, axis: int) -> np.ndarray:
        if axis >= 3:
            return ALPHA[axis - 3].copy()
        return self.e * self.field.gradient(x.R)[axis] * np.eye(4)

    def d2_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        out = np.zeros((6, 6, 4, 4), dtype=complex)
        out[:3, :3] = self.e * np.multiply.outer(self.field.hessian(x.R),
                                                 np.eye(4))
        return out

    def d3_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        out = np.zeros((6, 6, 6, 4, 4), dtype=complex)
        out[:3, :3, :3] = self.e * np.multiply.outer(np.array(self.field.d3(x.R)),
                                                     np.eye(4))
        return out

    def analytic_frame(self, x: PhasePoint):
        # Free-particle Foldy-Wouthuysen rotation; the scalar potential rides along.
        E = self.energy_scale(x)
        bap = BETA @ sum(x.P[i] * ALPHA[i] for i in range(3))
        U0 = (((E + self.m) * np.eye(4) + bap)
              / np.sqrt(2 * E * (E + self.m)))
        W = self.e * self.field.value(x.R)
        eps0 = np.array([E + W, E + W, -E + W, -E + W])
        return eps0, U0

    def analytic_connections(self, x: PhasePoint):
        # The free-particle rotation gives (P x Sigma)/(2E(E+m)), R-free.
        E = self.energy_scale(x)
        pxs = p_cross_sigma(x.P, SIGMA)
        A_R = [a / (2 * E * (E + self.m)) for a in pxs]
        A_P = [np.zeros((4, 4), dtype=complex) for _ in range(3)]
        return A_R, A_P

    def d_analytic_connections(self, x: PhasePoint) -> np.ndarray:
        E = self.energy_scale(x)
        df = np.concatenate([np.zeros(3), (4 * E + 2 * self.m) * x.P / E])
        return _pxs_gauge_gradient(x.P, 2 * E * (E + self.m), df)

    def d2_analytic_connections(self, x: PhasePoint) -> np.ndarray:
        # f = 2E(E+m): grad_P f = (4E + 2m) P/E and
        # grad_P grad_P f = 4 + 2m (1/E - P P/E^3).
        E, m = self.energy_scale(x), self.m
        df = np.concatenate([np.zeros(3), (4 * E + 2 * m) * x.P / E])
        ddf = np.zeros((6, 6))
        ddf[3:, 3:] = (4 + 2 * m / E) * np.eye(3) - 2 * m * np.outer(x.P, x.P) / E ** 3
        return _pxs_gauge_hessian(x.P, 2 * E * (E + m), df, ddf)

    def ordering_bracket_term(self, x: PhasePoint, hbar: float) -> np.ndarray:
        return np.zeros((4, 4), dtype=complex)

    def to_config(self) -> dict:
        return {"model": self.name, "m": self.m, "e": self.e,
                "field": self.field.to_config()}


class NeutrinoMetric(Model):
    """Massless four-component particle in an isotropic static metric.

    The metric enters through F(R) = 1/n(R); H is the symmetrized product of
    alpha.P and F, which at a classical point is just F(R) alpha.P.
    """

    name = "neutrino_metric"
    n = 4
    band_groups = (2, 2)
    groups = np.array([0, 0, 1, 1])
    massless = True
    has_analytic_frame = True
    bracket_closed_form = True

    def __init__(self, profile: ScalarField | None = None):
        self.profile = profile if profile is not None else UniformField(1.0)
        self.F = ReciprocalField(self.profile)

    def index_value(self, r) -> float:
        return self.profile.value(r)

    def hamiltonian(self, x: PhasePoint) -> np.ndarray:
        self.check_point(x)
        return self.F.value(x.R) * sum(x.P[i] * ALPHA[i] for i in range(3))

    def d_hamiltonian(self, x: PhasePoint, axis: int) -> np.ndarray:
        if axis >= 3:
            return self.F.value(x.R) * ALPHA[axis - 3]
        ap = sum(x.P[i] * ALPHA[i] for i in range(3))
        return self.F.gradient(x.R)[axis] * ap

    def d2_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        _F, g, h = self.F.jet(x.R)
        ap = sum(x.P[i] * ALPHA[i] for i in range(3))
        out = np.zeros((6, 6, 4, 4), dtype=complex)
        out[:3, :3] = np.multiply.outer(np.array(h), ap)
        out[:3, 3:] = np.multiply.outer(np.array(g), np.array(ALPHA))
        out[3:, :3] = out[:3, 3:].swapaxes(0, 1)
        return out

    def d3_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        h = np.array(self.F.jet(x.R)[2])
        ap = sum(x.P[i] * ALPHA[i] for i in range(3))
        out = np.zeros((6, 6, 6, 4, 4), dtype=complex)
        out[:3, :3, :3] = np.multiply.outer(np.array(self.F.d3(x.R)), ap)
        rrp = np.multiply.outer(h, np.array(ALPHA))     # [i, j, k] = F_ij alpha_k
        out[:3, :3, 3:] = rrp
        out[:3, 3:, :3] = rrp.transpose(0, 2, 1, 3, 4)
        out[3:, :3, :3] = rrp.transpose(2, 0, 1, 3, 4)
        return out

    def analytic_frame(self, x: PhasePoint):
        self.check_point(x)
        E = float(np.linalg.norm(x.P))
        bap = BETA @ sum(x.P[i] * ALPHA[i] for i in range(3))
        U0 = (E * np.eye(4) + bap) / np.sqrt(2 * E ** 2)
        Fv = self.F.value(x.R)
        eps0 = np.array([Fv * E, Fv * E, -Fv * E, -Fv * E])
        return eps0, U0

    def analytic_connections(self, x: PhasePoint):
        # Massless limit of the free-particle rotation: (P x Sigma)/(2|P|^2).
        self.check_point(x)
        E2 = float(x.P @ x.P)
        A_R = [a / (2 * E2) for a in p_cross_sigma(x.P, SIGMA)]
        A_P = [np.zeros((4, 4), dtype=complex) for _ in range(3)]
        return A_R, A_P

    def d_analytic_connections(self, x: PhasePoint) -> np.ndarray:
        self.check_point(x)
        df = np.concatenate([np.zeros(3), 4 * x.P])
        return _pxs_gauge_gradient(x.P, 2 * float(x.P @ x.P), df)

    def d2_analytic_connections(self, x: PhasePoint) -> np.ndarray:
        self.check_point(x)
        df = np.concatenate([np.zeros(3), 4 * x.P])
        ddf = np.zeros((6, 6))
        ddf[3:, 3:] = 4 * np.eye(3)
        return _pxs_gauge_hessian(x.P, 2 * float(x.P @ x.P), df, ddf)

    def ordering_bracket_term(self, x: PhasePoint, hbar: float) -> np.ndarray:
        # Closed form declared by the model: -(hbar^2 / 4|P|) P.grad F, times 1.
        E = float(np.linalg.norm(x.P))
        val = -(hbar ** 2) / (4 * E) * float(x.P @ self.F.gradient(x.R))
        return val * np.eye(4, dtype=complex)

    def to_config(self) -> dict:
        return {"model": self.name, "field": self.profile.to_config()}


@dataclass(frozen=True)
class ComponentTerm:
    """One product term c * R^r_exp P^p_exp of a two-level component.

    ``sym`` fixes the operator ordering the term stands for: "half" is the
    half-symmetrized product (A B + B A)/2, "rp" the normally ordered A(R)B(P).
    Classically both evaluate to the same number; they differ in the exact
    ordering bracket.
    """

    coef: Fraction
    r_exp: tuple
    p_exp: tuple
    sym: str = "half"

    def value(self, x: PhasePoint) -> float:
        v = float(self.coef)
        for i in range(3):
            v *= x.R[i] ** self.r_exp[i] * x.P[i] ** self.p_exp[i]
        return v

    def derivative(self, x: PhasePoint, axes: tuple) -> float:
        """The partial derivative along the phase axes in `axes` (0-2: R,
        3-5: P; repeats allowed)."""
        exps = list(self.r_exp + self.p_exp)
        k = 1
        for a in axes:
            k *= exps[a]
            exps[a] -= 1
        if not k:
            return 0.0
        v = float(self.coef) * k
        coords = tuple(x.R) + tuple(x.P)
        for i in range(6):
            v *= coords[i] ** exps[i]
        return v

    def derivatives(self, x: PhasePoint, order: int) -> np.ndarray:
        """Every partial derivative of the given order, (6,) * order."""
        out = np.zeros((6,) * order)
        live = [a for a, e in enumerate(self.r_exp + self.p_exp) if e]
        for axes in itertools.product(live, repeat=order):
            out[axes] = self.derivative(x, axes)
        return out

    def factorizations(self, n: int = 1) -> list:
        """The declared ordering as weyl factorizations (sum of products)."""
        c = weyl.QC.of(self.coef)
        A = weyl.WeylExpr.monomial(self.r_exp, (0, 0, 0), n=n)
        B = weyl.WeylExpr.monomial((0, 0, 0), self.p_exp, n=n)
        if self.sym == "rp":
            return [weyl.Factorization([("R", A.scaled(c)), ("P", B)])]
        half = weyl.QC.of(Fraction(1, 2)) * c
        return [
            weyl.Factorization([("R", A.scaled(half)), ("P", B)]),
            weyl.Factorization([("P", B.scaled(half)), ("R", A)]),
        ]


def _terms_from_config(terms_cfg) -> tuple:
    out = []
    for t in terms_cfg:
        out.append(ComponentTerm(
            coef=Fraction(str(t["coef"])),
            r_exp=tuple(int(v) for v in t.get("r_exp", [0, 0, 0])),
            p_exp=tuple(int(v) for v in t.get("p_exp", [0, 0, 0])),
            sym=t.get("sym", "half"),
        ))
    return tuple(out)


DEFAULT_TWO_LEVEL = {
    "h0": [{"coef": "3/10", "r_exp": [1, 0, 0], "p_exp": [0, 1, 0]}],
    "h": [
        [],
        [],
        [{"coef": "1"},
         {"coef": "1/5", "r_exp": [2, 0, 0]},
         {"coef": "1/10", "p_exp": [0, 0, 2]}],
    ],
}


class TwoLevel(Model):
    """Generic two-level Hamiltonian h0(R,P) 1 + h(R,P).sigma."""

    name = "two_level"
    n = 2
    band_groups = (1, 1)
    groups = np.array([0, 1])
    has_analytic_frame = True

    def __init__(self, h0_terms=None, h_terms=None):
        cfg = DEFAULT_TWO_LEVEL
        self.h0 = _terms_from_config(cfg["h0"] if h0_terms is None else h0_terms)
        raw_h = cfg["h"] if h_terms is None else h_terms
        self.h = tuple(_terms_from_config(part) for part in raw_h)
        if len(self.h) != 3:
            raise ValueError("two_level needs exactly three sigma components")
        # eps0 = h0 +/- h3 stays polynomial only when h is purely along z.
        self.z_only = not self.h[0] and not self.h[1]
        self.bracket_closed_form = self.z_only
        if self.z_only:
            # eps0 bands are h0 +/- h3; the bracket acts on the declared
            # forms exactly, through the symbolic module, once per model.
            self._band_brackets = [self._band_bracket(s) for s in (1.0, -1.0)]

    def _band_bracket(self, sign: float):
        expr = weyl.WeylExpr.zero(1)
        for term in self.h0:
            for f in term.factorizations():
                expr = expr + f.bracket()
        for term in self.h[2]:
            for f in term.factorizations():
                b = f.bracket()
                expr = expr + (b if sign > 0 else -b)
        return expr

    def _component(self, terms, x: PhasePoint) -> float:
        return sum(t.value(x) for t in terms)

    def _component_grad(self, terms, x: PhasePoint, axis: int) -> float:
        return sum(t.derivative(x, (axis,)) for t in terms)

    def _component_derivs(self, terms, x: PhasePoint, order: int) -> np.ndarray:
        return sum((t.derivatives(x, order) for t in terms),
                   np.zeros((6,) * order))

    def h_vector(self, x: PhasePoint) -> np.ndarray:
        return np.array([self._component(part, x) for part in self.h])

    def hamiltonian(self, x: PhasePoint) -> np.ndarray:
        h = self.h_vector(x)
        return (self._component(self.h0, x) * S0
                + h[0] * SX + h[1] * SY + h[2] * SZ)

    def d_hamiltonian(self, x: PhasePoint, axis: int) -> np.ndarray:
        dh0 = self._component_grad(self.h0, x, axis)
        dh = [self._component_grad(part, x, axis) for part in self.h]
        return dh0 * S0 + dh[0] * SX + dh[1] * SY + dh[2] * SZ

    def d2_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        return self._sigma_derivs(x, 2)

    def d3_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        return self._sigma_derivs(x, 3)

    def _sigma_derivs(self, x: PhasePoint, order: int) -> np.ndarray:
        out = np.multiply.outer(self._component_derivs(self.h0, x, order), S0)
        for part, s in zip(self.h, (SX, SY, SZ)):
            out = out + np.multiply.outer(self._component_derivs(part, x, order), s)
        return out

    def analytic_frame(self, x: PhasePoint):
        h = self.h_vector(x)
        hn = float(np.linalg.norm(h))
        if hn == 0.0:
            raise ValueError("two_level bands are degenerate where |h| = 0")
        h0 = self._component(self.h0, x)
        eps0 = np.array([h0 + hn, h0 - hn])
        ct = h[2] / hn                       # cos(theta)
        hp = float(np.hypot(h[0], h[1]))
        phase = (h[0] + 1j * h[1]) / hp if hp > 0 else 1.0 + 0j
        c2 = np.sqrt((1.0 + ct) / 2.0)
        s2 = np.sqrt((1.0 - ct) / 2.0)
        plus = np.array([c2, s2 * phase])
        minus = np.array([-s2 * np.conj(phase), c2])
        V = np.column_stack([plus, minus])
        return eps0, V.conj().T

    def _grad_h(self, x: PhasePoint, parts) -> np.ndarray:
        return np.array([[self._component_grad(part, x, a) for a in range(6)]
                         for part in parts])

    def _gauge(self, x: PhasePoint):
        """(h, |h|, lift, grad (h1, h2) as (2, 6)) of the gauge term below;
        raises where the declared gauge is singular."""
        h = self.h_vector(x)
        h1, h2, h3 = h
        hn = float(np.linalg.norm([h1, h2, h3]))
        lift = hn + h3 if h3 >= 0 else (h1 ** 2 + h2 ** 2) / (hn - h3)
        d = self._grad_h(x, self.h[:2])
        if lift == 0.0 and (hn == 0.0 or d[0].any() or d[1].any()):
            raise ValueError("two_level gauge is singular at h1 = h2 = 0, h3 <= 0")
        return h, hn, lift, d

    @staticmethod
    def _gauge_stack(w: np.ndarray) -> np.ndarray:
        """(A_R, A_P) stacked for the within-group X = i w diag(1, -1):
        A^{R_l} = diag(-w_{P_l}, w_{P_l}), A^{P_l} = diag(w_{R_l}, -w_{R_l});
        w may carry leading axes, (..., 6) -> (..., 6, 2, 2)."""
        c = np.concatenate([-w[..., 3:], w[..., :3]], axis=-1)
        out = np.zeros(c.shape + (2, 2), dtype=complex)
        out[..., 0, 0], out[..., 1, 1] = c, -c
        return out

    def analytic_connections(self, x: PhasePoint):
        # U0 grad U0^+ = i s^2 grad phi diag(1, -1) within the groups, with
        # phi = arg(h1 + i h2), s^2 = (1 - h3/|h|)/2: s^2 grad phi = (h1 grad h2
        # - h2 grad h1)/(2|h| lift), lift = |h| + h3 = hp^2/(|h| - h3) for h3 < 0.
        (h1, h2, _h3), hn, lift, d = self._gauge(x)
        w = (h1 * d[1] - h2 * d[0]) / (2 * hn * lift) if lift else np.zeros(6)
        G = self._gauge_stack(w)
        return list(G[:3]), list(G[3:])

    def d_analytic_connections(self, x: PhasePoint) -> np.ndarray:
        dw = self._gauge_derivatives(x, second=False)[0]
        if dw is None:
            return np.zeros((6, 6, 2, 2), dtype=complex)
        return self._gauge_stack(dw)

    def d2_analytic_connections(self, x: PhasePoint) -> np.ndarray:
        ddw = self._gauge_derivatives(x, second=True)[1]
        if ddw is None:
            return np.zeros((6, 6, 6, 2, 2), dtype=complex)
        return self._gauge_stack(ddw)

    def _gauge_derivatives(self, x: PhasePoint, second: bool):
        """(grad w, grad grad w or None) by the quotient rule on w = N / Q,
        N = h1 grad h2 - h2 grad h1, Q = 2 |h| lift, on either branch of
        lift: grad w = dN/Q - N dQ/Q^2 and grad grad w = ddN/Q
        - (dN dQ + dQ dN)/Q^2 - N ddQ/Q^2 + 2 N dQ dQ/Q^3.  (None, None)
        where lift = 0 and the term is 0."""
        h, hn, lift, d = self._gauge(x)
        if not lift:
            return None, None
        h1, h2, h3 = h
        d = np.concatenate([d, self._grad_h(x, self.h[2:])])
        dd = [self._component_derivs(part, x, 2)
              for part in (self.h if second else self.h[:2])]
        dn = h @ d / hn                                   # grad |h|
        if h3 >= 0:
            dlift = dn + d[2]
        else:
            dlift = (2 * (h1 * d[0] + h2 * d[1]) - lift * (dn - d[2])) / (hn - h3)
        N = h1 * d[1] - h2 * d[0]
        dN = (np.outer(d[0], d[1]) - np.outer(d[1], d[0])
              + h1 * dd[1] - h2 * dd[0])
        Q = 2 * hn * lift
        dQ = 2 * (dn * lift + hn * dlift)
        dw = dN / Q - np.outer(dQ, N) / Q ** 2
        if not second:
            return dw, None

        (d0, d1, _), (dd0, dd1, dd2) = d, dd
        ddd0, ddd1 = (self._component_derivs(part, x, 3) for part in self.h[:2])
        ddn = (d.T @ d + np.tensordot(h, np.array(dd), 1)
               - np.outer(dn, dn)) / hn
        if h3 >= 0:
            ddlift = ddn + dd2
        else:
            # lift (|h| - h3) = h1^2 + h2^2, differentiated twice.
            dT = dn - d[2]
            ddS = 2 * (np.outer(d0, d0) + h1 * dd0 + np.outer(d1, d1) + h2 * dd1)
            ddlift = (ddS - np.outer(dlift, dT) - np.outer(dT, dlift)
                      - lift * (ddn - dd2)) / (hn - h3)
        # ddN[c, b, a] = d_c dN[b, a].
        ddN = (np.einsum("cb,a->cba", dd0, d1) - np.einsum("cb,a->cba", dd1, d0)
               + np.einsum("b,ca->cba", d0, dd1) - np.einsum("b,ca->cba", d1, dd0)
               + np.einsum("c,ba->cba", d0, dd1) - np.einsum("c,ba->cba", d1, dd0)
               + h1 * ddd1 - h2 * ddd0)
        ddQ = 2 * (ddn * lift + np.outer(dn, dlift) + np.outer(dlift, dn)
                   + hn * ddlift)
        ddw = (ddN / Q
               - (dN[None] * dQ[:, None, None] + dN[:, None] * dQ[None, :, None])
               / Q ** 2
               + np.multiply.outer(2 * np.outer(dQ, dQ) / Q ** 3 - ddQ / Q ** 2, N))
        return dw, ddw

    def ordering_bracket_term(self, x: PhasePoint, hbar: float) -> np.ndarray:
        if not self.bracket_closed_form:
            raise NotImplementedError(
                "bracket term unavailable: h is not purely along sigma_z"
            )
        out = np.zeros((2, 2), dtype=complex)
        for band, expr in enumerate(self._band_brackets):
            out[band, band] = complex(expr.evaluate(x.R, x.P, hbar)[0, 0])
        return -(hbar / 2.0) * out

    def to_config(self) -> dict:
        def dump(terms):
            return [{"coef": str(t.coef), "r_exp": list(t.r_exp),
                     "p_exp": list(t.p_exp), "sym": t.sym} for t in terms]
        return {"model": self.name, "h0": dump(self.h0),
                "h": [dump(part) for part in self.h]}


def make_model(cfg: dict) -> Model:
    """Build a model from its JSON configuration (see README for the schema)."""
    if not isinstance(cfg, dict) or "model" not in cfg:
        raise ValueError("model config must be a dict with a 'model' key")
    name = cfg["model"]
    if name == "dirac_electric":
        field = make_field(cfg["field"]) if "field" in cfg else None
        return DiracElectric(m=cfg.get("m", 1.0), e=cfg.get("e", 1.0), field=field)
    if name == "neutrino_metric":
        profile = make_field(cfg["field"]) if "field" in cfg else None
        return NeutrinoMetric(profile=profile)
    if name == "two_level":
        return TwoLevel(h0_terms=cfg.get("h0"), h_terms=cfg.get("h"))
    raise ValueError(f"unknown model {name!r}")
