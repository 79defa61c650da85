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
from functools import cached_property

import numpy as np

from semiband.fields import ScalarField, ReciprocalField, UniformField, make_field
from semiband import weyl

__all__ = [
    "PhasePoint",
    "Model",
    "PxSigmaGauge",
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
    SIGMA); P may be one 3-vector or a batch (N, 3)."""
    p = [P[..., i, None, None] for i in range(3)]
    return [p[1] * sigma[2] - p[2] * sigma[1],
            p[2] * sigma[0] - p[0] * sigma[2],
            p[0] * sigma[1] - p[1] * sigma[0]]


# [b, l] = (e_b x Sigma)_l, the P_b derivative of (P x Sigma)_l.
_E_CROSS_SIGMA = np.array([p_cross_sigma(e, SIGMA) for e in np.eye(3)])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis, rounded like the 1-d `a @ b` of one point
    (einsum sums in another order)."""
    if a.ndim == 1:
        return a @ b
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Outer product over the last axes: (..., k), (..., l) -> (..., k, l)."""
    return a[..., :, None] * b[..., None, :]


def _pow(a, e: int) -> np.ndarray:
    """a ** e elementwise with the scalar pow of per-point code; numpy's array
    power rounds differently for e >= 2."""
    a = np.asarray(a, dtype=float)
    if not a.ndim:
        return np.float64(float(a) ** e)
    return np.array([v ** e for v in a.ravel().tolist()]).reshape(a.shape)


_EYE3, _EYE4 = np.eye(3), np.eye(4)
# eps0 = E (1, 1, -1, -1) + W: the products with +-1 are exact.
_SIGNS4, _SIGNS2 = np.array([1.0, 1.0, -1.0, -1.0]), np.array([1.0, -1.0])


def _ap(P: np.ndarray) -> np.ndarray:
    """alpha.P, (..., 4, 4)."""
    return sum(P[..., i, None, None] * ALPHA[i] for i in range(3))


def _jet(field: ScalarField, R: np.ndarray, hessian: bool = False) -> tuple:
    """(value, gradient[, hessian]) of a field at R of shape (3,) or (N, 3),
    from the float jet point by point."""
    parts = 3 if hessian else 2
    if R.ndim == 1:
        return tuple(map(np.array, field.jet(R)[:parts]))
    jets = [field.jet(r) for r in R.tolist()]
    return tuple(map(np.array, list(zip(*jets))[:parts]))


def _d3(field: ScalarField, R: np.ndarray) -> np.ndarray:
    """The third derivatives of a field at R (3,) or (N, 3), (..., 3, 3, 3)."""
    return np.array([field.d3(r) for r in np.reshape(R, (-1, 3)).tolist()]
                    ).reshape(R.shape[:-1] + (3, 3, 3))


def _pxs_gauge_gradient(P: np.ndarray, f, df: np.ndarray) -> np.ndarray:
    """grad_b of the gauge stack ((P x Sigma)/f, 0) as (..., 6 b, 6 a, 4, 4),
    for a scalar f(R, P) with gradient df (..., 6) over the six axes."""
    f = np.asarray(f)
    out = np.zeros(f.shape + (6, 6, 4, 4), dtype=complex)
    pxs = np.stack(p_cross_sigma(P, SIGMA), axis=-3)
    out[..., :3, :, :] = -((df / _pow(f, 2)[..., None])[..., None, None, None]
                           * pxs[..., None, :, :, :])
    out[..., 3:, :3, :, :] += _E_CROSS_SIGMA / f[..., None, None, None, None]
    return out


def _pxs_gauge_hessian(P: np.ndarray, f, df: np.ndarray,
                       ddf: np.ndarray) -> np.ndarray:
    """grad_c grad_b of the gauge stack ((P x Sigma)/f, 0) as
    (..., 6 c, 6 b, 6 a, 4, 4), for a scalar f(R, P) with gradient df and
    hessian ddf over the six axes."""
    f = np.asarray(f)
    f2, f3 = _pow(f, 2)[..., None, None], _pow(f, 3)[..., None, None]
    out = np.zeros(f.shape + (6, 6, 6, 4, 4), dtype=complex)
    pxs = np.stack(p_cross_sigma(P, SIGMA), axis=-3)
    out[..., :3, :, :] = ((2 * (df[..., :, None] * df[..., None, :]) / f3
                           - ddf / f2)[..., None, None, None]
                          * pxs[..., None, None, :, :, :])
    # t[b, c, a] = -(df_b / f^2) (e_c x Sigma)_a, c a momentum axis.
    t = (-df / f2[..., 0])[..., None, None, None, None] * _E_CROSS_SIGMA
    out[..., :, 3:, :3, :, :] += t
    out[..., 3:, :, :3, :, :] += t.swapaxes(-5, -4)
    return out


@dataclass(frozen=True)
class PhasePoint:
    """Classical phase-space point (R, P), both real 3-vectors, or a batch
    of N points with R and P of shape (N, 3)."""

    R: np.ndarray
    P: np.ndarray

    @staticmethod
    def of(R, P) -> "PhasePoint":
        R = np.asarray(R, dtype=float).reshape(3)
        P = np.asarray(P, dtype=float).reshape(3)
        if not (np.all(np.isfinite(R)) and np.all(np.isfinite(P))):
            raise ValueError("phase point must have finite components")
        return PhasePoint(R, P)

    @staticmethod
    def stack(points) -> "PhasePoint":
        """The batch of the given single points, R and P of shape (N, 3)."""
        return PhasePoint(np.array([x.R for x in points]),
                          np.array([x.P for x in points]))

    @property
    def batch_shape(self) -> tuple:
        """() for one point, (N,) for a batch."""
        return self.R.shape[:-1]

    def point(self, i: int) -> "PhasePoint":
        """Point i of a batch."""
        return PhasePoint(self.R[i], self.P[i])

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
    """Shared interface of the built-in Hamiltonians.

    Every method takes one point or a batch (`PhasePoint.batch_shape` () or
    (N,)) and returns its arrays with the batch axis in front: H is
    (..., n, n), the phase-axis stacks (..., 6, n, n), (..., 6, 6, n, n) and
    so on.
    """

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

    def d_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        """Analytic dH over the phase axes (0-2: R components, 3-5: P),
        (..., 6, n, n)."""
        raise NotImplementedError

    def d2_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        """The analytic Hessian of H over the phase axes, (..., 6, 6, n, n)."""
        raise NotImplementedError

    def d3_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        """The analytic third derivatives of H, (..., 6, 6, 6, n, n)."""
        raise NotImplementedError

    def analytic_frame(self, x: PhasePoint):
        raise NotImplementedError(f"model {self.name} has no analytic frame")

    def analytic_connections(self, x: PhasePoint):
        """(A_R, A_P), each (..., 3, n, n): the within-group parts of
        i U0 grad_P U0^+ and -i U0 grad_R U0^+ in the gauge of
        `analytic_frame`."""
        raise NotImplementedError(f"model {self.name} has no analytic connections")

    def d_analytic_connections(self, x: PhasePoint) -> np.ndarray:
        """grad_b of the stacked gauge term (A_R, A_P) of
        `analytic_connections`, as (..., 6 b, 6 a, n, n)."""
        raise NotImplementedError(f"model {self.name} has no analytic connections")

    def d2_analytic_connections(self, x: PhasePoint) -> np.ndarray:
        """grad_c grad_b of the stacked gauge term, as
        (..., 6 c, 6 b, 6 a, n, n)."""
        raise NotImplementedError(f"model {self.name} has no analytic connections")

    def ordering_bracket_term(self, x: PhasePoint, hbar: float) -> np.ndarray:
        """The -(hbar/2) <eps0> energy contribution, from the declared form."""
        raise NotImplementedError(
            "bracket term unavailable: no closed form or factorization declared"
        )

    def check_point(self, x: PhasePoint) -> None:
        if self.massless and (_dot(x.P, x.P) == 0.0).any():
            raise ValueError(f"|P| = 0 is not allowed for massless model {self.name}")

    def to_config(self) -> dict:
        raise NotImplementedError


class PxSigmaGauge(Model):
    """A four-band model whose within-group gauge term is ((P x Sigma)/f, 0)
    for a scalar f(R, P), given with its derivatives by `_gauge_f`."""

    def _gauge_f(self, x: PhasePoint, hessian: bool = False) -> tuple:
        """(f, grad f) over the six axes, and grad grad f if `hessian`."""
        raise NotImplementedError

    def analytic_connections(self, x: PhasePoint):
        A_R = (np.stack(p_cross_sigma(x.P, SIGMA), axis=-3)
               / self._gauge_f(x)[0][..., None, None, None])
        return A_R, np.zeros_like(A_R)

    def d_analytic_connections(self, x: PhasePoint) -> np.ndarray:
        return _pxs_gauge_gradient(x.P, *self._gauge_f(x))

    def d2_analytic_connections(self, x: PhasePoint) -> np.ndarray:
        return _pxs_gauge_hessian(x.P, *self._gauge_f(x, hessian=True))


class DiracElectric(PxSigmaGauge):
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

    def energy_scale(self, x: PhasePoint):
        return np.sqrt(_dot(x.P, x.P) + self.m ** 2)

    def hamiltonian(self, x: PhasePoint) -> np.ndarray:
        self.check_point(x)
        V = _jet(self.field, x.R)[0]
        H = self.m * BETA + (self.e * V)[..., None, None] * _EYE4
        for i in range(3):
            H = H + x.P[..., i, None, None] * ALPHA[i]
        return H

    def d_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        g = _jet(self.field, x.R)[1]
        out = np.empty(x.batch_shape + (6, 4, 4), dtype=complex)
        out[..., :3, :, :] = (self.e * g)[..., None, None] * _EYE4
        out[..., 3:, :, :] = ALPHA
        return out

    def d2_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        out = np.zeros(x.batch_shape + (6, 6, 4, 4), dtype=complex)
        hess = _jet(self.field, x.R, hessian=True)[2]
        out[..., :3, :3, :, :] = self.e * (hess[..., None, None] * _EYE4)
        return out

    def d3_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        out = np.zeros(x.batch_shape + (6, 6, 6, 4, 4), dtype=complex)
        d3 = _d3(self.field, x.R)
        out[..., :3, :3, :3, :, :] = self.e * (d3[..., None, None] * _EYE4)
        return out

    def analytic_frame(self, x: PhasePoint):
        # Free-particle Foldy-Wouthuysen rotation; the scalar potential rides along.
        E = self.energy_scale(x)
        bap = BETA @ _ap(x.P)
        U0 = (((E + self.m)[..., None, None] * _EYE4 + bap)
              / np.sqrt(2 * E * (E + self.m))[..., None, None])
        W = self.e * _jet(self.field, x.R)[0]
        return E[..., None] * _SIGNS4 + W[..., None], U0

    def _gauge_f(self, x: PhasePoint, hessian: bool = False) -> tuple:
        """The free-particle rotation gives f = 2E(E+m), R-free, with
        grad_P f = (4E + 2m) P/E and
        grad_P grad_P f = 4 + 2m (1/E - P P/E^3)."""
        E, m = self.energy_scale(x), self.m
        df = np.zeros(x.batch_shape + (6,))
        df[..., 3:] = (4 * E + 2 * m)[..., None] * x.P / E[..., None]
        if not hessian:
            return 2 * E * (E + m), df
        ddf = np.zeros(x.batch_shape + (6, 6))
        ddf[..., 3:, 3:] = ((4 + 2 * m / E)[..., None, None] * _EYE3
                            - 2 * m * (x.P[..., :, None] * x.P[..., None, :])
                            / _pow(E, 3)[..., None, None])
        return 2 * E * (E + m), df, ddf

    def ordering_bracket_term(self, x: PhasePoint, hbar: float) -> np.ndarray:
        return np.zeros(x.batch_shape + (4, 4), dtype=complex)

    def to_config(self) -> dict:
        return {"model": self.name, "m": self.m, "e": self.e,
                "field": self.field.to_config()}


class NeutrinoMetric(PxSigmaGauge):
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
        return _jet(self.F, x.R)[0][..., None, None] * _ap(x.P)

    def d_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        Fv, g = _jet(self.F, x.R)
        out = np.empty(x.batch_shape + (6, 4, 4), dtype=complex)
        out[..., :3, :, :] = g[..., None, None] * _ap(x.P)[..., None, :, :]
        out[..., 3:, :, :] = Fv[..., None, None, None] * np.array(ALPHA)
        return out

    def d2_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        _F, g, h = _jet(self.F, x.R, hessian=True)
        ap = _ap(x.P)[..., None, None, :, :]
        out = np.zeros(x.batch_shape + (6, 6, 4, 4), dtype=complex)
        out[..., :3, :3, :, :] = h[..., None, None] * ap
        out[..., :3, 3:, :, :] = g[..., :, None, None, None] * np.array(ALPHA)
        out[..., 3:, :3, :, :] = out[..., :3, 3:, :, :].swapaxes(-4, -3)
        return out

    def d3_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        h = _jet(self.F, x.R, hessian=True)[2]
        ap = _ap(x.P)[..., None, None, None, :, :]
        out = np.zeros(x.batch_shape + (6, 6, 6, 4, 4), dtype=complex)
        out[..., :3, :3, :3, :, :] = _d3(self.F, x.R)[..., None, None] * ap
        # rrp[i, j, k] = F_ij alpha_k, placed at [i, j, k], [i, k, j], [k, i, j].
        rrp = h[..., :, :, None, None, None] * np.array(ALPHA)
        out[..., :3, :3, 3:, :, :] = rrp
        out[..., :3, 3:, :3, :, :] = rrp.swapaxes(-4, -3)
        out[..., 3:, :3, :3, :, :] = rrp.swapaxes(-5, -3).swapaxes(-4, -3)
        return out

    def analytic_frame(self, x: PhasePoint):
        self.check_point(x)
        E = np.sqrt(_dot(x.P, x.P))
        bap = BETA @ _ap(x.P)
        U0 = ((E[..., None, None] * _EYE4 + bap)
              / np.sqrt(2 * _pow(E, 2))[..., None, None])
        return (_jet(self.F, x.R)[0] * E)[..., None] * _SIGNS4, U0

    def _gauge_f(self, x: PhasePoint, hessian: bool = False) -> tuple:
        """The massless limit of the free-particle rotation: f = 2|P|^2,
        grad f = 4 P and grad_P grad_P f = 4."""
        self.check_point(x)
        df = np.zeros(x.batch_shape + (6,))
        df[..., 3:] = 4 * x.P
        if not hessian:
            return 2 * _dot(x.P, x.P), df
        ddf = np.zeros(x.batch_shape + (6, 6))
        ddf[..., 3:, 3:] = 4 * _EYE3
        return 2 * _dot(x.P, x.P), df, ddf

    def ordering_bracket_term(self, x: PhasePoint, hbar: float) -> np.ndarray:
        # Closed form declared by the model: -(hbar^2 / 4|P|) P.grad F, times 1.
        E = np.sqrt(_dot(x.P, x.P))
        val = -(hbar ** 2) / (4 * E) * _dot(x.P, _jet(self.F, x.R)[1])
        return val[..., None, None] * np.eye(4, dtype=complex)

    def to_config(self) -> dict:
        return {"model": self.name, "field": self.profile.to_config()}


def _coords(x: PhasePoint) -> list:
    """The six phase coordinates: floats for one point, (N,) arrays for a
    batch."""
    if not x.batch_shape:
        return x.R.tolist() + x.P.tolist()
    return list(x.R.T) + list(x.P.T)


def _power(c, e: int):
    """c ** e as per-point code rounds it; None for e = 0, a factor of 1."""
    if e == 0:
        return None
    if e == 1:
        return c
    return c ** e if isinstance(c, float) else _pow(c, e)


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

    def value(self, x: PhasePoint):
        return self._value(_coords(x))

    # The helpers below take `_coords`; each product runs in the same order
    # for a batch as for one point, so a batch rounds like a single point.

    @cached_property
    def _coef(self) -> float:
        return float(self.coef)

    def _value(self, c: list):
        v = self._coef
        for i in range(3):
            a, b = _power(c[i], self.r_exp[i]), _power(c[3 + i], self.p_exp[i])
            f = b if a is None else a if b is None else a * b
            if f is not None:
                v = v * f
        return v

    def _derivative(self, c: list, axes: tuple):
        """The partial derivative along the phase axes in `axes` (0-2: R,
        3-5: P; repeats allowed)."""
        exps = list(self.r_exp + self.p_exp)
        k = 1
        for a in axes:
            k *= exps[a]
            exps[a] -= 1
        if not k:
            return 0.0
        v = self._coef * k
        for ci, e in zip(c, exps):
            if e:
                v = v * _power(ci, e)
        return v

    def _add_derivatives(self, out: np.ndarray, c: list, order: int) -> None:
        """out[..., a, b, ...] += every partial derivative of the order."""
        live = [a for a, e in enumerate(self.r_exp + self.p_exp) if e]
        for axes in itertools.product(live, repeat=order):
            out[(Ellipsis, *axes)] += self._derivative(c, axes)

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
        self.parts = (self.h0, *self.h)
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

    def _values(self, parts, x: PhasePoint) -> np.ndarray:
        """The components `parts` (term lists) at x, (len(parts), ...)."""
        c = _coords(x)
        sums = [sum(t._value(c) for t in terms) for terms in parts]
        if not x.batch_shape:
            return np.array(sums, dtype=float)
        return np.array([v + np.zeros(x.batch_shape) for v in sums])

    def _derivs(self, parts, x: PhasePoint, order: int) -> np.ndarray:
        """Every partial derivative of the given order of the components
        `parts`, (len(parts), ..., 6, ..., 6)."""
        out = np.zeros((len(parts),) + x.batch_shape + (6,) * order)
        c = _coords(x)
        for k, terms in enumerate(parts):
            for t in terms:
                t._add_derivatives(out[k], c, order)
        return out

    def h_vector(self, x: PhasePoint) -> np.ndarray:
        return self._values(self.h, x).T.copy()

    def hamiltonian(self, x: PhasePoint) -> np.ndarray:
        return self._sigma(self._values(self.parts, x))

    def d_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        return self._sigma(self._derivs(self.parts, x, 1))

    def d2_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        return self._sigma(self._derivs(self.parts, x, 2))

    def d3_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        return self._sigma(self._derivs(self.parts, x, 3))

    @staticmethod
    def _sigma(c) -> np.ndarray:
        """c0 1 + c1 sigma_x + c2 sigma_y + c3 sigma_z for coefficient arrays
        of any shape, (..., 2, 2)."""
        out = c[0][..., None, None] * S0
        for ck, s in zip(c[1:], (SX, SY, SZ)):
            out = out + ck[..., None, None] * s
        return out

    def analytic_frame(self, x: PhasePoint):
        h = self.h_vector(x)
        hn = np.sqrt(_dot(h, h))
        if (hn == 0.0).any():
            raise ValueError("two_level bands are degenerate where |h| = 0")
        h0 = self._values([self.h0], x)[0]
        eps0 = h0[..., None] + hn[..., None] * _SIGNS2
        h1, h2, h3 = h[..., 0], h[..., 1], h[..., 2]
        ct = h3 / hn                         # cos(theta)
        hp = np.hypot(h1, h2)
        on = hp > 0
        phase = np.where(on, (h1 + 1j * h2) / np.where(on, hp, 1.0), 1.0 + 0j)
        c2 = np.sqrt((1.0 + ct) / 2.0)
        s2 = np.sqrt((1.0 - ct) / 2.0)
        V = np.empty(x.batch_shape + (2, 2), dtype=complex)
        V[..., 0, 0], V[..., 1, 0] = c2, s2 * phase
        V[..., 0, 1], V[..., 1, 1] = -s2 * np.conj(phase), c2
        return eps0, V.conj().swapaxes(-1, -2)

    def _gauge(self, x: PhasePoint):
        """(h, |h|, lift, grad h as (3, ..., 6)) of the gauge term below;
        raises where the declared gauge is singular."""
        h = self.h_vector(x)
        h1, h2, h3 = h[..., 0], h[..., 1], h[..., 2]
        hn = np.sqrt(_dot(h, h))
        up = h3 >= 0
        lift = hn + h3
        if not up.all():
            lift = np.where(up, lift, (_pow(h1, 2) + _pow(h2, 2))
                            / np.where(up, 1.0, hn - h3))
        d = self._derivs(self.h, x, 1)
        flat = lift == 0.0
        if flat.any() and (flat & ((hn == 0.0) | d[0].any(axis=-1)
                                   | d[1].any(axis=-1))).any():
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
        h, hn, lift, d = self._gauge(x)
        on = lift != 0
        w = ((h[..., 0, None] * d[1] - h[..., 1, None] * d[0])
             / np.where(on, 2 * hn * lift, 1.0)[..., None])
        w[~on] = 0.0
        G = self._gauge_stack(w)
        return G[..., :3, :, :], G[..., 3:, :, :]

    def d_analytic_connections(self, x: PhasePoint) -> np.ndarray:
        dw, on = self._gauge_derivatives(x, second=False)[::2]
        return self._live_stack(dw, on, x.batch_shape + (6, 6, 2, 2))

    def d2_analytic_connections(self, x: PhasePoint) -> np.ndarray:
        _dw, ddw, on = self._gauge_derivatives(x, second=True)
        return self._live_stack(ddw, on, x.batch_shape + (6, 6, 6, 2, 2))

    def _live_stack(self, w, on, shape) -> np.ndarray:
        """`_gauge_stack(w)` where the gauge term lives, 0 where lift = 0."""
        if w is None:
            return np.zeros(shape, dtype=complex)
        on = on.reshape(on.shape + (1,) * (len(shape) - on.ndim))
        return np.where(on, self._gauge_stack(w), 0.0)

    def _gauge_derivatives(self, x: PhasePoint, second: bool):
        """(grad w, grad grad w or None, lift != 0) by the quotient rule on
        w = N / Q, N = h1 grad h2 - h2 grad h1, Q = 2 |h| lift, on either
        branch of lift: grad w = dN/Q - N dQ/Q^2 and grad grad w = ddN/Q
        - (dN dQ + dQ dN)/Q^2 - N ddQ/Q^2 + 2 N dQ dQ/Q^3.  The term is 0
        where lift = 0; (None, None, on) if it is 0 at every point."""
        h, hn, lift, d = self._gauge(x)
        on = lift != 0
        if not on.any():
            return None, None, on
        d0, d1, d2 = d
        d = np.ascontiguousarray(np.moveaxis(d, 0, -2))         # (..., 3, 6)
        lift = np.where(on, lift, 1.0)
        h1, h2, h3 = h[..., 0, None], h[..., 1, None], h[..., 2, None]
        hn_, lift_ = hn[..., None], lift[..., None]
        up = h3 >= 0
        dd = self._derivs(self.h if second else self.h[:2], x, 2)
        dn = (h[..., None, :] @ d)[..., 0, :] / hn_         # grad |h|
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
        if not second:
            return dw, None, on

        dd0, dd1, dd2 = dd
        ddd0, ddd1 = self._derivs(self.h[:2], x, 3)
        hdd = (h[..., None, :] @ np.moveaxis(dd, 0, -3).reshape(
            x.batch_shape + (3, 36)))[..., 0, :].reshape(dd0.shape)
        ddn = (d.swapaxes(-1, -2) @ d + hdd - _outer(dn, dn)) / hn_[..., None]
        ddlift = ddn + dd2
        if not up.all():
            # Below the axis, lift (|h| - h3) = h1^2 + h2^2, differentiated
            # twice.
            dT = dn - d2
            ddS = 2 * (_outer(d0, d0) + h1[..., None] * dd0
                       + _outer(d1, d1) + h2[..., None] * dd1)
            ddlift = np.where(up[..., None], ddlift,
                              (ddS - _outer(dlift, dT) - _outer(dT, dlift)
                               - lift_[..., None] * (ddn - dd2))
                              / below[..., None])
        # ddN[c, b, a] = d_c dN[b, a].
        ddN = (dd0[..., None] * d1[..., None, None, :]
               - dd1[..., None] * d0[..., None, None, :]
               + d0[..., None, :, None] * dd1[..., :, None, :]
               - d1[..., None, :, None] * dd0[..., :, None, :]
               + d0[..., :, None, None] * dd1[..., None, :, :]
               - d1[..., :, None, None] * dd0[..., None, :, :]
               + h1[..., None, None] * ddd1 - h2[..., None, None] * ddd0)
        ddQ = 2 * (ddn * lift_[..., None] + _outer(dn, dlift)
                   + _outer(dlift, dn) + hn_[..., None] * ddlift)
        ddw = (ddN / Q_[..., None]
               - (dN[..., None, :, :] * dQ[..., :, None, None]
                  + dN[..., :, None, :] * dQ[..., None, :, None])
               / _pow(Q, 2)[..., None, None, None]
               + (2 * _outer(dQ, dQ) / _pow(Q, 3)[..., None, None]
                  - ddQ / _pow(Q, 2)[..., None, None])[..., None]
               * N[..., None, None, :])
        return dw, ddw, on

    def ordering_bracket_term(self, x: PhasePoint, hbar: float) -> np.ndarray:
        if not self.bracket_closed_form:
            raise NotImplementedError(
                "bracket term unavailable: h is not purely along sigma_z"
            )
        # The exact bracket evaluates one point at a time.
        points = [x.point(i) for i in range(len(x.R))] if x.batch_shape else [x]
        out = np.zeros((len(points), 2, 2), dtype=complex)
        for band, expr in enumerate(self._band_brackets):
            out[:, band, band] = [complex(expr.evaluate(y.R, y.P, hbar)[0, 0])
                                  for y in points]
        return -(hbar / 2.0) * out.reshape(x.batch_shape + (2, 2))

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
