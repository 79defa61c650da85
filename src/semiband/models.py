"""Matrix-valued Hamiltonians with analytic frames and their gauge terms.

Three built-in models (units c = 1, hbar is a run parameter):

* ``dirac_electric``  -- H = alpha.P + beta m + e V(R), four components,
  band groups {+E, -E} with E = sqrt(P^2 + m^2).
* ``neutrino_metric`` -- H = (alpha.P F(R) + F(R) alpha.P)/2 with
  F = 1/n(R) for a refractive-index-like profile n; massless, |P| > 0.
* ``two_level``       -- H = h0(R,P) 1 + h(R,P).sigma with polynomial
  components declared term by term (the declaration doubles as the symbolic
  decomposition used for the exact ordering bracket), compiled once into
  monomial tables; with h along z the gauge term is a structural zero.

Dirac representation throughout: beta = diag(1,1,-1,-1), alpha_i with
off-diagonal Pauli blocks, Sigma = 1 (x) sigma.

A model gives H and its derivatives to order 2 (`d_hamiltonian`,
`d2_hamiltonian`) and, with an analytic frame, the frame, its within-group
gauge term and that term's gradient.  Nothing reads higher derivatives: the
curvature pass takes the curl of the second derivatives of the connections
from the flatness of U0 grad U0^+ (see `dynamics`).

A frame (`frames.classical_frame`) evaluates its model at a copy of its
point that carries a memo.  The built-in models keep there, keyed by the
model, the intermediates that their methods share (P.P, field jets,
alpha.P, Dirac's E, P x Sigma, the gauge scalar f and its gradient,
monomial tables, h, |h| and the lift of the two-level gauge term), so each is made
once per frame; at a point without a memo every method computes what it
needs itself.  A custom model needs nothing of this.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property

import numpy as np

from semiband.fields import (
    ScalarField, ReciprocalField, UniformField, _exponent, _pow, _real,
    make_field, parameters, read_config,
)
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
    "random_batch",
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
_ALPHA = np.array(ALPHA)                    # (3, 4, 4)
_PAULI = np.array([S0, SX, SY, SZ])         # (4, 2, 2)


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
        return a.dot(b)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Outer product over the last axes: (..., k), (..., l) -> (..., k, l)."""
    return a[..., :, None] * b[..., None, :]


_EYE4 = np.eye(4)
_EYE4C = np.eye(4, dtype=complex)
# eps0 = E (1, 1, -1, -1) + W: the products with +-1 are exact.
_SIGNS4, _SIGNS2 = np.array([1.0, 1.0, -1.0, -1.0]), np.array([1.0, -1.0])
_BETA_ROWS = _SIGNS4[:, None]               # beta M, exact, as a row flip


def _ap(P: np.ndarray) -> np.ndarray:
    """alpha.P, (..., 4, 4)."""
    return sum(P[..., i, None, None] * ALPHA[i] for i in range(3))


def _jet(field: ScalarField, R: np.ndarray) -> tuple:
    """(value, gradient, hessian) of a field at R of shape (3,) or (N, 3):
    one array of the flat float jets, a row per point, and three views of
    it, (...), (..., 3) and (..., 3, 3)."""
    J = _rows(field.jet, R)
    return J[..., 0], J[..., 1:4], J[..., 4:].reshape(R.shape[:-1] + (3, 3))


def _rows(f, R: np.ndarray) -> np.ndarray:
    """f's flat tuple at each point of R (3,) or (N, 3), a row per point."""
    return np.array([f(r) for r in R.reshape(-1, 3).tolist()]
                    ).reshape(R.shape[:-1] + (-1,))


def _frozen(value):
    """value with every array in it (itself or the items of a tuple) made
    read-only."""
    for a in value if isinstance(value, tuple) else (value,):
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return value


def _shared(x: "PhasePoint", key: tuple, make):
    """make(), once per frame.  At a frame's point the value is kept in the
    point's memo under `key`, a tuple of the model that made it and a name,
    read-only, since every reader shares it; at a point without a memo it
    is made afresh."""
    memo = x._memo
    if memo is None:
        return make()
    if key not in memo:
        memo[key] = _frozen(make())
    return memo[key]


def _pxs_gauge_gradient(pxs: np.ndarray, f, df: np.ndarray) -> np.ndarray:
    """grad_b of the gauge stack ((P x Sigma)/f, 0) as (..., 6 b, 6 a, 4, 4),
    for P x Sigma as a (..., 3, 4, 4) stack and a scalar f(R, P) with
    gradient df (..., 6) over the six axes."""
    f = np.asarray(f)
    out = np.zeros(f.shape + (6, 6, 4, 4), dtype=complex)
    out[..., :3, :, :] = -((df / _pow(f, 2)[..., None])[..., None, None, None]
                           * pxs[..., None, :, :, :])
    out[..., 3:, :3, :, :] += _E_CROSS_SIGMA / f[..., None, None, None, None]
    return out


@dataclass(frozen=True)
class PhasePoint:
    """Classical phase-space point (R, P), both real 3-vectors, or a batch
    of N points with R and P of shape (N, 3).

    The copy that a frame evaluates its model at carries a memo of the
    model's shared intermediates (see `_shared`); every other point, those
    derived from a frame's point included, has none."""

    R: np.ndarray
    P: np.ndarray
    _memo: dict | None = dc_field(default=None, init=False, repr=False,
                                  compare=False)

    @staticmethod
    def of(R, P) -> "PhasePoint":
        R = np.asarray(R, dtype=float).reshape(3)
        P = np.asarray(P, dtype=float).reshape(3)
        if not (np.all(np.isfinite(R)) and np.all(np.isfinite(P))):
            raise ValueError("phase point must have finite components")
        return PhasePoint(R, P)

    @staticmethod
    def stack(points) -> "PhasePoint":
        """The batch of the given single points, R and P of shape (N, 3);
        ValueError for no points, whose stack would read as one point."""
        if len(points) == 0:
            raise ValueError("stack needs at least one point")
        return PhasePoint(np.array([x.R for x in points]),
                          np.array([x.P for x in points]))

    def _with_memo(self) -> "PhasePoint":
        """A copy of this point with a fresh, empty memo."""
        y = PhasePoint(self.R, self.P)
        object.__setattr__(y, "_memo", {})
        return y

    @property
    def batch_shape(self) -> tuple:
        """() for one point, (N,) for a batch."""
        return self.R.shape[:-1]

    def point(self, i: int) -> "PhasePoint":
        """Point i of a batch."""
        return PhasePoint(self.R[i], self.P[i])

    def points(self, start: int, stop: int) -> "PhasePoint":
        """Points start to stop - 1 of a batch, as a batch."""
        return PhasePoint(self.R[start:stop], self.P[start:stop])

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
    """The points of `random_batch`, one by one."""
    batch = random_batch(rng, count, pmin, pmax)
    return [batch.point(i) for i in range(len(batch.R))]


def random_batch(rng: np.random.Generator, count: int, pmin: float,
                 pmax: float) -> PhasePoint:
    """One batch of `count` points (none for count <= 0) with R uniform in
    [-1, 1]^3 and a uniformly drawn direction of P rescaled to a length
    uniform in [pmin, pmax].

    One draw of count x 7 doubles gives, bit for bit, the points and the
    generator state of drawing R, P and the length point by point with
    `rng.uniform`, which computes low + (high - low) * u."""
    pmin, pmax = _real(pmin, "p_range"), _real(pmax, "p_range")
    if pmax < pmin:
        raise ValueError(f"p_range needs pmin <= pmax, not {pmin}, {pmax}")
    u = rng.random((max(count, 0), 7))
    R = -1.0 + 2.0 * u[:, :3]
    P = -1.0 + 2.0 * u[:, 3:6]
    length = pmin + (pmax - pmin) * u[:, 6]
    # np.linalg.norm of one P is sqrt(P @ P); `_dot` rounds like it, where
    # einsum, a sum of squares and norm(axis=1) differ in the last bit.
    P *= (length / np.sqrt(_dot(P, P)))[:, None]
    if not (np.isfinite(R).all() and np.isfinite(P).all()):
        raise ValueError("phase point must have finite components")
    return PhasePoint(R, P)


class Model:
    """Shared interface of the built-in Hamiltonians.

    Every method takes one point or a batch (`PhasePoint.batch_shape` () or
    (N,)) and returns its arrays with the batch axis in front: H is
    (..., n, n), the phase-axis stacks (..., 6, n, n), (..., 6, 6, n, n) and
    so on.  A frame calls them at a point with a memo; a method may keep
    what others share there through `_shared`, or ignore it.
    """

    name = "abstract"
    n = 0
    band_groups: tuple = ()
    massless = False
    has_analytic_frame = False
    # The applications all satisfy <H> = 0 (pure-R plus pure-P splitting or
    # scalar cross factors); the energy assembly asserts this flag.
    bracket_h_vanishes = True

    @cached_property
    def groups(self) -> np.ndarray:
        """(n,) group index per state, in the order of `band_groups`; made
        once per model, read-only.  Raises unless the group sizes sum to n."""
        if sum(self.band_groups) != self.n:
            raise ValueError(
                "band group multiplicities do not sum to the dimension")
        return _frozen(np.repeat(np.arange(len(self.band_groups)),
                                 self.band_groups))

    def hamiltonian(self, x: PhasePoint) -> np.ndarray:
        raise NotImplementedError

    def d_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        """Analytic dH over the phase axes (0-2: R components, 3-5: P),
        (..., 6, n, n)."""
        raise NotImplementedError

    def d2_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        """The analytic Hessian of H over the phase axes, (..., 6, 6, n, n)."""
        raise NotImplementedError

    def analytic_frame(self, x: PhasePoint):
        raise NotImplementedError(f"model {self.name} has no analytic frame")

    def analytic_connections(self, x: PhasePoint) -> np.ndarray:
        """The gauge term (A_R, A_P) stacked, (..., 6, n, n): the
        within-group parts of i U0 grad_P U0^+ and -i U0 grad_R U0^+ in the
        gauge of `analytic_frame`."""
        raise NotImplementedError(f"model {self.name} has no analytic connections")

    def d_analytic_connections(self, x: PhasePoint) -> np.ndarray:
        """grad_b of the gauge term `analytic_connections`, as
        (..., 6 b, 6 a, n, n)."""
        raise NotImplementedError(f"model {self.name} has no analytic connections")

    def ordering_bracket_term(self, x: PhasePoint, hbar: float) -> np.ndarray:
        """The -(hbar/2) <eps0> energy contribution, from the declared form."""
        raise NotImplementedError(
            "bracket term unavailable: no closed form or factorization declared"
        )

    def check_point(self, x: PhasePoint) -> None:
        if self.massless and (self._p2(x) == 0.0).any():
            raise ValueError(f"|P| = 0 is not allowed for massless model {self.name}")

    def _check_once(self, x: PhasePoint) -> None:
        """`check_point`, once per frame: a frame's point keeps in its memo
        that it passed; a point without a memo is checked on every call."""
        _shared(x, (self, "checked"), lambda: self.check_point(x))

    def _p2(self, x: PhasePoint):
        """P . P, once per frame."""
        return _shared(x, (self, "P.P"), lambda: _dot(x.P, x.P))

    def to_config(self) -> dict:
        raise NotImplementedError


class PxSigmaGauge(Model):
    """A four-band model whose within-group gauge term is ((P x Sigma)/f, 0)
    for a scalar f(R, P), given with its gradient by `_gauge_f`, and whose
    frame is a free Foldy-Wouthuysen rotation; H reads one scalar field,
    `_scalar` (Dirac's V, the neutrino's F)."""

    def _field_jet(self, x: PhasePoint) -> tuple:
        """(value, gradient, hessian) of `_scalar` at x, from one field jet
        per frame."""
        return _shared(x, (self, "jet"), lambda: _jet(self._scalar, x.R))

    def _fw_rotation(self, x: PhasePoint, c, d) -> np.ndarray:
        """The free Foldy-Wouthuysen rotation (c 1 + beta alpha.P)/sqrt(d),
        (..., 4, 4)."""
        return ((c[..., None, None] * _EYE4 + _BETA_ROWS * self._alpha_p(x))
                / np.sqrt(d)[..., None, None])

    def _gauge_f(self, x: PhasePoint) -> tuple:
        """(f, grad f) over the six axes."""
        raise NotImplementedError

    def _f(self, x: PhasePoint) -> tuple:
        """(f, grad f), once per frame."""
        return _shared(x, (self, "f"), lambda: self._gauge_f(x))

    def _alpha_p(self, x: PhasePoint) -> np.ndarray:
        """alpha.P, (..., 4, 4), once per frame."""
        return _shared(x, (self, "a.P"), lambda: _ap(x.P))

    def _pxs(self, x: PhasePoint) -> np.ndarray:
        """P x Sigma as a (..., 3, 4, 4) stack, once per frame."""
        return _shared(x, (self, "PxS"),
                       lambda: np.stack(p_cross_sigma(x.P, SIGMA), axis=-3))

    def analytic_connections(self, x: PhasePoint) -> np.ndarray:
        out = np.zeros(x.batch_shape + (6, 4, 4), dtype=complex)
        out[..., :3, :, :] = self._pxs(x) / self._f(x)[0][..., None, None, None]
        return out

    def d_analytic_connections(self, x: PhasePoint) -> np.ndarray:
        return _pxs_gauge_gradient(self._pxs(x), *self._f(x))


class DiracElectric(PxSigmaGauge):
    """Relativistic four-component electron in a static electric potential."""

    name = "dirac_electric"
    n = 4
    band_groups = (2, 2)
    has_analytic_frame = True

    def __init__(self, m: float = 1.0, e: float = 1.0,
                 field: ScalarField | None = None):
        self.m = _real(m, "mass")
        self.e = _real(e, "charge")
        if self.m <= 0:
            raise ValueError("mass must be positive")
        self.field = self._scalar = (field if field is not None
                                     else UniformField(0.0))
        self._m_beta = self.m * BETA

    def energy_scale(self, x: PhasePoint):
        return _shared(x, (self, "E"),                 # once per frame
                       lambda: np.sqrt(self._p2(x) + self.m ** 2))

    def hamiltonian(self, x: PhasePoint) -> np.ndarray:
        # One nonzero alpha.P term per entry and part: bits as term by term.
        V = self._field_jet(x)[0]
        return (self._m_beta + (self.e * V)[..., None, None] * _EYE4
                + self._alpha_p(x))

    def d_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        g = self._field_jet(x)[1]
        out = np.empty(x.batch_shape + (6, 4, 4), dtype=complex)
        out[..., :3, :, :] = (self.e * g)[..., None, None] * _EYE4
        out[..., 3:, :, :] = ALPHA
        return out

    def d2_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        out = np.zeros(x.batch_shape + (6, 6, 4, 4), dtype=complex)
        hess = self._field_jet(x)[2]
        out[..., :3, :3, :, :] = self.e * (hess[..., None, None] * _EYE4)
        return out

    def analytic_frame(self, x: PhasePoint):
        # Free-particle Foldy-Wouthuysen rotation; the scalar potential rides along.
        E = self.energy_scale(x)
        Em = E + self.m
        W = self.e * self._field_jet(x)[0]
        return (E[..., None] * _SIGNS4 + W[..., None],
                self._fw_rotation(x, Em, 2 * E * Em))

    def _gauge_f(self, x: PhasePoint) -> tuple:
        """The free-particle rotation gives f = 2E(E+m), R-free, with
        grad_P f = (4E + 2m) P/E."""
        E, m = self.energy_scale(x), self.m
        df = np.zeros(x.batch_shape + (6,))
        df[..., 3:] = (4 * E + 2 * m)[..., None] * x.P / E[..., None]
        return 2 * E * (E + m), df

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
    massless = True
    has_analytic_frame = True

    def __init__(self, profile: ScalarField | None = None):
        self.profile = profile if profile is not None else UniformField(1.0)
        self.F = self._scalar = ReciprocalField(self.profile)

    def hamiltonian(self, x: PhasePoint) -> np.ndarray:
        self._check_once(x)
        return self._field_jet(x)[0][..., None, None] * self._alpha_p(x)

    def d_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        Fv, g = self._field_jet(x)[:2]
        out = np.empty(x.batch_shape + (6, 4, 4), dtype=complex)
        out[..., :3, :, :] = (g[..., None, None]
                              * self._alpha_p(x)[..., None, :, :])
        out[..., 3:, :, :] = Fv[..., None, None, None] * _ALPHA
        return out

    def d2_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        _F, g, h = self._field_jet(x)
        ap = self._alpha_p(x)[..., None, None, :, :]
        out = np.zeros(x.batch_shape + (6, 6, 4, 4), dtype=complex)
        out[..., :3, :3, :, :] = h[..., None, None] * ap
        out[..., :3, 3:, :, :] = g[..., :, None, None, None] * _ALPHA
        out[..., 3:, :3, :, :] = out[..., :3, 3:, :, :].swapaxes(-4, -3)
        return out

    def analytic_frame(self, x: PhasePoint):
        self._check_once(x)
        E = np.sqrt(self._p2(x))
        return ((self._field_jet(x)[0] * E)[..., None] * _SIGNS4,
                self._fw_rotation(x, E, 2 * _pow(E, 2)))

    def _gauge_f(self, x: PhasePoint) -> tuple:
        """The massless limit of the free-particle rotation: f = 2|P|^2 and
        grad f = 4 P."""
        self._check_once(x)
        df = np.zeros(x.batch_shape + (6,))
        df[..., 3:] = 4 * x.P
        return 2 * self._p2(x), df

    def ordering_bracket_term(self, x: PhasePoint, hbar: float) -> np.ndarray:
        # Closed form declared by the model: -(hbar^2 / 4|P|) P.grad F, times 1.
        E = np.sqrt(self._p2(x))
        val = -(hbar ** 2) / (4 * E) * _dot(x.P, self._field_jet(x)[1])
        return val[..., None, None] * _EYE4C

    def to_config(self) -> dict:
        return {"model": self.name, "field": self.profile.to_config()}


def _factor(c: list, key: tuple):
    """The product of c_a ** e over the (a, e) of a monomial-table key, in
    key order, each power rounded as per-point code rounds it."""
    f = None
    for a, e in key:
        p = (c[a] if e == 1 else c[a] ** e if isinstance(c[a], float)
             else _pow(c[a], e))
        f = p if f is None else f * p
    return f


@dataclass(frozen=True)
class ComponentTerm:
    """One product term c * R^r_exp P^p_exp of a two-level component.

    ``sym`` fixes the operator ordering the term stands for: "half" is the
    half-symmetrized product (A B + B A)/2, "rp" the normally ordered A(R)B(P).
    Classically both evaluate to the same number; they differ in the exact
    ordering bracket.
    """

    coef: Fraction
    r_exp: tuple = (0, 0, 0)
    p_exp: tuple = (0, 0, 0)
    sym: str = "half"

    def _monomials(self, order: int) -> list:
        """Every nonzero partial derivative of the given order (0: the value)
        as (multi-index, c k, factor keys), over `itertools.product` of the
        live axes: c k times the factors in turn.  A factor key is a tuple
        of (axis, exponent) pairs (axes 0-2: R, 3-5: P); the value makes
        R_i^r P_i^p one factor."""
        exps0 = self.r_exp + self.p_exp
        if not order:
            keys = (tuple((a, exps0[a]) for a in (i, 3 + i) if exps0[a])
                    for i in range(3))
            return [((), float(self.coef), tuple(k for k in keys if k))]
        out = []
        live = [a for a, e in enumerate(exps0) if e]
        for axes in itertools.product(live, repeat=order):
            exps, k = list(exps0), 1
            for a in axes:
                k *= exps[a]
                exps[a] -= 1
            if k:       # a 0.0 term leaves every slot's sum as it is
                out.append((axes, float(self.coef) * k,
                            tuple(((a, e),) for a, e in enumerate(exps) if e)))
        return out

    def factorizations(self) -> list:
        """The declared ordering as weyl factorizations (sum of products)."""
        c = weyl.QC.of(self.coef)
        A = weyl.WeylExpr.monomial(r_exp=self.r_exp)
        B = weyl.WeylExpr.monomial(p_exp=self.p_exp)
        if self.sym == "rp":
            return [weyl.Factorization([("R", A.scaled(c)), ("P", B)])]
        half = weyl.QC.of(Fraction(1, 2)) * c
        return [
            weyl.Factorization([("R", A.scaled(half)), ("P", B)]),
            weyl.Factorization([("P", B.scaled(half)), ("R", A)]),
        ]


# A term's config keys are the fields of `ComponentTerm`, with its defaults.
_TERM_KEYS = parameters(ComponentTerm)


def _term_from_config(t) -> ComponentTerm:
    coef, r_exp, p_exp, sym = read_config(t, _TERM_KEYS, "term").values()
    exps = [tuple(_exponent(v) for v in e) for e in (r_exp, p_exp)]
    if any(len(e) != 3 for e in exps):
        raise ValueError("r_exp and p_exp must have three entries")
    if sym not in ("half", "rp"):
        raise ValueError(f"sym must be 'half' or 'rp', not {sym!r}")
    return ComponentTerm(Fraction(str(coef)), *exps, sym)


def _terms_from_config(terms_cfg) -> tuple:
    """The `ComponentTerm`s of one two_level component; ValueError unless
    every term is a {coef, r_exp, p_exp, sym} object with exponents
    integers >= 0."""
    try:
        return tuple(_term_from_config(t) for t in terms_cfg)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"two_level terms: {exc}") from exc


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
    has_analytic_frame = True

    def __init__(self, h0_terms=None, h_terms=None):
        cfg = DEFAULT_TWO_LEVEL
        self.h0 = _terms_from_config(cfg["h0"] if h0_terms is None else h0_terms)
        raw_h = cfg["h"] if h_terms is None else h_terms
        if not isinstance(raw_h, (list, tuple)) or len(raw_h) != 3:
            raise ValueError("two_level needs exactly three sigma components")
        self.h = tuple(_terms_from_config(part) for part in raw_h)
        self.parts = (self.h0, *self.h)
        # The monomial tables of `_jets`, one per derivative order 0-2: the
        # entries (slot (component, ..., *multi-index), c k, factor keys) of
        # every term, in component and term order.
        self._tables = [tuple(((j, Ellipsis, *axes), ck, keys)
                              for j, terms in enumerate(self.parts)
                              for t in terms
                              for axes, ck, keys in t._monomials(order))
                        for order in range(3)]
        # eps0 = h0 +/- h3 stays polynomial only when h is purely along z.
        self.z_only = not self.h[0] and not self.h[1]
        if self.z_only:
            # eps0 bands are h0 +/- h3; the bracket acts on the declared
            # forms exactly, through the symbolic module, once per model.
            self._band_brackets = [self._band_bracket(s) for s in (1.0, -1.0)]

    def _band_bracket(self, sign: float):
        """<h0 +/- h3> of the declared forms, summed term by term."""
        h0, h3 = ([f.bracket() for t in terms for f in t.factorizations()]
                  for terms in (self.h0, self.h[2]))
        return weyl.total(h0 + [b if sign > 0 else -b for b in h3], 1)

    def _jets(self, x: PhasePoint, orders) -> list:
        """h0, h1, h2, h3 at x for order 0, and their partial derivatives for
        orders 1-2: one array (4, ...) + (6,) * order per entry of
        `orders`, each from one `_table_pass`.  The passes share one factor
        dict; at a frame's point the dict and each order's pass are made
        once per frame."""
        pw = _shared(x, (self, "factors"), dict)
        return [_shared(x, (self, "table", order),
                        lambda: self._table_pass(x, order, pw))
                for order in orders]

    def _table_pass(self, x: PhasePoint, order: int, pw: dict) -> np.ndarray:
        """One pass over the monomial table of `order`.  Each factor is
        taken from `pw` or made into it; each entry multiplies c k by its
        factors in turn and adds into its slot in term order, as a
        term-by-term sum rounds, with the same code for a batch as for one
        point."""
        if x.batch_shape:
            c = list(x.R.T) + list(x.P.T)
        else:
            c = x.R.tolist() + x.P.tolist()
        acc = {}
        for slot, v, factors in self._tables[order]:
            for key in factors:
                f = pw.get(key)
                if f is None:
                    f = pw[key] = _factor(c, key)
                v = v * f
            acc[slot] = acc.get(slot, 0.0) + v
        arr = np.zeros((4,) + x.batch_shape + (6,) * order)
        for slot, v in acc.items():
            arr[slot] = v
        return arr

    def hamiltonian(self, x: PhasePoint) -> np.ndarray:
        return self._sigma(self._jets(x, (0,))[0])

    def d_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        return self._sigma(self._jets(x, (1,))[0])

    def d2_hamiltonian(self, x: PhasePoint) -> np.ndarray:
        return self._sigma(self._jets(x, (2,))[0])

    @staticmethod
    def _sigma(c) -> np.ndarray:
        """c0 1 + c1 sigma_x + c2 sigma_y + c3 sigma_z for coefficient arrays
        (4, ...), (..., 2, 2): one product with the Pauli stack, whose terms
        are added in turn (`sum(0)` starts from +0.0, which makes a sum of
        -0.0 terms +0.0)."""
        t = c[..., None, None] * _PAULI.reshape(
            (4,) + (1,) * (c.ndim - 1) + (2, 2))
        return t[0] + t[1] + t[2] + t[3]

    def analytic_frame(self, x: PhasePoint):
        h0, h, hn = self._h(x)
        if (hn == 0.0).any():
            from semiband.frames import GapError    # frames imports models
            raise GapError("two_level bands are degenerate where |h| = 0")
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

    def _h(self, x: PhasePoint) -> tuple:
        """(h0, h as (..., 3), |h|) at x, once per frame."""
        def make():
            values = self._jets(x, (0,))[0]
            h = values[1:].T.copy()
            return values[0], h, np.sqrt(_dot(h, h))
        return _shared(x, (self, "h"), make)

    def _gauge(self, x: PhasePoint, top: int):
        """(h, |h|, lift, lift != 0, the derivatives of h of orders 1 to
        `top`, each (3, ...) + (6,) * order) of the gauge term below, from
        one table pass per order; raises where the declared gauge is
        singular.  The z-only term is zero and gets no derivatives."""
        top = 0 if self.z_only else top
        jets = [j[1:] for j in self._jets(x, range(1, top + 1))]
        return (*_shared(x, (self, "lift"), lambda: self._lift(x)), jets)

    def _lift(self, x: PhasePoint) -> tuple:
        """(h, |h|, lift, lift != 0) of `_gauge` at x."""
        _h0, h, hn = self._h(x)
        h1, h2, h3 = h[..., 0], h[..., 1], h[..., 2]
        up = h3 >= 0
        lift = hn + h3
        if not up.all():
            lift = np.where(up, lift, (_pow(h1, 2) + _pow(h2, 2))
                            / np.where(up, 1.0, hn - h3))
        flat = lift == 0.0
        if flat.any():
            bad = hn == 0.0
            if not self.z_only:                 # z-only: grad h1 = grad h2 = 0
                d = self._jets(x, (1,))[0]
                bad |= d[1].any(axis=-1) | d[2].any(axis=-1)
            if (flat & bad).any():
                raise ValueError(
                    "two_level gauge is singular at h1 = h2 = 0, h3 <= 0")
        return h, hn, lift, ~flat

    @staticmethod
    def _gauge_stack(w: np.ndarray) -> np.ndarray:
        """(A_R, A_P) stacked for the within-group X = i w diag(1, -1):
        A^{R_l} = diag(-w_{P_l}, w_{P_l}), A^{P_l} = diag(w_{R_l}, -w_{R_l});
        w may carry leading axes, (..., 6) -> (..., 6, 2, 2)."""
        c = np.concatenate([-w[..., 3:], w[..., :3]], axis=-1)
        out = np.zeros(c.shape + (2, 2), dtype=complex)
        out[..., 0, 0], out[..., 1, 1] = c, -c
        return out

    def analytic_connections(self, x: PhasePoint) -> np.ndarray:
        # U0 grad U0^+ = i s^2 grad phi diag(1, -1) within the groups, with
        # phi = arg(h1 + i h2), s^2 = (1 - h3/|h|)/2: s^2 grad phi = (h1 grad h2
        # - h2 grad h1)/(2|h| lift), lift = |h| + h3 = hp^2/(|h| - h3) for h3 < 0.
        h, hn, lift, on, d = self._gauge(x, 1)
        if self.z_only:
            w = np.zeros(x.batch_shape + (6,))
        else:
            d = d[0]
            w = ((h[..., 0, None] * d[1] - h[..., 1, None] * d[0])
                 / np.where(on, 2 * hn * lift, 1.0)[..., None])
            w[~on] = 0.0
        return self._gauge_stack(w)

    def d_analytic_connections(self, x: PhasePoint) -> np.ndarray:
        # `_gauge_stack(grad w)` where the gauge term lives, 0 where lift = 0.
        w, on = self._gauge_gradient(x)
        on = on.reshape(on.shape + (1,) * (w.ndim + 2 - on.ndim))
        return np.where(on, self._gauge_stack(w), 0.0)

    def _gauge_gradient(self, x: PhasePoint):
        """(grad w; lift != 0) by the quotient rule on w = N / Q,
        N = h1 grad h2 - h2 grad h1, Q = 2 |h| lift, on either branch of
        lift: grad w = dN/Q - N dQ/Q^2.  The term is 0 where lift = 0;
        zeros if it is 0 at every point, or if h is along z, where N = 0
        identically."""
        h, hn, lift, on, jets = self._gauge(x, 2)
        if self.z_only or not on.any():
            return np.zeros(x.batch_shape + (6, 6)), on
        d, dd = jets
        d0, d1, d2 = d
        d = np.ascontiguousarray(d.swapaxes(0, -2))             # (..., 3, 6)
        lift = np.where(on, lift, 1.0)
        h1, h2, h3 = h[..., 0, None], h[..., 1, None], h[..., 2, None]
        hn_, lift_ = hn[..., None], lift[..., None]
        up = h3 >= 0
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
        return dw, on

    def ordering_bracket_term(self, x: PhasePoint, hbar: float) -> np.ndarray:
        if not self.z_only:
            raise NotImplementedError(
                "bracket term unavailable: h is not purely along sigma_z"
            )
        out = np.zeros(x.batch_shape + (2, 2), dtype=complex)
        for band, expr in enumerate(self._band_brackets):
            out[..., band, band] = expr.evaluate(x.R, x.P, hbar)[..., 0, 0]
        return -(hbar / 2.0) * out

    def to_config(self) -> dict:
        def dump(terms):
            return [{"coef": str(t.coef), "r_exp": list(t.r_exp),
                     "p_exp": list(t.p_exp), "sym": t.sym} for t in terms]
        return {"model": self.name, "h0": dump(self.h0),
                "h": [dump(part) for part in self.h]}


# Each model's config keys, mapped to its constructor's parameters, whose
# defaults are the keys' defaults; "field" is a field config.
_MODELS = {cls.name: (cls, params) for cls, params in (
    (DiracElectric, {"m": "m", "e": "e", "field": "field"}),
    (NeutrinoMetric, {"field": "profile"}),
    (TwoLevel, {"h0": "h0_terms", "h": "h_terms"}))}
_MODEL_KEYS = {name: {"model": name, **{key: parameters(cls)[param]
                                        for key, param in params.items()}}
               for name, (cls, params) in _MODELS.items()}


def make_model(cfg: dict) -> Model:
    """Build a model from its JSON configuration (see README for the schema);
    ValueError for an undeclared key."""
    if not isinstance(cfg, dict) or "model" not in cfg:
        raise ValueError("model config must be a dict with a 'model' key")
    name = cfg["model"]
    if not isinstance(name, str) or name not in _MODELS:
        raise ValueError(f"unknown model {name!r}")
    cls, params = _MODELS[name]
    values = read_config(cfg, _MODEL_KEYS[name], f"{name} model")
    if "field" in cfg:
        values["field"] = make_field(values["field"])
    return cls(**{param: values[key] for key, param in params.items()})
