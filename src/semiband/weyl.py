"""Exact symbolic algebra over the Heisenberg/Weyl algebra.

Operators are finite sums of normally ordered monomials R^a P^b (all position
factors to the left) with coefficients that are polynomials in hbar over exact
rational-complex numbers, times constant complex matrices acting on an internal
space of dimension n.  The commutation rule is [R_i, P_j] = i hbar delta_ij,
i.e. the rewrite P_i R_i = R_i P_i - i hbar.

On top of the algebra the module implements the second-derivative bracket
<F> of an ordered factorization F = M_1(R) M_2(P) M_3(R) ... : derive every
(position-factor, momentum-factor) pair, keep the antisymmetric part of the
inserted differentials using dR dP - dP dR = -i dalpha, and return minus the
sum of the dalpha coefficients.  For the half-symmetrized product
(A(R)B(P) + B(P)A(R))/2 this reduces to (i/4) sum_i [grad_R_i A, grad_P_i B].

`WeylExpr.monomial` builds every term, and `total` sums expressions in
order, which is the order in which `WeylExpr.evaluate` adds their terms.

All arithmetic is exact; no floating point enters this module except in
`WeylExpr.evaluate`, which substitutes classical values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial
import random

__all__ = [
    "QC",
    "WeylExpr",
    "Factorization",
    "total",
    "bracket_product_residual",
    "invariant_derivative_residual",
    "full_symmetrizations",
    "random_factorization",
    "QC_ZERO",
    "QC_ONE",
    "QC_I",
    "PAULI",
]


# ---------------------------------------------------------------------------
# Exact rational-complex scalars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QC:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re=0, im=0) -> "QC":
        return QC(Fraction(re), Fraction(im))

    def __add__(self, other: "QC") -> "QC":
        return QC(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QC") -> "QC":
        return QC(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "QC":
        return QC(-self.re, -self.im)

    def __mul__(self, other: "QC") -> "QC":
        return QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> "QC":
        return QC(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return float(self.re) + 1j * float(self.im)

    def __repr__(self) -> str:
        return f"({self.re}+{self.im}j)"


QC_ZERO = QC.of(0)
QC_ONE = QC.of(1)
QC_I = QC.of(0, 1)


# Constant matrices are tuples of tuples of QC.
Mat = tuple

def mat_eye(n: int) -> Mat:
    return tuple(
        tuple(QC_ONE if i == j else QC_ZERO for j in range(n)) for i in range(n)
    )

def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

def mat_scale(c: QC, a: Mat) -> Mat:
    return tuple(tuple(c * x for x in row) for row in a)

def mat_mul(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), QC_ZERO)
                       for col in zip(*b)) for row in a)

def mat_is_zero(a: Mat) -> bool:
    return all(x.is_zero() for row in a for x in row)


PAULI = {
    "x": ((QC_ZERO, QC_ONE), (QC_ONE, QC_ZERO)),
    "y": ((QC_ZERO, -QC_I), (QC_I, QC_ZERO)),
    "z": ((QC_ONE, QC_ZERO), (QC_ZERO, -QC_ONE)),
    "0": mat_eye(2),
}


# ---------------------------------------------------------------------------
# Weyl expressions
# ---------------------------------------------------------------------------

# A term key is (r_exponents, p_exponents, hbar_power); the value is a Mat.
Key = tuple

_MINUS_I_POW = (QC_ONE, -QC_I, -QC_ONE, QC_I)      # (-i)^j for j mod 4

def _mono_mul_1d(k: int, m: int):
    """Normal ordering of P^k R^m on one axis.

    P^k R^m = sum_j C(k,j) C(m,j) j! (-i hbar)^j R^(m-j) P^(k-j).
    """
    for j in range(min(k, m) + 1):
        c = comb(k, j) * comb(m, j) * factorial(j)
        yield j, QC.of(c) * _MINUS_I_POW[j % 4]


class WeylExpr:
    """Finite sum of normally ordered monomials with matrix coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        self.terms: dict = {}
        if terms:
            for key, mat in terms.items():
                self._accumulate(key, mat)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def monomial(r_exp=(0, 0, 0), p_exp=(0, 0, 0), hpow: int = 0,
                 mat: Mat | None = None, n: int = 1) -> "WeylExpr":
        """The one term mat R^r_exp P^p_exp hbar^hpow (mat the n x n
        identity by default); every constructor below is a case of it."""
        if mat is None:
            mat = mat_eye(n)
        e = WeylExpr(len(mat))
        e._accumulate((tuple(r_exp), tuple(p_exp), hpow), mat)
        return e

    @staticmethod
    def zero(n: int = 1) -> "WeylExpr":
        return WeylExpr(n)

    @staticmethod
    def const(mat: Mat) -> "WeylExpr":
        return WeylExpr.monomial(mat=mat)

    @staticmethod
    def scalar(value, n: int = 1) -> "WeylExpr":
        c = value if isinstance(value, QC) else QC.of(value)
        return WeylExpr.monomial(mat=mat_scale(c, mat_eye(n)))

    @staticmethod
    def coord(kind: str, axis: int = 0, n: int = 1) -> "WeylExpr":
        """The generator R_axis or P_axis (kind 'R' or 'P')."""
        unit = tuple(int(i == axis) for i in range(3))
        if kind == "R":
            return WeylExpr.monomial(r_exp=unit, n=n)
        return WeylExpr.monomial(p_exp=unit, n=n)

    @staticmethod
    def hbar(n: int = 1) -> "WeylExpr":
        return WeylExpr.monomial(hpow=1, n=n)

    def _accumulate(self, key: Key, mat: Mat) -> None:
        if key in self.terms:
            s = mat_add(self.terms[key], mat)
            if mat_is_zero(s):
                del self.terms[key]
            else:
                self.terms[key] = s
        elif not mat_is_zero(mat):
            self.terms[key] = mat

    # -- algebra --------------------------------------------------------------

    def __add__(self, other: "WeylExpr") -> "WeylExpr":
        self._check_dim(other)
        out = WeylExpr(self.n, dict(self.terms))
        for key, mat in other.terms.items():
            out._accumulate(key, mat)
        return out

    def __sub__(self, other: "WeylExpr") -> "WeylExpr":
        return self + (-other)

    def __neg__(self) -> "WeylExpr":
        return self.scaled(QC.of(-1))

    def scaled(self, c: QC) -> "WeylExpr":
        out = WeylExpr(self.n)
        for key, mat in self.terms.items():
            out._accumulate(key, mat_scale(c, mat))
        return out

    def __mul__(self, other: "WeylExpr") -> "WeylExpr":
        """Exact normally ordered product."""
        self._check_dim(other)
        out = WeylExpr(self.n)
        for (ra, pa, ha), ma in self.terms.items():
            for (rb, pb, hb), mb in other.terms.items():
                mat = mat_mul(ma, mb)
                # Reorder P^pa R^rb axis by axis; axes commute with each other.
                for (j0, c0), (j1, c1), (j2, c2) in product(
                    _mono_mul_1d(pa[0], rb[0]),
                    _mono_mul_1d(pa[1], rb[1]),
                    _mono_mul_1d(pa[2], rb[2]),
                ):
                    js = (j0, j1, j2)
                    c = c0 * c1 * c2
                    r_new = tuple(ra[i] + rb[i] - js[i] for i in range(3))
                    p_new = tuple(pa[i] + pb[i] - js[i] for i in range(3))
                    h_new = ha + hb + sum(js)
                    out._accumulate((r_new, p_new, h_new), mat_scale(c, mat))
        return out

    def commutator(self, other: "WeylExpr") -> "WeylExpr":
        self._check_dim(other)
        return self * other - other * self

    def _check_dim(self, other: "WeylExpr") -> None:
        if self.n != other.n:
            raise ValueError(
                f"internal dimension mismatch: {self.n} vs {other.n}"
            )

    # -- calculus -------------------------------------------------------------

    def derivative(self, kind: str, axis: int) -> "WeylExpr":
        """Formal derivative with respect to R_axis or P_axis on the basis."""
        out = WeylExpr(self.n)
        slot = 0 if kind == "R" else 1
        for (r, p, h), mat in self.terms.items():
            exps = r if slot == 0 else p
            k = exps[axis]
            if k == 0:
                continue
            new = list(exps)
            new[axis] = k - 1
            key = (tuple(new), p, h) if slot == 0 else (r, tuple(new), h)
            out._accumulate(key, mat_scale(QC.of(k), mat))
        return out

    def hbar_derivative(self) -> "WeylExpr":
        """Derivative with respect to the explicit hbar powers."""
        out = WeylExpr(self.n)
        for (r, p, h), mat in self.terms.items():
            if h == 0:
                continue
            out._accumulate((r, p, h - 1), mat_scale(QC.of(h), mat))
        return out

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylExpr):
            return NotImplemented
        return self.n == other.n and (self - other).is_zero()

    def uses_only(self, kind: str) -> bool:
        """True if every monomial involves only R (kind 'R') or only P factors."""
        slot = 1 if kind == "R" else 0
        return all(sum(key[slot]) == 0 for key in self.terms)

    def evaluate(self, R, P, hbar: float):
        """Classical evaluation at commuting values R, P (3,) or (N, 3), as
        a complex ndarray (..., n, n); a batch equals its points bit for bit,
        each power the scalar pow of one point (`fields._pow`)."""
        import numpy as np
        from semiband.fields import _pow

        R, P = np.asarray(R, dtype=float), np.asarray(P, dtype=float)
        out = np.zeros(R.shape[:-1] + (self.n, self.n), dtype=complex)
        for (r, p, h), mat in self.terms.items():
            scal = hbar ** h
            for i in range(3):
                scal = scal * (_pow(R[..., i], r[i]) * _pow(P[..., i], p[i]))
            out += scal[..., None, None] * np.array(
                [[x.to_complex() for x in row] for row in mat]
            )
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "WeylExpr(0)"
        bits = []
        for (r, p, h), mat in sorted(self.terms.items()):
            mono = []
            for i, e in enumerate(r):
                if e:
                    mono.append(f"R{i}^{e}" if e > 1 else f"R{i}")
            for i, e in enumerate(p):
                if e:
                    mono.append(f"P{i}^{e}" if e > 1 else f"P{i}")
            if h:
                mono.append(f"h^{h}" if h > 1 else "h")
            label = "*".join(mono) if mono else "1"
            if self.n == 1:
                bits.append(f"{mat[0][0]}*{label}")
            else:
                bits.append(f"[{self.n}x{self.n}]*{label}")
        return "WeylExpr(" + " + ".join(bits) + ")"


def total(exprs, n: int) -> WeylExpr:
    """The expressions summed in order from zero(n): the order in which
    `evaluate` adds their terms, and so how it rounds."""
    out = WeylExpr.zero(n)
    for expr in exprs:
        out = out + expr
    return out


# ---------------------------------------------------------------------------
# Ordered factorizations and the bracket
# ---------------------------------------------------------------------------

# The weight (i/2) of an inserted (dR, dP) pair with dR on the left.
_HALF_I = QC(Fraction(0), Fraction(1, 2))

class Factorization:
    """Product M_1 M_2 ... with each factor declared pure-R or pure-P.

    Adjacent factors of the same kind are merged on construction so the stored
    sequence alternates.  Each factor is a `WeylExpr` in its declared variables
    only (hbar-dependent coefficients are allowed).
    """

    __slots__ = ("n", "factors")

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise ValueError("empty factorization")
        self.n = factors[0][1].n
        merged: list[tuple[str, WeylExpr]] = []
        for kind, expr in factors:
            if kind not in ("R", "P"):
                raise ValueError(f"factor kind must be 'R' or 'P', got {kind!r}")
            if expr.n != self.n:
                raise ValueError("internal dimension mismatch between factors")
            if not expr.uses_only(kind):
                raise ValueError(
                    f"factor declared pure-{kind} contains the other variable"
                )
            if merged and merged[-1][0] == kind:
                merged[-1] = (kind, merged[-1][1] * expr)
            else:
                merged.append((kind, expr))
        self.factors = merged

    def multiply_out(self) -> WeylExpr:
        return self._product_with({})

    def __mul__(self, other: "Factorization") -> "Factorization":
        return Factorization(self.factors + other.factors)

    def _product_with(self, replacements: dict[int, WeylExpr]) -> WeylExpr:
        out = None
        for idx, (_kind, expr) in enumerate(self.factors):
            term = replacements.get(idx, expr)
            out = term if out is None else out * term
        return out

    def bracket(self) -> WeylExpr:
        """The dalpha-extraction bracket <F> of this factorization.

        For every ordered pair (a, b) with factor a pure-R and factor b pure-P,
        insert the position derivative at a and the momentum derivative at b;
        the inserted differential pair contributes (i/2) to the dalpha part if
        the position factor sits left of the momentum factor and -(i/2)
        otherwise.
        """
        out = WeylExpr.zero(self.n)
        for a, (kind_a, expr_a) in enumerate(self.factors):
            if kind_a != "R":
                continue
            for b, (kind_b, expr_b) in enumerate(self.factors):
                if kind_b != "P":
                    continue
                sign = _HALF_I if a < b else -_HALF_I
                for axis in range(3):
                    da = expr_a.derivative("R", axis)
                    if da.is_zero():
                        continue
                    db = expr_b.derivative("P", axis)
                    if db.is_zero():
                        continue
                    term = self._product_with({a: da, b: db})
                    out = out + term.scaled(sign)
        return out

    def hbar_derivative(self) -> WeylExpr:
        """Leibniz derivative of the explicit hbar content of the factors."""
        derivs = [expr.hbar_derivative() for _kind, expr in self.factors]
        return total((self._product_with({idx: d})
                      for idx, d in enumerate(derivs) if not d.is_zero()),
                     self.n)

    def invariant_derivative(self) -> WeylExpr:
        """The symmetrization-invariant combination d/dhbar F + <F>."""
        return self.hbar_derivative() + self.bracket()


def bracket_product_residual(f: Factorization, g: Factorization) -> WeylExpr:
    """<FG> minus its product expansion; identically zero for valid inputs.

    The expansion is <F>G + F<G> - (i/2) grad_P F grad_R G
    + (i/2) grad_R F grad_P G, with gradients taken on the multiplied-out
    normal forms (the formal derivative is ordering independent).
    """
    F = f.multiply_out()
    G = g.multiply_out()
    lhs = (f * g).bracket()
    rhs = f.bracket() * G + F * g.bracket()
    for axis in range(3):
        rhs = rhs + (F.derivative("P", axis) * G.derivative("R", axis)).scaled(-_HALF_I)
        rhs = rhs + (F.derivative("R", axis) * G.derivative("P", axis)).scaled(_HALF_I)
    return lhs - rhs


def _as_form_sum(forms) -> list[Factorization]:
    return [forms] if isinstance(forms, Factorization) else list(forms)


def form_sum_expr(forms) -> WeylExpr:
    forms = _as_form_sum(forms)
    return total((f.multiply_out() for f in forms), forms[0].n)


def form_sum_invariant_derivative(forms) -> WeylExpr:
    forms = _as_form_sum(forms)
    return total((f.invariant_derivative() for f in forms), forms[0].n)


def invariant_derivative_residual(forms1, forms2) -> WeylExpr:
    """(d/dhbar + <.>) applied to two forms of one operator; zero when equal.

    Each argument is a `Factorization` or a list of them (a sum of products).
    """
    if form_sum_expr(forms1) != form_sum_expr(forms2):
        raise ValueError("factorizations are not equal as operators")
    return form_sum_invariant_derivative(forms1) - form_sum_invariant_derivative(forms2)


# ---------------------------------------------------------------------------
# Full symmetrization
# ---------------------------------------------------------------------------

def _letter_orderings(letters: tuple, cap: int):
    """Distinct orderings of a multiset of letters, lexicographically."""
    if len(letters) > cap:
        raise ValueError(
            f"symmetrization degree {len(letters)} exceeds cap {cap}"
        )
    return sorted(set(permutations(letters)))


def full_symmetrizations(r_exp, p_exp, mat: Mat | None = None, n: int = 1,
                         cap: int = 8) -> list[Factorization]:
    """Equal-weight orderings of the letters of the monomial R^r_exp P^p_exp.

    Returns one factorization per distinguishable ordering, each carrying the
    weight 1/N in its leading factor, so that summing the `multiply_out` (or
    `bracket`) results realizes the fully symmetrized operator.  The constant
    matrix multiplies from the left.
    """
    if mat is None:
        mat = mat_eye(n)
    n = len(mat)
    letters = []
    for i, e in enumerate(r_exp):
        letters += [("R", i)] * e
    for i, e in enumerate(p_exp):
        letters += [("P", i)] * e
    if not letters:
        return [Factorization([("R", WeylExpr.const(mat))])]
    orderings = _letter_orderings(tuple(letters), cap)
    weight = QC(Fraction(1, len(orderings)), Fraction(0))
    out = []
    for ordering in orderings:
        (kind, first), *rest = [(kind, WeylExpr.coord(kind, axis, n))
                                for kind, axis in ordering]
        head = (kind, WeylExpr.const(mat) * first.scaled(weight))
        out.append(Factorization([head, *rest]))
    return out


def symmetrized_bracket(r_exp, p_exp, mat: Mat | None = None, n: int = 1,
                        cap: int = 8) -> WeylExpr:
    """Bracket of the fully symmetrized monomial (zero, by the calculus)."""
    pieces = full_symmetrizations(r_exp, p_exp, mat=mat, n=n, cap=cap)
    return total((piece.bracket() for piece in pieces), pieces[0].n)


# ---------------------------------------------------------------------------
# Random case generation (shared by the test suite and the CLI checker)
# ---------------------------------------------------------------------------

def _random_pure_expr(rng: random.Random, kind: str, n: int,
                      max_degree: int) -> WeylExpr:
    """One or two random pure-R or pure-P terms, each with hbar^0 or
    hbar^1."""
    def term() -> WeylExpr:
        exps = [0, 0, 0]
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(3)] += 1
        mat = tuple(
            tuple(QC.of(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n))
            for _ in range(n)
        )
        hpow = rng.randint(0, 1)
        if kind == "R":
            return WeylExpr.monomial(exps, (0, 0, 0), hpow, mat)
        return WeylExpr.monomial((0, 0, 0), exps, hpow, mat)

    out = total([term() for _ in range(rng.randint(1, 2))], n)
    return WeylExpr.scalar(1, n) if out.is_zero() else out


def random_factorization(rng: random.Random, n: int = 1,
                         max_degree: int = 6) -> Factorization:
    """Random alternating factorization of one to three factors with total
    degree <= max_degree."""
    n_factors = rng.randint(1, 3)
    kinds = []
    kind = rng.choice(["R", "P"])
    for _ in range(n_factors):
        kinds.append(kind)
        kind = "P" if kind == "R" else "R"
    budget = max_degree
    factors = []
    for k in kinds:
        deg = rng.randint(0, max(0, budget // max(1, len(kinds) - len(factors))))
        budget -= deg
        factors.append((k, _random_pure_expr(rng, k, n, deg)))
    return Factorization(factors)


def random_resymmetrization(rng: random.Random, f: Factorization):
    """A second factorization equal to `f` as an operator.

    Produced by multiplying out to the normal form and wrapping each normally
    ordered monomial as an explicit R-then-P factor pair; equality of operators
    holds by construction while the form (hence the bracket and the explicit
    hbar content) differs.
    """
    F = f.multiply_out()
    factors: list[Factorization] = []
    for (r, p, h), mat in F.terms.items():
        head = WeylExpr.monomial(r, (0, 0, 0), hpow=h, mat=mat)
        tail = WeylExpr.monomial((0, 0, 0), p, n=F.n)
        factors.append(Factorization([("R", head), ("P", tail)]))
    if not factors:
        factors.append(Factorization([("R", WeylExpr.zero(F.n))]))
    return factors
