"""Scalar background fields with analytic derivatives.

Every field kind defines one method, `jet(r)`: value, gradient and hessian at
a 3-point as one flat 13-tuple of plain floats, (v, gx, gy, gz, hxx, hxy,
hxz, hyx, hyy, hyz, hzx, hzy, hzz), so each kind keeps one copy of its
formulas and a caller unpacks it in one step.  value/gradient/hessian/
laplacian are views of it.  Nothing reads a higher derivative: the exact
curvature pass needs derivatives of H to order 2 only.  The analytic
derivatives are validated against central finite differences in the test
suite (1e-6 relative).
`ReciprocalField` wraps a positive profile n(R) as F = 1/n, which is how a
refractive-index profile enters the massless model.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "ScalarField",
    "PolynomialField",
    "GaussianField",
    "CoulombRegularizedField",
    "LinearField",
    "UniformField",
    "ReciprocalField",
    "make_field",
]


_ZERO9, _ZERO12 = (0.0,) * 9, (0.0,) * 12


def _xyz(r) -> tuple:
    x, y, z = r
    return float(x), float(y), float(z)


def _real(value, what: str) -> float:
    """A field or model parameter as a float; ValueError unless it is a
    finite real number (a bool is not one).  A float (numpy's included)
    skips the `numbers.Real` check, which is slow."""
    if not isinstance(value, float) and (
            isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError(f"{what} must be a real number, not {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, not {value!r}")
    return float(value)


def _integer(value, what: str) -> int:
    """value as an int; ValueError unless integral (1e2 is, a bool is not)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return int(value)


def _power(value: float, k: int, what: str) -> float:
    """value ** k; ValueError naming `what` if it overflows or is 0."""
    try:
        p = value ** k
    except OverflowError:
        p = 0.0
    if not p:
        raise ValueError(f"{what} {value!r} is out of range: its power {k} "
                         "overflows or underflows to 0")
    return p


def _coefficients(pairs, amplitude: tuple, length: tuple) -> None:
    """ValueError unless each jet coefficient num / den is finite (inf * 0 is
    NaN), naming the length if 1 / den overflows alone, else the amplitude."""
    for num, den in pairs:
        if not math.isfinite(num / den):
            name, value = length if not math.isfinite(1.0 / den) else amplitude
            raise ValueError(f"{name} {value!r} is out of range: the jet "
                             f"coefficient {num!r} / {den!r} overflows")


def _real3(values, what: str) -> tuple:
    """Three `_real` components."""
    try:
        ndim = np.ndim(values)
    except ValueError:              # a ragged nesting such as [1, [2], 3]
        ndim = None
    if isinstance(values, (str, bytes)) or ndim != 1 or len(values) != 3:
        raise ValueError(f"{what} must have three components, not {values!r}")
    return tuple(_real(v, what) for v in values)


def _exponent(value) -> int:
    """A monomial exponent: an integer >= 0 (an integral float counts)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < 0:
        raise ValueError(f"exponents must be integers >= 0, not {value!r}")
    return int(value)


class ScalarField:
    """Contract: `jet(r)` returns one flat 13-tuple of plain floats, the
    value, the gradient (gx, gy, gz) and the hessian row by row (hxx, hxy,
    hxz, hyx, ..., hzz); value/gradient/hessian/laplacian are views of it."""

    kind = "abstract"

    def jet(self, r) -> tuple:
        raise NotImplementedError

    def value(self, r) -> float:
        return self.jet(r)[0]

    def gradient(self, r) -> np.ndarray:
        return np.array(self.jet(r)[1:4])

    def hessian(self, r) -> np.ndarray:
        return np.array(self.jet(r)[4:]).reshape(3, 3)

    def laplacian(self, r) -> float:
        j = self.jet(r)
        return j[4] + j[8] + j[12]

    def to_config(self) -> dict:
        raise NotImplementedError


class UniformField(ScalarField):
    kind = "uniform"

    def __init__(self, value: float = 0.0):
        self.c = _real(value, "uniform field value")

    def jet(self, r):
        return (self.c,) + _ZERO12

    def to_config(self):
        return {"kind": "uniform", "value": self.c}


class LinearField(ScalarField):
    """g . r + c"""

    kind = "linear"

    def __init__(self, gradient, offset: float = 0.0):
        self.g = _real3(gradient, "linear field gradient")
        self.c = _real(offset, "linear field offset")

    def jet(self, r):
        x, y, z = _xyz(r)
        gx, gy, gz = self.g
        return (gx * x + gy * y + gz * z + self.c, gx, gy, gz) + _ZERO9

    def to_config(self):
        return {"kind": "linear", "gradient": list(self.g), "offset": self.c}


class PolynomialField(ScalarField):
    """Sum of monomial terms c * x^a y^b z^c, degree per term unrestricted."""

    kind = "polynomial"

    def __init__(self, terms):
        # terms: list of (coefficient, (a, b, c))
        try:
            self.terms = [(_real(c, "polynomial coefficient"),
                           tuple(_exponent(e) for e in exps))
                          for c, exps in terms]
        except (TypeError, ValueError) as exc:
            raise ValueError(
                "polynomial terms must be [coefficient, [a, b, c]] pairs: "
                f"{exc}") from exc
        if any(len(exps) != 3 for _, exps in self.terms):
            raise ValueError("polynomial exponents must have three entries")

    def jet(self, r):
        xyz = _xyz(r)

        def mono(exps):
            return xyz[0] ** exps[0] * xyz[1] ** exps[1] * xyz[2] ** exps[2]

        def lower(exps, axis):
            return tuple(e - (k == axis) for k, e in enumerate(exps))

        v, g, h = 0.0, [0.0] * 3, [[0.0] * 3 for _ in range(3)]
        for c, exps in self.terms:
            v += c * mono(exps)
            for i in range(3):
                if exps[i] == 0:
                    continue
                ci, ei = c * exps[i], lower(exps, i)
                g[i] += ci * mono(ei)
                for j in range(3):
                    if ei[j]:
                        h[i][j] += ci * ei[j] * mono(lower(ei, j))
        return (v, *g, *h[0], *h[1], *h[2])

    def to_config(self):
        return {"kind": "polynomial",
                "terms": [[c, list(e)] for c, e in self.terms]}


class GaussianField(ScalarField):
    """A exp(-|r - r0|^2 / (2 s^2))"""

    kind = "gaussian"

    def __init__(self, amplitude: float = 1.0, center=(0.0, 0.0, 0.0),
                 width: float = 1.0):
        self.A = _real(amplitude, "gaussian amplitude")
        self.r0 = _real3(center, "gaussian center")
        self.s = _real(width, "gaussian width")
        if self.s <= 0:
            raise ValueError("gaussian width must be positive")
        # What every jet reads, made once: the center's components, s^4 (a
        # float above 0, and so is s^2 then) and s^2.
        self._x0, self._y0, self._z0 = self.r0
        self._s4 = _power(self.s, 4, "gaussian width")
        self._s2 = self.s ** 2
        _coefficients(((abs(self.A), self._s2), (abs(self.A), self._s4)),
                      ("gaussian amplitude", self.A), ("gaussian width", self.s))

    def jet(self, r):
        x, y, z = _xyz(r)
        dx, dy, dz = x - self._x0, y - self._y0, z - self._z0
        s2 = self._s2
        v = self.A * math.exp(-(dx * dx + dy * dy + dz * dz) / (2 * s2))
        a, b = -v / s2, v / self._s4
        hxy, hxz, hyz = b * dx * dy, b * dx * dz, b * dy * dz
        return (v, a * dx, a * dy, a * dz,
                b * dx * dx + a, hxy, hxz,
                hxy, b * dy * dy + a, hyz,
                hxz, hyz, b * dz * dz + a)

    def to_config(self):
        return {"kind": "gaussian", "amplitude": self.A,
                "center": list(self.r0), "width": self.s}


class CoulombRegularizedField(ScalarField):
    """q / sqrt(|r|^2 + a^2); a > 0 removes the singularity."""

    kind = "coulomb"

    def __init__(self, charge: float = 1.0, softening: float = 0.5):
        self.q = _real(charge, "coulomb charge")
        self.a = _real(softening, "coulomb softening")
        if self.a <= 0:
            raise ValueError("softening length must be positive")
        # Each jet divides by s^5 >= a^5, s = sqrt(|r|^2 + a^2).
        a5 = _power(self.a, 5, "coulomb softening")
        _coefficients(((abs(self.q), self.a ** 3), (3 * abs(self.q), a5)),
                      ("coulomb charge", self.q), ("coulomb softening", self.a))

    def jet(self, r):
        x, y, z = _xyz(r)
        s = math.sqrt(x * x + y * y + z * z + self.a * self.a)
        a, b = -self.q / s ** 3, 3 * self.q / s ** 5
        bx, by, bz, o = b * x, b * y, b * z, a * 0.0   # o: a delta_ij, i != j
        return (self.q / s, a * x, a * y, a * z,
                bx * x + a, bx * y + o, bx * z + o,
                by * x + o, by * y + a, by * z + o,
                bz * x + o, bz * y + o, bz * z + a)

    def to_config(self):
        return {"kind": "coulomb", "charge": self.q, "softening": self.a}


class ReciprocalField(ScalarField):
    """F = 1/n for a strictly positive profile n(r)."""

    kind = "reciprocal"

    def __init__(self, base: ScalarField):
        self.base = base

    def jet(self, r):
        n, gx, gy, gz, hxx, hxy, hxz, hyx, hyy, hyz, hzx, hzy, hzz = \
            self.base.jet(r)
        if n <= 0:
            raise ValueError("profile must stay positive")
        try:
            a, b = -1.0 / n ** 2, 2.0 / n ** 3
        except (ZeroDivisionError, OverflowError) as exc:
            how = ("underflows to 0" if isinstance(exc, ZeroDivisionError)
                   else "overflows")
            raise ValueError(f"profile value {n!r} is out of range: its "
                             f"square or cube {how}") from None
        bx, by, bz = b * gx, b * gy, b * gz
        return (1.0 / n, a * gx, a * gy, a * gz,
                a * hxx + bx * gx, a * hxy + bx * gy, a * hxz + bx * gz,
                a * hyx + by * gx, a * hyy + by * gy, a * hyz + by * gz,
                a * hzx + bz * gx, a * hzy + bz * gy, a * hzz + bz * gz)

    def to_config(self):
        return {"kind": "reciprocal", "base": self.base.to_config()}


_FIELD_KINDS = {
    "uniform": lambda cfg: UniformField(cfg.get("value", 0.0)),
    "linear": lambda cfg: LinearField(cfg.get("gradient", [0, 0, 0]),
                                      cfg.get("offset", 0.0)),
    "polynomial": lambda cfg: PolynomialField(cfg.get("terms")),
    "gaussian": lambda cfg: GaussianField(cfg.get("amplitude", 1.0),
                                          cfg.get("center", [0, 0, 0]),
                                          cfg.get("width", 1.0)),
    "coulomb": lambda cfg: CoulombRegularizedField(cfg.get("charge", 1.0),
                                                   cfg.get("softening", 0.5)),
}


def make_field(cfg: dict) -> ScalarField:
    """Build a field from its JSON configuration ({"kind": ..., ...});
    ValueError for a parameter that is not a finite real number."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ValueError("field config must be a dict with a 'kind' key")
    kind = cfg["kind"]
    if kind == "reciprocal":
        return ReciprocalField(make_field(cfg.get("base")))
    if kind not in _FIELD_KINDS:
        raise ValueError(f"unknown field kind {kind!r}")
    return _FIELD_KINDS[kind](cfg)
