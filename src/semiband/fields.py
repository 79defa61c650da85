"""Scalar background fields with analytic derivatives.

Every field kind defines one method, `jet(r)`: value, gradient and hessian at
a 3-point in plain floats, so each kind keeps one copy of its formulas.
value/gradient/hessian/laplacian are views of it.  The analytic derivatives
are validated against central finite differences in the test suite (1e-6
relative).  `ReciprocalField` wraps a positive profile n(R) as F = 1/n, which
is how a refractive-index profile enters the massless model.
"""

from __future__ import annotations

import math

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


_ZERO3 = (0.0, 0.0, 0.0)
_ZERO33 = (_ZERO3, _ZERO3, _ZERO3)


def _xyz(r) -> tuple:
    x, y, z = r
    return float(x), float(y), float(z)


class ScalarField:
    """Contract: `jet(r)` returns (value, (gx, gy, gz), 3x3 tuple hessian) in
    plain floats; value/gradient/hessian/laplacian are views of it."""

    kind = "abstract"

    def jet(self, r) -> tuple:
        raise NotImplementedError

    def value(self, r) -> float:
        return self.jet(r)[0]

    def gradient(self, r) -> np.ndarray:
        return np.array(self.jet(r)[1])

    def hessian(self, r) -> np.ndarray:
        return np.array(self.jet(r)[2])

    def laplacian(self, r) -> float:
        h = self.jet(r)[2]
        return h[0][0] + h[1][1] + h[2][2]

    def to_config(self) -> dict:
        raise NotImplementedError


class UniformField(ScalarField):
    kind = "uniform"

    def __init__(self, value: float = 0.0):
        self.c = float(value)

    def jet(self, r):
        return self.c, _ZERO3, _ZERO33

    def to_config(self):
        return {"kind": "uniform", "value": self.c}


class LinearField(ScalarField):
    """g . r + c"""

    kind = "linear"

    def __init__(self, gradient, offset: float = 0.0):
        self.g = _xyz(gradient)
        self.c = float(offset)

    def jet(self, r):
        x, y, z = _xyz(r)
        gx, gy, gz = self.g
        return gx * x + gy * y + gz * z + self.c, self.g, _ZERO33

    def to_config(self):
        return {"kind": "linear", "gradient": list(self.g), "offset": self.c}


class PolynomialField(ScalarField):
    """Sum of monomial terms c * x^a y^b z^c, degree per term unrestricted."""

    kind = "polynomial"

    def __init__(self, terms):
        # terms: list of (coefficient, (a, b, c))
        self.terms = [(float(c), tuple(int(e) for e in exps)) for c, exps in terms]

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
        return v, tuple(g), tuple(map(tuple, h))

    def to_config(self):
        return {"kind": "polynomial",
                "terms": [[c, list(e)] for c, e in self.terms]}


class GaussianField(ScalarField):
    """A exp(-|r - r0|^2 / (2 s^2))"""

    kind = "gaussian"

    def __init__(self, amplitude: float = 1.0, center=(0.0, 0.0, 0.0),
                 width: float = 1.0):
        self.A = float(amplitude)
        self.r0 = _xyz(center)
        self.s = float(width)
        if self.s <= 0:
            raise ValueError("gaussian width must be positive")

    def jet(self, r):
        x, y, z = _xyz(r)
        dx, dy, dz = x - self.r0[0], y - self.r0[1], z - self.r0[2]
        s2 = self.s ** 2
        v = self.A * math.exp(-(dx * dx + dy * dy + dz * dz) / (2 * s2))
        a, b = -v / s2, v / self.s ** 4
        hxy, hxz, hyz = b * dx * dy, b * dx * dz, b * dy * dz
        return v, (a * dx, a * dy, a * dz), (
            (b * dx * dx + a, hxy, hxz), (hxy, b * dy * dy + a, hyz),
            (hxz, hyz, b * dz * dz + a))

    def to_config(self):
        return {"kind": "gaussian", "amplitude": self.A,
                "center": list(self.r0), "width": self.s}


class CoulombRegularizedField(ScalarField):
    """q / sqrt(|r|^2 + a^2); a > 0 removes the singularity."""

    kind = "coulomb"

    def __init__(self, charge: float = 1.0, softening: float = 0.5):
        self.q = float(charge)
        self.a = float(softening)
        if self.a <= 0:
            raise ValueError("softening length must be positive")

    def jet(self, r):
        r = _xyz(r)
        s = math.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2] + self.a * self.a)
        a, b = -self.q / s ** 3, 3 * self.q / s ** 5
        h = tuple([tuple([b * ri * rj + a * (i == j) for j, rj in enumerate(r)])
                   for i, ri in enumerate(r)])
        return self.q / s, (a * r[0], a * r[1], a * r[2]), h

    def to_config(self):
        return {"kind": "coulomb", "charge": self.q, "softening": self.a}


class ReciprocalField(ScalarField):
    """F = 1/n for a strictly positive profile n(r)."""

    kind = "reciprocal"

    def __init__(self, base: ScalarField):
        self.base = base

    def jet(self, r):
        n, (gx, gy, gz), h = self.base.jet(r)
        if n <= 0:
            raise ValueError("profile must stay positive")
        a, b = -1.0 / n ** 2, 2.0 / n ** 3
        hess = tuple([(a * hi[0] + b * gi * gx, a * hi[1] + b * gi * gy,
                       a * hi[2] + b * gi * gz)
                      for hi, gi in zip(h, (gx, gy, gz))])
        return 1.0 / n, (a * gx, a * gy, a * gz), hess

    def to_config(self):
        return {"kind": "reciprocal", "base": self.base.to_config()}


_FIELD_KINDS = {
    "uniform": lambda cfg: UniformField(cfg.get("value", 0.0)),
    "linear": lambda cfg: LinearField(cfg.get("gradient", [0, 0, 0]),
                                      cfg.get("offset", 0.0)),
    "polynomial": lambda cfg: PolynomialField(
        [(t[0], t[1]) for t in cfg["terms"]]),
    "gaussian": lambda cfg: GaussianField(cfg.get("amplitude", 1.0),
                                          cfg.get("center", [0, 0, 0]),
                                          cfg.get("width", 1.0)),
    "coulomb": lambda cfg: CoulombRegularizedField(cfg.get("charge", 1.0),
                                                   cfg.get("softening", 0.5)),
}
_FIELD_KINDS["coulomb-regularized"] = _FIELD_KINDS["coulomb"]


def make_field(cfg: dict) -> ScalarField:
    """Build a field from its JSON configuration ({"kind": ..., ...})."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ValueError("field config must be a dict with a 'kind' key")
    kind = cfg["kind"]
    if kind == "reciprocal":
        return ReciprocalField(make_field(cfg["base"]))
    if kind not in _FIELD_KINDS:
        raise ValueError(f"unknown field kind {kind!r}")
    return _FIELD_KINDS[kind](cfg)
