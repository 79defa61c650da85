"""Central finite-difference stencils over phase space.

Fourth-order five-point stencils with step h = base * (1 + |coordinate|), a
three-point second-order fallback when a stencil point cannot be evaluated,
and a consistency diagnostic (the 4th/2nd-order discrepancy is reported, not
silently discarded).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FDDiagnostics", "fd_step", "derivative_along"]

DEFAULT_FD_BASE = 1e-3


@dataclass
class FDDiagnostics:
    """Per-call record of stencil behaviour."""

    order: int = 4
    discrepancy: float = 0.0
    fallbacks: int = 0

    def merge(self, other: "FDDiagnostics") -> None:
        self.order = min(self.order, other.order)
        self.discrepancy = max(self.discrepancy, other.discrepancy)
        self.fallbacks += other.fallbacks


def fd_step(coordinate: float, base: float = DEFAULT_FD_BASE) -> float:
    return base * (1.0 + abs(coordinate))


def derivative_along(f, x, axis: int, base: float = DEFAULT_FD_BASE,
                     diagnostics: FDDiagnostics | None = None):
    """d f / d(axis) at the phase point x; f maps PhasePoint -> ndarray/float.

    Axes 0-2 are position components, 3-5 momentum components.
    """
    h = fd_step(x.coord(axis), base)
    try:
        fp2 = f(x.shifted(axis, 2 * h))
        fp1 = f(x.shifted(axis, h))
        fm1 = f(x.shifted(axis, -h))
        fm2 = f(x.shifted(axis, -2 * h))
    except (ValueError, FloatingPointError):
        # Second-order fallback with a smaller footprint.
        fp1 = f(x.shifted(axis, h))
        fm1 = f(x.shifted(axis, -h))
        if diagnostics is not None:
            diagnostics.order = 2
            diagnostics.fallbacks += 1
        return (fp1 - fm1) / (2 * h)
    d4 = (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * h)
    if diagnostics is not None:
        d2 = (fp1 - fm1) / (2 * h)
        diagnostics.discrepancy = max(
            diagnostics.discrepancy, float(np.max(np.abs(d4 - d2)))
        )
    return d4

