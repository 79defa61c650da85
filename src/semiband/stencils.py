"""Central finite-difference stencils over phase space.

Fourth-order five-point stencils with step h = base * (1 + |coordinate|),
base `DEFAULT_FD_BASE`, and a three-point second-order fallback when a
stencil point cannot be evaluated.  The pipeline's results run no stencil,
and no engine module imports this one; the finite-difference cross-checks
of the tests and `verify` suites do.
"""

from __future__ import annotations

__all__ = ["fd_step", "derivative_along"]

DEFAULT_FD_BASE = 1e-3


def fd_step(coordinate: float) -> float:
    return DEFAULT_FD_BASE * (1.0 + abs(coordinate))


def derivative_along(f, x, axis: int):
    """d f / d(axis) at the phase point x; f maps PhasePoint -> ndarray/float.

    Axes 0-2 are position components, 3-5 momentum components.
    """
    h = fd_step(x.coord(axis))
    try:
        fp2 = f(x.shifted(axis, 2 * h))
        fp1 = f(x.shifted(axis, h))
        fm1 = f(x.shifted(axis, -h))
        fm2 = f(x.shifted(axis, -2 * h))
    except (ValueError, FloatingPointError):
        # Second-order fallback with a smaller footprint.
        fp1 = f(x.shifted(axis, h))
        fm1 = f(x.shifted(axis, -h))
        return (fp1 - fm1) / (2 * h)
    return (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * h)
