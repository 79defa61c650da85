"""Finite-difference stencils: accuracy and fallback."""

import numpy as np
import pytest

from semiband.models import PhasePoint
from semiband.stencils import derivative_along, fd_step


def test_fd_step_scales_with_coordinate():
    assert fd_step(0.0) == pytest.approx(1e-3)
    assert fd_step(-9.0) == pytest.approx(1e-2)


def test_fourth_order_accuracy():
    x = PhasePoint.of([0.3, -0.2, 0.5], [0.7, 0.1, -0.4])

    def f(y):
        return np.sin(y.R[0]) * np.cosh(y.P[2])

    d0 = derivative_along(f, x, 0)
    assert d0 == pytest.approx(np.cos(0.3) * np.cosh(-0.4), abs=1e-11)
    d5 = derivative_along(f, x, 5)
    assert d5 == pytest.approx(np.sin(0.3) * np.sinh(-0.4), abs=1e-11)

    # Every phase axis: R axes differentiate along R, P axes along P.
    def g(y):
        return float(y.R @ y.P)

    grads = [derivative_along(g, x, axis) for axis in range(6)]
    assert np.allclose(grads[:3], x.P, atol=1e-10)
    assert np.allclose(grads[3:], x.R, atol=1e-10)


def test_second_order_fallback_on_failure():
    x = PhasePoint.of([0.0015, 0, 0], [1, 0, 0])

    def f(y):
        # Evaluable only on a narrow strip: the wide stencil must fall back.
        if abs(y.R[0]) > 0.0035:
            raise ValueError("outside domain")
        return y.R[0] ** 2

    d = derivative_along(f, x, 0)
    assert d == pytest.approx(2 * 0.0015, rel=1e-6)
