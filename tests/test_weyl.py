"""Exact identities of the symbolic phase-space algebra."""

import random
from fractions import Fraction

import pytest

from semiband.weyl import (
    QC,
    QC_I,
    PAULI,
    Factorization,
    WeylExpr,
    bracket_product_residual,
    invariant_derivative_residual,
    full_symmetrizations,
    symmetrized_bracket,
    random_factorization,
    random_resymmetrization,
    Mat,
    mat_eye,
    mat_scale,
)


# The z-only two_level models of the byte-identity CI step with "half"
# mixed terms, whose ordering brackets are nonzero: R_x^2 P_x^2 and
# R_x^3 P_x^3 on one axis, and R_x R_y P_x P_y and R_x^2 R_z P_x P_z^2,
# which sum over more than one axis.
MIXED_TWO_LEVEL = {
    "model": "two_level",
    "h0": [{"coef": "1/2", "r_exp": [2, 0, 0]},
           {"coef": "1/2", "p_exp": [2, 0, 0]},
           {"coef": "1/10", "r_exp": [2, 0, 0], "p_exp": [2, 0, 0],
            "sym": "half"}],
    "h": [[], [], [{"coef": "1"},
                   {"coef": "1/20", "r_exp": [3, 0, 0], "p_exp": [3, 0, 0],
                    "sym": "half"}]],
}
AXES_TWO_LEVEL = {
    "model": "two_level",
    "h0": [{"coef": "1/2", "r_exp": [2, 0, 0]},
           {"coef": "1/2", "p_exp": [2, 0, 0]},
           {"coef": "1/10", "r_exp": [1, 1, 0], "p_exp": [1, 1, 0],
            "sym": "half"}],
    "h": [[], [], [{"coef": "1"},
                   {"coef": "1/20", "r_exp": [2, 0, 1], "p_exp": [1, 0, 2],
                    "sym": "half"}]],
}


def mat_kron(a: Mat, b: Mat) -> Mat:
    na, nb = len(a), len(b)
    return tuple(
        tuple(a[i // nb][j // nb] * b[i % nb][j % nb] for j in range(na * nb))
        for i in range(na * nb)
    )


def R(axis=0, n=1):
    return WeylExpr.coord("R", axis, n)


def P(axis=0, n=1):
    return WeylExpr.coord("P", axis, n)


def test_qc_arithmetic_exact():
    a = QC.of(Fraction(1, 3), 2)
    b = QC.of(Fraction(-1, 3), Fraction(1, 7))
    assert (a + b).re == 0
    assert (a * b).re == Fraction(1, 3) * Fraction(-1, 3) - 2 * Fraction(1, 7)
    assert a.conj().im == -2
    assert (QC_I * QC_I).re == -1


def test_multiply_single_commutator_rewrite():
    # P R = R P - i hbar
    left = P() * R()
    expected = R() * P() - WeylExpr.hbar().scaled(QC_I)
    assert left == expected


def test_multiply_identity_case():
    # R P is already normally ordered
    rp = R() * P()
    assert set(rp.terms) == {((1, 0, 0), (1, 0, 0), 0)}


def test_multiply_p_squared_r():
    # Hand oracle: P (P R) = P (R P - i hbar) = (R P - i hbar) P - i hbar P
    #            = R P^2 - 2 i hbar P
    left = P() * P() * R()
    expected = R() * P() * P() - (WeylExpr.hbar() * P()).scaled(QC.of(0, 2))
    assert left == expected


def test_multiply_dimension_mismatch():
    with pytest.raises(ValueError):
        R(n=1) * R(n=2)


def test_commutator_canonical():
    assert R().commutator(P()) == WeylExpr.hbar().scaled(QC_I)


def test_commutator_r_with_r2p():
    # Hand expansion: [R, R^2 P] = R^3 P - R^2 (R P - i hbar) = i hbar R^2
    lhs = R().commutator(R() * R() * P())
    expected = (WeylExpr.hbar() * R() * R()).scaled(QC_I)
    assert lhs == expected


def test_commutator_pauli_matrices():
    # [sigma_x x 1, sigma_y x 1] = 2 i sigma_z x 1; trivial phase-space part
    sx = WeylExpr.const(mat_kron(PAULI["x"], mat_eye(2)))
    sy = WeylExpr.const(mat_kron(PAULI["y"], mat_eye(2)))
    sz = WeylExpr.const(mat_kron(PAULI["z"], mat_eye(2)))
    assert sx.commutator(sy) == sz.scaled(QC.of(0, 2))


def test_commutator_antisymmetry_random():
    rng = random.Random(7)
    for _ in range(40):
        a = random_factorization(rng, n=2, max_degree=4).multiply_out()
        b = random_factorization(rng, n=2, max_degree=4).multiply_out()
        assert (a.commutator(b) + b.commutator(a)).is_zero()


def test_multiply_associative_random():
    rng = random.Random(11)
    for _ in range(30):
        a = random_factorization(rng, n=2, max_degree=4).multiply_out()
        b = random_factorization(rng, n=1 if a.n == 1 else 2, max_degree=4).multiply_out()
        c = random_factorization(rng, n=a.n, max_degree=4).multiply_out()
        assert ((a * b) * c) == (a * (b * c))


def test_derivative_basics():
    r2p = R() * R() * P()
    assert r2p.derivative("R", 0) == (R() * P()).scaled(QC.of(2))
    assert r2p.derivative("P", 0) == R() * R()
    assert (WeylExpr.hbar() * P()).derivative("R", 0).is_zero()


def test_bracket_half_symmetrized_rp_is_zero():
    # (R P + P R)/2 is the fully symmetrized degree-2 monomial; bracket 0
    half = QC.of(Fraction(1, 2))
    f1 = Factorization([("R", R().scaled(half)), ("P", P())])
    f2 = Factorization([("P", P().scaled(half)), ("R", R())])
    assert (f1.bracket() + f2.bracket()).is_zero()


def test_bracket_unsymmetrized_products():
    # <A(R) B(P)> = (i/2) grad A . grad B, <B A> gets the opposite sign
    f_ab = Factorization([("R", R()), ("P", P())])
    assert f_ab.bracket() == WeylExpr.scalar(QC.of(0, Fraction(1, 2)))
    f_ba = Factorization([("P", P()), ("R", R())])
    assert f_ba.bracket() == WeylExpr.scalar(QC.of(0, Fraction(-1, 2)))


def test_bracket_pauli_half_symmetrized():
    # F = (sigma_x R . sigma_y P + sigma_y P . sigma_x R)/2
    # -> (i/4)[sigma_x, sigma_y] = -sigma_z/2
    half = QC.of(Fraction(1, 2))
    sxR = WeylExpr.const(PAULI["x"]) * R(n=2)
    syP = WeylExpr.const(PAULI["y"]) * P(n=2)
    f1 = Factorization([("R", sxR.scaled(half)), ("P", syP)])
    f2 = Factorization([("P", syP.scaled(half)), ("R", sxR)])
    total = f1.bracket() + f2.bracket()
    expected = WeylExpr.const(mat_scale(QC.of(Fraction(-1, 2)), PAULI["z"]))
    assert total == expected


def test_bracket_pure_sum_vanishes():
    # A(R) + B(P) has no mixed factor pair
    f_a = Factorization([("R", R() * R())])
    f_b = Factorization([("P", P() * P() * P())])
    assert f_a.bracket().is_zero()
    assert f_b.bracket().is_zero()


def test_bracket_rejects_impure_factor():
    with pytest.raises(ValueError):
        Factorization([("R", R() * P())])


def test_bracket_product_rule_simple():
    f = Factorization([("R", R())])
    g = Factorization([("P", P())])
    assert bracket_product_residual(f, g).is_zero()


def test_bracket_product_rule_squares():
    f = Factorization([("R", R() * R())])
    g = Factorization([("P", P() * P())])
    assert bracket_product_residual(f, g).is_zero()


@pytest.mark.parametrize("dim", [1, 2])
def test_bracket_product_rule_random(dim):
    rng = random.Random(100 + dim)
    for _ in range(100):
        f = random_factorization(rng, n=dim, max_degree=6)
        g = random_factorization(rng, n=dim, max_degree=6)
        assert bracket_product_residual(f, g).is_zero()


def test_invariant_derivative_reordered_pair():
    # PR vs RP - i hbar: same operator, different forms
    f1 = Factorization([("P", P()), ("R", R())])
    f2 = [
        Factorization([("R", R()), ("P", P())]),
        Factorization([("R", WeylExpr.hbar().scaled(-QC_I))]),
    ]
    assert invariant_derivative_residual(f1, f2).is_zero()
    # And the common value is -i/2
    assert f1.invariant_derivative() == WeylExpr.scalar(QC.of(0, Fraction(-1, 2)))


def test_invariant_derivative_constant_matrix():
    f = Factorization([("R", WeylExpr.const(PAULI["y"]))])
    assert f.invariant_derivative().is_zero()


def test_invariant_derivative_degree4_symmetrization():
    # Fully symmetrized R^2 P^2 versus its normal form
    from semiband.weyl import form_sum_expr

    forms = full_symmetrizations((2, 0, 0), (2, 0, 0))
    normal = [
        Factorization(
            [("R", WeylExpr.monomial(r, (0, 0, 0), hpow=h, mat=mat)),
             ("P", WeylExpr.monomial((0, 0, 0), p, n=1))]
        )
        for (r, p, h), mat in form_sum_expr(forms).terms.items()
    ]
    assert invariant_derivative_residual(forms, normal).is_zero()


@pytest.mark.parametrize("dim", [1, 2])
def test_invariant_derivative_random_resymmetrizations(dim):
    rng = random.Random(55 + dim)
    for _ in range(50):
        f = random_factorization(rng, n=dim, max_degree=5)
        g = random_resymmetrization(rng, f)
        assert invariant_derivative_residual(f, g).is_zero()


def test_fully_symmetrized_bracket_vanishes():
    cases = [
        ((1, 0, 0), (1, 0, 0)),
        ((2, 0, 0), (1, 0, 0)),
        ((1, 1, 0), (0, 0, 1)),
        ((2, 0, 0), (2, 0, 0)),
        ((1, 0, 0), (2, 1, 0)),
        ((3, 0, 0), (2, 0, 0)),
    ]
    for r_exp, p_exp in cases:
        assert symmetrized_bracket(r_exp, p_exp).is_zero()
    # Matrix coefficients do not spoil it: the bracket is linear in the
    # constant matrix and the orderings cancel pairwise.
    assert symmetrized_bracket((2, 0, 0), (1, 0, 0), mat=PAULI["y"]).is_zero()


def test_symmetrization_degree_cap():
    with pytest.raises(ValueError):
        full_symmetrizations((5, 0, 0), (4, 0, 0), cap=8)


def test_classical_evaluation():
    import numpy as np

    expr = R() * P() - WeylExpr.hbar().scaled(QC_I)
    val = expr.evaluate([2.0, 0, 0], [3.0, 0, 0], hbar=0.5)
    assert np.allclose(val, np.array([[6.0 - 0.5j]]))


def _nonzero_random_bracket() -> WeylExpr:
    """The bracket of the first random n = 2 factorization whose bracket is
    not zero."""
    rng = random.Random(23)
    while True:
        expr = random_factorization(rng, n=2, max_degree=6).bracket()
        if not expr.is_zero():
            return expr


@pytest.mark.parametrize("hbar", [0.01, 0.1, 0.37])
@pytest.mark.parametrize("case", ["two_level_mixed", "two_level_axes",
                                  "random"])
def test_batch_evaluation_equals_its_points_bit_for_bit(case, hbar):
    # A batch (N, 3) is evaluated in one call, and equals the loop of its
    # one-point calls bit for bit (bytes compared, so signed zeros count),
    # also where a coordinate is +0.0 or -0.0.
    import numpy as np
    from semiband.models import make_model

    if case == "random":
        exprs = [_nonzero_random_bracket()]
    else:
        cfg = MIXED_TWO_LEVEL if case == "two_level_mixed" else AXES_TWO_LEVEL
        exprs = make_model(cfg)._band_brackets
    R, P = np.random.default_rng(31).uniform(-2.0, 2.0, (2, 50, 3))
    R[:5, 0], P[3:8, 0] = -0.0, 0.0
    R[6:9, 1:], P[8:12, 1:] = 0.0, -0.0
    for expr in exprs:
        assert not expr.is_zero()
        got = expr.evaluate(R, P, hbar)
        want = np.array([expr.evaluate(r, p, hbar) for r, p in zip(R, P)])
        assert got.shape == want.shape == (50, expr.n, expr.n)
        assert got.tobytes() == want.tobytes()
