"""Effective band energies through second order in hbar.

The pipeline assembles, at a classical phase point:

* the first-order rotation generator B (off-group blocks of the frame
  correction, fixed by the gauge condition that the within-group generator
  part is Hermitian),
* the corrected connections
  A^X = A0^X + (hbar/8){A0^{X_l}, grad_{X_l} A0^X}
      + (hbar/2)(-+ i grad B + [B, A0^X]),
  where the commutator of B with a canonical variable acts as a derivative
  (-i grad_P B for the position connection, +i grad_R B for the momentum one),
* the band energy in canonical variables,
  eps = eps0 + (hbar/2) P+[(Dhat eps0) A + H.C.]
      + (hbar^2/8) P+[(D W) A0 + H.C.] - (hbar/2) <eps0>,
  with D_R = grad_R + (i/2)[A0^P, .], D_P = grad_P - (i/2)[A0^R, .], Dhat the
  same with corrected connections, and W = P+[(D eps0) A0 + H.C.],
* the same energy expressed over the covariant variables, where the gradient
  terms are absorbed into the arguments and only the commutator strings and
  the ordering bracket remain explicit.

Every phase-axis field is one (6, n, n) stack in axis order (R_1, R_2, R_3,
P_1, P_2, P_3), and every contraction over the axes pairs R_l with P_l through
`frames.conjugate`, so the assembly has no per-axis branch.  A batch of N
points puts its point axis in front of every array, (N, 6, n, n), and the
assembly indexes phase axes from the end, so `band_energy` runs one point or
a batch through the same code; `band_energy_batch` feeds it chunks of
`CHUNK` points.

Everything first-order is one record, `first_order` -> `FirstOrder`: the
generator B, the hbar-free connection correction `linear` and the exact
gradients grad A0, grad B and grad W, with no stencil.  The order-2 energy,
`corrected_connections`, the covariant variables and the curvature pass all
read it.  With M_a = U0 grad_a H U0^+, X = U0 grad U0^+ = i conjugate(A0)
and E = diag eps0:

* grad_b M_a = U0 grad_a grad_b H U0^+ + [M_a, X_b] (`Model.d2_hamiltonian`),
  and the eps0 Hessian is the group scalar of P+ grad_b M_a;
* P- grad_b X_a = inv(P-(grad_b M_a - [X_a, grad_b E])), inv the
  band-commutator inversion; P+ grad_b X_a comes from the gradient of the
  model's gauge term (`Model.d_analytic_connections`), or is
  (1/2) P+[X_a, X_b] without an analytic frame (`frames.connection_gradients`);
* B and W follow by the Leibniz rule, with
  grad inv(V) = inv(grad V - [inv(V), grad E]).

Everything is Hermitized term by term; the norms of the discarded
anti-Hermitian parts of the energy terms are recorded, per point, in the
report diagnostics rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from semiband.models import Model, PhasePoint
from semiband.frames import (
    BandFrame,
    ConnectionSet,
    Tolerances,
    DEFAULT_TOL,
    _anticomm,
    _comm,
    _comm_diag,
    _dagger,
    _diag,
    berry_connections,
    classical_frame,
    conjugate,
    connection_gradients,
    eps0_gradients,
    hermitize,
    invert_band_commutator,
    matrix_norms,
    project,
)
from semiband.stencils import FDDiagnostics

__all__ = [
    "CHUNK",
    "EnergyReport",
    "FirstOrder",
    "band_energy",
    "band_energy_batch",
    "first_order",
    "rotation_generator",
    "corrected_connections",
    "first_order_kernel",
    "frame_first_order",
    "apply_energy_flow_operator",
]


# Points per batched pass of `band_energy_batch` and the CLI sweeps; the
# largest chunk arrays, the (6, 6, n, n) gradients and tangents of the
# first-order record, are 0.6 MB each for n = 4.
CHUNK = 64


def _covariant(grad: np.ndarray, A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """D_a M = grad_a M + (i/2)[conjugate(A)_a, M] over the six axes of A,
    for one matrix M (..., n, n) per point, i.e. D_R = grad_R + (i/2)[A^P, .]
    and D_P = grad_P - (i/2)[A^R, .]."""
    return grad + 0.5j * _comm(conjugate(A), M[..., None, :, :])


def _string(E: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The commutator string sum_a [E, X_a] conjugate(Y)_a, that is
    sum_l ([E, X^{R_l}] Y^{P_l} - [E, X^{P_l}] Y^{R_l})."""
    return (_comm(E[..., None, :, :], X) @ conjugate(Y)).sum(-3)


@dataclass
class EnergyReport:
    """Block-diagonal effective energy at one phase point, or at a batch of
    points with the point axis in front of every array and of the per-point
    diagnostics."""

    order: int
    representation: str             # "canonical" or "covariant"
    eps: np.ndarray                 # total matrix (..., n, n)
    zeroth: np.ndarray
    first: np.ndarray
    second: np.ndarray
    bracket_term: np.ndarray
    point: PhasePoint
    hbar: float
    partial: bool = False           # bracket term unavailable
    diagnostics: dict = dc_field(default_factory=dict)

    def band_values(self) -> np.ndarray:
        return np.real(np.diagonal(self.eps, 0, -2, -1))

    def split(self) -> list:
        """The per-point reports of a batch report."""
        return [EnergyReport(
            self.order, self.representation, self.eps[i], self.zeroth[i],
            self.first[i], self.second[i], self.bracket_term[i],
            self.point.point(i), self.hbar, self.partial,
            {k: float(v[i]) if isinstance(v, np.ndarray) else v
             for k, v in self.diagnostics.items()})
            for i in range(len(self.eps))]


# ---------------------------------------------------------------------------
# The first-order record: generator, connection correction and gradients
# ---------------------------------------------------------------------------

@dataclass
class FirstOrder:
    """The first-order frame correction at one point or a batch (point axis
    in front) and its exact phase-space gradients."""

    conns0: ConnectionSet           # order-0 connections A0, (..., 6, n, n)
    B: np.ndarray                   # rotation generator, (..., n, n)
    dA: np.ndarray                  # [b, a] = grad_b A0^a, (..., 6, 6, n, n)
    hess: np.ndarray                # grad_b grad_a eps0, (..., 6, 6, n)
    N: np.ndarray                   # [a, b] = U0 grad_a grad_b H U0^+
    dM: np.ndarray                  # [b, a] = grad_b (U0 grad_a H U0^+)
    dB: np.ndarray                  # grad B, (..., 6, n, n)
    dW: np.ndarray                  # grad W, (..., 6, n, n)
    linear: np.ndarray              # A = A0 + hbar linear, (..., 6, n, n)


def first_order(model: Model, frame: BandFrame, conns0: ConnectionSet,
                tol: Tolerances = DEFAULT_TOL) -> FirstOrder:
    """The first-order record at the frame's point, from its
    `berry_connections` set `conns0`.

    grad A0, the eps0 Hessian and the first tangents N, dM come from
    `connection_gradients`; B (`rotation_generator`) and W
    (`first_order_kernel`) are differentiated by the Leibniz rule, with
    grad inv(V) = inv(grad V - [inv(V), grad E]) for the band-commutator
    inversion.  The hbar-free connection correction is
      linear = (1/8){A0^{X_l}, grad_{X_l} A0^X} + (1/2)(-i conjugate(grad B)
               + [B, A0^X]),
    Hermitized, where -i conjugate(grad B) realizes [B, X/hbar]: -i grad_P B
    on the position components and +i grad_R B on the momentum ones.
    """
    g, A = eps0_gradients(model, frame, tol), conns0.A
    dA, hess, N, dM = connection_gradients(model, frame, conns0, tol)

    # B = -inv(P-K) + (i/4)(Y + Y^+), K = sum_a (1/2){A_a, diag g_a},
    # Y = sum_a P-A_a conjugate(P+A)_a.
    # [b, a] stacks carry A, g and D_a E on their a axis.
    gs = g[..., None, :] + g[..., :, None]
    Aa = A[..., None, :, :, :]
    K = (0.5 * A * gs).sum(-3)
    dK = 0.5 * (dA * gs[..., None, :, :, :]
                + Aa * (hess[..., None, :] + hess[..., :, None])).sum(-3)
    invK = invert_band_commutator(frame.project(K, "offdiag"), frame, tol)
    dB = -invert_band_commutator(frame.project(dK, "offdiag")
                                 - _comm_diag(invK[..., None, :, :], g),
                                 frame, tol)
    Aoff, Adiag = frame.project(A, "offdiag"), frame.project(A, "diag")
    dY = (frame.project(dA, "offdiag") @ conjugate(Adiag)[..., None, :, :, :]
          + Aoff[..., None, :, :, :] @ conjugate(frame.project(dA, "diag"))
          ).sum(-3)
    dB += 0.25j * (dY + _dagger(dY))

    # W = P+(T + T^+), T = sum_a (D_a E) A_a with D_a E = diag(g_a)
    # + (i/2)[conjugate(A)_a, E].
    DE = _covariant(_diag(g), A, _diag(frame.eps0))
    dDE = _diag(hess) + 0.5j * (
        _comm_diag(conjugate(dA), frame.eps0[..., None, None, :])
        + _comm_diag(conjugate(A)[..., None, :, :, :], g[..., :, None, :]))
    dT = (dDE @ Aa + DE[..., None, :, :, :] @ dA).sum(-3)
    dW = frame.project(dT + _dagger(dT), "diag")

    B = rotation_generator(model, frame, conns0, tol)
    corr = (0.125 * _anticomm(A[..., :, None, :, :], dA)).sum(-4)
    corr += 0.5 * (-1j * conjugate(dB) + _comm(B[..., None, :, :], A))
    return FirstOrder(conns0, B, dA, hess, N, dM, dB, dW, hermitize(corr))


def rotation_generator(model: Model, frame: BandFrame, conns: ConnectionSet,
                       tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The anti-Hermitian off-group generator B of the first-order frame.

    B = -[. , eps0]^{-1} P-{ (1/2) A^{X_l} grad_{X_l} eps0 + H.C. }
        + (i/4) { P-A^{R_l} P+A^{P_l} - P-A^{P_l} P+A^{R_l} + H.C. }
    """
    grads = eps0_gradients(model, frame, tol)
    M = (0.5 * _anticomm(conns.A, _diag(grads))).sum(-3)
    B = -invert_band_commutator(frame.project(M, "offdiag"), frame, tol)
    X = (frame.project(conns.A, "offdiag")
         @ conjugate(frame.project(conns.A, "diag"))).sum(-3)
    return B + 0.25j * (X + _dagger(X))


def corrected_connections(first: FirstOrder, hbar: float) -> ConnectionSet:
    """Connections including the order-hbar correction, A0 + hbar linear."""
    conns0 = first.conns0
    return ConnectionSet(hermitize(conns0.A + hbar * first.linear),
                         "corrected", conns0.point, hbar, linear=first.linear)


def frame_first_order(model: Model, frame: BandFrame, conns0: ConnectionSet,
                      hbar: float, tol: Tolerances = DEFAULT_TOL):
    """First-order transformation U = (1 + hbar U1) U0.

    U1 = B + hr with hr = -(i/4)[A0^{R_l}, A0^{P_l}]; the gauge choice makes
    the within-group part of the generator Hermitian (P+ of the anti-Hermitian
    part vanishes).  Returns (U, U1, B, hr).
    """
    B = rotation_generator(model, frame, conns0, tol)
    hr = -0.25j * (conns0.A @ conjugate(conns0.A)).sum(-3)
    U1 = B + hr
    U = (np.eye(frame.n) + hbar * U1) @ frame.U0
    return U, U1, B, hr


# ---------------------------------------------------------------------------
# Energy assembly
# ---------------------------------------------------------------------------

def first_order_kernel(model: Model, frame: BandFrame, conns: ConnectionSet,
                       tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """W = P+[ (D_X eps0) A^X + H.C. ]; the first-order energy is (hbar/2) W."""
    grads = eps0_gradients(model, frame, tol)
    DE = _covariant(_diag(grads), conns.A, _diag(frame.eps0))
    T = (DE @ conns.A).sum(-3)
    return frame.project(T + _dagger(T), "diag")


def _bracket_term(model: Model, x: PhasePoint, hbar: float, frame: BandFrame):
    """-(hbar/2) <eps0> from the model's declared form, block-projected and
    not yet Hermitized; (matrix, partial?)."""
    try:
        raw = model.ordering_bracket_term(x, hbar)
    except NotImplementedError:
        return np.zeros(frame.U0.shape, dtype=complex), True
    return frame.project(raw, "diag"), False


def band_energy(model: Model, x: PhasePoint, hbar: float, order: int = 2,
                representation: str = "canonical",
                tol: Tolerances = DEFAULT_TOL) -> EnergyReport:
    """Effective band energy at x through the requested order in hbar.

    x is one point or a batch (`PhasePoint.stack`); a batch gives one report
    whose arrays and per-point diagnostics carry the point axis in front,
    and raises if any of its points would.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    if representation not in ("canonical", "covariant"):
        raise ValueError("representation must be 'canonical' or 'covariant'")
    if not model.bracket_h_vanishes:
        raise NotImplementedError(
            "unsupported model: the Hamiltonian bracket <H> does not vanish"
        )
    frame = classical_frame(model, x, tol)
    eps0_mat = _diag(frame.eps0)
    zero = np.zeros(frame.U0.shape, dtype=complex)
    diagnostics: dict = {}

    first = zero.copy()
    second = zero.copy()
    bracket = zero.copy()
    partial = False
    defects = []                    # discarded anti-Hermitian parts

    def hermitized(mat: np.ndarray) -> np.ndarray:
        herm = hermitize(mat)
        defects.append(matrix_norms(mat - herm))
        return herm

    if order >= 1:
        conns0 = berry_connections(model, x, hbar, frame=frame, tol=tol)
        W = first_order_kernel(model, frame, conns0, tol)
        first = hermitized((hbar / 2.0) * W)

    if order == 2:
        rec = first_order(model, frame, conns0, tol)
        bracket, partial = _bracket_term(model, x, hbar, frame)
        bracket = hermitized(bracket)

        if representation == "canonical":
            second = _second_order_canonical(
                frame, rec, eps0_gradients(model, frame, tol), W, hbar)
        else:
            # In covariant variables the gradient terms live inside the
            # covariant arguments; only the commutator strings are explicit.
            first, second = _second_order_covariant(frame, rec, hbar)
        second = hermitized(second)
        first = hermitized(first)
        # An empty stencil record: no stencil runs, and readers of order-2
        # reports still find the key.
        diagnostics["fd"] = FDDiagnostics()

    total = eps0_mat + first + second + bracket
    if not np.isfinite(total).all():
        raise FloatingPointError("band energy is not finite")
    off = matrix_norms(frame.project(total, "offdiag"))
    defect = np.max(defects, axis=0) if defects else np.zeros(off.shape)
    point_values = float if off.ndim == 0 else np.asarray
    diagnostics["offblock_norm"] = point_values(off)
    diagnostics["hermiticity_defect"] = point_values(defect)
    diagnostics["bracket_unavailable"] = partial
    scale = np.maximum(matrix_norms(total), 1e-300)
    if (off > 1e-10 * scale).any():
        raise ValueError("energy lost block diagonality; inspect the pipeline")

    return EnergyReport(order, representation, total, eps0_mat, first, second,
                        bracket, x, hbar, partial, diagnostics)


def _second_order_canonical(frame: BandFrame, rec: FirstOrder,
                            grads: np.ndarray, W0: np.ndarray,
                            hbar: float) -> np.ndarray:
    """Exact hbar^2 coefficient of the canonical-variable energy, times hbar^2.

    The corrected first-order term (hbar/2)[(Dhat eps0) A + H.C.] is expanded
    in the connection correction A = A0 + hbar A1 and truncated at the linear
    pieces; the quadratic cross term is order hbar^3 and not part of the
    second-order result.  The nested double-action term (hbar^2/8)[(D W) A0
    + H.C.] is added with W0 the first-order kernel at the point and
    D W = grad W + (i/2)[conjugate(A0), W0].
    """
    eps_mat = _diag(frame.eps0)
    A0, A1 = rec.conns0.A, rec.linear
    # A0 -> A0 + hbar A1 changes D eps0 only through its commutator part.
    S = (_covariant(0.0, A1, eps_mat) @ A0
         + _covariant(_diag(grads), A0, eps_mat) @ A1).sum(-3)
    linear = (hbar ** 2 / 2.0) * frame.project(S + _dagger(S), "diag")

    N = (_covariant(rec.dW, A0, W0) @ A0).sum(-3)
    nested = (hbar ** 2 / 8.0) * frame.project(N + _dagger(N), "diag")
    return linear + nested


def _second_order_covariant(frame: BandFrame, rec: FirstOrder, hbar: float):
    """(first, second) commutator strings of the covariant-variable form.

    The gradient content is absorbed into the covariant arguments (which at a
    classical point evaluate to the canonical ones), leaving the connection
    commutator terms and, for models with momentum connections, the
    second-order strings built from the order-0 connections (Hermitized, as
    the sign bookkeeping of those two lines is enforced term by term).
    """
    eps_mat = _diag(frame.eps0)
    A0, A1 = rec.conns0.A, rec.linear
    Wstr = _string(eps_mat, A0, A0)
    T0 = Wstr - _comm(eps_mat, (A0 @ conjugate(A0)).sum(-3))
    T1 = _string(eps_mat, A1, A0) + _string(eps_mat, A0, A1)
    # (i/4) hbar {T + H.C.} with T = T0 + hbar T1, truncated at hbar^2; the
    # H.C. of (i/4)T is -(i/4)T^+.
    first = 0.25j * hbar * (T0 - _dagger(T0))
    second = 0.25j * hbar ** 2 * (T1 - _dagger(T1))

    S = _string(Wstr, A0, A0)
    second += -(hbar ** 2 / 8.0) * 0.5 * (S + _dagger(S))
    first = frame.project(first, "diag")
    second = frame.project(second, "diag")
    return first, second


def band_energy_batch(model: Model, points, hbar: float, order: int = 2,
                      representation: str = "canonical",
                      tol: Tolerances = DEFAULT_TOL) -> list:
    """Energy reports for a list of phase points (order preserved), from one
    batched `band_energy` pass per chunk of `CHUNK` points.  Each report
    equals the single-point `band_energy` at its point bit for bit; a point
    that fails makes the whole call raise."""
    reports = []
    for start in range(0, len(points), CHUNK):
        batch = PhasePoint.stack(points[start:start + CHUNK])
        reports += band_energy(model, batch, hbar, order, representation,
                               tol).split()
    return reports


# ---------------------------------------------------------------------------
# The alpha-flow operator (used by the structural residual check)
# ---------------------------------------------------------------------------

def apply_energy_flow_operator(eps_mat: np.ndarray, eps_grads: np.ndarray,
                               conns: ConnectionSet,
                               groups: np.ndarray) -> np.ndarray:
    """O eps = (1/2) P+{A^{X_l} grad eps + grad eps A^{X_l}}
             + [(i/4) P+{[eps, A^{R_l}] A^{P_l} - [eps, A^{P_l}] A^{R_l}} + H.C.]

    `eps_grads` is the (6, n, n) stack of phase gradients of the full energy
    matrix field.
    """
    out = (0.5 * _anticomm(conns.A, eps_grads)).sum(-3)
    Xp = project(_string(eps_mat, conns.A, conns.A), groups, "diag")
    # (i/4) P+{X} + H.C. = (i/4)(P+X - (P+X)^+)
    out = project(out, groups, "diag") + 0.25j * (Xp - _dagger(Xp))
    return out
