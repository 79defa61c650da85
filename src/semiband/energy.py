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
`frames.conjugate`, so the assembly has no per-axis branch.  The three
derivatives an order-2 point needs (grad A0, grad B and D W) come from one
stencil pass over the stacked field [A0^R, A0^P, B, W]
(`phase_field_gradients`).

Everything is Hermitized term by term; discarded anti-Hermitian defects are
recorded in the report diagnostics rather than silently dropped.
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
    berry_connections,
    classical_frame,
    conjugate,
    eps0_gradients,
    frame_field,
    hermitize,
    invert_band_commutator,
    project,
)
from semiband.stencils import FDDiagnostics, derivative_along

__all__ = [
    "EnergyReport",
    "band_energy",
    "band_energy_batch",
    "rotation_generator",
    "corrected_connections",
    "first_order_kernel",
    "frame_first_order",
    "apply_energy_flow_operator",
    "phase_field_gradients",
]


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _anticomm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def _comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _diag(d: np.ndarray) -> np.ndarray:
    """Diagonal matrices (..., n, n) from their diagonals (..., n)."""
    out = np.zeros(d.shape + d.shape[-1:], dtype=complex)
    idx = np.arange(d.shape[-1])
    out[..., idx, idx] = d
    return out


def _covariant(grad: np.ndarray, A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """D_a M = grad_a M + (i/2)[conjugate(A)_a, M] over the six axes, i.e.
    D_R = grad_R + (i/2)[A^P, .] and D_P = grad_P - (i/2)[A^R, .]."""
    return grad + 0.5j * _comm(conjugate(A), M)


def _string(E: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The commutator string sum_a [E, X_a] conjugate(Y)_a, that is
    sum_l ([E, X^{R_l}] Y^{P_l} - [E, X^{P_l}] Y^{R_l})."""
    return (_comm(E, X) @ conjugate(Y)).sum(0)


@dataclass
class EnergyReport:
    """Block-diagonal effective energy at one phase point."""

    order: int
    representation: str             # "canonical" or "covariant"
    eps: np.ndarray                 # total matrix (n, n)
    zeroth: np.ndarray
    first: np.ndarray
    second: np.ndarray
    bracket_term: np.ndarray
    point: PhasePoint
    hbar: float
    partial: bool = False           # bracket term unavailable
    diagnostics: dict = dc_field(default_factory=dict)

    def band_values(self) -> np.ndarray:
        return np.real(np.diag(self.eps))


# ---------------------------------------------------------------------------
# The differentiated field (smooth map used by the one stencil pass)
# ---------------------------------------------------------------------------

def _light_frame(model: Model, y: PhasePoint, anchor: BandFrame,
                 tol: Tolerances) -> BandFrame:
    """Frame at y in the smooth gauge of the anchor, without re-validation."""
    eps0, U0 = frame_field(model, anchor, tol)(y)
    return BandFrame(np.asarray(eps0, dtype=float),
                     np.asarray(U0, dtype=complex), anchor.groups, y)


def _phase_field(model: Model, y: PhasePoint, hbar: float, anchor: BandFrame,
                 tol: Tolerances) -> np.ndarray:
    """[A0^R_1..3, A0^P_1..3, B, W] at y in the anchor gauge, as (8, n, n).

    The frame, the order-0 connections and the eps0 gradients are built once
    and shared by the generator B and the first-order kernel W.
    """
    frame = _light_frame(model, y, anchor, tol)
    conns = berry_connections(model, y, hbar, frame=frame, tol=tol)
    grads = eps0_gradients(model, frame, tol)
    return np.concatenate([
        conns.A, [rotation_generator(model, frame, conns, tol, grads),
                  first_order_kernel(model, frame, conns, tol, grads)]])


def phase_field_gradients(model: Model, frame: BandFrame, hbar: float,
                          tol: Tolerances = DEFAULT_TOL,
                          diagnostics: FDDiagnostics | None = None) -> np.ndarray:
    """grad_axis of [A0^R_1..3, A0^P_1..3, B, W] at the frame's point.

    Returns one (6, 8, n, n) array indexed [axis, field]: fields 0-5 are the
    order-0 connections, 6 the rotation generator B and 7 the first-order
    kernel W.  This is the single stencil pass of an order-2 evaluation.
    """
    def field(y: PhasePoint) -> np.ndarray:
        return _phase_field(model, y, hbar, frame, tol)

    return np.stack([derivative_along(field, frame.point, axis, tol.fd_base,
                                      diagnostics) for axis in range(6)])


# ---------------------------------------------------------------------------
# First-order generator and corrected connections
# ---------------------------------------------------------------------------

def rotation_generator(model: Model, frame: BandFrame, conns: ConnectionSet,
                       tol: Tolerances = DEFAULT_TOL,
                       grads: np.ndarray | None = None) -> np.ndarray:
    """The anti-Hermitian off-group generator B of the first-order frame.

    B = -[. , eps0]^{-1} P-{ (1/2) A^{X_l} grad_{X_l} eps0 + H.C. }
        + (i/4) { P-A^{R_l} P+A^{P_l} - P-A^{P_l} P+A^{R_l} + H.C. }
    """
    if grads is None:
        grads = eps0_gradients(model, frame, tol)
    M = (0.5 * _anticomm(conns.A, _diag(grads))).sum(0)
    B = -invert_band_commutator(project(M, frame.groups, "offdiag"), frame, tol)
    X = (project(conns.A, frame.groups, "offdiag")
         @ conjugate(project(conns.A, frame.groups, "diag"))).sum(0)
    return B + 0.25j * (X + _dagger(X))


def corrected_connections(frame: BandFrame, conns0: ConnectionSet,
                          B: np.ndarray, hbar: float, field_grads: np.ndarray,
                          diagnostics: FDDiagnostics | None = None) -> ConnectionSet:
    """Connections including the order-hbar correction.

    The self-gradient piece is (hbar/8){A0^{X_l}, grad_{X_l} A0^X}; the
    generator piece realizes [B, X/hbar] as -i grad_P B (position components)
    and +i grad_R B (momentum components), i.e. -i conjugate(grad B), plus
    [B, A0^X].  `field_grads` is the output of `phase_field_gradients` at the
    frame's point.
    """
    A0 = conns0.A
    corr = (0.125 * _anticomm(A0[:, None], field_grads[:, :6])).sum(0)
    corr += 0.5 * (-1j * conjugate(field_grads[:, 6]) + _comm(B, A0))
    linear = hermitize(corr)[0]
    diag = FDDiagnostics()
    if diagnostics is not None:
        diag.merge(diagnostics)
    return ConnectionSet(hermitize(A0 + hbar * linear)[0], "corrected",
                         frame.point, hbar, diag, linear=linear)


def frame_first_order(model: Model, frame: BandFrame, conns0: ConnectionSet,
                      hbar: float, tol: Tolerances = DEFAULT_TOL):
    """First-order transformation U = (1 + hbar U1) U0.

    U1 = B + hr with hr = -(i/4)[A0^{R_l}, A0^{P_l}]; the gauge choice makes
    the within-group part of the generator Hermitian (P+ of the anti-Hermitian
    part vanishes).  Returns (U, U1, B, hr).
    """
    B = rotation_generator(model, frame, conns0, tol)
    hr = -0.25j * (conns0.A @ conjugate(conns0.A)).sum(0)
    U1 = B + hr
    U = (np.eye(frame.n) + hbar * U1) @ frame.U0
    return U, U1, B, hr


# ---------------------------------------------------------------------------
# Energy assembly
# ---------------------------------------------------------------------------

def first_order_kernel(model: Model, frame: BandFrame, conns: ConnectionSet,
                       tol: Tolerances = DEFAULT_TOL,
                       grads: np.ndarray | None = None) -> np.ndarray:
    """W = P+[ (D_X eps0) A^X + H.C. ]; the first-order energy is (hbar/2) W."""
    if grads is None:
        grads = eps0_gradients(model, frame, tol)
    T = (_covariant(_diag(grads), conns.A, _diag(frame.eps0)) @ conns.A).sum(0)
    return project(T + _dagger(T), frame.groups, "diag")


def _bracket_term(model: Model, x: PhasePoint, hbar: float, frame: BandFrame):
    """-(hbar/2) <eps0> from the model's declared form; (matrix, partial?)."""
    try:
        raw = model.ordering_bracket_term(x, hbar)
    except NotImplementedError:
        return np.zeros((frame.n, frame.n), dtype=complex), True, 0.0
    herm, defect = hermitize(project(raw, frame.groups, "diag"))
    return herm, False, defect


def band_energy(model: Model, x: PhasePoint, hbar: float, order: int = 2,
                representation: str = "canonical",
                tol: Tolerances = DEFAULT_TOL) -> EnergyReport:
    """Effective band energy at x through the requested order in hbar."""
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    if representation not in ("canonical", "covariant"):
        raise ValueError("representation must be 'canonical' or 'covariant'")
    if not model.bracket_h_vanishes:
        raise NotImplementedError(
            "unsupported model: the Hamiltonian bracket <H> does not vanish"
        )
    frame = classical_frame(model, x, tol)
    n = frame.n
    eps0_mat = _diag(frame.eps0)
    zero = np.zeros((n, n), dtype=complex)
    diagnostics: dict = {}

    first = zero.copy()
    second = zero.copy()
    bracket = zero.copy()
    partial = False
    defects = []

    if order >= 1:
        conns0 = berry_connections(model, x, hbar, frame=frame, tol=tol)
        grads = eps0_gradients(model, frame, tol)
        W = first_order_kernel(model, frame, conns0, tol, grads)
        first_raw = (hbar / 2.0) * W
        first, d1 = hermitize(first_raw)
        defects.append(d1)

    if order == 2:
        fd_diag = FDDiagnostics()
        field_grads = phase_field_gradients(model, frame, hbar, tol, fd_diag)
        B = rotation_generator(model, frame, conns0, tol, grads)
        conns = corrected_connections(frame, conns0, B, hbar, field_grads,
                                      fd_diag)
        bracket, partial, db = _bracket_term(model, x, hbar, frame)
        defects.append(db)

        if representation == "canonical":
            second = _second_order_canonical(frame, conns0, conns, grads, W,
                                             field_grads, hbar)
        else:
            # In covariant variables the gradient terms live inside the
            # covariant arguments; only the commutator strings are explicit.
            first, second = _second_order_covariant(frame, conns0, conns, hbar)
        second, d2 = hermitize(second)
        first, d1b = hermitize(first)
        defects.extend([d2, d1b])
        diagnostics["fd"] = fd_diag

    total = eps0_mat + first + second + bracket
    if not np.isfinite(total).all():
        raise FloatingPointError("band energy is not finite")
    off = project(total, frame.groups, "offdiag")
    diagnostics["offblock_norm"] = float(np.linalg.norm(off))
    diagnostics["hermiticity_defect"] = float(max(defects, default=0.0))
    diagnostics["bracket_unavailable"] = partial
    scale = max(float(np.linalg.norm(total)), 1e-300)
    if diagnostics["offblock_norm"] > 1e-10 * scale:
        raise ValueError("energy lost block diagonality; inspect the pipeline")

    return EnergyReport(order, representation, total, eps0_mat, first, second,
                        bracket, x, hbar, partial, diagnostics)


def _second_order_canonical(frame: BandFrame, conns0: ConnectionSet,
                            conns: ConnectionSet, grads: np.ndarray,
                            W0: np.ndarray, field_grads: np.ndarray,
                            hbar: float) -> np.ndarray:
    """Exact hbar^2 coefficient of the canonical-variable energy, times hbar^2.

    The corrected first-order term (hbar/2)[(Dhat eps0) A + H.C.] is expanded
    in the connection correction A = A0 + hbar A1 and truncated at the linear
    pieces; the quadratic cross term is order hbar^3 and not part of the
    second-order result.  The nested double-action term (hbar^2/8)[(D W) A0
    + H.C.] is added with W0 the first-order kernel at the point and D W
    taken from field 7 of `field_grads`.
    """
    eps_mat = _diag(frame.eps0)
    A0, A1 = conns0.A, conns.linear
    # A0 -> A0 + hbar A1 changes D eps0 only through its commutator part.
    S = (_covariant(0.0, A1, eps_mat) @ A0
         + _covariant(_diag(grads), A0, eps_mat) @ A1).sum(0)
    linear = (hbar ** 2 / 2.0) * project(S + _dagger(S), frame.groups, "diag")

    N = (_covariant(field_grads[:, 7], A0, W0) @ A0).sum(0)
    nested = (hbar ** 2 / 8.0) * project(N + _dagger(N), frame.groups, "diag")
    return linear + nested


def _second_order_covariant(frame: BandFrame, conns0: ConnectionSet,
                            conns: ConnectionSet, hbar: float):
    """(first, second) commutator strings of the covariant-variable form.

    The gradient content is absorbed into the covariant arguments (which at a
    classical point evaluate to the canonical ones), leaving the connection
    commutator terms and, for models with momentum connections, the
    second-order strings built from the order-0 connections (Hermitized, as
    the sign bookkeeping of those two lines is enforced term by term).
    """
    eps_mat = _diag(frame.eps0)
    A0, A1 = conns0.A, conns.linear
    Wstr = _string(eps_mat, A0, A0)
    T0 = Wstr - _comm(eps_mat, (A0 @ conjugate(A0)).sum(0))
    T1 = _string(eps_mat, A1, A0) + _string(eps_mat, A0, A1)
    # (i/4) hbar {T + H.C.} with T = T0 + hbar T1, truncated at hbar^2; the
    # H.C. of (i/4)T is -(i/4)T^+.
    first = 0.25j * hbar * (T0 - _dagger(T0))
    second = 0.25j * hbar ** 2 * (T1 - _dagger(T1))

    S = _string(Wstr, A0, A0)
    second += -(hbar ** 2 / 8.0) * 0.5 * (S + _dagger(S))
    first = project(first, frame.groups, "diag")
    second = project(second, frame.groups, "diag")
    return first, second


def band_energy_batch(model: Model, points, hbar: float, order: int = 2,
                      representation: str = "canonical",
                      tol: Tolerances = DEFAULT_TOL) -> list:
    """Energy reports for a list of phase points (order preserved)."""
    return [band_energy(model, x, hbar, order, representation, tol)
            for x in points]


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
    out = (0.5 * _anticomm(conns.A, eps_grads)).sum(0)
    Xp = project(_string(eps_mat, conns.A, conns.A), groups, "diag")
    # (i/4) P+{X} + H.C. = (i/4)(P+X - (P+X)^+)
    out = project(out, groups, "diag") + 0.25j * (Xp - _dagger(Xp))
    return out
