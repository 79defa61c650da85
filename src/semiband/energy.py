"""Effective band energies through second order in hbar.

The pipeline assembles, at a classical phase point:

* the first-order rotation generator B of the frame U = (1 + hbar U1) U0,
  U1 = B + hr with hr = -(i/4) sum_l [A0^{R_l}, A0^{P_l}] (B holds the
  off-group blocks of the correction, fixed by the gauge condition that the
  within-group generator part is Hermitian),
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
`chunk_points` points.

Every pass below `band_energy` takes the point's `frames.BandFrame`, which
carries the model, or the record built on it.  Everything
first-order is one record, `first_order(frame, conns0)` -> `FirstOrder`: the
frame, the generator B, the hbar-free connection correction `linear` and the
exact gradients grad A0 and grad B, with no stencil.  The order-2 energy,
`corrected_connections`, the covariant variables and the curvature pass all
read it.  grad W and D eps0 are read only by the canonical order-2 energy,
from the record (`kernel_gradient`, the lazy `FirstOrder.DE`), and
conjugate(A0) is built once per point, as `ConnectionSet.cA`.  With
M_a = U0 grad_a H U0^+, X = U0 grad U0^+ = i conjugate(A0) and E = diag eps0:

* grad_b M_a = U0 grad_a grad_b H U0^+ + [M_a, X_b] (`Model.d2_hamiltonian`),
  and the eps0 Hessian is the group scalar of P+ grad_b M_a;
* P- grad_b X_a = inv(P-(grad_b M_a - [X_a, grad_b E])), inv the
  band-commutator inversion; P+ grad_b X_a comes from the gradient of the
  model's gauge term (`Model.d_analytic_connections`), or is
  (1/2) P+[X_a, X_b] without an analytic frame (`frames.connection_gradients`);
* B and W (`kernel_gradient`) follow by the Leibniz rule, with
  grad inv(V) = inv(grad V - [inv(V), grad E]); B comes from the same
  K-inversion as grad B, and the record is the one place B is built.  No
  energy reads U itself; the `verify` residual-scaling suite builds it
  from the record's B.

The record's sums over a phase axis of products (Y, grad Y, the
(1/8){A_b, grad_b A} correction, grad T) are block-matrix products
(`frames._block_contract`), and every product with a diagonal matrix is
elementwise: `_comm_diag_products` for D eps0 and the commutators with
E = diag eps0 of the assembly, which keep the bits of the two matrix
products, `frames._comm_diag` for the inputs of the inversion.  The
assembly keeps its stacked `@` and `.sum(-3)`.

Each energy term is Hermitized once; the norms of the discarded
anti-Hermitian parts are recorded, per point, in the report diagnostics
rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from semiband.models import Model, PhasePoint, _frozen
from semiband.frames import (
    BandFrame,
    ConnectionSet,
    _anticomm_sum,
    _block_contract,
    _comm,
    _comm_diag,
    _dagger,
    _diag,
    _pair_comm,
    _swap,
    berry_connections,
    classical_frame,
    conjugate,
    connection_gradients,
    hermitize,
    invert_band_commutator,
    matrix_norms,
)

__all__ = [
    "CHUNK",
    "LIGHT_CHUNK",
    "EnergyReport",
    "FirstOrder",
    "band_energy",
    "band_energy_batch",
    "chunk_points",
    "first_order",
    "corrected_connections",
    "first_order_kernel",
    "kernel_gradient",
]


# Points per batched pass that builds the (6, 6, n, n) stacks of the
# first-order record: order-2 energies, corrected connections and the
# curvature pass.  The curvature pass is the largest: tracemalloc peaks of
# one 64-point Dirac chunk are 0.9 MB at order 1, 4.9 MB at order 2 and
# 13.6 MB for the curvatures.
CHUNK = 64
# Points per batched pass of a two-band model without those stacks
# (order-0 and order-1 energies, order-0 connections), whose fixed cost per
# chunk is a larger share of the work.  Four-band passes keep CHUNK: at 128
# points the Dirac order-1 pass of `band_energy_batch` ran 7-21 % slower per
# point over 1024 points, as the allocator returned and re-faulted the pages
# of its larger temporaries.
LIGHT_CHUNK = 512


def chunk_points(n: int, stacks: bool) -> int:
    """Points per batched pass for n bands: `LIGHT_CHUNK` for a two-band
    pass that builds no (6, 6, n, n) stack of the first-order record,
    `CHUNK` for any other.  A batch equals its single points bit for bit,
    so the chunk size moves no output."""
    return LIGHT_CHUNK if n == 2 and not stacks else CHUNK


def _covariant(grad: np.ndarray, cA: np.ndarray, M: np.ndarray) -> np.ndarray:
    """D_a M = grad_a M + (i/2)[cA_a, M] over the six axes of cA =
    conjugate(A), for one matrix M (..., n, n) per point, i.e.
    D_R = grad_R + (i/2)[A^P, .] and D_P = grad_P - (i/2)[A^R, .]: one
    `_pair_comm` of cA and M."""
    return grad + 0.5j * _pair_comm(cA, M[..., None, :, :])[..., 0, :, :]


def _comm_diag_products(V: np.ndarray, d: np.ndarray) -> np.ndarray:
    """[V, diag(d)] for stacks V (..., n, n) and diagonals d (..., n),
    elementwise: V_nm d_m - d_n V_nm.  Each product rounds as `@` rounds
    it, so a commutator with E = diag eps0 keeps the bits of the two matrix
    products (`frames._comm_diag` rounds d_m - d_n first).  [E, V] is
    [V, diag(-eps0)]."""
    return V * d[..., None, :] - d[..., :, None] * V


def _D_eps0(g: np.ndarray, cA: np.ndarray, eps0: np.ndarray) -> np.ndarray:
    """D eps0 = diag(g_a) + (i/2)[cA_a, E] over the six axes of cA =
    conjugate(A), with g the eps0 gradients and E = diag eps0."""
    return _diag(g) + 0.5j * _comm_diag_products(cA, eps0[..., None, :])


def _string(EX: np.ndarray, cY: np.ndarray) -> np.ndarray:
    """The commutator string sum_a [E, X_a] cY_a from the stack
    EX = [E, X] and cY = conjugate(Y), that is
    sum_l ([E, X^{R_l}] Y^{P_l} - [E, X^{P_l}] Y^{R_l})."""
    return (EX @ cY).sum(-3)


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

    def split(self) -> list:
        """The per-point reports of a batch report; ValueError for a
        one-point report."""
        if self.point.batch_shape == ():
            raise ValueError("split needs a batch report, not one point")
        return [EnergyReport(
            self.order, self.representation, self.eps[i], self.zeroth[i],
            self.first[i], self.second[i], self.bracket_term[i],
            self.point.point(i), self.hbar, self.partial,
            {k: float(v[i]) if isinstance(v, np.ndarray) else v
             for k, v in self.diagnostics.items()})
            for i in range(len(self.eps))]


@dataclass
class FDDiagnostics:
    """The stencil record of an order-2 report: constant, as no stencil runs."""

    order: int = 4
    discrepancy: float = 0.0
    fallbacks: int = 0


# ---------------------------------------------------------------------------
# The first-order record: generator, connection correction and gradients
# ---------------------------------------------------------------------------

@dataclass
class FirstOrder:
    """The first-order frame correction at one point or a batch (point axis
    in front) and its exact phase-space gradients, on its frame."""

    frame: BandFrame
    conns0: ConnectionSet           # order-0 connections A0, (..., 6, n, n)
    B: np.ndarray                   # rotation generator, (..., n, n)
    dA: np.ndarray                  # [b, a] = grad_b A0^a, (..., 6, 6, n, n)
    dA_diag: np.ndarray             # P+ dA, shared by the curvature pass
    hess: np.ndarray                # grad_b grad_a eps0, (..., 6, 6, n)
    dB: np.ndarray                  # grad B, (..., 6, n, n)
    linear: np.ndarray              # A = A0 + hbar linear, (..., 6, n, n)

    @cached_property
    def DE(self) -> np.ndarray:
        """D eps0 over A0, (..., 6, n, n), made on first read."""
        return _D_eps0(self.frame.grads, self.conns0.cA, self.frame.eps0)


def first_order(frame: BandFrame, conns0: ConnectionSet) -> FirstOrder:
    """The first-order record at the frame's point, from its
    `berry_connections` set `conns0`.

    grad A0 and the eps0 Hessian come from `connection_gradients`.  The
    generator
      B = -[., eps0]^{-1} P-{(1/2) A0^{X_l} grad_{X_l} eps0 + H.C.}
          + (i/4){P-A0^{R_l} P+A0^{P_l} - P-A0^{P_l} P+A0^{R_l} + H.C.}
    is built from the band-commutator inversion and pairing product that
    its gradient needs and differentiated by the Leibniz rule, with
    grad inv(V) = inv(grad V - [inv(V), grad E]) for the inversion.
    D eps0 (`FirstOrder.DE`) is made when the canonical order-2 energy
    first reads it, for W and `kernel_gradient`.  The hbar-free connection
    correction is
      linear = (1/8){A0^{X_l}, grad_{X_l} A0^X} + (1/2)(-i conjugate(grad B)
               + [B, A0^X]),
    Hermitized, where -i conjugate(grad B) realizes [B, X/hbar]: -i grad_P B
    on the position components and +i grad_R B on the momentum ones.  Every
    sum over a phase axis of products is one `_block_contract` call, and
    every product with a diagonal matrix is elementwise.
    """
    g, A = frame.grads, conns0.A
    dA, hess = connection_gradients(frame, conns0)

    # B = -inv(P-K) + (i/4)(Y + Y^+), K = sum_a (1/2){A_a, diag g_a},
    # Y = sum_a P-A_a conjugate(P+A)_a.  The inversion reads only the
    # cross-group entries, so P- is implicit.
    # [b, a] stacks carry A and g on their a axis.
    gs = g[..., None, :] + g[..., :, None]
    Aa = A[..., None, :, :, :]
    K = (0.5 * A * gs).sum(-3)
    dK = 0.5 * (dA * gs[..., None, :, :, :]
                + Aa * (hess[..., None, :] + hess[..., :, None])).sum(-3)
    invK = invert_band_commutator(K, frame)
    dB = -invert_band_commutator(dK - _comm_diag(invK[..., None, :, :], g),
                                 frame)
    Aoff = frame.project(A, "offdiag")
    cAdiag = frame.project(conns0.cA, "diag")    # conjugate(P+A)
    Y = _block_contract(Aoff[..., None, :, :, :],
                        cAdiag[..., :, None, :, :])[..., 0, 0, :, :]
    B = -invK + 0.25j * (Y + _dagger(Y))
    # grad_b Y = sum_a (grad_b P-A_a cP+A_a + P-A_a grad_b cP+A_a).
    dA_diag = frame.project(dA, "diag")
    dY = (_block_contract(frame.project(dA, "offdiag"),
                          cAdiag[..., :, None, :, :])[..., 0, :, :]
          + _block_contract(Aoff[..., None, :, :, :],
                            _swap(conjugate(dA_diag)))[..., 0, :, :, :])
    dB += 0.25j * (dY + _dagger(dY))

    corr = 0.125 * _anticomm_sum(A[..., None, :, :, :], dA)[..., 0, :, :, :]
    corr += 0.5 * (-1j * conjugate(dB) + _comm(B[..., None, :, :], A))
    return FirstOrder(frame, conns0, B, dA, dA_diag, hess, dB,
                      hermitize(corr))


def kernel_gradient(first: FirstOrder) -> np.ndarray:
    """grad W, (..., 6, n, n), of the kernel W = P+(T + T^+) with
    T = sum_a (D_a E) A0_a, by the Leibniz rule on the record `first` at
    its frame's point: grad D_a E = diag(grad g_a) + (i/2)([conjugate(grad
    A0)_a, E] + [conjugate(A0)_a, grad E]).  Only the nested (D W) A0 term
    of the canonical order-2 energy reads it."""
    frame = first.frame
    g, A, dA = frame.grads, first.conns0.A, first.dA
    dDE = _diag(first.hess) + 0.5j * (
        _comm_diag(conjugate(dA), frame.eps0[..., None, None, :])
        + _comm_diag(first.conns0.cA[..., None, :, :, :], g[..., :, None, :]))
    # dT[b] = sum_a (dDE[b, a] A_a + DE_a dA[b, a]).
    dT = (_block_contract(dDE, A[..., :, None, :, :])[..., 0, :, :]
          + _block_contract(first.DE[..., None, :, :, :], _swap(dA))
          [..., 0, :, :, :])
    return frame.project(dT + _dagger(dT), "diag")


def corrected_connections(first: FirstOrder, hbar: float) -> ConnectionSet:
    """Connections including the order-hbar correction, A0 + hbar linear."""
    return ConnectionSet(hermitize(first.conns0.A + hbar * first.linear),
                         "corrected")


# ---------------------------------------------------------------------------
# Energy assembly
# ---------------------------------------------------------------------------

def first_order_kernel(frame: BandFrame, conns: ConnectionSet) -> np.ndarray:
    """W = P+[ (D_X eps0) A^X + H.C. ]; the first-order energy is (hbar/2) W."""
    return _kernel(frame, _D_eps0(frame.grads, conns.cA, frame.eps0), conns.A)


def _kernel(frame: BandFrame, DE: np.ndarray, A: np.ndarray) -> np.ndarray:
    """W = P+(T + T^+), T = sum_a DE_a A_a, from D eps0 over A."""
    T = (DE @ A).sum(-3)
    return frame.project(T + _dagger(T), "diag")


def _bracket_term(frame: BandFrame, hbar: float):
    """-(hbar/2) <eps0> at the frame's point from its model's declared form,
    block-projected and not yet Hermitized; (matrix, partial?)."""
    try:
        raw = frame.model.ordering_bracket_term(frame.point, hbar)
    except NotImplementedError:
        return np.zeros(frame.U0.shape, dtype=complex), True
    return frame.project(raw, "diag"), False


def band_energy(model: Model, x: PhasePoint, hbar: float, order: int = 2,
                representation: str = "canonical") -> EnergyReport:
    """Effective band energy at x through the requested order in hbar.

    x is one point or a batch (`PhasePoint.stack`); a batch gives one report
    whose arrays and per-point diagnostics carry the point axis in front,
    and raises if any of its points would.
    """
    if isinstance(order, bool) or order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    if representation not in ("canonical", "covariant"):
        raise ValueError("representation must be 'canonical' or 'covariant'")
    if not model.bracket_h_vanishes:
        raise NotImplementedError(
            "unsupported model: the Hamiltonian bracket <H> does not vanish"
        )
    frame = classical_frame(model, x)
    eps0_mat = _diag(frame.eps0)
    # Every term that the order leaves out shares one read-only zero.
    first = second = bracket = _frozen(np.zeros(frame.U0.shape, dtype=complex))
    diagnostics: dict = {}
    partial = False
    discarded = []                  # anti-Hermitian parts

    def hermitized(mat: np.ndarray) -> np.ndarray:
        herm = hermitize(mat)
        discarded.append(mat - herm)
        return herm

    if order >= 1:
        conns0 = berry_connections(frame)
    if order == 1 and representation == "canonical":
        first = hermitized((hbar / 2.0) * first_order_kernel(frame, conns0))
    elif order == 1:
        first = hermitized(_first_order_covariant(frame, conns0, hbar)[0])

    if order == 2:
        rec = first_order(frame, conns0)
        bracket, partial = _bracket_term(frame, hbar)
        bracket = hermitized(bracket)

        if representation == "canonical":
            W = _kernel(frame, rec.DE, conns0.A)
            first = hermitized((hbar / 2.0) * W)
            second = _second_order_canonical(rec, W, hbar)
        else:
            # In covariant variables the gradient terms live inside the
            # covariant arguments; only the commutator strings are explicit.
            first, second = _second_order_covariant(rec, hbar)
            first = hermitized(first)
        second = hermitized(second)
        # An empty stencil record: no stencil runs, and readers of order-2
        # reports still find the key.
        diagnostics["fd"] = FDDiagnostics()

    total = eps0_mat + first + second + bracket
    if not np.isfinite(total).all():
        raise FloatingPointError("band energy is not finite")
    # Discarded parts, off-block part and total: each norm as if alone.
    norms = matrix_norms(np.stack(
        discarded + [frame.project(total, "offdiag"), total]))
    off = norms[-2]
    defect = norms[:-2].max(0, initial=0.0)
    point_values = float if off.ndim == 0 else np.asarray
    diagnostics["offblock_norm"] = point_values(off)
    diagnostics["hermiticity_defect"] = point_values(defect)
    diagnostics["bracket_unavailable"] = partial
    scale = np.maximum(norms[-1], 1e-300)
    if (off > 1e-10 * scale).any():
        raise ValueError("energy lost block diagonality; inspect the pipeline")

    return EnergyReport(order, representation, total, eps0_mat, first, second,
                        bracket, x, hbar, partial, diagnostics)


def _second_order_canonical(rec: FirstOrder, W0: np.ndarray,
                            hbar: float) -> np.ndarray:
    """Exact hbar^2 coefficient of the canonical-variable energy, times hbar^2.

    The corrected first-order term (hbar/2)[(Dhat eps0) A + H.C.] is expanded
    in the connection correction A = A0 + hbar A1 and truncated at the linear
    pieces; the quadratic cross term is order hbar^3 and not part of the
    second-order result.  The nested double-action term (hbar^2/8)[(D W) A0
    + H.C.] is added with W0 the first-order kernel at the point and
    D W = grad W + (i/2)[conjugate(A0), W0], grad W from `kernel_gradient`.
    """
    frame, A0, A1 = rec.frame, rec.conns0.A, rec.linear
    # A0 -> A0 + hbar A1 changes D eps0 only through its commutator part.
    DE1 = 0.5j * _comm_diag_products(conjugate(A1), frame.eps0[..., None, :])
    S = (DE1 @ A0 + rec.DE @ A1).sum(-3)
    linear = (hbar ** 2 / 2.0) * frame.project(S + _dagger(S), "diag")

    N = (_covariant(kernel_gradient(rec), rec.conns0.cA, W0)
         @ A0).sum(-3)
    nested = (hbar ** 2 / 8.0) * frame.project(N + _dagger(N), "diag")
    return linear + nested


def _second_order_covariant(rec: FirstOrder, hbar: float):
    """(first, second) commutator strings of the covariant-variable form.

    The gradient content is absorbed into the covariant arguments (which at a
    classical point evaluate to the canonical ones), leaving the connection
    commutator terms and, for models with momentum connections, the
    second-order strings built from the order-0 connections (Hermitized, as
    the sign bookkeeping of those two lines is enforced term by term).
    """
    frame = rec.frame
    neg = -frame.eps0
    A0, A1, cA0 = rec.conns0.A, rec.linear, rec.conns0.cA
    first, EA0, Wstr = _first_order_covariant(frame, rec.conns0, hbar)
    T1 = (_string(_comm_diag_products(A1, neg[..., None, :]), cA0)
          + _string(EA0, conjugate(A1)))
    # (i/4) hbar {T + H.C.} with T = T0 + hbar T1, truncated at hbar^2; the
    # H.C. of (i/4)T is -(i/4)T^+.
    second = 0.25j * hbar ** 2 * (T1 - _dagger(T1))

    S = _string(_comm(Wstr[..., None, :, :], A0), cA0)
    second += -(hbar ** 2 / 8.0) * 0.5 * (S + _dagger(S))
    second = frame.project(second, "diag")
    return first, second


def _first_order_covariant(frame: BandFrame, conns0: ConnectionSet,
                           hbar: float) -> tuple:
    """(first, [E, A0], W string) of the covariant-variable form: first is
    the block projection of (i/4) hbar {T0 + H.C.}, with the commutator
    string T0 = sum_a [E, A0_a] cA0_a - [E, sum_a A0_a cA0_a] of the order-0
    connections, not yet Hermitized.  The order-2 covariant energy builds
    on [E, A0] and the string."""
    # [E, X] = [X, diag(-eps0)].
    neg = -frame.eps0
    A0, cA0 = conns0.A, conns0.cA
    EA0 = _comm_diag_products(A0, neg[..., None, :])
    Wstr = _string(EA0, cA0)
    T0 = Wstr - _comm_diag_products((A0 @ cA0).sum(-3), neg)
    # The H.C. of (i/4)T0 is -(i/4)T0^+.
    first = frame.project(0.25j * hbar * (T0 - _dagger(T0)), "diag")
    return first, EA0, Wstr


def band_energy_batch(model: Model, points, hbar: float, order: int = 2,
                      representation: str = "canonical") -> list:
    """Energy reports for a list of phase points (order preserved), from one
    batched `band_energy` pass per chunk of `chunk_points` points.  Each
    report equals the single-point `band_energy` at its point bit for bit; a
    point that fails makes the whole call raise."""
    reports = []
    size = chunk_points(model.n, order == 2)
    for start in range(0, len(points), size):
        batch = PhasePoint.stack(points[start:start + size])
        reports += band_energy(model, batch, hbar, order,
                               representation).split()
    return reports

