"""Band frames, block projections and Berry connections.

The classical diagonalization produces a `BandFrame`: eigenvalues grouped into
declared degenerate band groups and the gauge-fixed unitary U0 with U0 H U0^+
block diagonal.  An analytic frame and an eigensolver frame (`eigh`, its
column phases fixed) pass one validator: unitarity, block diagonality,
eigenvalue agreement and within-group spread when the frame is built
(`_validate_frame`), the cross-group gaps at its first band-commutator
inversion (`BandFrame.gaps`), and the group layout where the model makes it
(`Model.groups`).  The frame carries the model, the point and the `Tolerances`
it was built with, so every pass at its point takes the frame, or the
first-order record that holds it, alone.  Its point is a copy of the
caller's with a memo, where the built-in models make each intermediate
that their methods share once per frame (see `models`).  It caches
U0 grad H U0^+ (`dH`), the eps0 gradients (`grads`) and the gap-checked gap
matrix (`gaps`), and its `project` is the one block projector.  Phase-axis
fields are (6, n, n) stacks in axis order (R_1, R_2, R_3, P_1, P_2, P_3),
and `conjugate` is the one R <-> P pairing.  Connections are
A^{R_l} = i X_{P_l} and A^{P_l} = -i X_{R_l}, i.e. A = conjugate(i X),
X = U0 grad U0^+.  They are exact at the point
(`berry_connections`), and so are their phase-space gradients and the eps0
Hessian (`connection_gradients`).  X is flat, grad_c X_a - grad_a X_c =
[X_a, X_c], so no pass needs second derivatives of the connections: the
curvature pass (`dynamics.berry_curvatures`) reads their curls from
[A_c, A_a] and its gradient.  The first- and second-order
passes take their products over phase axes as block-matrix products
(`_pair_products`, `_pair_comm`, `_block_contract`, `_anticomm_sum`),
because numpy's `@` on a stack makes one BLAS call per small matrix, and
their products with a diagonal matrix elementwise (`_comm_diag`).  The
band-commutator inversion is one masked divide by the frame's gap matrix.
Nothing here takes a finite difference: the finite-difference connections
over a gauge-smoothed frame field, their independent cross-check, live in
`verify` (`connections_fd`), next to the suite that reads them.

A frame holds one point or a batch of N points.  A batch puts its point
axis in front of every array ((N, n) eps0, (N, 6, n, n) stacks), and the
helpers index phase axes from the end, so one function serves both.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache

import numpy as np

from semiband.fields import _real
from semiband.models import Model, PhasePoint, _dot

__all__ = [
    "GapError", "GaugeAlignmentError",
    "Tolerances",
    "BandFrame",
    "ConnectionSet",
    "classical_frame",
    "invert_band_commutator",
    "berry_connections",
    "connection_gradients",
    "hermitize",
    "matrix_norms",
    "conjugate",
]


class GapError(ValueError):
    """Bands too close to invert the band commutator or to fix a frame."""


class GaugeAlignmentError(ValueError):
    """A singular overlap with a reference frame: no gauge alignment."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances; defaults are the contract values."""

    degeneracy: float = 1e-8        # within-group eigenvalue spread, relative
    gap: float = 1e-6               # minimum cross-group gap, relative
    block: float = 1e-10            # off-group residual of U0 H U0^+
    unitarity: float = 1e-12        # ||U0 U0^+ - 1|| of a validated frame

    def __post_init__(self):
        for name, value in vars(self).items():
            if not _real(value, f"tolerance {name}") > 0:
                raise ValueError(f"tolerance {name} must be finite and > 0")


DEFAULT_TOL = Tolerances()

@dataclass(frozen=True)
class _GroupMasks:
    """The fixed masks of one group layout, read-only."""

    same: np.ndarray                # (n, n) within-group entries
    cross: np.ndarray               # (n, n) cross-group entries
    same_f: np.ndarray              # `same` as floats
    sizes: np.ndarray               # (n,) size of each state's group
    eye: np.ndarray                 # (n, n) identity, for the unitarity check


@lru_cache(maxsize=64)
def _group_masks(groups: tuple) -> _GroupMasks:
    """The masks of a group layout (one group index per state), made once
    per layout and shared by every frame of it."""
    g = np.array(groups)
    same = g[:, None] == g[None, :]
    masks = (same, ~same, same.astype(float), same.sum(0), np.eye(len(g)))
    for mask in masks:
        mask.flags.writeable = False
    return _GroupMasks(*masks)


@dataclass
class BandFrame:
    """Gauge-fixed classical diagonalization at one phase point or a batch.

    The frame carries the model and the tolerances it was built with, so
    every pass at its point takes the frame alone.  The fixed per-frame data
    of the helpers (the checked gap matrix, U0 grad H U0^+ and the eps0
    gradients) is computed on first use and kept on the frame; its group
    masks are made once per group layout and shared.
    """

    eps0: np.ndarray                # (..., n) real, ordered by group layout
    U0: np.ndarray                  # (..., n, n), U0 H U0^+ block diagonal
    groups: np.ndarray              # (n,) group index per state
    point: PhasePoint
    model: Model | None = dc_field(default=None, repr=False)
    tol: Tolerances = DEFAULT_TOL

    @property
    def n(self) -> int:
        return self.eps0.shape[-1]

    @cached_property
    def _masks(self) -> _GroupMasks:
        """The masks of the frame's group layout, shared by its frames."""
        return _group_masks(tuple(self.groups.tolist()))

    same = property(lambda self: self._masks.same)      # (n, n) within-group
    cross = property(lambda self: self._masks.cross)    # (n, n) cross-group

    # U0^+, shared by the validator and every rotation by U0.
    U0_dag = cached_property(lambda self: _dagger(self.U0))

    @cached_property
    def _differences(self) -> tuple:
        """(eps_m - eps_n at entry (n, m), (..., n, n); max |eps0|, (...)),
        unchecked, shared by the validator's group spread, `gaps` and
        `grads`."""
        eps = self.eps0
        return eps[..., None, :] - eps[..., :, None], np.abs(eps).max(-1)

    @cached_property
    def gaps(self) -> np.ndarray:
        """eps_m - eps_n at entry (n, m), (..., n, n); `cross` marks the
        entries that are band gaps.  Raises on a cross-group gap below the
        frame's gap tolerance at any point, so only the passes that invert
        the band commutator need the bands apart."""
        gaps, top = self._differences
        scale = np.maximum(top, 1e-300)
        if ((np.abs(gaps) <= self.tol.gap * scale[..., None, None])
                & self._masks.cross).any():
            raise GapError("near-degenerate bands: cross-group gap below tolerance")
        return gaps

    @cached_property
    def dH(self) -> np.ndarray:
        """U0 grad_a H U0^+ over the six phase axes, (..., 6, n, n), shared
        by the connections and the eps0 gradients."""
        return _rotate(self, self.model.d_hamiltonian(self.point))

    @cached_property
    def grads(self) -> np.ndarray:
        """The six phase-space gradients of the band energies, (..., 6, n)
        real in the frame layout.

        Uses the Hellmann-Feynman values: the within-group part of
        U dH U^+ is a multiple of the identity per group (asserted), whose
        scalar is the common gradient of the group's eigenvalues.
        """
        diag = self.dH.diagonal(0, -2, -1).real
        mean = _group_scalar(diag, self)
        scale = np.maximum(self._differences[1], 1.0)
        if (np.abs(diag - mean).max((-2, -1)) > 1e-8 * scale).any():
            raise ValueError(
                "within-group gradient is not scalar; degeneracy is not structural"
            )
        return mean

    def project(self, mat: np.ndarray, part: str = "diag") -> np.ndarray:
        """Block projectors P+ ('diag': within-group) and P- ('offdiag')."""
        if part == "diag":
            return np.where(self._masks.same, mat, 0.0)
        if part == "offdiag":
            return np.where(self._masks.same, 0.0, mat)
        raise ValueError("part must be 'diag' or 'offdiag'")


@dataclass
class ConnectionSet:
    """The six Hermitian connections at one point, as one phase-axis stack.

    ``A`` is (6, n, n) in axis order (R_1, R_2, R_3, P_1, P_2, P_3).
    """

    A: np.ndarray                   # (..., 6, n, n)
    order: str                      # "0" or "corrected"

    @property
    def A_R(self) -> np.ndarray:
        return self.A[..., :3, :, :]

    @property
    def A_P(self) -> np.ndarray:
        return self.A[..., 3:, :, :]

    @cached_property
    def cA(self) -> np.ndarray:
        """conjugate(A), built once per set: the first-order record, the
        order-2 energy and the curvature pass all pair R with P over A.
        Read-only, because every reader shares the one array."""
        out = conjugate(self.A)
        out.flags.writeable = False
        return out


def conjugate(S: np.ndarray) -> np.ndarray:
    """The R <-> P pairing of a phase-axis stack: (S^R, S^P) -> (S^P, -S^R),
    along the phase axis in front of the matrix axes, axis -3.

    Every contraction over the six axes pairs R_l with P_l this way: the
    covariant derivatives D_R = grad_R + (i/2)[A^P, .] and
    D_P = grad_P - (i/2)[A^R, .] are grad + (i/2)[conjugate(A), .], and
    sum_l (X^{R_l} Y^{P_l} - X^{P_l} Y^{R_l}) is (X @ conjugate(Y)).sum(-3).
    """
    return np.concatenate([S[..., 3:, :, :], -S[..., :3, :, :]], axis=-3)


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _anticomm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


# numpy's `@` on a stack of small matrices makes one BLAS call per matrix,
# about 0.4-0.7 us for n = 2-4, whatever the size.  The two helpers below
# lay a stack out as one large matrix, so a phase-axis product of the
# second-order pass is one call.

def _pair_products(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """All products L[l] @ R[r] of two stacks (..., k, n, n) and
    (..., m, n, n), as (..., k, m, n, n): one (k n x n) @ (n x m n)
    product, laid out as in `_block_contract`."""
    k, n, m = L.shape[-3], L.shape[-1], R.shape[-3]
    left = L.reshape(L.shape[:-3] + (k * n, n))
    right = R.swapaxes(-3, -2).reshape(R.shape[:-3] + (n, m * n))
    out = _matmul(left, right)
    return out.reshape(out.shape[:-2] + (k, n, m, n)).swapaxes(-3, -2)


def _pair_comm(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """[L[l], R[r]] for every pair of a (..., k, n, n) and an (..., m, n, n)
    stack, (..., k, m, n, n)."""
    return _pair_products(L, R) - _swap(_pair_products(R, L))


def _block_contract(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """sum_b L[c, b] @ R[b, a] over a shared phase axis, for L
    (..., C, B, n, n) and R (..., B, A, n, n), as (..., C, A, n, n): one
    (C n x B n) @ (B n x A n) block-matrix product.

    The transposed-index sum sum_b L[b, a] @ R[c, b] is
    `_block_contract(L^T, R^T)^T`, ^T swapping the two phase axes.
    """
    C, B, n, A = L.shape[-4], L.shape[-3], L.shape[-1], R.shape[-3]
    left = L.swapaxes(-3, -2).reshape(L.shape[:-4] + (C * n, B * n))
    right = R.swapaxes(-3, -2).reshape(R.shape[:-4] + (B * n, A * n))
    out = _matmul(left, right)
    return out.reshape(out.shape[:-2] + (C, n, A, n)).swapaxes(-3, -2)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, by the cheaper `ndarray.dot` for two matrices."""
    return a.dot(b) if a.ndim == 2 == b.ndim else a @ b


def _swap(S: np.ndarray) -> np.ndarray:
    """The two phase axes of a (..., 6, 6, n, n) stack swapped."""
    return S.swapaxes(-4, -3)


def _anticomm_sum(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """sum_b {L[c, b], R[b, a]}, (..., C, A, n, n), as two
    `_block_contract` calls."""
    return _block_contract(L, R) + _swap(_block_contract(_swap(R), _swap(L)))


def _diag(d: np.ndarray) -> np.ndarray:
    """Diagonal matrices (..., n, n) from their diagonals (..., n)."""
    n = d.shape[-1]
    out = np.zeros(d.shape[:-1] + (n * n,), dtype=complex)
    out[..., ::n + 1] = d
    return out.reshape(d.shape + (n,))


def hermitize(mat: np.ndarray) -> np.ndarray:
    """The Hermitian part of mat, which may be a stack (..., n, n)."""
    return 0.5 * (mat + _dagger(mat))


def matrix_norms(mat: np.ndarray) -> np.ndarray:
    """Frobenius norms over the last two axes, (...), each rounded as
    `np.linalg.norm` rounds one matrix (the norm over axes sums in another
    order)."""
    flat = (mat.ravel(order="K") if mat.ndim == 2     # as np.linalg.norm
            else mat.reshape(mat.shape[:-2] + (-1,)))
    if np.iscomplexobj(flat):
        return np.sqrt(_dot(flat.real, flat.real) + _dot(flat.imag, flat.imag))
    return np.sqrt(_dot(flat, flat))


def _first(bad: np.ndarray):
    """The index of the first point where `bad` holds, () for one point, or
    None."""
    if not bad.any():
        return None
    return tuple(np.argwhere(bad)[0])


def _phase_fix(vecs: np.ndarray) -> np.ndarray:
    """Deterministic column phases: largest-magnitude entry real positive."""
    k = np.argmax(np.abs(vecs), axis=-2)
    ph = np.take_along_axis(vecs, k[..., None, :], axis=-2)[..., 0, :]
    mag = np.abs(ph)
    turn = np.where(mag > 0, np.conj(ph) / np.where(mag > 0, mag, 1.0), 1.0)
    return vecs * turn[..., None, :]


def classical_frame(model: Model, x: PhasePoint,
                    tol: Tolerances = DEFAULT_TOL) -> BandFrame:
    """Gauge-fixed classical diagonalization at x.

    Prefers the model's analytic frame; otherwise diagonalizes numerically and
    fixes the gauge deterministically.  Either frame is validated the same
    way: a finite H, eps0 and U0 (else FloatingPointError), unitarity, block
    diagonality and within-group degeneracy at every point of a batch here,
    the cross-group gaps at the first band-commutator inversion
    (`BandFrame.gaps`).

    The model is evaluated at a copy of x with a memo of its own, which
    becomes the frame's `point`: the built-in models make each intermediate
    that their methods share once per frame there (see `models`).  The
    caller's x is left without one.
    """
    x = x._with_memo()
    model._check_once(x)
    H = model.hamiltonian(x)
    if model.has_analytic_frame:
        eps0, U0 = model.analytic_frame(x)
    else:
        eps0, vecs = np.linalg.eigh(H)
        U0 = _dagger(_phase_fix(vecs))
    if not all(np.isfinite(a).all() for a in (H, eps0, U0)):
        raise FloatingPointError("frame is not finite: H, eps0 or U0")
    frame = BandFrame(np.asarray(eps0, dtype=float), np.asarray(U0, dtype=complex),
                      model.groups, x, model, tol)
    _validate_frame(frame, H)
    return frame


def _validate_frame(frame: BandFrame, H: np.ndarray) -> None:
    tol = frame.tol
    scale = np.maximum(matrix_norms(H), 1e-300)
    U0, U0_dag = frame.U0, frame.U0_dag
    unit = matrix_norms(_matmul(U0, U0_dag) - frame._masks.eye)
    i = _first(unit > tol.unitarity)
    if i is not None:
        raise ValueError(f"frame unitarity defect {unit[i]:.3e}")
    rotated = _matmul(_matmul(U0, H), U0_dag)
    off = matrix_norms(frame.project(rotated, "offdiag"))
    i = _first(off > tol.block * scale)
    if i is not None:
        raise ValueError(
            f"frame does not block-diagonalize H: residual {off[i]:.3e}"
        )
    diag = rotated.diagonal(0, -2, -1).real
    if (np.abs(diag - frame.eps0).max(-1) > 1e-8 * scale).any():
        raise ValueError("frame eigenvalues disagree with the rotated Hamiltonian")
    # The largest within-group |eps_m - eps_n| is the group's spread.
    spread = np.abs(frame._differences[0])
    bad = (spread > tol.degeneracy * scale[..., None, None]) & frame._masks.same
    i = _first(bad.any(axis=(-2, -1)))
    if i is not None:
        g = frame.groups[np.nonzero(bad[i])[0]].min()
        raise ValueError(f"group {g} eigenvalues exceed degeneracy tolerance")


def invert_band_commutator(M: np.ndarray, frame: BandFrame) -> np.ndarray:
    """Right inverse of V -> [V, eps0] on cross-group matrices.

    V_nm = M_nm / (eps_m - eps_n) across groups; within-group components are
    +0.0 (the kernel of the commutator), so only the cross-group entries of
    M are read.  M may be a stack (..., n, n), with the frame's point axis,
    if any, in front.  Raises on a cross-group gap below the frame's
    tolerance.
    """
    gaps = frame.gaps
    gaps = gaps.reshape(gaps.shape[:-2] + (1,) * (M.ndim - gaps.ndim)
                        + gaps.shape[-2:])
    return np.divide(M, gaps, out=np.zeros(M.shape, dtype=complex),
                     where=frame._masks.cross)


def _comm_diag(V: np.ndarray, d: np.ndarray) -> np.ndarray:
    """[V, diag(d)] for stacks, V (..., n, n) and d (..., n):
    V_nm (d_m - d_n)."""
    return V * (d[..., None, :] - d[..., :, None])


def _rotate(frame: BandFrame, S: np.ndarray) -> np.ndarray:
    """U0 S_k U0^+ for every matrix of a stack S (..., k, n, n), with the
    frame's U0 (..., n, n): each side's product is one `_pair_products`
    call per point."""
    left = _pair_products(frame.U0[..., None, :, :], S)[..., 0, :, :, :]
    return _pair_products(left, frame.U0_dag[..., None, :, :])[..., 0, :, :]


def berry_connections(frame: BandFrame) -> ConnectionSet:
    """Exact order-0 connections at the frame's point.  U0 H U0^+ = eps0
    gives [X, eps0] = P-(U0 grad H U0^+) for the cross-group part of X; the
    within-group part is the model's gauge term `analytic_connections` for an
    analytic frame, and 0 otherwise (the gauge parallel to the frame at its
    point)."""
    X = invert_band_commutator(frame.dH, frame)
    A, model = conjugate(1j * X), frame.model
    if model.has_analytic_frame:
        A = model.analytic_connections(frame.point) + A
    return ConnectionSet(hermitize(A), "0")


def connection_gradients(frame: BandFrame, conns: ConnectionSet):
    """Exact phase-space gradients at the frame's point: (dA, hess), with
    dA[b, a] = grad_b A^a of the `berry_connections` set `conns`,
    (6, 6, n, n), and hess[b, a] = grad_b grad_a eps0, (6, 6, n).
    N_ab = U0 grad_a grad_b H U0^+ is two `_pair_products` calls over the
    flattened (36, n, n) Hessian stack, and each product of [M_a, X_b] one
    more.

    With M_a = U0 grad_a H U0^+, X = U0 grad U0^+ = i conjugate(A) and
    E = diag eps0:
      grad_b M_a = N_ab + [M_a, X_b];
      hess is the group scalar of P+ grad_b M_a (second-order
      Hellmann-Feynman);
      P- grad_b X_a = inv(P-(grad_b M_a - [X_a, grad_b E])), inv being
      `invert_band_commutator`;
      P+ grad_b X_a = i conjugate(grad_b G) for the model's gauge term G
      (`d_analytic_connections`), and (1/2) P+[X_a, X_b] in the
      parallel gauge of a frame-less model.
    """
    n, model, M = frame.n, frame.model, frame.dH
    X = 1j * conns.cA
    d2H = model.d2_hamiltonian(frame.point)
    N = _rotate(frame, d2H.reshape(d2H.shape[:-4] + (36, n, n)))
    N = N.reshape(N.shape[:-3] + (6, 6, n, n))
    # Sums of commutators stay written out: grouping the terms through
    # `_comm` would round them in another order.
    # [b, a] stacks: _pair_products(L, R) is [l, r] = L_l R_r.
    dM = N + _swap(_pair_products(M, X)) - _pair_products(X, M)
    hess = _group_scalar(dM.diagonal(0, -2, -1).real, frame)
    dX = invert_band_commutator(
        dM - _comm_diag(X[..., None, :, :, :], frame.grads[..., :, None, :]),
        frame)
    if model.has_analytic_frame:
        dA = conjugate(1j * dX) + model.d_analytic_connections(frame.point)
    else:
        XX = _pair_products(X, X)
        dX += 0.5 * frame.project(_swap(XX) - XX, "diag")
        dA = conjugate(1j * dX)
    return hermitize(dA), hess


def _group_scalar(diag: np.ndarray, frame: BandFrame) -> np.ndarray:
    """The per-group mean of diagonals (..., n), in the frame layout."""
    return (diag @ frame._masks.same_f) / frame._masks.sizes

