"""Band frames, block projections and Berry connections.

The classical diagonalization produces a `BandFrame`: eigenvalues grouped into
declared degenerate band groups and the gauge-fixed unitary U0 with
U0 H U0^+ block diagonal.  Phase-axis fields are (6, n, n) stacks in axis
order (R_1, R_2, R_3, P_1, P_2, P_3), and `conjugate` is the one R <-> P
pairing.  Connections are A^{R_l} = i X_{P_l} and A^{P_l} = -i X_{R_l},
i.e. A = conjugate(i X), X = U0 grad U0^+.  They are exact at the point
(`berry_connections`), and so are their first and second phase-space
derivatives and the eps0 Hessian (`connection_gradients`,
`connection_hessians`).  The finite-difference connections over a
gauge-smoothed frame field (`connections_fd`: eigenvectors at stencil points
aligned to the anchor frame by the unitary polar factor of the per-group
overlap matrix) are the independent cross-check.

A frame holds one point or a batch of N points.  A batch puts its point
axis in front of every array ((N, n) eps0, (N, 6, n, n) stacks), and the
helpers index phase axes from the end, so one function serves both.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from semiband.models import Model, PhasePoint, _dot
from semiband.stencils import derivative_along

__all__ = [
    "Tolerances",
    "BandFrame",
    "ConnectionSet",
    "classical_frame",
    "frame_field",
    "project",
    "invert_band_commutator",
    "berry_connections",
    "connections_fd",
    "connection_gradients",
    "connection_hessians",
    "hermitize",
    "matrix_norms",
    "conjugate",
    "eps0_gradients",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances; defaults are the contract values."""

    degeneracy: float = 1e-8        # within-group eigenvalue spread, relative
    gap: float = 1e-6               # minimum cross-group gap, relative
    block: float = 1e-10            # off-group residual of U0 H U0^+
    unitarity: float = 1e-12        # ||U0 U0^+ - 1|| of a validated frame
    fd_base: float = 1e-3
    overlap: float = 1e-6           # smallest singular value of group overlaps

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"tolerance {name} must be finite and > 0")


DEFAULT_TOL = Tolerances()


@dataclass
class BandFrame:
    """Gauge-fixed classical diagonalization at one phase point or a batch.

    The fixed per-frame data of the helpers (group masks, cross-group eps
    differences, the gap check, U0 grad H U0^+ and the eps0 gradients) is
    computed on first use and kept on the frame.
    """

    eps0: np.ndarray                # (..., n) real, ordered by group layout
    U0: np.ndarray                  # (..., n, n), U0 H U0^+ block diagonal
    groups: np.ndarray              # (n,) group index per state
    point: PhasePoint
    dH: np.ndarray | None = dc_field(default=None, repr=False)  # cached stack, _rotated_dH
    grads: np.ndarray | None = dc_field(default=None, repr=False)  # cached, eps0_gradients
    _gap_checked: float | None = dc_field(default=None, repr=False, init=False)

    @property
    def n(self) -> int:
        return self.eps0.shape[-1]

    def group_states(self, g: int) -> np.ndarray:
        return np.flatnonzero(self.groups == g)

    @cached_property
    def same(self) -> np.ndarray:
        """(n, n) mask of within-group entries."""
        return self.groups[:, None] == self.groups[None, :]

    @cached_property
    def cross(self) -> np.ndarray:
        """(n, n) mask of cross-group entries."""
        return ~self.same

    @cached_property
    def cross_gaps(self) -> np.ndarray:
        """eps_m - eps_n on the cross-group entries (n, m), in mask order,
        (..., k)."""
        eps = self.eps0
        return (eps[..., None, :] - eps[..., :, None])[..., self.cross]

    def check_gap(self, tol: Tolerances) -> None:
        """Raise on a cross-group gap below tolerance at any point (once per
        tolerance)."""
        if self._gap_checked == tol.gap:
            return
        scale = np.maximum(np.max(np.abs(self.eps0), axis=-1), 1e-300)
        if (np.abs(self.cross_gaps) <= tol.gap * scale[..., None]).any():
            raise ValueError("near-degenerate bands: cross-group gap below tolerance")
        self._gap_checked = tol.gap

    def project(self, mat: np.ndarray, part: str = "diag") -> np.ndarray:
        """`project` with this frame's groups."""
        return _masked(mat, self.same, part)


@dataclass
class ConnectionSet:
    """The six Hermitian connections at one point, as one phase-axis stack.

    ``A`` is (6, n, n) in axis order (R_1, R_2, R_3, P_1, P_2, P_3).  For
    corrected sets, ``linear`` holds the hbar-free coefficient of the
    order-hbar correction (A = A0 + hbar * linear).
    """

    A: np.ndarray                   # (..., 6, n, n)
    order: str                      # "0" or "corrected"
    point: PhasePoint
    hbar: float
    linear: np.ndarray | None = None  # (..., 6, n, n) or None for order 0

    @property
    def A_R(self) -> np.ndarray:
        return self.A[..., :3, :, :]

    @property
    def A_P(self) -> np.ndarray:
        return self.A[..., 3:, :, :]


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


def _diag(d: np.ndarray) -> np.ndarray:
    """Diagonal matrices (..., n, n) from their diagonals (..., n)."""
    out = np.zeros(d.shape + d.shape[-1:], dtype=complex)
    idx = np.arange(d.shape[-1])
    out[..., idx, idx] = d
    return out


def hermitize(mat: np.ndarray) -> np.ndarray:
    """The Hermitian part of mat, which may be a stack (..., n, n)."""
    return 0.5 * (mat + _dagger(mat))


def matrix_norms(mat: np.ndarray) -> np.ndarray:
    """Frobenius norms over the last two axes, (...), each rounded as
    `np.linalg.norm` rounds one matrix (the norm over axes sums in another
    order)."""
    if mat.ndim == 2:
        return np.linalg.norm(mat)
    flat = mat.reshape(mat.shape[:-2] + (-1,))
    if np.iscomplexobj(flat):
        return np.sqrt(_dot(flat.real, flat.real) + _dot(flat.imag, flat.imag))
    return np.sqrt(_dot(flat, flat))


def _first(bad: np.ndarray):
    """The index of the first point where `bad` holds, () for one point, or
    None."""
    if not bad.any():
        return None
    return tuple(np.argwhere(bad)[0])


def _at(x: PhasePoint, i: tuple) -> PhasePoint:
    """Point i of x, from a `_first` index."""
    return x.point(*i) if i else x


def project(mat: np.ndarray, groups: np.ndarray, part: str = "diag") -> np.ndarray:
    """Block projectors P+ ('diag': within-group) and P- ('offdiag')."""
    return _masked(mat, groups[:, None] == groups[None, :], part)


def _masked(mat: np.ndarray, same: np.ndarray, part: str) -> np.ndarray:
    if part == "diag":
        return np.where(same, mat, 0.0)
    if part == "offdiag":
        return np.where(same, 0.0, mat)
    raise ValueError("part must be 'diag' or 'offdiag'")


def _group_eigensystem(model: Model, x: PhasePoint, tol: Tolerances):
    """Eigen-decomposition with ascending eigenvalues split into the declared
    group multiplicities; raises when the grouping is inconsistent (naming
    the first point of a batch where it is)."""
    H = model.hamiltonian(x)
    scale = np.maximum(matrix_norms(H), 1e-300)
    vals, vecs = np.linalg.eigh(H)
    sizes = tuple(model.band_groups)
    if sum(sizes) != model.n:
        raise ValueError("band group multiplicities do not sum to the dimension")
    groups = np.empty(model.n, dtype=int)
    start = 0
    for g, size in enumerate(sizes):
        block = vals[..., start:start + size]
        i = _first(np.ptp(block, axis=-1) > tol.degeneracy * scale)
        if i is not None:
            raise ValueError(
                f"eigenvalues {block[i]} spread beyond the degeneracy tolerance "
                f"for declared group {g}"
            )
        if start + size < model.n:
            gap = vals[..., start + size] - vals[..., start + size - 1]
            i = _first(gap <= tol.gap * scale)
            if i is not None:
                raise ValueError(
                    f"cross-group gap {gap[i]:.3e} below tolerance at {_at(x, i)}"
                )
        groups[start:start + size] = g
        start += size
    return vals, vecs, groups


def _phase_fix(vecs: np.ndarray) -> np.ndarray:
    """Deterministic column phases: largest-magnitude entry real positive."""
    k = np.argmax(np.abs(vecs), axis=-2)
    ph = np.take_along_axis(vecs, k[..., None, :], axis=-2)[..., 0, :]
    mag = np.abs(ph)
    turn = np.where(mag > 0, np.conj(ph) / np.where(mag > 0, mag, 1.0), 1.0)
    return vecs * turn[..., None, :]


def _align_to(vecs: np.ndarray, ref: np.ndarray, groups: np.ndarray,
              tol: Tolerances) -> np.ndarray:
    """Rotate eigenvector columns within each group to match a reference frame.

    Uses the unitary polar factor of the overlap matrix per band group; raises
    if an overlap is rank deficient (gauge alignment failure).
    """
    out = vecs.copy()
    for g in np.unique(groups):
        idx = np.flatnonzero(groups == g)
        overlap = vecs[:, idx].conj().T @ ref[:, idx]
        u, s, vh = np.linalg.svd(overlap)
        if s.min() < tol.overlap:
            raise ValueError(
                f"gauge alignment failure: group {g} overlap is singular "
                f"(smallest singular value {s.min():.3e})"
            )
        out[:, idx] = vecs[:, idx] @ (u @ vh)
    return out


def classical_frame(model: Model, x: PhasePoint,
                    tol: Tolerances = DEFAULT_TOL) -> BandFrame:
    """Gauge-fixed classical diagonalization at x.

    Prefers the model's analytic frame; otherwise diagonalizes numerically and
    fixes the gauge deterministically.  Validates unitarity, block diagonality
    and within-group degeneracy at every point of a batch.
    """
    model.check_point(x)
    if model.has_analytic_frame:
        eps0, U0 = model.analytic_frame(x)
        groups = model.groups.copy()
    else:
        vals, vecs, groups = _group_eigensystem(model, x, tol)
        vecs = _phase_fix(vecs)
        eps0, U0 = vals, _dagger(vecs)
    frame = BandFrame(np.asarray(eps0, dtype=float), np.asarray(U0, dtype=complex),
                      groups, x)
    _validate_frame(model, frame, tol)
    return frame


def _validate_frame(model: Model, frame: BandFrame, tol: Tolerances) -> None:
    H = model.hamiltonian(frame.point)
    scale = np.maximum(matrix_norms(H), 1e-300)
    U0, U0_dag = frame.U0, _dagger(frame.U0)
    unit = matrix_norms(U0 @ U0_dag - np.eye(frame.n))
    i = _first(unit > tol.unitarity)
    if i is not None:
        raise ValueError(f"frame unitarity defect {unit[i]:.3e}")
    rotated = U0 @ H @ U0_dag
    off = matrix_norms(frame.project(rotated, "offdiag"))
    i = _first(off > tol.block * scale)
    if i is not None:
        raise ValueError(
            f"frame does not block-diagonalize H: residual {off[i]:.3e}"
        )
    diag = np.real(np.diagonal(rotated, 0, -2, -1))
    if (np.max(np.abs(diag - frame.eps0), axis=-1) > 1e-8 * scale).any():
        raise ValueError("frame eigenvalues disagree with the rotated Hamiltonian")
    # The largest within-group |eps_m - eps_n| is the group's spread.
    eps = frame.eps0
    spread = np.abs(eps[..., None, :] - eps[..., :, None])
    bad = (spread > tol.degeneracy * scale[..., None, None]) & frame.same
    i = _first(bad.any(axis=(-2, -1)))
    if i is not None:
        g = frame.groups[np.nonzero(bad[i])[0]].min()
        raise ValueError(f"group {g} eigenvalues exceed degeneracy tolerance")


def frame_field(model: Model, anchor: BandFrame, tol: Tolerances = DEFAULT_TOL):
    """Smooth map y -> (eps0(y), U0(y)) in the anchor's gauge.

    With an analytic frame the model's own smooth gauge is used directly; the
    numerical path aligns each point's eigenvectors to the anchor frame.
    """
    if model.has_analytic_frame:
        return model.analytic_frame

    ref = anchor.U0.conj().T

    def at(y: PhasePoint):
        vals, vecs, _groups = _group_eigensystem(model, y, tol)
        aligned = _align_to(vecs, ref, anchor.groups, tol)
        return vals, aligned.conj().T

    return at


def invert_band_commutator(M: np.ndarray, frame: BandFrame,
                           tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Right inverse of V -> [V, eps0] on cross-group matrices.

    V_nm = M_nm / (eps_m - eps_n) across groups; within-group components are
    set to zero (the kernel of the commutator).  M may be a stack
    (..., n, n), with the frame's point axis, if any, in front.  Raises on a
    cross-group gap below tolerance.
    """
    frame.check_gap(tol)
    gaps = frame.cross_gaps
    gaps = gaps.reshape(gaps.shape[:-1] + (1,) * (M.ndim - gaps.ndim - 1)
                        + gaps.shape[-1:])
    out = np.zeros(np.shape(M), dtype=complex)
    out[..., frame.cross] = M[..., frame.cross] / gaps
    return out


def _comm_diag(V: np.ndarray, d: np.ndarray) -> np.ndarray:
    """[V, diag(d)] for stacks, V (..., n, n) and d (..., n):
    V_nm (d_m - d_n)."""
    return V * (d[..., None, :] - d[..., :, None])


def _rotated_dH(model: Model, frame: BandFrame) -> np.ndarray:
    """U0 grad_a H U0^+ over the six phase axes, (..., 6, n, n), built once
    per frame and shared by the connections and the eps0 gradients."""
    if frame.dH is None:
        U0 = frame.U0[..., None, :, :]
        frame.dH = U0 @ model.d_hamiltonian(frame.point) @ _dagger(U0)
    return frame.dH


def berry_connections(model: Model, x: PhasePoint, hbar: float,
                      frame: BandFrame | None = None,
                      tol: Tolerances = DEFAULT_TOL) -> ConnectionSet:
    """Exact order-0 connections.  U0 H U0^+ = eps0 gives
    [X, eps0] = P-(U0 grad H U0^+) for the cross-group part of X; the
    within-group part is the model's gauge term `analytic_connections` for an
    analytic frame, and 0 otherwise (the gauge parallel to the frame at x)."""
    if frame is None:
        frame = classical_frame(model, x, tol)
    X = invert_band_commutator(_rotated_dH(model, frame), frame, tol)
    A = conjugate(1j * X)
    if model.has_analytic_frame:
        A = np.concatenate(model.analytic_connections(x), axis=-3) + A
    return ConnectionSet(hermitize(A), "0", x, hbar)


def connection_gradients(model: Model, frame: BandFrame,
                         conns: ConnectionSet, tol: Tolerances = DEFAULT_TOL):
    """Exact phase-space gradients at the frame's point: (dA, hess, N, dM),
    with dA[b, a] = grad_b A^a of the `berry_connections` set `conns`,
    (6, 6, n, n), hess[b, a] = grad_b grad_a eps0, (6, 6, n), and the first
    tangents N_ab = U0 grad_a grad_b H U0^+ and dM[b, a] = grad_b M_a that
    `connection_hessians` builds on.

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
    U0 = frame.U0[..., None, None, :, :]
    M = _rotated_dH(model, frame)
    X = 1j * conjugate(conns.A)
    N = U0 @ model.d2_hamiltonian(frame.point) @ _dagger(U0)
    Ma, Xb = M[..., None, :, :, :], X[..., :, None, :, :]
    Xa = X[..., None, :, :, :]
    # Sums of commutators stay written out: grouping the terms through
    # `_comm` would round them in another order.
    dM = N + Ma @ Xb - Xb @ Ma
    hess = _group_scalar(np.real(np.diagonal(dM, 0, -2, -1)), frame.groups)
    g = eps0_gradients(model, frame, tol)
    dX = invert_band_commutator(
        dM - _comm_diag(Xa, g[..., :, None, :]), frame, tol)
    if model.has_analytic_frame:
        dA = conjugate(1j * dX) + model.d_analytic_connections(frame.point)
    else:
        dX += 0.5 * frame.project(_comm(Xa, Xb), "diag")
        dA = conjugate(1j * dX)
    return hermitize(dA), hess, N, dM


def connection_hessians(model: Model, frame: BandFrame, first,
                        tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Exact second phase-space derivatives at the frame's point, for a model
    with an analytic frame: ddA[c, b, a] = grad_c grad_b A^a, (6, 6, 6, n, n),
    of the order-0 connections of the first-order record `first`
    (`energy.first_order`), which carries their gradient dA, the eps0
    Hessian and the first tangents N and dM of `connection_gradients`.

    One order above `connection_gradients`:
      grad_c N_ab = U0 grad_a grad_b grad_c H U0^+ + [N_ab, X_c];
      grad_c grad_b M_a = grad_c N_ab + [grad_c M_a, X_b] + [M_a, grad_c X_b];
      P- grad_c grad_b X_a = inv(P-(grad_c grad_b M_a - [grad_b X_a, grad_c E]
        - [grad_c X_a, grad_b E] - [X_a, grad_c grad_b E]));
      P+ grad_c grad_b X_a = i conjugate(grad_c grad_b G) for the model's
      gauge term G (`d2_analytic_connections`).
    There is no parallel-gauge form: the within-group gauge enters the
    curvature at O(hbar), so a model without an analytic frame raises
    NotImplementedError.
    """
    if not model.has_analytic_frame:
        raise NotImplementedError(
            f"model {model.name} has no analytic frame: second derivatives "
            "of the connections need its declared gauge term"
        )
    U0 = frame.U0[..., None, None, None, :, :]
    M = _rotated_dH(model, frame)
    X = 1j * conjugate(first.conns0.A)
    N, dM, hess = first.N, first.dM, first.hess
    g = eps0_gradients(model, frame, tol)
    dX = 1j * conjugate(first.dA)
    # Phase axes (c, b, a) in front of the matrix axes: each factor is
    # placed on the axes it carries.
    Nba, Xc = N[..., None, :, :, :, :], X[..., :, None, None, :, :]
    dMca, Xb = dM[..., :, None, :, :, :], X[..., None, :, None, :, :]
    Ma, dXcb = M[..., None, None, :, :, :], dX[..., :, :, None, :, :]
    ddM = (U0 @ model.d3_hamiltonian(frame.point) @ _dagger(U0)
           + Nba @ Xc - Xc @ Nba + dMca @ Xb - Xb @ dMca
           + Ma @ dXcb - dXcb @ Ma)
    ddX = invert_band_commutator(
        ddM - _comm_diag(dX[..., None, :, :, :, :], g[..., :, None, None, :])
        - _comm_diag(dX[..., :, None, :, :, :], g[..., None, :, None, :])
        - _comm_diag(X[..., None, None, :, :, :], hess[..., :, :, None, :]),
        frame, tol)
    ddA = conjugate(1j * ddX) + model.d2_analytic_connections(frame.point)
    return hermitize(ddA)


def connections_fd(model: Model, x: PhasePoint, hbar: float,
                   frame: BandFrame | None = None,
                   tol: Tolerances = DEFAULT_TOL) -> ConnectionSet:
    """Connections from finite differences of the gauge-smoothed frame field."""
    if frame is None:
        frame = classical_frame(model, x, tol)
    at = frame_field(model, frame, tol)
    U0 = at(x)[1]
    X = U0 @ np.stack([derivative_along(lambda y: at(y)[1].conj().T, x, axis,
                                        tol.fd_base)
                       for axis in range(6)])
    return ConnectionSet(hermitize(conjugate(1j * X)), "0", x, hbar)


def _group_scalar(diag: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """The per-group mean of diagonals (..., n), in the frame layout."""
    same = groups[:, None] == groups[None, :]
    return (diag @ same) / same.sum(0)


def eps0_gradients(model: Model, frame: BandFrame,
                   tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The six phase-space gradients of the band energies, (..., 6, n) real in
    the frame layout.

    Uses the Hellmann-Feynman values: the within-group part of U dH U^+ is a
    multiple of the identity per group (asserted), whose scalar is the common
    gradient of the group's eigenvalues.  Computed once per frame.
    """
    if frame.grads is None:
        diag = np.real(np.diagonal(_rotated_dH(model, frame), 0, -2, -1))
        mean = _group_scalar(diag, frame.groups)
        scale = np.maximum(np.max(np.abs(frame.eps0), axis=-1), 1.0)
        if (np.max(np.abs(diag - mean), axis=(-2, -1)) > 1e-8 * scale).any():
            raise ValueError(
                "within-group gradient is not scalar; degeneracy is not structural"
            )
        frame.grads = mean
    return frame.grads
