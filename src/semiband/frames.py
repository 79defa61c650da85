"""Band frames, block projections and Berry connections.

The classical diagonalization produces a `BandFrame`: eigenvalues grouped into
declared degenerate band groups and the gauge-fixed unitary U0 with
U0 H U0^+ block diagonal.  Connections are A^{R_l} = i X_{P_l} and
A^{P_l} = -i X_{R_l}, X = U0 grad U0^+: exact for analytic frames (see
`berry_connections`), otherwise finite differences over a gauge-smoothed frame
field (eigenvectors at stencil points aligned to the anchor frame by the
unitary polar factor of the per-group overlap matrix).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from semiband.models import Model, PhasePoint
from semiband.stencils import FDDiagnostics, derivative_along

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
    "hermitize",
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


DEFAULT_TOL = Tolerances()


@dataclass
class BandFrame:
    """Gauge-fixed classical diagonalization at one phase point."""

    eps0: np.ndarray                # (n,) real, ordered by group layout
    U0: np.ndarray                  # (n, n) unitary, U0 H U0^+ block diagonal
    groups: np.ndarray              # (n,) group index per state
    point: PhasePoint
    dH: np.ndarray | None = dc_field(default=None, repr=False)  # cached stack, _rotated_dH

    @property
    def n(self) -> int:
        return self.eps0.shape[0]

    def group_states(self, g: int) -> np.ndarray:
        return np.flatnonzero(self.groups == g)


@dataclass
class ConnectionSet:
    """Six Hermitian matrices A^{R_l}, A^{P_l} at one point.

    For corrected sets, ``linear_part`` holds the hbar-free coefficient of the
    order-hbar correction (A = A0 + hbar * linear_part), which the energy
    assembly uses to truncate at an exact polynomial order.
    """

    A_R: list                       # 3 arrays (n, n)
    A_P: list
    order: str                      # "0" or "corrected"
    point: PhasePoint
    hbar: float
    diagnostics: FDDiagnostics = dc_field(default_factory=FDDiagnostics)
    linear_part: list | None = None  # 6 arrays (n, n) or None for order 0

    def component(self, axis: int) -> np.ndarray:
        """Phase-axis view: axes 0-2 -> A^{R}, 3-5 -> A^{P}."""
        return self.A_R[axis] if axis < 3 else self.A_P[axis - 3]


def hermitize(mat: np.ndarray):
    """Hermitian part and the norm of the discarded anti-Hermitian part."""
    herm = 0.5 * (mat + mat.conj().T)
    defect = float(np.linalg.norm(mat - herm))
    return herm, defect


def project(mat: np.ndarray, groups: np.ndarray, part: str = "diag") -> np.ndarray:
    """Block projectors P+ ('diag': within-group) and P- ('offdiag')."""
    mask = groups[:, None] == groups[None, :]
    if part == "diag":
        return np.where(mask, mat, 0.0)
    if part == "offdiag":
        return np.where(mask, 0.0, mat)
    raise ValueError("part must be 'diag' or 'offdiag'")


def _group_eigensystem(model: Model, x: PhasePoint, tol: Tolerances):
    """Eigen-decomposition with ascending eigenvalues split into the declared
    group multiplicities; raises when the grouping is inconsistent."""
    H = model.hamiltonian(x)
    scale = max(float(np.linalg.norm(H)), 1e-300)
    vals, vecs = np.linalg.eigh(H)
    sizes = tuple(model.band_groups)
    if sum(sizes) != model.n:
        raise ValueError("band group multiplicities do not sum to the dimension")
    groups = np.empty(model.n, dtype=int)
    start = 0
    for g, size in enumerate(sizes):
        block = vals[start:start + size]
        if np.ptp(block) > tol.degeneracy * scale:
            raise ValueError(
                f"eigenvalues {block} spread beyond the degeneracy tolerance "
                f"for declared group {g}"
            )
        if start + size < model.n:
            gap = vals[start + size] - vals[start + size - 1]
            if gap <= tol.gap * scale:
                raise ValueError(
                    f"cross-group gap {gap:.3e} below tolerance at {x}"
                )
        groups[start:start + size] = g
        start += size
    return vals, vecs, groups


def _phase_fix(vecs: np.ndarray) -> np.ndarray:
    """Deterministic column phases: largest-magnitude entry real positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        k = int(np.argmax(np.abs(out[:, j])))
        ph = out[k, j]
        if abs(ph) > 0:
            out[:, j] *= np.conj(ph) / abs(ph)
    return out


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
    and within-group degeneracy.
    """
    model.check_point(x)
    if model.has_analytic_frame:
        eps0, U0 = model.analytic_frame(x)
        groups = model.groups.copy()
    else:
        vals, vecs, groups = _group_eigensystem(model, x, tol)
        vecs = _phase_fix(vecs)
        eps0, U0 = vals, vecs.conj().T
    frame = BandFrame(np.asarray(eps0, dtype=float), np.asarray(U0, dtype=complex),
                      groups, x)
    _validate_frame(model, frame, tol)
    return frame


def _validate_frame(model: Model, frame: BandFrame, tol: Tolerances) -> None:
    H = model.hamiltonian(frame.point)
    scale = max(float(np.linalg.norm(H)), 1e-300)
    n = frame.n
    unit = frame.U0 @ frame.U0.conj().T - np.eye(n)
    if np.linalg.norm(unit) > tol.unitarity:
        raise ValueError(f"frame unitarity defect {np.linalg.norm(unit):.3e}")
    rotated = frame.U0 @ H @ frame.U0.conj().T
    off = project(rotated, frame.groups, "offdiag")
    if np.linalg.norm(off) > tol.block * scale:
        raise ValueError(
            f"frame does not block-diagonalize H: residual {np.linalg.norm(off):.3e}"
        )
    diag = np.real(np.diag(rotated))
    if np.max(np.abs(diag - frame.eps0)) > 1e-8 * scale:
        raise ValueError("frame eigenvalues disagree with the rotated Hamiltonian")
    for g in np.unique(frame.groups):
        block = frame.eps0[frame.group_states(g)]
        if np.ptp(block) > tol.degeneracy * scale:
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
    set to zero (the kernel of the commutator).  M may be a stack (..., n, n).
    Raises on a cross-group gap below tolerance.
    """
    eps = frame.eps0
    scale = max(float(np.max(np.abs(eps))), 1e-300)
    denom = eps[None, :] - eps[:, None]
    cross = frame.groups[:, None] != frame.groups[None, :]
    small = cross & (np.abs(denom) <= tol.gap * scale)
    if np.any(small):
        raise ValueError("near-degenerate bands: cross-group gap below tolerance")
    out = np.zeros(np.shape(M), dtype=complex)
    out[..., cross] = M[..., cross] / denom[cross]
    return out


def _rotated_dH(model: Model, frame: BandFrame) -> np.ndarray:
    """U0 grad_a H U0^+ over the six phase axes, (6, n, n), built once per
    frame and shared by the connections and the eps0 gradients."""
    if frame.dH is None:
        U0, U0_dag = frame.U0, frame.U0.conj().T
        frame.dH = np.stack([U0 @ model.d_hamiltonian(frame.point, axis) @ U0_dag
                             for axis in range(6)])
    return frame.dH


def berry_connections(model: Model, x: PhasePoint, hbar: float,
                      frame: BandFrame | None = None,
                      tol: Tolerances = DEFAULT_TOL) -> ConnectionSet:
    """Order-0 connections; exact for an analytic frame, where U0 H U0^+ = eps0
    gives [X, eps0] = P-(U0 grad H U0^+) for the cross-group part of X and
    `model.analytic_connections` is the within-group part (the frame's gauge)."""
    if frame is None:
        frame = classical_frame(model, x, tol)
    if not model.has_analytic_frame:
        return connections_fd(model, x, hbar, frame, tol)
    X = invert_band_commutator(_rotated_dH(model, frame), frame, tol)
    A_R, A_P = model.analytic_connections(x)
    A_R = [hermitize(A_R[l] + 1j * X[3 + l])[0] for l in range(3)]
    A_P = [hermitize(A_P[l] - 1j * X[l])[0] for l in range(3)]
    return ConnectionSet(A_R, A_P, "0", x, hbar)


def connections_fd(model: Model, x: PhasePoint, hbar: float,
                   frame: BandFrame | None = None,
                   tol: Tolerances = DEFAULT_TOL) -> ConnectionSet:
    """Connections from finite differences of the gauge-smoothed frame field."""
    if frame is None:
        frame = classical_frame(model, x, tol)
    at = frame_field(model, frame, tol)
    diagnostics = FDDiagnostics()
    U0 = at(x)[1]
    X = [U0 @ derivative_along(lambda y: at(y)[1].conj().T, x, axis,
                               tol.fd_base, diagnostics) for axis in range(6)]
    A_R = [hermitize(1j * X[3 + l])[0] for l in range(3)]
    A_P = [hermitize(-1j * X[l])[0] for l in range(3)]
    return ConnectionSet(A_R, A_P, "0", x, hbar, diagnostics)


def eps0_gradients(model: Model, frame: BandFrame,
                   tol: Tolerances = DEFAULT_TOL) -> list:
    """The six phase-space gradients of the band-energy field, as diagonal
    matrices in the frame layout.

    Uses the Hellmann-Feynman values: the within-group part of U dH U^+ is a
    multiple of the identity per group (asserted), whose scalar is the common
    gradient of the group's eigenvalues.
    """
    diag = np.real(np.diagonal(_rotated_dH(model, frame), 0, 1, 2)).copy()
    scale = max(float(np.max(np.abs(frame.eps0))), 1.0)
    for g in np.unique(frame.groups):
        idx = frame.group_states(g)
        mean = np.mean(diag[:, idx], axis=1, keepdims=True)
        if np.max(np.abs(diag[:, idx] - mean)) > 1e-8 * scale:
            raise ValueError(
                "within-group gradient is not scalar; degeneracy is not structural"
            )
        diag[:, idx] = mean
    return [np.diag(d).astype(complex) for d in diag]
