"""Covariant variables, Berry curvatures and semiclassical ray tracing.

The covariant position and momentum are the canonical variables shifted by
the block-projected connections,

    r = R + hbar A0^R + (hbar^2/2) A1^R,      p likewise,

with A0 = P+ A0^X and A1 twice the projected connection correction plus the
symmetrized self-gradient (A0 . grad) A0 term.  Their commutators define the
curvature set

    Theta^rr_ij =  grad_{P_i} a^R_j - grad_{P_j} a^R_i - i [a^R_i, a^R_j]
    Theta^pp_ij = -(grad_{R_i} a^P_j - grad_{R_j} a^P_i) - i [a^P_i, a^P_j]
    Theta^pr_ij = -(grad_{R_i} a^R_j + grad_{P_j} a^P_i) - i [a^P_i, a^R_j]

where a = A0 + (hbar/2) A1 is the shift per unit hbar.  Both are built
from the first-order record `energy.first_order` on the point's frame, which
the covariant variables keep and which holds the frame, so the passes after
them take the covariant variables alone.  The curvature is exact at the
point: `berry_curvatures` makes one `covariant_variables` call and one
second-order pass, which reads only the record's A0^X, grad A0^X, B and
grad B.  It differentiates the formulas of a by the Leibniz rule, except
where grad grad A0^X enters: the curvature reads grad a only through its
curl, and X = U0 grad U0^+ is flat (grad_c X_a - grad_a X_c = [X_a, X_c]),
so the curl of grad_b grad A0^X is i grad_b [A0^{X_c}, A0^{X_a}], a
commutator of the connections and their gradient.  No stencil runs, and
no derivative of H above the second.  The pass contracts its phase axes as
block-matrix products, because numpy's `@` on a (6, 6, n, n) stack makes
one BLAS call per small matrix.  Phase axes count from the end, so a
`PhasePoint.stack` batch runs the same code as one point, bit for bit.

Rays live on one band group and one helicity; the scalar band curvature that
sources the anomalous velocity is the helicity expectation of the curl of the
band-projected connection, which for the massless model equals
-lambda P / |P|^3.  The ray equations are

    Pdot = -grad_r eps,      rdot = grad_P eps + hbar Pdot x Theta,

which conserve eps exactly in continuum time; the integrator also transports
the band spinor with the momentum-space connection so that the reported
helicity drift measures integrator error only.  Each ray binds its kernel
once (`_ray_kernel`: F's jet, hbar^2, hbar^2/4 and -lam hbar), and one
kernel call at a state unpacks F's flat 13-tuple jet (value, gradient,
hessian row by row) into 13 names in one step and returns its ten rates,
then eps and |P|, as one flat tuple of plain floats.  The |P0| check and
the start state are plain floats as well; only the start spinor comes from
`eigh`, and its bits seed every state.  Both steppers take the ten floats
of the state through the kernel: RK4 (`_rk4`) is written out over them,
and adaptive RK45 (`_rk45`, Cash-Karp) sums its stages over them in the
order arrays would.  A sample's record (eps, speed, helicity) reads the
kernel call at its state, which is also its step's first stage.
`verify`'s RK4-order check runs through the same stepper, with a rotation in
the first three slots.  The states of a trajectory take r and P as rows of
two column copies of one table of the samples and their records.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field as dc_field

import numpy as np

from semiband.fields import _real, _real3
from semiband.models import (
    SX, SY, SZ, Model, NeutrinoMetric, PhasePoint, _dot,
)
from semiband.frames import (
    BandFrame,
    Tolerances,
    DEFAULT_TOL,
    _anticomm,
    _anticomm_sum,
    _dagger,
    _pair_comm,
    _pair_products,
    _swap,
    berry_connections,
    classical_frame,
    hermitize,
)
from semiband.energy import FirstOrder, first_order

__all__ = [
    "CovariantVars",
    "CurvatureSet",
    "TrajectoryState",
    "Trajectory",
    "covariant_variables",
    "berry_curvatures",
    "band_curvature_vector",
    "ray_rhs",
    "check_ray_inputs",
    "integrate_ray",
]


@dataclass
class CovariantVars:
    """Covariant coordinates and momenta at one point or a batch, each field
    a (..., 6, n, n) phase-axis stack (R_1, R_2, R_3, P_1, P_2, P_3)."""

    x: np.ndarray                   # Hermitian covariant variables (r, p)
    A0: np.ndarray                  # projected order-0 shifts
    A1: np.ndarray                  # order-1 shift coefficients
    hbar: float
    # What the shifts are built from, for `berry_curvatures`; its frame
    # holds the point.
    first: FirstOrder = dc_field(repr=False)

    @property
    def r(self) -> np.ndarray:
        return self.x[..., :3, :, :]

    @property
    def p(self) -> np.ndarray:
        return self.x[..., 3:, :, :]

    def shift_per_hbar(self) -> np.ndarray:
        """a = A0 + (hbar/2) A1 on every phase axis, (..., 6, n, n)."""
        return self.A0 + 0.5 * self.hbar * self.A1


@dataclass
class CurvatureSet:
    """3x3 arrays of matrices for the rr, pp and pr curvature blocks."""

    theta_rr: np.ndarray            # (..., 3, 3, n, n)
    theta_pp: np.ndarray
    theta_pr: np.ndarray


def covariant_variables(frame: BandFrame, hbar: float) -> CovariantVars:
    """Covariant variables at the frame's point, with their order-0 and
    order-1 shift records."""
    first = first_order(frame, berry_connections(frame))
    conns0, x = first.conns0, frame.point
    A0 = frame.project(conns0.A, "diag")
    a1 = (2.0 * frame.project(first.linear, "diag")
          + (0.5 * _anticomm(A0[..., :, None, :, :],
                             first.dA_diag)).sum(-4))
    A1 = hermitize(a1)
    canonical = (np.concatenate([x.R, x.P], axis=-1)[..., None, None]
                 * np.eye(frame.n))
    return CovariantVars(canonical + hbar * A0 + 0.5 * hbar ** 2 * A1, A0, A1,
                         hbar, first)


def _shift_gradients(cov: CovariantVars) -> np.ndarray:
    """d[c, a] = grad_c of the shift a = A0 + (hbar/2) A1, (..., 6, 6, n, n),
    less its terms in grad grad A, whose curl `_flat_part` gives; A is the
    record's order-0 connection set, A0 = P+A.

    The Leibniz rule on the formulas of `covariant_variables`:
    A1 = 2 P+ lin + (1/2) sum_b {P+A_b, P+ grad_b A} with the connection
    correction lin = (1/8) sum_b {A_b, grad_b A} + (1/2)(-i conjugate(grad B)
    + [B, A]), everything Hermitized.  B and so grad grad B are cross-group,
    so the -i conjugate(grad B) term has no within-group part and drops out.
    The sums over b are (6n x 6n) block products, `_anticomm_sum`.
    """
    first = cov.first
    frame = first.frame
    A, B, dA, dB = first.conns0.A, first.B, first.dA, first.dB
    flat = dA.reshape(A.shape[:-3] + (-1,) + A.shape[-2:])   # [(b, a)]
    dlin = (0.125 * _anticomm_sum(dA, dA)
            + 0.5 * (_pair_comm(dB, A)
                     + _pair_comm(B[..., None, :, :], flat).reshape(dA.shape)))
    dA0 = first.dA_diag
    dA1 = hermitize(2.0 * frame.project(hermitize(dlin), "diag")
                    + 0.5 * _anticomm_sum(dA0, dA0))
    return dA0 + 0.5 * cov.hbar * dA1


def _flat_part(cov: CovariantVars) -> np.ndarray:
    """K = W - swap(W), (..., 6, 6, n, n): in its [R, R], [P, P] and [P, R]
    blocks, the curl of the grad grad A terms of d plus the -i [a^c, a^a]
    of the curvature, for the shift a.

    X = U0 grad U0^+ is flat, grad_c X_a - grad_a X_c = [X_a, X_c], so in
    those blocks the curl of grad_b grad A is i grad_b [A_c, A_a] =
    i (G[b, c, a] - G[b, a, c]), G[b, c, a] = [grad_b A_c, A_a], one
    `_pair_comm` of grad A and A.  grad grad A enters d only through
    (1/8) sum_b {A_b, .} in lin and (1/2) sum_b {P+A_b, P+ .} in A1, which
    commute with the curl, P+ and `hermitize`, and P+ of a product with the
    block-diagonal P+A_b is its product with P+ of the other factor, so
      W = (hbar/2) hermitize(i P+ sum_b {A_b/4 + P+A_b/2, G[b]})
          - i a^c a^a.
    """
    first = cov.first
    frame = first.frame
    A, dA = first.conns0.A, first.dA
    lead, n = A.shape[:-3], A.shape[-1]
    G = _pair_comm(dA.reshape(lead + (36, n, n)), A).reshape(
        lead + (6, 36, n, n))                             # [b, (c, a)]
    Z = 0.25 * A + 0.5 * cov.A0
    S = _anticomm_sum(Z[..., None, :, :, :], G).reshape(dA.shape)
    a = cov.shift_per_hbar()
    W = (0.5 * cov.hbar * hermitize(1j * frame.project(S, "diag"))
         - 1j * _pair_products(a, a))
    return W - _swap(W)


def berry_curvatures(model: Model, x: PhasePoint, hbar: float,
                     tol: Tolerances = DEFAULT_TOL) -> CurvatureSet:
    """Curvature set from the covariant shift a and its exact gradient.

    One `covariant_variables` call at x gives a and the first-order record
    it is built from; the second-order pass reads that record alone:
    `_shift_gradients` gives d[c, a] = grad_c a^a less its terms in the
    second derivatives of the connections, whose curl `_flat_part` gives
    from the connections and their gradient by the flatness of
    U0 grad U0^+.  The O(hbar) part depends on the within-group gauge,
    which a model without an analytic frame does not declare, so such a
    model raises NotImplementedError.  A block that is not finite raises
    FloatingPointError.
    """
    if not model.has_analytic_frame:
        raise NotImplementedError(
            f"model {model.name} has no analytic frame: the O(hbar) "
            "curvature depends on the within-group gauge, which it does not "
            "declare")
    cov = covariant_variables(classical_frame(model, x, tol), hbar)
    d = _shift_gradients(cov)
    K = _flat_part(cov)
    R, P = slice(0, 3), slice(3, 6)
    d_PR, d_RP = d[..., P, R, :, :], d[..., R, P, :, :]
    rr = d_PR - _swap(d_PR) + K[..., R, R, :, :]
    pp = -(d_RP - _swap(d_RP)) + K[..., P, P, :, :]
    pr = (-(d[..., R, R, :, :] + _swap(d[..., P, P, :, :]))
          + K[..., P, R, :, :])
    if not all(np.isfinite(b).all() for b in (rr, pp, pr)):
        raise FloatingPointError("curvature is not finite")
    return CurvatureSet(rr, pp, pr)


def _helicity_spinor(P: np.ndarray, lam: int) -> np.ndarray:
    """Unit eigenvector (..., 2) of sigma.Phat with eigenvalue lam (+1, -1):
    `eigh` sorts the eigenvalues -1, +1 ascending, so it is the column
    (lam + 1) // 2, made contiguous for the `@` of its readers."""
    phat = P / np.sqrt(_dot(P, P))[..., None]
    px, py, pz = (phat[..., i, None, None] for i in range(3))
    vecs = np.linalg.eigh(px * SX + py * SY + pz * SZ)[1]
    return np.ascontiguousarray(vecs[..., (lam + 1) // 2])


def _check_lam(lam) -> None:
    """ValueError unless lam is the integer +1 or -1 (a bool is not one)."""
    if (isinstance(lam, bool) or not isinstance(lam, numbers.Integral)
            or lam not in (+1, -1)):
        raise ValueError(f"lam must be the integer +1 or -1, not {lam!r}")


def band_curvature_vector(model: Model, x: PhasePoint, lam: int) -> np.ndarray:
    """Scalar band curvature Theta_k on the helicity-lam positive band.

    Helicity expectation of the curl of the band-projected connection; for
    the massless model this equals -lam P / |P|^3 at every P.  On the
    positive block grad_P A^R is the gradient of the model's declared gauge
    term, since the band-commutator inversion writes only cross-group
    entries, so it is one `d_analytic_connections` call.  A model without an
    analytic frame, or whose positive group is not two states, raises
    NotImplementedError; a result that is not finite raises
    FloatingPointError.
    """
    _check_lam(lam)
    pos = np.flatnonzero(model.groups == 0)
    if len(pos) != 2:
        raise NotImplementedError(
            f"model {model.name}: the helicity curvature needs a positive "
            f"group of two states, not {len(pos)}")
    if not model.has_analytic_frame:
        raise NotImplementedError(
            f"model {model.name} has no analytic frame: the helicity "
            "curvature needs its declared gauge term")
    model.check_point(x)
    dA = hermitize(model.d_analytic_connections(x))
    # curl[k] = dP[i, j] - dP[j, i], (i, j, k) cyclic, dP = grad_P A^R on the
    # positive block, made contiguous: `@` rounds a strided batch otherwise.
    dP = dA[..., 3:, :3, :, :][..., pos[:, None], pos]
    i, j = [1, 2, 0], [2, 0, 1]
    curl = np.ascontiguousarray(dP[..., i, j, :, :] - dP[..., j, i, :, :])
    chi = _helicity_spinor(x.P, lam)[..., None, :, None]
    theta = np.real(_dagger(chi) @ curl @ chi)[..., 0, 0]
    if not np.isfinite(theta).all():
        raise FloatingPointError("band curvature is not finite")
    return theta


# ---------------------------------------------------------------------------
# Ray equations (positive band, fixed helicity)
# ---------------------------------------------------------------------------

def _ray_kernel(F, lam: int, hbar: float):
    """The ray equations of one ray: rates(y) at y = (r, P, Re chi, Im chi),
    ten plain floats, with F's jet, hbar^2, hbar^2/4 and -lam hbar bound once.

    rates(y) returns one flat 12-tuple: the ten rates ydot = (rdot, Pdot,
    Re chidot, Im chidot), then eps and |P|.  An RK4 step reads the rates, a
    sample's record the last two.  One jet of F gives everything, its flat
    13-tuple unpacked into 13 names in one step.  The spinor generator
    sum_l Pdot_l (P x sigma)_l / 2|P|^2 is (Pdot x P).sigma / 2|P|^2, so no
    matrix is built.
    """
    jet, hh = F.jet, hbar ** 2
    q, m = hh / 4.0, -lam * hbar

    def rates(y) -> tuple:
        x, y_, z, px, py, pz, ar, br, ai, bi = y
        E2 = px * px + py * py + pz * pz
        E = math.sqrt(E2)
        if E < 1e-12:
            raise ValueError("|P| underflow along the ray")
        Fv, gx, gy, gz, hxx, hxy, hxz, hyx, hyy, hyz, hzx, hzy, hzz = jet(
            (x, y_, z))
        pg = px * gx + py * gy + pz * gz
        E3, E2x2 = E ** 3, 2.0 * E2
        k = hh / (4.0 * E)
        # Pdot = -grad_r eps, eps = F|P| - (hbar^2/4|P|) P.grad F.
        dpx = k * (hxx * px + hxy * py + hxz * pz) - E * gx
        dpy = k * (hyx * px + hyy * py + hyz * pz) - E * gy
        dpz = k * (hzx * px + hzy * py + hzz * pz) - E * gz
        # rdot = grad_P eps + hbar Pdot x Theta with Theta = -lam P/|P|^3;
        # the spinor turns with chidot = i w.sigma chi, w = (Pdot x P)/2|P|^2.
        cx, cy, cz = (dpy * pz - dpz * py, dpz * px - dpx * pz,
                      dpx * py - dpy * px)
        a, b = Fv / E + q * pg / E3, m / E3
        wx, wy, wz = cx / E2x2, cy / E2x2, cz / E2x2
        u_re, u_im = wz * ar + wx * br + wy * bi, wz * ai + wx * bi - wy * br
        v_re, v_im = wx * ar - wy * ai - wz * br, wx * ai + wy * ar - wz * bi
        return (a * px - k * gx + b * cx, a * py - k * gy + b * cy,
                a * pz - k * gz + b * cz, dpx, dpy, dpz, -u_im, -v_im, u_re,
                v_re, Fv * E - k * pg, E)

    return rates


def ray_rhs(r: np.ndarray, P: np.ndarray, lam: int, model: Model,
            hbar: float):
    """(rdot, Pdot) for the fixed-helicity positive band.

    Pdot carries no anomalous term; the anomalous velocity is
    hbar Pdot x Theta with Theta = -lam P/|P|^3.
    """
    if not isinstance(model, NeutrinoMetric):
        raise NotImplementedError(
            "ray tracing is implemented for the massless graded-index model")
    # Plain floats, as the stepper's: numpy scalars would round and fail
    # (warn) otherwise.
    y = [*np.asarray(r, dtype=float).tolist(),
         *np.asarray(P, dtype=float).tolist(), 0.0, 0.0, 0.0, 0.0]
    k = _ray_kernel(model.F, lam, hbar)(y)
    return np.array(k[0:3]), np.array(k[3:6])


@dataclass
class TrajectoryState:
    t: float
    r: np.ndarray
    P: np.ndarray
    lam: int
    helicity: float
    eps: float
    speed: float


@dataclass
class Trajectory:
    states: list
    lam: int
    hbar: float
    method: str
    helicity_drift: float
    energy_drift: float
    rejected_steps: int = 0

    def final(self) -> TrajectoryState:
        return self.states[-1]


# -- RK4 over ten floats -----------------------------------------------------

def _rk4(rates, y, dt: float, steps: int) -> list:
    """Classic RK4 from t = 0, written out over a state of ten floats:
    (t, y, k) at each sample from y on, each y a 10-tuple and k = rates(y),
    whose ten rates are followed by two values passed through unread.  Each
    step's first stage is its sample's k.  Every value rounds as
    y + dt/6 (k1 + 2 k2 + 2 k3 + k4) does on arrays, with the stage states
    y + (dt/2) k1, y + (dt/2) k2 and y + dt k3.  The doubling is written
    2.0 * k: the same value as 2 * k, without an int operand, which takes a
    slower path through the interpreter."""
    h, s = dt / 2, dt / 6
    t, k = 0.0, rates(y)
    out = [(t, y, k)]
    for _ in range(steps):
        y0, y1, y2, y3, y4, y5, y6, y7, y8, y9 = y
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, _, _ = k
        b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, _, _ = rates((
            y0 + h * a0, y1 + h * a1, y2 + h * a2, y3 + h * a3, y4 + h * a4,
            y5 + h * a5, y6 + h * a6, y7 + h * a7, y8 + h * a8, y9 + h * a9))
        c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, _, _ = rates((
            y0 + h * b0, y1 + h * b1, y2 + h * b2, y3 + h * b3, y4 + h * b4,
            y5 + h * b5, y6 + h * b6, y7 + h * b7, y8 + h * b8, y9 + h * b9))
        d0, d1, d2, d3, d4, d5, d6, d7, d8, d9, _, _ = rates((
            y0 + dt * c0, y1 + dt * c1, y2 + dt * c2, y3 + dt * c3,
            y4 + dt * c4, y5 + dt * c5, y6 + dt * c6, y7 + dt * c7,
            y8 + dt * c8, y9 + dt * c9))
        y = (y0 + s * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
             y1 + s * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
             y2 + s * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
             y3 + s * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
             y4 + s * (a4 + 2.0 * b4 + 2.0 * c4 + d4),
             y5 + s * (a5 + 2.0 * b5 + 2.0 * c5 + d5),
             y6 + s * (a6 + 2.0 * b6 + 2.0 * c6 + d6),
             y7 + s * (a7 + 2.0 * b7 + 2.0 * c7 + d7),
             y8 + s * (a8 + 2.0 * b8 + 2.0 * c8 + d8),
             y9 + s * (a9 + 2.0 * b9 + 2.0 * c9 + d9))
        t += dt
        k = rates(y)
        out.append((t, y, k))
    return out


# Cash-Karp embedded 5(4) pair.
_CK_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [3 / 10, -9 / 10, 6 / 5],
    [-11 / 54, 5 / 2, -70 / 27, 35 / 27],
    [1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096],
]
_CK_B5 = [37 / 378, 0, 250 / 621, 125 / 594, 0, 512 / 1771]
_CK_B4 = [2825 / 27648, 0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4]


def _ck_state(y, dt: float, coefs, ks) -> tuple:
    """y + dt sum_i c_i k_i on each float of y, each sum from 0 in stage
    order, zero weights included, as arrays round it."""
    out = []
    for yj, kj in zip(y, zip(*ks)):
        s = 0.0
        for c, k in zip(coefs, kj):
            s += c * k
        out.append(yj + dt * s)
    return tuple(out)


def _rk45(rates, y, t_end: float, rtol: float, atol: float,
          max_rejections: int) -> tuple:
    """Adaptive Cash-Karp 5(4) from t = 0 to t_end over a state of floats:
    ((t, y, k) per accepted sample as `_rk4` gives them, rejected steps).
    The error is max |y5 - y4|; each accepted k is the next first stage."""
    t, dt, k = 0.0, t_end / 100, rates(y)
    out, rejected = [(t, y, k)], 0
    while t < t_end - 1e-15 * max(1.0, abs(t_end)):
        dt = min(dt, t_end - t)
        ks = [k]
        for a in _CK_A[1:]:
            ks.append(rates(_ck_state(y, dt, a, ks)))
        y5 = _ck_state(y, dt, _CK_B5, ks)
        diffs = [abs(a - b) for a, b in zip(y5, _ck_state(y, dt, _CK_B4, ks))]
        if not all(map(math.isfinite, diffs)):
            raise FloatingPointError(
                f"ray state turned non-finite at t = {t + dt:g}")
        err, scale = max(diffs), atol + rtol * max(map(abs, y))
        if err <= scale or dt <= 1e-14:
            t, y, k = t + dt, y5, rates(y5)
            out.append((t, y, k))
            dt *= 2.0 if err == 0 else min(2.0, 0.9 * (scale / err) ** 0.2)
        else:
            rejected += 1
            if rejected > max_rejections:
                raise RuntimeError("rk45 step rejection overflow")
            dt *= max(0.1, 0.9 * (scale / err) ** 0.25)
    return out, rejected


def check_ray_inputs(hbar: float, dt: float, steps: int, r0, P0, lam: int,
                     method: str) -> tuple:
    """(r0, P0) as float 3-vectors; ValueError unless hbar, dt and the three
    components of r0 and P0 are finite real numbers (a bool is not one), dt
    > 0, hbar >= 0, steps is an integer >= 1, lam the integer +1 or -1 and
    method 'rk4' or 'rk45'."""
    if not _real(dt, "dt") > 0:
        raise ValueError("dt must be positive and finite")
    if (isinstance(steps, bool) or not isinstance(steps, numbers.Integral)
            or steps < 1):
        raise ValueError("steps must be an integer >= 1")
    if not _real(hbar, "hbar") >= 0:
        raise ValueError("hbar must be finite and >= 0")
    _check_lam(lam)
    if method not in ("rk4", "rk45"):
        raise ValueError("method must be 'rk4' or 'rk45'")
    return np.array(_real3(r0, "r0")), np.array(_real3(P0, "P0"))


def _ray_rows(samples) -> list:
    """One row per (t, y, k) sample, k = rates(y): the ten state values, then
    eps, the speed |rdot| and the helicity <chi|sigma.Phat|chi>/<chi|chi>."""
    rows = []
    for _, y, k in samples:
        _, _, _, px, py, pz, ar, br, ai, bi = y
        vx, vy, vz, _, _, _, _, _, _, _, eps, E = k
        rows.append((*y, eps, math.sqrt(vx ** 2 + vy ** 2 + vz ** 2),
                     (pz * (ar * ar + ai * ai - br * br - bi * bi)
                      + 2 * px * (ar * br + ai * bi)
                      + 2 * py * (ar * bi - ai * br))
                     / (E * (ar * ar + ai * ai + br * br + bi * bi))))
    return rows


def integrate_ray(model: Model, r0, P0, lam: int, hbar: float, dt: float,
                  steps: int, method: str = "rk4") -> Trajectory:
    """Integrate the fixed-helicity ray together with the band spinor.

    The state is (r, P, chi); chi is transported with chidot = i Pdot.a chi
    where a is the positive-block momentum-space connection, so the helicity
    expectation <sigma.Phat> is conserved in continuum time.  Its drift and
    the energy drift along the run are reported on the trajectory.
    """
    r0, P0 = check_ray_inputs(hbar, dt, steps, r0, P0, lam, method)
    r, P = r0.tolist(), P0.tolist()
    if not P[0] * P[0] + P[1] * P[1] + P[2] * P[2] > 0.0:
        raise ValueError("|P0| must be positive")

    try:
        # One evaluation at the start checks the model, |P0| against
        # underflow and the profile at r0, before any step.
        ray_rhs(r0, P0, lam, model, hbar)
        rates = _ray_kernel(model.F, lam, hbar)
        chi0 = _helicity_spinor(P0, lam)
        y0 = (*r, *P, *chi0.real.tolist(), *chi0.imag.tolist())
        samples, rejected = (
            (_rk4(rates, y0, dt, steps), 0) if method == "rk4"
            else _rk45(rates, y0, dt * steps, 1e-10, 1e-12, 2000))
        rows = _ray_rows(samples)
    except OverflowError as exc:
        raise FloatingPointError(f"ray state overflowed: {exc}") from exc
    table = np.fromiter(itertools.chain.from_iterable(rows), float,
                        13 * len(rows)).reshape(-1, 13)
    finite = np.isfinite(table)
    if not finite.all():
        t_bad = samples[int(np.argmin(finite.all(axis=1)))][0]
        raise FloatingPointError(f"ray state turned non-finite at t = {t_bad:g}")
    rs, Ps = table[:, 0:3].copy(), table[:, 3:6].copy()
    states = [TrajectoryState(t, r, P, lam, row[12], row[10], row[11])
              for (t, _, _), r, P, row in zip(samples, rs, Ps, rows)]
    hel0, eps0 = states[0].helicity, states[0].eps
    drift = max(abs(s.helicity - hel0) for s in states)
    edrift = max(abs(s.eps - eps0) for s in states)
    return Trajectory(states, lam, hbar, method, drift, edrift, rejected)
