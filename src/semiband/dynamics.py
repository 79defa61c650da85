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
from the first-order record `energy.first_order`, which the covariant
variables keep.  The gradient of a is exact at the point:
`berry_curvatures` makes one `covariant_variables` call and one
second-order pass, which differentiates the formulas of a by the Leibniz
rule, with grad grad A0 from `frames.connection_hessians` on the record's
first tangents.  No stencil runs.

Rays live on one band group and one helicity; the scalar band curvature that
sources the anomalous velocity is the helicity expectation of the curl of the
band-projected connection, which for the massless model equals
-lambda P / |P|^3.  The ray equations are

    Pdot = -grad_r eps,      rdot = grad_P eps + hbar Pdot x Theta,

which conserve eps exactly in continuum time; the integrator also transports
the band spinor with the momentum-space connection so that the reported
helicity drift measures integrator error only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field as dc_field

import numpy as np

from semiband.models import (
    SX, SY, SZ, Model, NeutrinoMetric, PhasePoint,
)
from semiband.frames import (
    BandFrame,
    Tolerances,
    DEFAULT_TOL,
    _anticomm,
    _comm,
    berry_connections,
    classical_frame,
    connection_gradients,
    connection_hessians,
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
    "positive_block_connection",
    "ray_rhs",
    "check_ray_inputs",
    "integrate_ray",
    "rk4_step",
    "integrate_fixed",
]


@dataclass
class CovariantVars:
    """Matrix-valued covariant coordinates and momenta at one point, each
    field a (6, n, n) phase-axis stack (R_1, R_2, R_3, P_1, P_2, P_3)."""

    x: np.ndarray                   # Hermitian covariant variables (r, p)
    A0: np.ndarray                  # projected order-0 shifts
    A1: np.ndarray                  # order-1 shift coefficients
    point: PhasePoint
    hbar: float
    # What the shifts are built from, for `berry_curvatures`.
    first: FirstOrder = dc_field(repr=False)

    @property
    def r(self) -> np.ndarray:
        return self.x[:3]

    @property
    def p(self) -> np.ndarray:
        return self.x[3:]

    def shift_per_hbar(self) -> np.ndarray:
        """a = A0 + (hbar/2) A1 on every phase axis, (6, n, n)."""
        return self.A0 + 0.5 * self.hbar * self.A1


@dataclass
class CurvatureSet:
    """3x3 arrays of matrices for the rr, pp and pr curvature blocks."""

    theta_rr: np.ndarray            # (3, 3, n, n)
    theta_pp: np.ndarray
    theta_pr: np.ndarray
    point: PhasePoint
    hbar: float


def covariant_variables(model: Model, x: PhasePoint, hbar: float,
                        tol: Tolerances = DEFAULT_TOL,
                        frame: BandFrame | None = None) -> CovariantVars:
    """Covariant variables with their order-0 and order-1 shift records."""
    if frame is None:
        frame = classical_frame(model, x, tol)
    conns0 = berry_connections(model, x, hbar, frame=frame, tol=tol)
    first = first_order(model, frame, conns0, tol)
    A0 = frame.project(conns0.A, "diag")
    a1 = (2.0 * frame.project(first.linear, "diag")
          + (0.5 * _anticomm(A0[:, None],
                             frame.project(first.dA, "diag"))).sum(0))
    A1 = hermitize(a1)
    canonical = np.concatenate([x.R, x.P])[:, None, None] * np.eye(frame.n)
    return CovariantVars(canonical + hbar * A0 + 0.5 * hbar ** 2 * A1, A0, A1,
                         x, hbar, first)


def _shift_gradients(model: Model, frame: BandFrame, cov: CovariantVars,
                     tol: Tolerances) -> np.ndarray:
    """d[c, a] = grad_c of the shift a = A0 + (hbar/2) A1, (6, 6, n, n).

    The Leibniz rule on the formulas of `covariant_variables`:
    A1 = 2 P+ lin + (1/2) sum_b {P+A_b, P+ grad_b A} with the connection
    correction lin = (1/8) sum_b {A_b, grad_b A} + (1/2)(-i conjugate(grad B)
    + [B, A]), everything Hermitized.  B and so grad grad B are cross-group,
    so the -i conjugate(grad B) term has no within-group part and drops out.
    """
    first = cov.first
    A, B, dA, dB = first.conns0.A, first.B, first.dA, first.dB
    ddA = connection_hessians(model, frame, first, tol)
    dlin = (0.125 * (_anticomm(dA[:, :, None], dA[None])
                     + _anticomm(A[None, :, None], ddA)).sum(1)
            + 0.5 * (_comm(dB[:, None], A[None]) + _comm(B, dA)))
    A0, dA0 = frame.project(A, "diag"), frame.project(dA, "diag")
    dA1 = hermitize(
        2.0 * frame.project(hermitize(dlin), "diag")
        + 0.5 * (_anticomm(dA0[:, :, None], dA0[None])
                 + _anticomm(A0[None, :, None], frame.project(ddA, "diag"))
                 ).sum(1))
    return dA0 + 0.5 * cov.hbar * dA1


def berry_curvatures(model: Model, x: PhasePoint, hbar: float,
                     tol: Tolerances = DEFAULT_TOL) -> CurvatureSet:
    """Curvature set from the covariant shift a and its exact gradient.

    One `covariant_variables` call at x gives a and the first-order data it
    is built from; one second-order pass (`_shift_gradients`) gives
    d[c, a] = grad_c a^a.  The second derivatives of the connections need the
    model's declared gauge term, so a model without an analytic frame raises
    NotImplementedError.
    """
    frame = classical_frame(model, x, tol)
    cov = covariant_variables(model, x, hbar, tol, frame)
    d = _shift_gradients(model, frame, cov, tol)
    a = cov.shift_per_hbar()
    aR, aP = a[:3], a[3:]
    d_PR, d_RP = d[3:, :3], d[:3, 3:]   # grad_{P_i} a^R_j, grad_{R_i} a^P_j
    rr = d_PR - d_PR.swapaxes(0, 1) - 1j * _comm(aR[:, None], aR[None])
    pp = -(d_RP - d_RP.swapaxes(0, 1)) - 1j * _comm(aP[:, None], aP[None])
    pr = (-(d[:3, :3] + d[3:, 3:].swapaxes(0, 1))
          - 1j * _comm(aP[:, None], aR[None]))
    return CurvatureSet(rr, pp, pr, x, hbar)


def _helicity_spinor(P: np.ndarray, lam: int) -> np.ndarray:
    """Normalized eigenvector of sigma.Phat with eigenvalue lam (+1 or -1)."""
    phat = P / np.linalg.norm(P)
    vals, vecs = np.linalg.eigh(phat[0] * SX + phat[1] * SY + phat[2] * SZ)
    idx = int(np.argmin(np.abs(vals - lam)))
    return vecs[:, idx]


def positive_block_connection(model: Model, x: PhasePoint,
                              tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The position connection on the positive-energy block, (3, 2, 2)."""
    frame = classical_frame(model, x, tol)
    conns = berry_connections(model, x, 0.0, frame=frame, tol=tol)
    pos = frame.group_states(0)
    return conns.A_R[:, pos[:, None], pos]


def band_curvature_vector(model: Model, x: PhasePoint, lam: int,
                          tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Scalar band curvature Theta_k on the helicity-lam positive band.

    Helicity expectation of the curl of the band-projected connection, with
    grad_P A^R exact from `connection_gradients`; for the massless model
    this equals -lam P / |P|^3 at every P.
    """
    frame = classical_frame(model, x, tol)
    conns = berry_connections(model, x, 0.0, frame=frame, tol=tol)
    pos = frame.group_states(0)
    # dP[i, j] = grad_{P_i} A^R_j on the positive block.
    dP = connection_gradients(model, frame, conns, tol)[0][3:, :3][
        :, :, pos[:, None], pos]
    chi = _helicity_spinor(x.P, lam)
    theta = np.zeros(3)
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        curl = dP[i, j] - dP[j, i]
        theta[k] = float(np.real(chi.conj() @ curl @ chi))
    return theta


# ---------------------------------------------------------------------------
# Ray equations (positive band, fixed helicity)
# ---------------------------------------------------------------------------

def _ray_rates(F, lam: int, hbar: float, y) -> tuple:
    """The ray equations at y = (r, P, Re chi, Im chi), ten plain floats.

    Returns (ydot, eps, |P|) with ydot = (rdot, Pdot, Re chidot, Im chidot)
    as one 10-tuple.  One jet of F gives everything.  The spinor generator
    sum_l Pdot_l (P x sigma)_l / 2|P|^2 is (Pdot x P).sigma / 2|P|^2, so no
    matrix is built.
    """
    x, y_, z, px, py, pz, ar, br, ai, bi = y
    E2 = px * px + py * py + pz * pz
    E = math.sqrt(E2)
    if E < 1e-12:
        raise ValueError("|P| underflow along the ray")
    Fv, (gx, gy, gz), h = F.jet((x, y_, z))
    pg = px * gx + py * gy + pz * gz
    c, k = hbar ** 2 / 4.0, hbar ** 2 / (4 * E)
    # Pdot = -grad_r eps, eps = F|P| - (hbar^2/4|P|) P.grad F.
    dpx = k * (h[0][0] * px + h[0][1] * py + h[0][2] * pz) - E * gx
    dpy = k * (h[1][0] * px + h[1][1] * py + h[1][2] * pz) - E * gy
    dpz = k * (h[2][0] * px + h[2][1] * py + h[2][2] * pz) - E * gz
    # rdot = grad_P eps + hbar Pdot x Theta with Theta = -lam P/|P|^3; the
    # spinor turns with chidot = i w.sigma chi, w = (Pdot x P)/2|P|^2.
    cx, cy, cz = dpy * pz - dpz * py, dpz * px - dpx * pz, dpx * py - dpy * px
    a, b = Fv / E + c * pg / E ** 3, -lam * hbar / E ** 3
    rdx, rdy, rdz = (a * px - k * gx + b * cx, a * py - k * gy + b * cy,
                     a * pz - k * gz + b * cz)
    wx, wy, wz = cx / (2 * E2), cy / (2 * E2), cz / (2 * E2)
    u_re, u_im = wz * ar + wx * br + wy * bi, wz * ai + wx * bi - wy * br
    v_re, v_im = wx * ar - wy * ai - wz * br, wx * ai + wy * ar - wz * bi
    ydot = (rdx, rdy, rdz, dpx, dpy, dpz, -u_im, -v_im, u_re, v_re)
    return ydot, Fv * E - k * pg, E


def _check_ray_model(model: Model) -> NeutrinoMetric:
    if not isinstance(model, NeutrinoMetric):
        raise NotImplementedError(
            "ray tracing is implemented for the massless graded-index model"
        )
    return model


def ray_rhs(r: np.ndarray, P: np.ndarray, lam: int, model: Model,
            hbar: float):
    """(rdot, Pdot) for the fixed-helicity positive band.

    Pdot carries no anomalous term; the anomalous velocity is
    hbar Pdot x Theta with Theta = -lam P/|P|^3.
    """
    model = _check_ray_model(model)
    ydot = _ray_rates(model.F, lam, hbar, [*r, *P, 0.0, 0.0, 0.0, 0.0])[0]
    return np.array(ydot[0:3]), np.array(ydot[3:6])


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


# -- generic fixed-step RK4 -------------------------------------------------

def rk4_step(f, t: float, y: np.ndarray, dt: float) -> np.ndarray:
    k1 = f(t, y)
    k2 = f(t + dt / 2, y + dt / 2 * k1)
    k3 = f(t + dt / 2, y + dt / 2 * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def integrate_fixed(f, t0: float, y0: np.ndarray, dt: float, steps: int):
    """Classic RK4; returns the list of (t, y) including the initial state."""
    out = [(t0, np.asarray(y0, dtype=float).copy())]
    t, y = t0, np.asarray(y0, dtype=float).copy()
    for _ in range(steps):
        y = rk4_step(f, t, y, dt)
        t += dt
        out.append((t, y.copy()))
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


def _rk45_step(f, t, y, dt):
    ks = [f(t, y)]
    for i in range(1, 6):
        yi = y + dt * sum(a * k for a, k in zip(_CK_A[i], ks))
        ks.append(f(t + dt * sum(_CK_A[i]), yi))
    y5 = y + dt * sum(b * k for b, k in zip(_CK_B5, ks))
    y4 = y + dt * sum(b * k for b, k in zip(_CK_B4, ks))
    return y5, float(np.max(np.abs(y5 - y4)))


def _integrate_rk45(f, t0, y0, t_end, rtol=1e-10, atol=1e-12,
                    max_rejections=2000):
    t, y = t0, np.asarray(y0, dtype=float).copy()
    dt = (t_end - t0) / 100
    out = [(t, y.copy())]
    rejected = 0
    while t < t_end - 1e-15 * max(1.0, abs(t_end)):
        dt = min(dt, t_end - t)
        y_new, err = _rk45_step(f, t, y, dt)
        scale = atol + rtol * float(np.max(np.abs(y)))
        if err <= scale or dt <= 1e-14:
            t += dt
            y = y_new
            out.append((t, y.copy()))
            factor = 2.0 if err == 0 else min(2.0, 0.9 * (scale / err) ** 0.2)
            dt *= factor
        else:
            rejected += 1
            if rejected > max_rejections:
                raise RuntimeError("rk45 step rejection overflow")
            dt *= max(0.1, 0.9 * (scale / err) ** 0.25)
    return out, rejected


def check_ray_inputs(hbar: float, dt: float, steps: int, r0, P0) -> tuple:
    """(r0, P0) as float 3-vectors; ValueError unless dt > 0, hbar >= 0, r0
    and P0 are finite and steps is an integer >= 1."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive and finite")
    if (isinstance(steps, bool) or not isinstance(steps, numbers.Integral)
            or steps < 1):
        raise ValueError("steps must be an integer >= 1")
    if not (math.isfinite(hbar) and hbar >= 0):
        raise ValueError("hbar must be finite and >= 0")
    r0 = np.asarray(r0, dtype=float).reshape(3)
    P0 = np.asarray(P0, dtype=float).reshape(3)
    if not (np.isfinite(r0).all() and np.isfinite(P0).all()):
        raise ValueError("r0 and P0 must be finite")
    return r0, P0


def _ray_record(F, lam: int, hbar: float, y) -> tuple:
    """(eps, speed, <chi|sigma.Phat|chi>/<chi|chi>) at the state y."""
    ydot, eps, E = _ray_rates(F, lam, hbar, y)
    px, py, pz, ar, br, ai, bi = y[3:]
    hel = (pz * (ar * ar + ai * ai - br * br - bi * bi)
           + 2 * px * (ar * br + ai * bi) + 2 * py * (ar * bi - ai * br)
           ) / (E * (ar * ar + ai * ai + br * br + bi * bi))
    return eps, math.sqrt(ydot[0] ** 2 + ydot[1] ** 2 + ydot[2] ** 2), hel


def integrate_ray(model: Model, r0, P0, lam: int, hbar: float, dt: float,
                  steps: int, method: str = "rk4",
                  rtol: float = 1e-10) -> Trajectory:
    """Integrate the fixed-helicity ray together with the band spinor.

    The state is (r, P, chi); chi is transported with chidot = i Pdot.a chi
    where a is the positive-block momentum-space connection, so the helicity
    expectation <sigma.Phat> is conserved in continuum time.  Its drift and
    the energy drift along the run are reported on the trajectory.
    """
    r0, P0 = check_ray_inputs(hbar, dt, steps, r0, P0)
    if lam not in (+1, -1):
        raise ValueError("lam must be +1 or -1")
    if method not in ("rk4", "rk45"):
        raise ValueError("method must be 'rk4' or 'rk45'")
    if not np.linalg.norm(P0) > 0.0:
        raise ValueError("|P0| must be positive")

    def rhs(_t, y):
        return np.array(_ray_rates(model.F, lam, hbar, y.tolist())[0])

    try:
        # One evaluation at the start checks the model, |P0| against
        # underflow and the profile at r0, before any step.
        ray_rhs(r0, P0, lam, model, hbar)
        chi0 = _helicity_spinor(P0, lam)
        y0 = np.concatenate([r0, P0, chi0.real, chi0.imag])
        if method == "rk4":
            samples, rejected = integrate_fixed(rhs, 0.0, y0, dt, steps), 0
        else:
            samples, rejected = _integrate_rk45(rhs, 0.0, y0, dt * steps,
                                                rtol=rtol)
        records = [_ray_record(model.F, lam, hbar, y.tolist())
                   for _, y in samples]
    except OverflowError as exc:
        raise FloatingPointError(f"ray state overflowed: {exc}") from exc
    finite = np.isfinite(np.column_stack([[y for _, y in samples], records]))
    if not finite.all():
        t_bad = samples[int(np.argmin(finite.all(axis=1)))][0]
        raise FloatingPointError(f"ray state turned non-finite at t = {t_bad:g}")
    states = [TrajectoryState(t, y[0:3].copy(), y[3:6].copy(), lam, hel, eps,
                              speed)
              for (t, y), (eps, speed, hel) in zip(samples, records)]
    hel0, eps0 = states[0].helicity, states[0].eps
    drift = max(abs(s.helicity - hel0) for s in states)
    edrift = max(abs(s.eps - eps0) for s in states)
    return Trajectory(states, lam, hbar, method, drift, edrift, rejected)
