"""Verification suites: oracle comparisons, invariants and scaling checks.

Each suite returns a `SuiteResult` with measured metrics and a pass flag at
its contract tolerance; the `verify` CLI subcommand and the acceptance test
module both run these, and `bracket-check` runs `BRACKET_SUITES`.  All randomness is drawn from a caller-supplied seed so
reports are reproducible bit for bit.

The finite-difference connections over a gauge-smoothed frame field
(`connections_fd`, at the fixed stencil base `stencils.DEFAULT_FD_BASE`;
without an analytic frame, eigenvectors at stencil points are aligned to the
anchor frame by the unitary polar factor of the per-group overlap matrix)
live here, next to `suite_numerical_plumbing`, which checks the exact
connections against them: the engine takes no finite difference.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from semiband import weyl
from semiband.fields import (
    GaussianField, LinearField, UniformField, _integer, _real, parameters,
    read_config,
)
from semiband.models import (
    SX, SY, SZ, DiracElectric, NeutrinoMetric, PhasePoint, random_points,
)
from semiband.frames import (
    BandFrame,
    ConnectionSet,
    GaugeAlignmentError,
    _anticomm,
    _comm,
    _dagger,
    _diag,
    berry_connections,
    classical_frame,
    conjugate,
    hermitize,
    invert_band_commutator,
)
from semiband.energy import (
    _string,
    band_energy,
    band_energy_batch,
    first_order,
)
from semiband.dynamics import (
    _rk4,
    band_curvature_vector,
    covariant_variables,
    integrate_ray,
)
from semiband.oracles import (
    dirac_energy_canonical_oracle,
    dirac_energy_covariant_oracle,
    neutrino_energy_canonical_oracle,
    neutrino_energy_oracle,
    neutrino_velocity_modulus,
    pauli_energy_oracle,
)
from semiband.stencils import derivative_along

__all__ = ["SuiteResult", "ALL_SUITES", "BRACKET_SUITES", "run_suites",
           "pure_sum_brackets_vanish", "covariant_reexpansion"]


@dataclass
class SuiteResult:
    name: str
    passed: bool
    metrics: dict = dc_field(default_factory=dict)
    details: str = ""

    # Wall-clock measurements stay out of the serialized report so identical
    # config and seed produce byte-identical files.
    _EXCLUDED = ("runtime_s",)

    def to_json(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "metrics": {k: float(v) for k, v in self.metrics.items()
                            if k not in self._EXCLUDED},
                "details": self.details}


def _dirac_model(amplitude: float = 0.8) -> DiracElectric:
    field = GaussianField(amplitude=amplitude, center=[0.2, -0.1, 0.3], width=1.4)
    return DiracElectric(m=1.0, e=1.0, field=field)


def _rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    return float(np.max(np.abs(got - ref))) / scale


# ---------------------------------------------------------------------------
# Symbolic calculus (criterion: exact residuals on random cases)
# ---------------------------------------------------------------------------

def _bracket_suite(name: str, seed: int, cases: int, max_degree: int,
                   residual) -> SuiteResult:
    """Half the cases in internal dimension 1 and half in 2, each dimension
    from its own seeded stream: draw f, then `residual(rng, f)` draws what
    else it needs and must return an exactly zero expression."""
    cases -= cases % 2  # an odd count runs, and reports, one fewer
    failures = 0
    for dim in (1, 2):
        rng = random.Random(seed + dim)
        for _ in range(cases // 2):
            f = weyl.random_factorization(rng, n=dim, max_degree=max_degree)
            if not residual(rng, f).is_zero():
                failures += 1
    return SuiteResult(name, failures == 0,
                       {"cases": cases, "failures": failures})


def suite_bracket_product_rule(seed: int = 1, cases: int = 200,
                               max_degree: int = 6) -> SuiteResult:
    """Product rule of the ordering bracket: residual exactly zero."""
    return _bracket_suite(
        "bracket-product-rule", seed, cases, max_degree,
        lambda rng, f: weyl.bracket_product_residual(
            f, weyl.random_factorization(rng, n=f.n, max_degree=max_degree)))


def suite_bracket_invariance(seed: int = 2, cases: int = 200,
                             max_degree: int = 5) -> SuiteResult:
    """Symmetrization invariance of d/dhbar F + <F>: residual exactly zero."""
    return _bracket_suite(
        "bracket-invariance", seed, cases, max_degree,
        lambda rng, f: weyl.invariant_derivative_residual(
            f, weyl.random_resymmetrization(rng, f)))


def suite_symmetrized_bracket(seed: int = 3) -> SuiteResult:
    """Bracket of fully symmetrized monomials vanishes exactly (degree <= 5)."""
    rng = random.Random(seed)
    failures = 0
    cases = 0
    for _ in range(25):
        exps = [0] * 6
        for _ in range(rng.randint(2, 5)):
            exps[rng.randrange(6)] += 1
        r_exp, p_exp = tuple(exps[:3]), tuple(exps[3:])
        if sum(r_exp) == 0 or sum(p_exp) == 0:
            continue
        cases += 1
        if not weyl.symmetrized_bracket(r_exp, p_exp).is_zero():
            failures += 1
    return SuiteResult("symmetrized-bracket", failures == 0,
                       {"cases": cases, "failures": failures})


def pure_sum_brackets_vanish(seed: int) -> bool:
    """Whether the bracket vanishes exactly on ten random pure-R and ten
    pure-P sums (internal dimension 1, degree <= 3): a factorization of one
    kind has no mixed pair.  Not a suite; `bracket-check` reports it."""
    rng = random.Random(seed)
    sums = [weyl.Factorization([(kind, weyl._random_pure_expr(rng, kind, 1, 3))])
            for _ in range(10) for kind in ("R", "P")]
    return all(f.bracket().is_zero() for f in sums)


# ---------------------------------------------------------------------------
# Oracle equivalence
# ---------------------------------------------------------------------------

def suite_dirac_canonical(seed: int = 10, points: int = 100,
                          hbar: float = 0.01,
                          tolerance: float = 1e-8) -> SuiteResult:
    """Generic pipeline vs the closed-form block energy, canonical variables."""
    model = _dirac_model()
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    worst = 0.0
    xs = random_points(rng, points, 0.1, 10.0)
    for x, rep in zip(xs, band_energy_batch(model, xs, hbar, 2, "canonical")):
        ref = dirac_energy_canonical_oracle(x, model.m, model.e, model.field, hbar)
        worst = max(worst, _rel_err(rep.eps, ref))
    return SuiteResult("dirac-canonical-oracle", worst <= tolerance,
                       {"points": points, "max_rel_err": worst,
                        "runtime_s": time.perf_counter() - start,
                        "tolerance": tolerance})


def suite_dirac_covariant(seed: int = 11, points: int = 100,
                          hbar: float = 0.01,
                          tolerance: float = 1e-8) -> SuiteResult:
    """Pipeline in covariant variables vs the relativistic closed form."""
    model = _dirac_model()
    rng = np.random.default_rng(seed)
    worst = 0.0
    xs = random_points(rng, points, 0.1, 10.0)
    for x, rep in zip(xs, band_energy_batch(model, xs, hbar, 2, "covariant")):
        ref = dirac_energy_covariant_oracle(x, model.m, model.e, model.field, hbar)
        worst = max(worst, _rel_err(rep.eps, ref))
    return SuiteResult("dirac-covariant-oracle", worst <= tolerance,
                       {"points": points, "max_rel_err": worst,
                        "tolerance": tolerance})


def suite_pauli_limit(seed: int = 12, hbar: float = 1e-3,
                      tolerance: float = 1e-4) -> SuiteResult:
    """Low-momentum limit: contact (hbar^2 lap W) and spin-orbit coefficients.

    Coefficients are extracted from the positive block of the pipeline energy
    on a |P|/m sweep in [1e-3, 1e-2] and extrapolated to P = 0 with a
    quadratic fit; the references are hbar^2/(8 m^2) and hbar/(4 m^2).
    """
    m, e = 1.0, 1.0
    rng = np.random.default_rng(seed)
    ts = np.linspace(1e-3, 1e-2, 6)
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)

    # Contact coefficient: evaluate at the field maximum where grad W = 0.
    center = np.array([0.1, -0.2, 0.25])
    field_c = GaussianField(amplitude=0.05, center=center, width=1.2)
    model_c = DiracElectric(m=m, e=e, field=field_c)
    lap = e * field_c.laplacian(center)
    darwin = []
    for t in ts:
        x = PhasePoint.of(center, t * m * direction)
        rep = band_energy(model_c, x, hbar, order=2)
        block = rep.second[:2, :2]
        darwin.append(float(np.real(np.trace(block)) / 2.0) / (hbar ** 2 * lap))
    fit = np.polyfit(ts ** 2, darwin, 1)
    darwin_coef = fit[1] * hbar ** 2
    darwin_ref = hbar ** 2 / (8 * m ** 2)
    darwin_err = abs(darwin_coef - darwin_ref) / darwin_ref

    # Spin-orbit coefficient against the sigma.(grad W x P) structure.
    field_s = GaussianField(amplitude=0.05, center=[1.0, 0.4, -0.3], width=1.5)
    model_s = DiracElectric(m=m, e=e, field=field_s)
    R0 = np.zeros(3)
    gW = e * field_s.gradient(R0)
    sig = (SX, SY, SZ)
    so = []
    for t in ts:
        P = t * m * direction
        x = PhasePoint.of(R0, P)
        rep = band_energy(model_s, x, hbar, order=1)
        block = rep.first[:2, :2]
        M = sum(np.cross(gW, P)[k] * sig[k] for k in range(3))
        so.append(float(np.real(np.trace(block @ M.conj().T)
                                / np.trace(M @ M.conj().T))))
    fit = np.polyfit(ts ** 2, so, 1)
    so_coef = fit[1]
    so_ref = hbar / (4 * m ** 2)
    so_err = abs(so_coef - so_ref) / so_ref

    # The same limit, checked once against the dedicated low-momentum oracle
    # (rest mass subtracted; the residual gap is higher order in |P|/m and
    # quadratic in the field).
    x = PhasePoint.of(R0, 5e-3 * m * direction)
    rep = band_energy(model_s, x, hbar, order=2)
    pauli = pauli_energy_oracle(x, m, e, field_s, hbar)
    block = rep.eps[:2, :2] - m * np.eye(2)
    pauli_gap = float(np.max(np.abs(block - pauli)))

    passed = darwin_err <= tolerance and so_err <= tolerance
    return SuiteResult("pauli-darwin-limit", passed,
                       {"darwin_rel_err": darwin_err,
                        "spin_orbit_rel_err": so_err,
                        "pauli_oracle_gap": pauli_gap,
                        "tolerance": tolerance})


def _neutrino_profiles():
    return {
        "linear": NeutrinoMetric(profile=LinearField([0.05, -0.02, 0.03], 1.5)),
        "gaussian": NeutrinoMetric(profile=GaussianField(
            amplitude=0.4, center=[0.3, 0.1, -0.2], width=2.0,
        )),
    }


def suite_neutrino_energy(seed: int = 13, points: int = 100,
                          hbar: float = 0.01,
                          tolerance: float = 1e-8) -> SuiteResult:
    """Pipeline vs the covariant closed form and its canonical re-expansion."""
    rng = np.random.default_rng(seed)
    points -= points % 2  # half per profile: an odd count runs one fewer
    worst_cov = worst_can = 0.0
    for label, model in _neutrino_profiles().items():
        xs = random_points(rng, points // 2, 0.3, 5.0)
        cov, can = (band_energy_batch(model, xs, hbar, order=2,
                                      representation=representation)
                    for representation in ("covariant", "canonical"))
        for x, rep_cov, rep_can in zip(xs, cov, can):
            ref = neutrino_energy_oracle(x, model, hbar)
            worst_cov = max(worst_cov, _rel_err(rep_cov.eps, ref))
            ref = neutrino_energy_canonical_oracle(x, model, hbar)
            worst_can = max(worst_can, _rel_err(rep_can.eps, ref))
    passed = worst_cov <= tolerance and worst_can <= tolerance
    return SuiteResult("neutrino-energy-oracle", passed,
                       {"points": points, "max_rel_err_covariant": worst_cov,
                        "max_rel_err_canonical": worst_can,
                        "tolerance": tolerance})


def suite_neutrino_curvature(seed: int = 14, points: int = 50,
                             tolerance: float = 1e-8) -> SuiteResult:
    """Band curvature against -lambda P / |P|^3 at random momenta."""
    model = _neutrino_profiles()["gaussian"]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for x in random_points(rng, points, 0.3, 3.0):
        for lam in (+1, -1):
            theta = band_curvature_vector(model, x, lam)
            ref = -lam * x.P / np.linalg.norm(x.P) ** 3
            worst = max(worst, float(np.max(np.abs(theta - ref))
                                     / np.max(np.abs(ref))))
    return SuiteResult("neutrino-curvature", worst <= tolerance,
                       {"points": points, "max_rel_err": worst,
                        "tolerance": tolerance})


def suite_trajectory(seed: int = 15, steps: int = 10000, hbar: float = 1e-3,
                     dt: float = 1e-2) -> SuiteResult:
    """Ray-tracing physics: conservation, spin-Hall antisymmetry, speed."""
    model = NeutrinoMetric(profile=LinearField([0.05, 0.0, 0.0], 1.5))
    up = integrate_ray(model, [0, 0, 0], [0, 0, 1.0], +1, hbar, dt, steps, "rk4")
    dn = integrate_ray(model, [0, 0, 0], [0, 0, 1.0], -1, hbar, dt, steps, "rk4")
    d_up, d_dn = up.final().r[1], dn.final().r[1]
    antisym = abs(d_up + d_dn)
    speed_err = max(
        abs(s.speed - neutrino_velocity_modulus(s.r, s.P, model, hbar, s.lam))
        for s in up.states[::100]
    )
    passed = (up.helicity_drift <= 1e-9 and antisym <= 1e-9
              and up.energy_drift <= 1e-8 and speed_err <= 1e-8)
    return SuiteResult("trajectory-physics", passed,
                       {"helicity_drift": up.helicity_drift,
                        "energy_drift": up.energy_drift,
                        "spin_hall_antisymmetry": antisym,
                        "spin_hall_displacement": d_up,
                        "speed_vs_modulus": speed_err})


# ---------------------------------------------------------------------------
# Structural scaling and degeneracy
# ---------------------------------------------------------------------------

def apply_energy_flow_operator(frame: BandFrame, eps_mat: np.ndarray,
                               eps_grads: np.ndarray,
                               conns: ConnectionSet) -> np.ndarray:
    """O eps = (1/2) P+{A^{X_l} grad eps + grad eps A^{X_l}}
             + [(i/4) P+{[eps, A^{R_l}] A^{P_l} - [eps, A^{P_l}] A^{R_l}} + H.C.]

    at the frame's point, P+ projecting on its groups.  `eps_grads` is the
    (6, n, n) stack of phase gradients of the full energy matrix field.
    """
    out = (0.5 * _anticomm(conns.A, eps_grads)).sum(-3)
    Xp = frame.project(
        _string(_comm(eps_mat[..., None, :, :], conns.A), conns.cA), "diag")
    # (i/4) P+{X} + H.C. = (i/4)(P+X - (P+X)^+)
    out = frame.project(out, "diag") + 0.25j * (Xp - _dagger(Xp))
    return out


def suite_residual_scaling(seed: int = 16,
                           slope_tol: float = 0.1) -> SuiteResult:
    """Unitarity defect of (1 + hbar U1) U0 and the flow-equation residual
    both scale as hbar^2 (log-log slope 2)."""
    model = _dirac_model()
    x = PhasePoint.of([0.3, 0.5, -0.2], [0.7, -0.4, 1.1])
    frame = classical_frame(model, x)
    conns0 = berry_connections(frame)
    first = first_order(frame, conns0)
    hbars = np.array([1e-1, 1e-2, 1e-3])

    # U = (1 + hbar U1) U0, U1 = B + hr, hr = -(i/4) sum_l [A0^{R_l}, A0^{P_l}].
    U1 = first.B - 0.25j * (conns0.A @ conns0.cA).sum(-3)
    defects = []
    for hb in hbars:
        U = (np.eye(frame.n) + hb * U1) @ frame.U0
        defects.append(np.linalg.norm(U @ U.conj().T - np.eye(frame.n)))
    slope_u = float(np.polyfit(np.log(hbars), np.log(defects), 1)[0])

    def eps_at(hb, pt=x):
        return band_energy(model, pt, hb, order=2).eps

    residuals = []
    for hb in hbars:
        dh = hb * 1e-2
        deps = (8 * (eps_at(hb + dh) - eps_at(hb - dh))
                - (eps_at(hb + 2 * dh) - eps_at(hb - 2 * dh))) / (12 * dh)
        # Flow operator needs the scale-hbar connections A0 + 2 hbar A1 (the
        # corrected set is the running average, with half that correction).
        flow = ConnectionSet(conns0.A + 2 * hb * first.linear, "corrected")

        def efield(y, hb=hb):
            return band_energy(model, y, hb, order=2).eps

        egrads = np.stack([derivative_along(efield, x, ax) for ax in range(6)])
        Oeps = apply_energy_flow_operator(frame, eps_at(hb), egrads, flow)
        residuals.append(float(np.max(np.abs(deps - Oeps))))
    slope_f = float(np.polyfit(np.log(hbars), np.log(residuals), 1)[0])

    passed = abs(slope_u - 2.0) <= slope_tol and abs(slope_f - 2.0) <= slope_tol
    return SuiteResult("residual-scaling", passed,
                       {"unitarity_slope": slope_u, "flow_slope": slope_f,
                        "slope_tolerance": slope_tol})


def suite_free_field(seed: int = 17, points: int = 20,
                     tolerance: float = 1e-12) -> SuiteResult:
    """Uniform potential / flat metric: all corrections vanish."""
    rng = np.random.default_rng(seed)
    models = [DiracElectric(m=1.0, e=1.0, field=UniformField(0.3)),
              NeutrinoMetric(profile=UniformField(1.0))]
    worst = 0.0
    for model in models:
        xs = random_points(rng, points, 0.3, 3.0)
        for rep in band_energy_batch(model, xs, 0.1, order=2):
            corr = np.max(np.abs(rep.first)) + np.max(np.abs(rep.second)) \
                + np.max(np.abs(rep.bracket_term))
            worst = max(worst, float(corr))
    return SuiteResult("free-field-degeneracy", worst <= tolerance,
                       {"max_correction": worst, "tolerance": tolerance})


# The smallest singular value of a group overlap that `_align_to` accepts.
_OVERLAP_FLOOR = 1e-6


def _align_to(vecs: np.ndarray, ref: np.ndarray,
              groups: np.ndarray) -> np.ndarray:
    """Rotate eigenvector columns within each group to match a reference frame.

    Uses the unitary polar factor of the overlap matrix per band group; raises
    if an overlap is rank deficient (gauge alignment failure).
    """
    out = vecs.copy()
    for g in np.unique(groups):
        idx = np.flatnonzero(groups == g)
        overlap = vecs[:, idx].conj().T @ ref[:, idx]
        u, s, vh = np.linalg.svd(overlap)
        if s.min() < _OVERLAP_FLOOR:
            raise GaugeAlignmentError(
                f"gauge alignment failure: group {g} overlap is singular "
                f"(smallest singular value {s.min():.3e})"
            )
        out[:, idx] = vecs[:, idx] @ (u @ vh)
    return out


def frame_field(anchor: BandFrame):
    """Smooth map y -> (eps0(y), U0(y)) of the anchor's model in the anchor's
    gauge.

    With an analytic frame the model's own smooth gauge is used directly; the
    numerical path aligns each point's eigenvectors to the anchor frame.
    """
    model = anchor.model
    if model.has_analytic_frame:
        return model.analytic_frame

    ref = anchor.U0.conj().T

    def at(y: PhasePoint):
        vals, vecs = np.linalg.eigh(model.hamiltonian(y))
        aligned = _align_to(vecs, ref, anchor.groups)
        return vals, aligned.conj().T

    return at


def connections_fd(frame: BandFrame) -> ConnectionSet:
    """Connections at the frame's point from finite differences of the
    gauge-smoothed frame field: the independent cross-check of the exact
    `berry_connections`."""
    x, at = frame.point, frame_field(frame)
    U0 = at(x)[1]
    X = U0 @ np.stack([derivative_along(lambda y: at(y)[1].conj().T, x, axis)
                       for axis in range(6)])
    return ConnectionSet(hermitize(conjugate(1j * X)), "0")


def suite_numerical_plumbing(seed: int = 18) -> SuiteResult:
    """FD connections vs closed forms, commutator inversion, RK4 order."""
    rng = np.random.default_rng(seed)
    models = [_dirac_model(), _neutrino_profiles()["linear"]]
    conn_err = 0.0
    for model in models:
        for x in random_points(rng, 5, 0.5, 3.0):
            frame = classical_frame(model, x)
            an, fd = berry_connections(frame), connections_fd(frame)
            conn_err = max(conn_err, float(np.max(np.abs(an.A - fd.A))))

    model = _dirac_model()
    x = PhasePoint.of([0.1, 0.2, 0.3], [0.5, -0.6, 0.7])
    frame = classical_frame(model, x)
    round_trip = 0.0
    for _ in range(20):
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        M = frame.project(M, "offdiag")
        V = invert_band_commutator(M, frame)
        eps_mat = np.diag(frame.eps0)
        round_trip = max(round_trip,
                         float(np.max(np.abs(V @ eps_mat - eps_mat @ V - M))))

    # RK4 order on a rotating linear system, whose flow is the Rodrigues
    # rotation of y0 about omega by |omega| T.  The ray stepper carries it
    # in the first three of its ten slots, with zero rates in the rest.
    omega, y0, T = np.array([0.3, -0.2, 0.7]), np.array([1.0, 0.2, -0.4]), 2.0
    w = np.linalg.norm(omega)
    k, ang = omega / w, w * T
    exact = (y0 * np.cos(ang) + np.cross(k, y0) * np.sin(ang)
             + k * (k @ y0) * (1 - np.cos(ang)))
    zeros = (0.0,) * 7

    def rotation(y):
        # omega x y, then the two values the stepper passes through.
        return (*np.cross(omega, y[:3]).tolist(), *zeros, 0.0, 0.0)

    errs, dts = [], []
    for nsteps in (50, 100, 200, 400):
        dts.append(T / nsteps)
        yT = _rk4(rotation, (*y0.tolist(), *zeros), dts[-1], nsteps)[-1][1]
        errs.append(float(np.linalg.norm(np.array(yT[:3]) - exact)))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])

    passed = conn_err <= 1e-6 and round_trip <= 1e-12 and abs(slope - 4) <= 0.2
    return SuiteResult("numerical-plumbing", passed,
                       {"fd_connection_err": conn_err,
                        "commutator_round_trip": round_trip,
                        "rk4_slope": slope})


def covariant_reexpansion(model, x: PhasePoint, hbar: float) -> np.ndarray:
    """The covariant-form energy with the covariant arguments re-expanded.

    Substitutes the shifts S = hbar A0 + (hbar^2/2) A1 into the band-energy
    field and Taylor expands through second order with symmetrized products;
    equals the canonical-variable energy up to O(hbar^3).
    """
    frame = classical_frame(model, x)
    cov = covariant_variables(frame, hbar)
    rep_cov = band_energy(model, x, hbar, order=2, representation="covariant")

    S = hbar * cov.shift_per_hbar()
    grads = _diag(frame.grads)
    hess = _diag(cov.first.hess)
    sym = 0.5 * _anticomm(S[:, None], S[None])
    return (rep_cov.eps + (0.5 * _anticomm(grads, S)).sum(0)
            + (0.25 * _anticomm(hess, sym)).sum((0, 1)))


def suite_consistency(seed: int = 19) -> SuiteResult:
    """Covariant energy, re-expanded through hbar^2, equals the canonical one
    to O(hbar^3); Hermiticity/block invariants hold on random points.

    Runs on the four-band model and on a generic two-level configuration whose
    frame depends on both position and momentum (nonzero momentum connection),
    which exercises the second-order commutator strings that vanish for the
    four-band applications.
    """
    rng = np.random.default_rng(seed)
    model = _dirac_model()
    from semiband.models import make_model

    two_level = make_model({
        "model": "two_level",
        "h0": [{"coef": "1/10", "r_exp": [1, 0, 0], "p_exp": [0, 1, 0]}],
        "h": [[{"coef": "1/4", "p_exp": [1, 0, 0]}],
              [{"coef": "1/5", "r_exp": [0, 1, 0]}],
              [{"coef": "1"}, {"coef": "1/10", "r_exp": [0, 0, 2]}]],
    })
    x = PhasePoint.of([0.3, 0.5, -0.2], [0.7, -0.4, 1.1])
    ratios = []
    bounded = True
    for mdl in (model, two_level):
        per_model = []
        for hb in (1e-1, 1e-2, 1e-3):
            can = band_energy(mdl, x, hb, order=2).eps
            reexp = covariant_reexpansion(mdl, x, hb)
            per_model.append(float(np.max(np.abs(can - reexp))) / hb ** 3)
        # Bounded as hbar -> 0: no blow-up relative to the largest-hbar ratio
        # (a small floor absorbs rounding noise when the difference vanishes).
        bounded = bounded and per_model[-1] <= 10.0 * per_model[0] + 1e-6
        ratios.extend(per_model)
    ratios = ratios[:3]  # report the four-band sweep

    herm = offb = 0.0
    for mdl in [model, _neutrino_profiles()["gaussian"]]:
        xs = random_points(rng, 25, 0.3, 3.0)
        for rep in band_energy_batch(mdl, xs, 0.02, order=2):
            herm = max(herm, float(np.max(np.abs(rep.eps - rep.eps.conj().T))))
            offb = max(offb, rep.diagnostics["offblock_norm"])
    passed = bounded and herm <= 1e-12 and offb <= 1e-10
    return SuiteResult("canonical-covariant-consistency", passed,
                       {"ratio_large_hbar": ratios[0],
                        "ratio_small_hbar": ratios[-1],
                        "hermiticity": herm, "offblock": offb})


ALL_SUITES = {
    "bracket-product-rule": suite_bracket_product_rule,
    "bracket-invariance": suite_bracket_invariance,
    "symmetrized-bracket": suite_symmetrized_bracket,
    "dirac-canonical-oracle": suite_dirac_canonical,
    "dirac-covariant-oracle": suite_dirac_covariant,
    "pauli-darwin-limit": suite_pauli_limit,
    "neutrino-energy-oracle": suite_neutrino_energy,
    "neutrino-curvature": suite_neutrino_curvature,
    "trajectory-physics": suite_trajectory,
    "residual-scaling": suite_residual_scaling,
    "free-field-degeneracy": suite_free_field,
    "numerical-plumbing": suite_numerical_plumbing,
    "canonical-covariant-consistency": suite_consistency,
}

BRACKET_SUITES = ["bracket-product-rule", "bracket-invariance",
                  "symmetrized-bracket"]

# A suite over an empty sample keeps its worst error at 0 and passes: every
# "points" or "cases" must be >= 1, and >= 2 in these suites, which run half
# their sample per profile or per dimension.  A bracket suite with
# "max_degree" < 1 draws no R or P letter, so every bracket is 0.
_HALVED = ("bracket-product-rule", "bracket-invariance", "neutrino-energy-oracle")


def run_suites(names=None, seed: int = 0, overrides: dict | None = None):
    """Run the requested suites (all by default) and collect a report dict.

    `overrides` maps a suite name to keyword arguments of its function.
    Before any suite runs, ValueError for an unknown suite, a key that is
    not a parameter of the suite, a value of another kind than the
    parameter's default (`_integer`, or `_real` for a float), a sample
    size or degree that tests nothing (`_HALVED`), or an empty list of
    names, which runs nothing."""
    names = list(ALL_SUITES) if names is None else names
    if not names:
        raise ValueError("the suite list is empty: no suite would run")
    overrides = overrides or {}
    # Deterministic per-suite seed offset (hash() is process randomized).
    cfgs = {name: {"seed": seed + sum(name.encode()) % 1000}
            for name in ALL_SUITES}
    for name in [*names, *overrides]:
        if not isinstance(name, str) or name not in ALL_SUITES:
            raise ValueError(f"unknown suite {name!r}")
    for name, override in overrides.items():
        params = parameters(ALL_SUITES[name])
        read_config(override, params, f"suite {name}", "parameter")
        for key, value in override.items():
            cast = _real if isinstance(params[key], float) else _integer
            cfgs[name][key] = cast(value, f"suite {name} parameter {key}")
            least = 1 + (name in _HALVED and key != "max_degree")
            if (key in ("points", "cases", "max_degree")
                    and cfgs[name][key] < least):
                raise ValueError(f"suite {name} parameter {key} must be >= "
                                 f"{least}, or the suite tests nothing")
    results = [ALL_SUITES[name](**cfgs[name]) for name in names]
    return {
        "schema_version": 1,
        "seed": seed,
        "all_passed": all(r.passed for r in results),
        "suites": [r.to_json() for r in results],
    }
