"""Seeded inputs, timed operations and their correctness checks.

Each activity draws its inputs from its own generator, seeded from the run
seed, and runs one chunk of work per call of `step`.  Only the semiband call
itself is timed; the checks against the closed forms run afterwards.  Every
function of semiband is looked up at call time through its module, so the
traced run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

import semiband
from semiband import cli, models, oracles
from speed import SpeedSampler

HBAR = 0.01
P_RANGE = (0.3, 3.0)

GAUSSIAN_V = {"kind": "gaussian", "amplitude": 0.8,
              "center": [0.2, -0.1, 0.3], "width": 1.4}
GAUSSIAN_N = {"kind": "gaussian", "amplitude": 0.4,
              "center": [0.3, 0.1, -0.2], "width": 2.0}
GENERIC_TWO_LEVEL = {
    "model": "two_level",
    "h0": [{"coef": "1/10", "r_exp": [1, 0, 0], "p_exp": [0, 1, 0]}],
    "h": [[{"coef": "1/4", "p_exp": [1, 0, 0]}],
          [{"coef": "1/5", "r_exp": [0, 1, 0]}],
          [{"coef": "1"}, {"coef": "1/10", "r_exp": [0, 0, 2]}]],
}
CONFIGS = {
    "dirac_electric": {"model": "dirac_electric", "m": 1.0, "e": 1.0,
                       "field": GAUSSIAN_V},
    "neutrino_metric": {"model": "neutrino_metric", "field": GAUSSIAN_N},
    "two_level_z": {"model": "two_level"},
    "two_level_generic": GENERIC_TWO_LEVEL,
}

# Points per energy cycle, each evaluated canonical and covariant.  With this
# mix the median evaluation falls inside the Dirac canonical cluster and the
# 90th percentile inside the two_level canonical cluster, not on the edge
# between two clusters, where it would jump from run to run.
ENERGY_MIX = {"dirac_electric": 3, "neutrino_metric": 2,
              "two_level_z": 1, "two_level_generic": 1}
REPRESENTATIONS = ("canonical", "covariant")

SWEEP_CONFIGS = ("dirac_electric", "two_level_generic")
SWEEP_POINTS = 100

RAY_PROFILES = {
    # The trajectory-physics profile: n depends on x only.
    "linear": {"kind": "linear", "gradient": [0.05, 0.0, 0.0], "offset": 1.5},
    "gaussian": {"kind": "gaussian", "amplitude": 1.5,
                 "center": [0.3, -0.2, 0.1], "width": 3.0},
}
RAY_HBAR = 1e-3
RAY_DT = 1e-2
RAY_STEPS = 200
# The largest energy drift of a gaussian-profile pair over seeds 0-199 (600
# pairs) on the code this benchmark was defined against was 6.0e-13.
GAUSSIAN_ENERGY_DRIFT_BOUND = 1e-10

ORACLE_TOL = 1e-8
HERMITIAN_TOL = 1e-12
OFFBLOCK_TOL = 1e-10


def build_models() -> dict:
    out = {name: models.make_model(cfg) for name, cfg in CONFIGS.items()}
    for name, profile in RAY_PROFILES.items():
        out["ray_" + name] = models.make_model(
            {"model": "neutrino_metric", "field": profile})
    return out


def random_point(rng: np.random.Generator):
    R = rng.uniform(-1.0, 1.0, 3)
    P = rng.uniform(-1.0, 1.0, 3)
    P *= rng.uniform(*P_RANGE) / np.linalg.norm(P)
    return models.PhasePoint.of(R, P)


def _rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    return float(np.max(np.abs(got - ref))) / scale


def _median_rate(seconds: dict, units_per_sample: float,
                 weights: dict | None = None) -> float:
    """Units per second of a mix with `weights` samples of each label (one
    each by default), every label at its median time."""
    weights = weights or dict.fromkeys(seconds, 1)
    total = sum(weights[label] * statistics.median(ts)
                for label, ts in seconds.items())
    return units_per_sample * sum(weights[label] for label in seconds) / total


class Run:
    """Counts operations and failures, and times one operation at a time.

    Times are read back through `seconds`, scaled to the reference speed
    measured around each operation (see speed.py).
    """

    def __init__(self, sampler: SpeedSampler, tracer=None):
        self.sampler = sampler
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.log: list = []             # (kind, label, start, raw seconds)

    def op(self, kind: str, label: str, fn, check):
        """Time fn() as one operation, then check its result untimed.

        Returns (operation index, result), or None when fn raised or the
        check reported a problem.
        """
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op(kind, label)
        try:
            ticks = self.sampler.spent
            t0 = perf_counter()
            result = fn()
            seconds = perf_counter() - t0 - (self.sampler.spent - ticks)
        except Exception:  # noqa: BLE001 - counted and reported per operation
            self._fail(kind, label, traceback.format_exc())
            return None
        finally:
            if self.tracer is not None:
                self.tracer.end_op()
        try:
            problem = check(result)
        except Exception:  # noqa: BLE001 - a check that raises is a failure
            problem = traceback.format_exc()
        if problem:
            self._fail(kind, label, problem)
            return None
        self.log.append((kind, label, t0, seconds))
        return len(self.log) - 1, result

    def seconds(self, index: int) -> float:
        _kind, _label, t0, raw = self.log[index]
        return raw * self.sampler.scale(t0, t0 + raw)

    def _fail(self, kind: str, label: str, why: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {kind}/{label}: {why}", file=sys.stderr)


class Activity:
    """One kind of operation; `step` runs one chunk and records its times."""

    name = ""
    min_chunks = 1

    def __init__(self, run: Run, rng: np.random.Generator, built: dict,
                 workdir: Path):
        self.run = run
        self.rng = rng
        self.models = built
        self.workdir = workdir          # for files an operation writes
        self.chunks = 0
        self.reset()

    def reset(self) -> None:
        """Forget recorded operations; the input stream continues."""
        self.samples: dict = {}         # label -> operation indices

    def record(self, label: str, index: int) -> None:
        self.samples.setdefault(label, []).append(index)

    def seconds(self, samples: dict | None = None) -> dict:
        """label -> scaled seconds of its recorded operations."""
        samples = self.samples if samples is None else samples
        return {label: [self.run.seconds(i) for i in idx]
                for label, idx in samples.items()}

    def step(self) -> None:
        raise NotImplementedError

    def rate(self) -> float:
        raise NotImplementedError


class EnergyActivity(Activity):
    """Order-2 band energies, canonical and covariant, over ENERGY_MIX."""

    name = "energy"
    min_chunks = 2

    def reset(self) -> None:
        super().reset()
        self.fallbacks: dict = {}      # label -> stencil fallbacks per eval

    def step(self) -> None:
        for cfg, count in ENERGY_MIX.items():
            model = self.models[cfg]
            for _ in range(count):
                x = random_point(self.rng)
                for rep in REPRESENTATIONS:
                    label = f"{cfg}/{rep}"
                    out = self.run.op(
                        "o2", label,
                        lambda: semiband.band_energy(model, x, HBAR, 2, rep),
                        lambda r: check_energy(cfg, model, x, rep, r))
                    if out is not None:
                        self.record(label, out[0])
                        self.fallbacks.setdefault(label, []).append(
                            out[1].diagnostics["fd"].fallbacks)
        self.chunks += 1

    def rate(self) -> float:
        return _median_rate(self.seconds(), 1.0, {
            f"{cfg}/{rep}": n for cfg, n in ENERGY_MIX.items()
            for rep in REPRESENTATIONS})

    def quantiles_ms(self) -> tuple:
        evals = [t for ts in self.seconds().values() for t in ts]
        cuts = statistics.quantiles(evals, n=10, method="inclusive")
        return 1e3 * statistics.median(evals), 1e3 * cuts[8]


def check_energy(cfg: str, model, x, rep: str, report) -> str:
    eps = report.eps
    herm = float(np.max(np.abs(eps - eps.conj().T)))
    if herm > HERMITIAN_TOL:
        return f"hermiticity defect {herm:.3e}"
    off = report.diagnostics["offblock_norm"]
    if off > OFFBLOCK_TOL:
        return f"off-block norm {off:.3e}"
    if cfg == "dirac_electric":
        oracle = (oracles.dirac_energy_canonical_oracle if rep == "canonical"
                  else oracles.dirac_energy_covariant_oracle)
        ref = oracle(x, model.m, model.e, model.field, HBAR)
    elif cfg == "neutrino_metric":
        oracle = (oracles.neutrino_energy_canonical_oracle
                  if rep == "canonical" else oracles.neutrino_energy_oracle)
        ref = oracle(x, model, HBAR)
    else:
        want_partial = cfg == "two_level_generic"
        if report.partial != want_partial:
            return f"partial is {report.partial}, expected {want_partial}"
        return ""
    err = _rel_err(eps, ref)
    if err > ORACLE_TOL:
        return f"oracle relative error {err:.3e}"
    return ""


class CurvatureActivity(Activity):
    """What `semiband curvature` computes at one point, configs in turn."""

    name = "curvature"
    min_chunks = len(CONFIGS)

    def step(self) -> None:
        cfg = list(CONFIGS)[self.chunks % len(CONFIGS)]
        model = self.models[cfg]
        x = random_point(self.rng)
        out = self.run.op("curv", cfg, lambda: curvature_point(model, x),
                          lambda r: check_curvature(x, r))
        if out is not None:
            self.record(cfg, out[0])
        self.chunks += 1

    def rate(self) -> float:
        return _median_rate(self.seconds(), 1.0)


def curvature_point(model, x):
    cset = semiband.berry_curvatures(model, x, HBAR)
    bands = {}
    if model.name == "neutrino_metric":
        for lam in (+1, -1):
            bands[lam] = semiband.band_curvature_vector(model, x, lam)
    return cset, bands


def check_curvature(x, result) -> str:
    cset, bands = result
    for block in (cset.theta_rr, cset.theta_pp, cset.theta_pr):
        if not np.all(np.isfinite(block)):
            return "non-finite curvature"
    for lam, theta in bands.items():
        ref = -lam * x.P / np.linalg.norm(x.P) ** 3
        err = float(np.max(np.abs(theta - ref)) / np.max(np.abs(ref)))
        if err > ORACLE_TOL:
            return f"band curvature lam={lam:+d} relative error {err:.3e}"
    return ""


class SweepActivity(Activity):
    """`semiband diagonalize` at order 1, in process, configs in turn."""

    name = "sweep"
    min_chunks = 2 * len(SWEEP_CONFIGS)
    jobs2 = False                       # also time each sweep at --jobs 2

    def reset(self) -> None:
        super().reset()
        self.jobs2_samples: dict = {}
        self.output_bytes: dict = {}

    def step(self) -> None:
        cfg = SWEEP_CONFIGS[self.chunks % len(SWEEP_CONFIGS)]
        seed = int(self.rng.integers(2 ** 31))
        config_path = self.workdir / "sweep_config.json"
        config_path.write_text(json.dumps({
            "model": CONFIGS[cfg], "hbar": HBAR, "order": 1,
            "representation": "canonical",
            "random_points": {"count": SWEEP_POINTS, "p_range": list(P_RANGE)},
        }))
        for jobs in ((1, 2) if self.jobs2 else (1,)):
            out_dir = self.workdir / f"sweep_jobs{jobs}"
            argv = ["--config", str(config_path), "--out", str(out_dir),
                    "--seed", str(seed), "--order", "1", "--jobs", str(jobs),
                    "diagonalize"]
            out = self.run.op("sweep" if jobs == 1 else "sweep_jobs2", cfg,
                              lambda: run_cli(argv),
                              lambda rc: check_sweep(cfg, rc, out_dir))
            if out is None:
                continue
            if jobs == 1:
                self.record(cfg, out[0])
                size = sum(p.stat().st_size for p in out_dir.iterdir())
                self.output_bytes.setdefault(cfg, []).append(size)
            else:
                self.jobs2_samples.setdefault(cfg, []).append(out[0])
        self.chunks += 1

    def rate(self) -> float:
        return _median_rate(self.seconds(), SWEEP_POINTS)

    def jobs2_speedup(self) -> float:
        jobs2 = _median_rate(self.seconds(self.jobs2_samples), SWEEP_POINTS)
        return jobs2 / self.rate()

    def bytes_per_point(self) -> float:
        return statistics.fmean(statistics.fmean(v)
                                for v in self.output_bytes.values()) / SWEEP_POINTS


def run_cli(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _poly(terms: list, R, P) -> float:
    total = 0.0
    for t in terms:
        v = float(Fraction(str(t["coef"])))
        for i, e in enumerate(t.get("r_exp", [0, 0, 0])):
            v *= R[i] ** e
        for i, e in enumerate(t.get("p_exp", [0, 0, 0])):
            v *= P[i] ** e
        total += v
    return total


def order0_closed_form(cfg: str, R, P) -> list:
    """Order-0 band energies from the config, independent of semiband."""
    if cfg == "dirac_electric":
        c = CONFIGS[cfg]
        f = c["field"]
        d2 = sum((R[i] - f["center"][i]) ** 2 for i in range(3))
        W = c["e"] * f["amplitude"] * math.exp(-d2 / (2 * f["width"] ** 2))
        E = math.sqrt(sum(p * p for p in P) + c["m"] ** 2)
        return [E + W, E + W, -E + W, -E + W]
    c = CONFIGS[cfg]
    h0 = _poly(c["h0"], R, P)
    hn = math.sqrt(sum(_poly(part, R, P) ** 2 for part in c["h"]))
    return [h0 + hn, h0 - hn]


def check_sweep(cfg: str, rc: int, out_dir: Path) -> str:
    if rc != 0:
        return f"diagonalize exited {rc}"
    report = json.loads((out_dir / "energies.json").read_text())
    if report["errors"]:
        return f"diagonalize reported errors: {report['errors'][:3]}"
    with open(out_dir / "energies.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != SWEEP_POINTS:
        return f"{len(rows)} rows for {SWEEP_POINTS} points"
    for row in rows:
        R = [float(row[k]) for k in ("R_x", "R_y", "R_z")]
        P = [float(row[k]) for k in ("P_x", "P_y", "P_z")]
        for i, ref in enumerate(order0_closed_form(cfg, R, P)):
            got = float(row[f"band{i}_order0"])
            if abs(got - ref) > 1e-12 * max(1.0, abs(ref)):
                return f"band{i}_order0 {got!r} against closed form {ref!r}"
    return ""


class RayActivity(Activity):
    """RK4 rays for a seeded fan of initial states, lambda = +1 and -1."""

    name = "rays"
    min_chunks = 2 * len(RAY_PROFILES)

    def step(self) -> None:
        profile = list(RAY_PROFILES)[self.chunks % len(RAY_PROFILES)]
        model = self.models["ray_" + profile]
        r0 = self.rng.uniform(-0.5, 0.5, 3)
        size = self.rng.uniform(0.5, 2.0)
        if profile == "linear":
            # P0 in the x-z plane keeps the y displacement exactly
            # antisymmetric in lambda (the trajectory-physics mirror pair).
            angle = self.rng.uniform(-math.pi / 3, math.pi / 3)
            P0 = size * np.array([math.sin(angle), 0.0, math.cos(angle)])
        else:
            P0 = self.rng.normal(size=3)
            P0 *= size / np.linalg.norm(P0)
        out = self.run.op("ray", profile,
                          lambda: ray_pair(model, r0, P0),
                          lambda pair: check_rays(profile, model, r0, pair))
        if out is not None:
            self.record(profile, out[0])
        self.chunks += 1

    def rate(self) -> float:
        return _median_rate(self.seconds(), 2 * RAY_STEPS)


def ray_pair(model, r0, P0) -> list:
    return [semiband.integrate_ray(model, r0, P0, lam, RAY_HBAR, RAY_DT,
                                   RAY_STEPS, "rk4")
            for lam in (+1, -1)]


def check_rays(profile: str, model, r0, pair) -> str:
    for traj in pair:
        for s in traj.states[::10]:
            ref = oracles.neutrino_velocity_modulus(s.r, s.P, model,
                                                    RAY_HBAR, s.lam)
            if abs(s.speed - ref) > 1e-8:
                return f"speed {s.speed!r} against modulus {ref!r}"
        if profile == "gaussian":
            if traj.energy_drift > GAUSSIAN_ENERGY_DRIFT_BOUND:
                return f"energy drift {traj.energy_drift:.3e}"
            continue
        if traj.helicity_drift > 1e-9:
            return f"helicity drift {traj.helicity_drift:.3e}"
        if traj.energy_drift > 1e-8:
            return f"energy drift {traj.energy_drift:.3e}"
    if profile == "linear":
        d_up, d_dn = (traj.final().r[1] - r0[1] for traj in pair)
        if abs(d_up + d_dn) > 1e-9:
            return f"mirror pair |d+ + d-| = {abs(d_up + d_dn):.3e}"
    return ""


def warm_up(built: dict, workdir: Path) -> None:
    """One call of each operation, outside every timed region."""
    rng = np.random.default_rng(0)
    x = random_point(rng)
    model = built["dirac_electric"]
    for rep in REPRESENTATIONS:
        semiband.band_energy(model, x, HBAR, 2, rep)
    curvature_point(model, x)
    ray_pair(built["ray_linear"], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    config_path = workdir / "warm_config.json"
    config_path.write_text(json.dumps({
        "model": CONFIGS["dirac_electric"], "hbar": HBAR, "order": 1,
        "random_points": {"count": 2, "p_range": list(P_RANGE)}}))
    rc = run_cli(["--config", str(config_path), "--out",
                  str(workdir / "warm_out"), "--seed", "0", "diagonalize"])
    if rc != 0:
        raise RuntimeError(f"warm-up diagonalize exited {rc}")


ACTIVITIES = (EnergyActivity, CurvatureActivity, SweepActivity, RayActivity)
