"""Command-line interface: batch diagonalization, rays and verification.

Subcommands
-----------
diagonalize   band energies on a list or grid of phase points (CSV + JSON)
connections   order-0 / corrected connection sets per point
curvature     curvature blocks per point
trajectory    fixed-helicity ray tracing (CSV per helicity + manifest)
verify        run the verification suites, exit 0 iff all pass
bracket-check exact symbolic identity checks with a seeded case list

Configuration is a JSON document (see README for the schema); identical
config + seed produce byte-identical reports.  Exit codes: 0 success,
1 configuration/schema error, 2 point-level errors (listed per point).

The per-point subcommands run their points in chunks of `energy.CHUNK`, one
batched pass per chunk; a chunk in which any point raises is re-run point by
point, so every failing point gets its own error record.
"""

from __future__ import annotations

import argparse
import csv
import json
import numbers
import random
import sys
from pathlib import Path

import numpy as np

from semiband import weyl
from semiband.models import (
    NeutrinoMetric, PhasePoint, make_model, random_points,
)
from semiband.frames import (
    Tolerances, berry_connections, classical_frame, matrix_norms,
)
from semiband.energy import (
    CHUNK,
    band_energy,
    corrected_connections,
    first_order,
)
from semiband.dynamics import (
    band_curvature_vector, berry_curvatures, check_ray_inputs, integrate_ray,
)
from semiband.verify import BRACKET_SUITES, run_suites

__all__ = ["main"]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _integer(value, what: str) -> int:
    """value as an int; ConfigError for a bool or a non-integral value.  An
    integral JSON float such as 1e2 counts as an integer."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{what} must be an integer, not {value!r}")
    return int(value)


def _seed(cfg: dict, args, default: int) -> int:
    """The --seed flag, else the config's integer "seed"."""
    if args.seed is not None:
        return args.seed
    return _integer(cfg.get("seed", default), "seed")


def _resolve_points(cfg: dict, rng: np.random.Generator) -> list:
    if "points" in cfg:
        pts = []
        for i, rec in enumerate(cfg["points"]):
            try:
                pts.append(PhasePoint.of(rec["R"], rec["P"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad point #{i}: {exc}") from exc
        return pts
    if "grid" in cfg:
        section = cfg["grid"]
        axes = []
        for key in ("R", "P"):
            rows = section.get(key)
            if rows is None or len(rows) != 3:
                raise ConfigError(f"grid.{key} must give [min, max, count] x 3")
            for row in rows:
                lo, hi, count = row
                count = _integer(count, "a grid count")
                if count < 1:
                    raise ConfigError("grid counts must be >= 1")
                axes.append(np.linspace(float(lo), float(hi), count))
        mesh = np.meshgrid(*axes, indexing="ij")
        flat = [m.ravel() for m in mesh]
        return [PhasePoint.of([flat[0][i], flat[1][i], flat[2][i]],
                              [flat[3][i], flat[4][i], flat[5][i]])
                for i in range(flat[0].size)]
    if "random_points" in cfg:
        section = cfg["random_points"]
        pmin, pmax = section.get("p_range", [0.3, 3.0])
        count = _integer(section.get("count", 10), "random_points.count")
        return random_points(rng, count, pmin, pmax)
    raise ConfigError("config needs 'points', 'grid' or 'random_points'")


def _tolerances(cfg: dict) -> Tolerances:
    section = cfg.get("tolerances", {})
    defaults = Tolerances()
    kwargs = {}
    try:
        for name in ("degeneracy", "gap", "block", "unitarity", "fd_base",
                     "overlap"):
            kwargs[name] = float(section.get(name, getattr(defaults, name)))
        return Tolerances(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"tolerances: {exc}") from exc


def _mat_json(mat: np.ndarray) -> list:
    """Matrices (..., n, n) as nested lists of [re, im] pairs."""
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


def _diag_json(diag: dict) -> dict:
    out = {}
    for key, value in diag.items():
        if hasattr(value, "order") and hasattr(value, "discrepancy"):
            out[key] = {"order": int(value.order),
                        "discrepancy": float(value.discrepancy),
                        "fallbacks": int(value.fallbacks)}
        elif isinstance(value, (bool, int, float)):
            out[key] = value if isinstance(value, bool) else float(value)
        else:
            out[key] = str(value)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        # One write: json.dump would write each of its many small chunks.
        fh.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list, rows: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _point_setup(cfg: dict, args):
    """(model, hbar, tol, seed, points) shared by the per-point subcommands."""
    model = make_model(cfg.get("model", {}))
    hbar = float(args.hbar if args.hbar is not None else cfg.get("hbar", 0.01))
    if not (np.isfinite(hbar) and hbar > 0):
        raise ConfigError("hbar must be finite and positive")
    tol = _tolerances(cfg)
    seed = _seed(cfg, args, 0)
    points = _resolve_points(cfg, np.random.default_rng(seed))
    if not points:
        raise ConfigError("the point list is empty")
    return model, hbar, tol, seed, points


def _attempt(work, batch: list) -> tuple:
    """(work on the batch, None), or (None, the error text) if it raised."""
    try:
        return work(PhasePoint.stack(batch)), None
    except Exception as exc:  # noqa: BLE001 - reported per point
        return None, f"{type(exc).__name__}: {exc}"


def _run_points(args, stem: str, model, seed: int, points, work,
                header: list, chunk: int | None = None) -> int:
    """Apply work to the points in chunks of `chunk` (default `CHUNK`; order
    kept, errors captured per point) and write <stem>.csv and <stem>.json;
    exit 2 if any point failed.

    work(x) takes a batch `PhasePoint` and returns its CSV rows and JSON
    records, one per point.  A chunk that raises is re-run point by point.
    """
    chunk = CHUNK if chunk is None else chunk
    rows, records, errors = [], [], []
    for start in range(0, len(points), chunk):
        batch = points[start:start + chunk]
        items = [(start, *_attempt(work, batch))]
        if items[0][2] is not None and len(batch) > 1:
            # Point by point, so each failing point is named on its own.
            items = [(i, *_attempt(work, [x]))
                     for i, x in enumerate(batch, start)]
        for idx, got, error in items:
            if error is not None:
                errors.append({"index": idx, "error": error})
            else:
                rows += got[0]
                records += got[1]

    out = Path(args.out)
    _write_csv(out / f"{stem}.csv", header, rows)
    _write_json(out / f"{stem}.json", {
        "schema_version": SCHEMA_VERSION, "model": model.to_config(),
        "seed": seed, "records": records, "errors": errors,
    })
    if errors:
        for err in errors:
            print(f"point {err['index']}: {err['error']}", file=sys.stderr)
        return 2
    print(f"wrote {len(rows)} rows to {out / f'{stem}.csv'}")
    return 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

_POINT_HEADER = ["R_x", "R_y", "R_z", "P_x", "P_y", "P_z", "hbar"]


def cmd_diagonalize(cfg: dict, args) -> int:
    model, hbar, tol, seed, points = _point_setup(cfg, args)
    order = _integer(args.order if args.order is not None
                     else cfg.get("order", 2), "order")
    if order not in (0, 1, 2):
        raise ConfigError("order must be 0, 1 or 2")
    representation = cfg.get("representation", "canonical")
    if representation not in ("canonical", "covariant"):
        raise ConfigError("representation must be 'canonical' or 'covariant'")
    n = model.n

    def work(x: PhasePoint):
        rep = band_energy(model, x, hbar, order=order,
                          representation=representation, tol=tol)
        parts = np.stack([np.diagonal(m, 0, -2, -1) for m in (
            rep.eps, rep.zeroth, rep.first, rep.second, rep.bracket_term)],
            axis=-1).real.reshape(-1, 5 * n)
        defect = rep.diagnostics["hermiticity_defect"].tolist()
        off = rep.diagnostics["offblock_norm"].tolist()
        R, P = x.R.tolist(), x.P.tolist()
        rows = [[*r, *p, hbar, order, *cols, d, o, int(rep.partial)]
                for r, p, cols, d, o in zip(R, P, parts.tolist(), defect, off)]
        records = [{
            "R": r, "P": p, "hbar": hbar, "order": order,
            "representation": representation, "bands": bands, "eps": eps,
            "partial": rep.partial,
            "diagnostics": _diag_json({**rep.diagnostics,
                                       "hermiticity_defect": d,
                                       "offblock_norm": o}),
        } for r, p, bands, eps, d, o in zip(
            R, P, rep.band_values().tolist(), _mat_json(rep.eps), defect, off)]
        return rows, records

    header = (_POINT_HEADER + ["order"]
              + [f"band{i}_{part}" for i in range(n)
                 for part in ("total", "order0", "order1", "order2", "bracket")]
              + ["hermiticity_defect", "offblock_norm", "bracket_unavailable"])
    return _run_points(args, "energies", model, seed, points, work, header)


def cmd_connections(cfg: dict, args) -> int:
    model, hbar, tol, seed, points = _point_setup(cfg, args)
    order = str(cfg.get("connection_order", "corrected"))
    if order not in ("0", "corrected"):
        raise ConfigError("connection_order must be '0' or 'corrected'")

    def work(x: PhasePoint):
        frame = classical_frame(model, x, tol)
        conns = berry_connections(model, x, hbar, frame=frame, tol=tol)
        if order != "0":
            conns = corrected_connections(
                first_order(model, frame, conns, tol), hbar)
        R, P = x.R.tolist(), x.P.tolist()
        rows = [[*r, *p, hbar, conns.order, *norms] for r, p, norms in
                zip(R, P, matrix_norms(conns.A).tolist())]
        records = [{"R": r, "P": p, "hbar": hbar, "order": conns.order,
                    "A_R": A[:3], "A_P": A[3:]}
                   for r, p, A in zip(R, P, _mat_json(conns.A))]
        return rows, records

    header = _POINT_HEADER + ["order"] + \
        [f"norm_A_{kind}{l}" for kind in ("R", "P") for l in range(3)]
    return _run_points(args, "connections", model, seed, points, work, header)


def cmd_curvature(cfg: dict, args) -> int:
    model, hbar, tol, seed, points = _point_setup(cfg, args)

    def work(batch: PhasePoint):
        x = batch.point(0)
        cset = berry_curvatures(model, x, hbar, tol)
        anti = max(
            float(np.max(np.abs(cset.theta_rr + cset.theta_rr.transpose(1, 0, 2, 3)))),
            float(np.max(np.abs(cset.theta_pp + cset.theta_pp.transpose(1, 0, 2, 3)))),
        )
        row = [*x.R, *x.P, hbar, float(np.linalg.norm(cset.theta_rr)),
               float(np.linalg.norm(cset.theta_pp)),
               float(np.linalg.norm(cset.theta_pr)), anti]
        rec = {"R": list(x.R), "P": list(x.P), "hbar": hbar,
               "theta_rr": _mat_json(cset.theta_rr),
               "theta_pp": _mat_json(cset.theta_pp),
               "theta_pr": _mat_json(cset.theta_pr)}
        if model.name == "neutrino_metric":
            for lam in (+1, -1):
                rec[f"band_theta_lam{lam:+d}"] = band_curvature_vector(
                    model, x, lam, tol).tolist()
        return [row], [rec]

    header = _POINT_HEADER + ["norm_theta_rr", "norm_theta_pp",
                              "norm_theta_pr", "antisym_defect"]
    # The curvature pass takes one point at a time.
    return _run_points(args, "curvature", model, seed, points, work, header,
                       chunk=1)


def cmd_trajectory(cfg: dict, args) -> int:
    model = make_model(cfg.get("model", {}))
    if not isinstance(model, NeutrinoMetric):
        raise ConfigError("trajectory supports only the neutrino_metric model")
    section = cfg.get("trajectory", {})
    hbar = float(args.hbar if args.hbar is not None else cfg.get("hbar", 1e-3))
    steps = section.get("steps", 1000)
    if isinstance(steps, float) and steps.is_integer():
        steps = int(steps)          # JSON 1e4
    method = section.get("method", "rk4")
    r0 = section.get("r0", [0.0, 0.0, 0.0])
    P0 = section.get("P0", [0.0, 0.0, 1.0])
    try:
        dt = float(section.get("dt", 1e-2))
        check_ray_inputs(hbar, dt, steps, r0, P0)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"trajectory: {exc}") from exc
    lams = ([+1, -1] if section.get("pair_lambdas", True)
            else [_integer(section.get("lambda", 1), "trajectory lambda")])
    if method not in ("rk4", "rk45"):
        raise ConfigError("trajectory method must be 'rk4' or 'rk45'")
    if any(lam not in (+1, -1) for lam in lams):
        raise ConfigError("trajectory lambda must be +1 or -1")
    out = Path(args.out)

    manifest = {"schema_version": SCHEMA_VERSION, "model": model.to_config(),
                "hbar": hbar, "dt": dt, "steps": steps, "method": method,
                "r0": list(map(float, r0)), "P0": list(map(float, P0)),
                "lambdas": lams, "runs": []}
    errors = []
    header = ["t", "r_x", "r_y", "r_z", "P_x", "P_y", "P_z",
              "lambda", "eps", "speed"]
    for lam in lams:
        try:
            traj = integrate_ray(model, r0, P0, lam, hbar, dt, steps, method)
        except (ValueError, RuntimeError, FloatingPointError) as exc:
            error = f"{type(exc).__name__}: {exc}"
            errors.append({"lambda": lam, "error": error})
            print(f"lambda={lam:+d}: {error}", file=sys.stderr)
            continue
        rows = [[s.t, *s.r, *s.P, s.lam, s.eps, s.speed] for s in traj.states]
        path = out / f"trajectory_lam{lam:+d}.csv"
        _write_csv(path, header, rows)
        manifest["runs"].append({
            "lambda": lam, "file": path.name,
            "helicity_drift": traj.helicity_drift,
            "energy_drift": traj.energy_drift,
            "rejected_steps": traj.rejected_steps,
            "final_r": [float(v) for v in traj.final().r],
        })
        print(f"lambda={lam:+d}: {len(rows)} samples -> {path}")
    # Only a failed run adds the key, so a clean manifest keeps its bytes.
    if errors:
        manifest["errors"] = errors
    _write_json(out / "trajectory_manifest.json", manifest)
    return 2 if errors else 0


def cmd_verify(cfg: dict, args) -> int:
    seed = _seed(cfg, args, 0)
    names = [args.suite] if args.suite else cfg.get("suites_to_run")
    if args.suite == "bracket":
        names = BRACKET_SUITES
    overrides = cfg.get("suites", {})
    report = run_suites(names, seed=seed, overrides=overrides)
    out = Path(args.out)
    _write_json(out / "verify_report.json", report)
    for suite in report["suites"]:
        status = "PASS" if suite["passed"] else "FAIL"
        print(f"{status} {suite['name']}")
    print(f"report -> {out / 'verify_report.json'}")
    return 0 if report["all_passed"] else 2


def cmd_bracket_check(cfg: dict, args) -> int:
    seed = _seed(cfg, args, 1)
    cases = _integer(cfg.get("cases", 200), "cases")
    max_degree = _integer(cfg.get("max_degree", 6), "max_degree")
    if max_degree > 8:
        raise ConfigError("max_degree exceeds the symmetrization cap (8)")
    dims = cfg.get("dims", [1, 2])
    if not isinstance(dims, list) or not dims or cases < len(dims):
        raise ConfigError("dims must be a non-empty list, with cases >= len(dims)")
    dims = [_integer(dim, "each dims entry") for dim in dims]
    rows = []
    exact = 0
    for dim in dims:
        rng = random.Random(seed + dim)
        for case in range(cases // len(dims)):
            f = weyl.random_factorization(rng, n=dim, max_degree=max_degree)
            g = weyl.random_factorization(rng, n=dim, max_degree=max_degree)
            ok_prod = weyl.bracket_product_residual(f, g).is_zero()
            h = weyl.random_resymmetrization(rng, f)
            ok_inv = weyl.invariant_derivative_residual(f, h).is_zero()
            exact += int(ok_prod and ok_inv)
            rows.append({"dim": dim, "case": case,
                         "product_rule_exact": ok_prod,
                         "invariance_exact": ok_inv})
    # Pure sums have no mixed pair: bracket vanishes for every scalar case.
    rng = random.Random(seed)
    pure_zero = True
    for _ in range(10):
        for kind in ("R", "P"):
            expr = weyl._random_pure_expr(rng, kind, 1, 3)
            if not weyl.Factorization([(kind, expr)]).bracket().is_zero():
                pure_zero = False
    total = len(rows)
    report = {"schema_version": SCHEMA_VERSION, "seed": seed,
              "cases": total, "exact": exact,
              "pure_sum_brackets_vanish": pure_zero,
              "all_passed": exact == total and pure_zero,
              "rows": rows}
    out = Path(args.out)
    _write_json(out / "bracket_report.json", report)
    print(f"{exact}/{total} cases exact -> {out / 'bracket_report.json'}")
    return 0 if report["all_passed"] else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="semiband",
        description="Block-diagonal band energies, Berry data and ray tracing "
                    "for matrix-valued Hamiltonians.",
    )
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--order", type=int, help="expansion order (0, 1, 2)")
    parser.add_argument("--hbar", type=float, help="value of hbar")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--out", default="semiband_out", help="output directory")
    parser.add_argument("--suite", help="verification suite name (verify)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; points always run "
                             "in order, in chunks, in one thread")
    parser.add_argument("command", choices=[
        "diagonalize", "connections", "curvature", "trajectory",
        "verify", "bracket-check",
    ])
    args = parser.parse_args(argv)

    handlers = {
        "diagonalize": cmd_diagonalize,
        "connections": cmd_connections,
        "curvature": cmd_curvature,
        "trajectory": cmd_trajectory,
        "verify": cmd_verify,
        "bracket-check": cmd_bracket_check,
    }
    try:
        cfg = _load_config(args.config)
        return handlers[args.command](cfg, args)
    except (ConfigError, ValueError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
