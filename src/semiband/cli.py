"""Command-line interface: batch diagonalization, rays and verification.

Subcommands
-----------
diagonalize   band energies on a list or grid of phase points (CSV + JSON)
connections   order-0 / corrected connection sets per point
curvature     curvature blocks per point
trajectory    fixed-helicity ray tracing (CSV per helicity + manifest)
verify        run the verification suites, exit 0 iff all pass
bracket-check the verify bracket suites plus the pure-sum bracket check

Configuration is a JSON document (see README for the schema) whose
top-level keys are those some subcommand reads; identical config + seed
produce byte-identical reports.  Exit codes: 0 success,
1 configuration/schema error, 2 errors of points or rays (listed per point
or per run, whatever they raised).

The per-point subcommands take their points as one batch and run it in
chunks of `energy.chunk_points`, one batched pass per chunk; a chunk in which
any point raises is re-run point by point, so every failing point gets its
own error record.  Every JSON file is the bytes of
`json.dumps(payload, indent=1, sort_keys=True)`; per-point records come from
per-chunk `%`-templates, cut from that text of the record's layout, filled
with the texts of the chunk's columns, made once per distinct column, and
spliced into the one dump of the file's envelope.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from semiband.fields import REQUIRED, _integer, _real, parameters, read_config
from semiband.models import (
    NeutrinoMetric, PhasePoint, make_model, random_batch,
)
from semiband.frames import berry_connections, classical_frame, matrix_norms
from semiband.energy import (
    band_energy,
    chunk_points,
    corrected_connections,
    first_order,
)
from semiband.dynamics import (
    band_curvature_vector, berry_curvatures, check_ray_inputs, integrate_ray,
)

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
    read_config(cfg, _CONFIG_KEYS, "config")
    return cfg


def _hbar(cfg: dict, args, default: float) -> float:
    """The --hbar flag, else the config's "hbar", as a finite real number."""
    return _real(args.hbar if args.hbar is not None
                 else cfg.get("hbar", default), "hbar")


def _seed(cfg: dict, args, default: int) -> int:
    """The --seed flag, else the config's integer "seed"."""
    if args.seed is not None:
        return args.seed
    return _integer(cfg.get("seed", default), "seed")


_JSON_TYPES = {dict: "an object", list: "an array", bool: "true or false"}


def _section(cfg: dict, key: str, default=None, kind: type = dict):
    """cfg[key], default if absent; ConfigError unless it is of `kind`."""
    value = cfg.get(key, default)
    if not isinstance(value, kind):
        raise ConfigError(f"{key} must be {_JSON_TYPES[kind]}, not {value!r}")
    return value


def _object(cfg: dict, key: str, keys: dict) -> dict:
    """The config object cfg[key] ({} if absent) over its declared keys."""
    return read_config(cfg.get(key, {}), keys, key)


# The top-level keys that any subcommand reads: one file may serve several.
_CONFIG_KEYS = dict.fromkeys((
    "model", "hbar", "seed", "order", "representation", "connection_order",
    "points", "grid", "random_points", "trajectory", "suites",
    "suites_to_run"))

# The declared keys of each config object of the CLI, with their defaults:
# a point's and the grid's, the random draw's and a ray's.
_PHASE_KEYS = {"R": REQUIRED, "P": REQUIRED}
_RANDOM_KEYS = {"count": 10, "p_range": [0.3, 3.0]}
_TRAJECTORY_KEYS = {"method": parameters(integrate_ray)["method"],
                    "pair_lambdas": True, "lambda": 1, "steps": 1000,
                    "dt": 1e-2, "r0": [0.0, 0.0, 0.0], "P0": [0.0, 0.0, 1.0]}


def _resolve_points(cfg: dict, rng: np.random.Generator) -> PhasePoint:
    """The config's points, in order, as one batch (R and P of shape
    (N, 3), N = 0 for no points)."""
    sources = [k for k in ("points", "grid", "random_points") if k in cfg]
    if len(sources) != 1:
        raise ConfigError("config needs exactly one of 'points', 'grid' or "
                          f"'random_points', not {sources}")
    if "points" in cfg:
        pts = []
        for i, rec in enumerate(_section(cfg, "points", kind=list)):
            rec = read_config(rec, _PHASE_KEYS, f"point #{i}")
            try:
                pts.append(PhasePoint.of(rec["R"], rec["P"]))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad point #{i}: {exc}") from exc
        return PhasePoint(np.reshape([x.R for x in pts], (-1, 3)),
                          np.reshape([x.P for x in pts], (-1, 3)))
    if "grid" in cfg:
        axes = []
        for key, rows in _object(cfg, "grid", _PHASE_KEYS).items():
            if not (isinstance(rows, list) and len(rows) == 3 and all(
                    isinstance(row, list) and len(row) == 3 for row in rows)):
                raise ConfigError(f"grid.{key} must give [min, max, count] x 3")
            for row in rows:
                lo, hi, count = row
                count = _integer(count, "a grid count")
                if count < 1:
                    raise ConfigError("grid counts must be >= 1")
                lo, hi = (_real(v, f"grid.{key} bound") for v in (lo, hi))
                axes.append(np.linspace(lo, hi, count))
        flat = [m.ravel() for m in np.meshgrid(*axes, indexing="ij")]
        return PhasePoint(np.stack(flat[:3], axis=-1),
                          np.stack(flat[3:], axis=-1))
    count, p_range = _object(cfg, "random_points", _RANDOM_KEYS).values()
    if not (isinstance(p_range, list) and len(p_range) == 2):
        raise ConfigError("random_points.p_range must be [pmin, pmax]")
    return random_batch(rng, _integer(count, "random_points.count"), *p_range)


def _mat_json(mat: np.ndarray) -> np.ndarray:
    """Matrices (..., n, n) as one float64 stack (..., n, n, 2) of [re, im]
    pairs; JSON writes each array as the nested lists it holds."""
    return np.stack([mat.real, mat.imag], axis=-1)


def _diag_json(diag: dict) -> dict:
    """The diagnostics that every point of a report shares: whether the
    bracket term was unavailable and, at order 2, the stencil record."""
    shared = {"bracket_unavailable": diag["bracket_unavailable"]}
    if "fd" in diag:
        fd = diag["fd"]
        shared["fd"] = {"order": int(fd.order),
                        "discrepancy": float(fd.discrepancy),
                        "fallbacks": int(fd.fallbacks)}
    return shared


def _dumps(payload) -> str:
    """The stdlib's `indent=1` sorted-key text of a payload: the layout of
    every JSON file, and the text the record templates below are cut from."""
    return json.dumps(payload, indent=1, sort_keys=True)


def _write_json(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_csv(path: Path, header: list, lines: list) -> None:
    """A CSV file of the header and the row `lines`, each a finished line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write("".join(lines))


# ---------------------------------------------------------------------------
# Per-chunk records and rows
# ---------------------------------------------------------------------------

@dataclass
class _Chunk:
    """What the `work` of a per-point subcommand returns for N points.

    `values` holds every number of every point, (N, k) float64.  `record`
    lays out one point's JSON record and `row` its CSV row.  In both, an int
    array stands for the columns of `values` it names, laid out as a JSON
    array of its shape (a 0-d array is one number; a row takes the columns
    in C order), and anything else is a constant of the chunk: in `record` a
    JSON value or a nested layout dict, in `row` a number, bool or string.
    """

    values: np.ndarray
    record: dict
    row: list


def _pack(*blocks) -> tuple:
    """Per-point blocks (N, ...) as one (N, k) float64 matrix, and the
    column indices of each block, shaped as one point's block."""
    flat = [np.reshape(block, (len(block), -1)) for block in blocks]
    values = np.concatenate(flat, axis=1, dtype=float)
    ends = np.cumsum([part.shape[1] for part in flat])
    return values, [np.arange(end - part.shape[1], end).reshape(
        np.shape(block)[1:]) for block, part, end in zip(blocks, flat, ends)]


# A JSON string token; group 1 holds i if the token is exactly "\u0000<i>".
_COLUMN = re.compile(r'"\\u0000(\d+)"|"(?:[^"\\]|\\.)*"')

# The text of a finite number in both files; `_render` looks it up here on
# each call, so a test can count the calls.
_repr = float.__repr__


def _columns(cols: np.ndarray) -> list | str:
    r"""An int array of columns as the nested lists of its "\0<i>" marks."""
    return np.array(["\0%d" % i for i in cols.ravel().tolist()],
                    dtype=object).reshape(cols.shape).tolist()


def _record_template(layout: dict, level: int) -> tuple:
    r"""(%-template, column slots) of a record layout at depth `level`: the
    text `_dumps` gives the layout with each column marked as the string
    "\0<i>", its `%` doubled and each mark cut to `%s`; slot j names the
    column of the j-th `%s`.  It is cached on the compact text of the
    marked layout.  A mark inside a longer string stays text; no constant
    of a layout here is a bare mark."""
    return _cut(json.dumps(layout, sort_keys=True, default=_columns), level)


@functools.lru_cache(maxsize=64)
def _cut(marked: str, level: int) -> tuple:
    """The template and slots of a marked layout, given by its compact
    text."""
    slots = []

    def slot(m: re.Match) -> str:
        if m[1] is None:
            return m[0]
        slots.append(int(m[1]))
        return "%s"

    text = _dumps(json.loads(marked)).replace("%", "%%")
    return (_COLUMN.sub(slot, text.replace("\n", "\n" + " " * level)),
            tuple(slots))


def _row_template(row: list) -> tuple:
    """(%-template, column slots) of a CSV row layout, `%s` standing for
    each column in turn, the line written by `csv.writer` itself."""
    fields, slots = [], []
    for item in row:
        if isinstance(item, np.ndarray):
            slots += item.ravel().tolist()
            fields += ["%s"] * item.size
        else:
            fields.append(item.replace("%", "%%") if isinstance(item, str)
                          else item)
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue(), tuple(slots)


def _column_texts(values: np.ndarray, text) -> list:
    """The texts of the columns of (N, k) `values`, one list of N per
    column, made once per distinct column.

    Columns are told apart by their bits, so -0.0, nan and inf keep their
    own texts: a column equal to an earlier one shares its list, and a
    column of one value is one `text` call.
    """
    by_col = np.ascontiguousarray(values.T)
    n = by_col.shape[1]
    bits = by_col.view(np.int64)
    constant = (bits == bits[:, :1]).all(axis=1).tolist()
    raw, size = by_col.tobytes(), 8 * n
    texts, seen = [], {}
    for j, (col, one) in enumerate(zip(by_col.tolist(), constant)):
        key = raw[j * size:(j + 1) * size]
        got = seen.get(key)
        if got is None:
            got = seen[key] = ([text(col[0])] * n if one
                               else list(map(text, col)))
        texts.append(got)
    return texts


def _fill(template: tuple, texts: list, n: int) -> list:
    """The n texts of a (%-template, slots) pair over the column texts."""
    form, slots = template
    rows = zip(*[texts[i] for i in slots]) if slots else [()] * n
    return [form % row for row in rows]


def _render(chunk: _Chunk, level: int) -> tuple:
    """(JSON record texts at depth `level`, CSV lines) of a chunk.

    Each distinct column of the chunk's numbers is turned into text once,
    by repr, which is its CSV text and, when finite, its JSON text; both
    templates take those texts.  A chunk with a nan or inf gives its
    records the stdlib's text instead, which spells them `NaN`,
    `Infinity` and `-Infinity`.
    """
    values = chunk.values
    n = len(values)
    texts = _column_texts(values, _repr)
    lines = _fill(_row_template(chunk.row), texts, n)
    if not np.isfinite(values).all():
        texts = _column_texts(values, json.dumps)
    return _fill(_record_template(chunk.record, level), texts, n), lines


# The "records" value of the one dump of a file's envelope.  Its entry as
# `_dumps` writes it, '"records": "\u0000records"', is in no string value,
# whose quotes would be escaped.
_PLACEHOLDER = "\0records"


def _file_text(envelope: dict, records: list) -> str:
    """The text `_dumps` gives `envelope` with a "records" list of the record
    texts (laid out at depth 2): the envelope dumped once with
    `_PLACEHOLDER`, and the joined texts spliced in for its entry."""
    sep = "\n  "
    listed = ("[" + sep + ("," + sep).join(records) + "\n ]" if records
              else "[]")
    entry = '"records": '
    return _dumps({**envelope, "records": _PLACEHOLDER}).replace(
        entry + json.dumps(_PLACEHOLDER), entry + listed, 1)


def _point_setup(cfg: dict, args):
    """(model, hbar, seed, points) shared by the per-point subcommands."""
    model = make_model(cfg.get("model", {}))
    hbar = _hbar(cfg, args, 0.01)
    if not hbar > 0:
        raise ConfigError("hbar must be positive")
    seed = _seed(cfg, args, 0)
    points = _resolve_points(cfg, np.random.default_rng(seed))
    if not len(points.R):
        raise ConfigError("the point list is empty")
    return model, hbar, seed, points


def _attempt(call) -> tuple:
    """(call(), None), or (None, "Type: message") if it raised: the one
    failure capture of a chunk, a point or a ray."""
    try:
        return call(), None
    except Exception as exc:  # noqa: BLE001 - reported per item
        return None, f"{type(exc).__name__}: {exc}"


def _run_points(args, stem: str, model, seed: int, points: PhasePoint, work,
                header: list, stacks: bool) -> int:
    """Apply work to the batch `points` in chunks of `chunk_points(model.n,
    stacks)` (order kept, errors captured per point) and write <stem>.csv
    and <stem>.json; exit 2 if any point failed.

    work(x) takes a batch `PhasePoint` and returns its `_Chunk`, rendered
    into one CSV row and one JSON record per point; `stacks` says whether it
    builds the (6, 6, n, n) stacks of the first-order record.  A chunk that
    raises is re-run point by point, each point a one-point batch.
    """
    rows, records, errors = [], [], []
    count, size = len(points.R), chunk_points(model.n, stacks)
    for start in range(0, count, size):
        stop = min(start + size, count)
        items = [(start, *_attempt(lambda: work(points.points(start, stop))))]
        if items[0][2] is not None and stop - start > 1:
            # Point by point, so each failing point is named on its own.
            items = [(i, *_attempt(lambda: work(points.points(i, i + 1))))
                     for i in range(start, stop)]
        for idx, got, error in items:
            if error is not None:
                errors.append({"index": idx, "error": error})
            else:
                texts, lines = _render(got, 2)
                records += texts
                rows += lines

    out = Path(args.out)
    _write_csv(out / f"{stem}.csv", header, rows)
    _write_json(out / f"{stem}.json", _file_text(
        {"schema_version": SCHEMA_VERSION, "model": model.to_config(),
         "seed": seed, "errors": errors}, records))
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
    model, hbar, seed, points = _point_setup(cfg, args)
    order = _integer(args.order if args.order is not None
                     else cfg.get("order", 2), "order")
    if order not in (0, 1, 2):
        raise ConfigError("order must be 0, 1 or 2")
    representation = cfg.get("representation", "canonical")
    if representation not in ("canonical", "covariant"):
        raise ConfigError("representation must be 'canonical' or 'covariant'")
    n = model.n

    def work(x: PhasePoint) -> _Chunk:
        rep = band_energy(model, x, hbar, order=order,
                          representation=representation)
        diag = rep.diagnostics
        # Per band: total, order0, order1, order2, bracket; the totals are
        # the record's "bands".
        parts = np.stack([np.diagonal(m, 0, -2, -1) for m in (
            rep.eps, rep.zeroth, rep.first, rep.second, rep.bracket_term)],
            axis=-1).real
        values, (R, P, parts, defect, off, eps) = _pack(
            x.R, x.P, parts, diag["hermiticity_defect"],
            diag["offblock_norm"], _mat_json(rep.eps))
        shared = _diag_json(diag)
        record = {
            "R": R, "P": P, "hbar": hbar, "order": order,
            "representation": representation, "bands": parts[:, 0],
            "eps": eps, "partial": rep.partial,
            "diagnostics": {**shared, "hermiticity_defect": defect,
                            "offblock_norm": off},
        }
        return _Chunk(values, record, [R, P, hbar, order, parts, defect, off,
                                       int(rep.partial)])

    header = (_POINT_HEADER + ["order"]
              + [f"band{i}_{part}" for i in range(n)
                 for part in ("total", "order0", "order1", "order2", "bracket")]
              + ["hermiticity_defect", "offblock_norm", "bracket_unavailable"])
    return _run_points(args, "energies", model, seed, points, work, header,
                       order == 2)


def cmd_connections(cfg: dict, args) -> int:
    model, hbar, seed, points = _point_setup(cfg, args)
    order = cfg.get("connection_order", "corrected")
    if order not in ("0", "corrected"):
        raise ConfigError("connection_order must be '0' or 'corrected'")

    def work(x: PhasePoint) -> _Chunk:
        frame = classical_frame(model, x)
        conns = berry_connections(frame)
        if order != "0":
            conns = corrected_connections(first_order(frame, conns), hbar)
        if not np.isfinite(conns.A).all():
            raise FloatingPointError("connection set is not finite")
        values, (R, P, norms, A) = _pack(x.R, x.P, matrix_norms(conns.A),
                                         _mat_json(conns.A))
        record = {"R": R, "P": P, "hbar": hbar, "order": conns.order,
                  "A_R": A[:3], "A_P": A[3:]}
        return _Chunk(values, record, [R, P, hbar, conns.order, norms])

    header = _POINT_HEADER + ["order"] + \
        [f"norm_A_{kind}{l}" for kind in ("R", "P") for l in range(3)]
    return _run_points(args, "connections", model, seed, points, work, header,
                       order != "0")


def cmd_curvature(cfg: dict, args) -> int:
    model, hbar, seed, points = _point_setup(cfg, args)

    names = ["R", "P", "theta_rr", "theta_pp", "theta_pr"]
    lams = (+1, -1) if model.name == "neutrino_metric" else ()
    names += [f"band_theta_lam{lam:+d}" for lam in lams]

    def work(x: PhasePoint) -> _Chunk:
        cset = berry_curvatures(model, x, hbar)
        blocks = (cset.theta_rr, cset.theta_pp, cset.theta_pr)
        # Each point's three blocks as one matrix, for its Frobenius norm.
        norms = [matrix_norms(b.reshape(b.shape[:-4] + (-1, model.n)))
                 for b in blocks]
        anti = [np.max(np.abs(b + b.swapaxes(-4, -3)), axis=(-4, -3, -2, -1))
                for b in blocks[:2]]
        values, (norms, *cols) = _pack(
            np.stack([*norms, np.maximum(*anti)], axis=-1), x.R, x.P,
            *map(_mat_json, blocks),
            *(band_curvature_vector(model, x, lam) for lam in lams))
        record = {"hbar": hbar, **dict(zip(names, cols))}
        return _Chunk(values, record, [record["R"], record["P"], hbar, norms])

    header = _POINT_HEADER + ["norm_theta_rr", "norm_theta_pp",
                              "norm_theta_pr", "antisym_defect"]
    return _run_points(args, "curvature", model, seed, points, work, header,
                       True)


def cmd_trajectory(cfg: dict, args) -> int:
    model = make_model(cfg.get("model", {}))
    if not isinstance(model, NeutrinoMetric):
        raise ConfigError("trajectory supports only the neutrino_metric model")
    section = _object(cfg, "trajectory", _TRAJECTORY_KEYS)
    hbar = _hbar(cfg, args, 1e-3)
    method = section["method"]
    pair = _section(section, "pair_lambdas", kind=bool)
    try:
        steps = _integer(section["steps"], "steps")
        dt = _real(section["dt"], "dt")
        lams = [+1, -1] if pair else [_integer(section["lambda"], "lambda")]
        for lam in lams:
            r0, P0 = check_ray_inputs(hbar, dt, steps, section["r0"],
                                      section["P0"], lam, method)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"trajectory: {exc}") from exc
    out = Path(args.out)

    manifest = {"schema_version": SCHEMA_VERSION, "model": model.to_config(),
                "hbar": hbar, "dt": dt, "steps": steps, "method": method,
                "r0": r0.tolist(), "P0": P0.tolist(),
                "lambdas": lams, "runs": []}
    errors = []
    header = ["t", "r_x", "r_y", "r_z", "P_x", "P_y", "P_z",
              "lambda", "eps", "speed"]
    for lam in lams:
        traj, error = _attempt(lambda: integrate_ray(
            model, r0, P0, lam, hbar, dt, steps, method))
        if error is not None:
            errors.append({"lambda": lam, "error": error})
            print(f"lambda={lam:+d}: {error}", file=sys.stderr)
            continue
        # %s of a float or np.float64 writes its str, as csv.writer does;
        # the slots are the columns in order.
        row = _row_template([np.arange(7), lam, np.arange(7, 9)])[0]
        rows = [row % (s.t, *s.r, *s.P, s.eps, s.speed)
                for s in traj.states]
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
    _write_json(out / "trajectory_manifest.json", _dumps(manifest))
    return 2 if errors else 0


def _write_report(out: Path, name: str, report: dict) -> int:
    """Write a `run_suites` report, list each suite's status; exit code."""
    _write_json(out / name, _dumps(report))
    for suite in report["suites"]:
        status = "PASS" if suite["passed"] else "FAIL"
        print(f"{status} {suite['name']}")
    print(f"report -> {out / name}")
    return 0 if report["all_passed"] else 2


def cmd_verify(cfg: dict, args) -> int:
    # `verify` is imported by the two commands that run it, not by the rest.
    from semiband.verify import ALL_SUITES, BRACKET_SUITES, run_suites

    seed = _seed(cfg, args, 0)
    names = [args.suite] if args.suite else _section(
        cfg, "suites_to_run", list(ALL_SUITES), list)
    if args.suite == "bracket":
        names = BRACKET_SUITES
    overrides = _section(cfg, "suites", {})
    report = run_suites(names, seed=seed, overrides=overrides)
    return _write_report(Path(args.out), "verify_report.json", report)


def cmd_bracket_check(cfg: dict, args) -> int:
    """The `verify` bracket suites, with the overrides of the `suites` table,
    plus the pure-sum check."""
    from semiband.verify import (
        BRACKET_SUITES, pure_sum_brackets_vanish, run_suites,
    )

    seed = _seed(cfg, args, 1)
    report = run_suites(BRACKET_SUITES, seed=seed,
                        overrides=_section(cfg, "suites", {}))
    pure = pure_sum_brackets_vanish(seed)
    report["pure_sum_brackets_vanish"] = pure
    report["all_passed"] = report["all_passed"] and pure
    print(f"{'PASS' if pure else 'FAIL'} pure-sum brackets vanish")
    return _write_report(Path(args.out), "bracket_report.json", report)


# The one subcommand table: argparse's choices and the dispatch of `main`.
_COMMANDS = {
    "diagonalize": cmd_diagonalize,
    "connections": cmd_connections,
    "curvature": cmd_curvature,
    "trajectory": cmd_trajectory,
    "verify": cmd_verify,
    "bracket-check": cmd_bracket_check,
}


# Built once, at import: each `parse_args` call reads only its own argv into
# a fresh namespace, so no call leaves state behind for the next.
_PARSER = argparse.ArgumentParser(
    prog="semiband",
    description="Block-diagonal band energies, Berry data and ray tracing "
                "for matrix-valued Hamiltonians.",
)
_PARSER.add_argument("--config", help="JSON configuration file")
_PARSER.add_argument("--order", type=int, help="expansion order (0, 1, 2)")
_PARSER.add_argument("--hbar", type=float, help="value of hbar")
_PARSER.add_argument("--seed", type=int, help="random seed")
_PARSER.add_argument("--out", default="semiband_out", help="output directory")
_PARSER.add_argument("--suite", help="verification suite name (verify)")
_PARSER.add_argument("--jobs", type=int, default=1,
                     help="accepted for compatibility; points always run "
                          "in order, in chunks, in one thread")
_PARSER.add_argument("command", choices=list(_COMMANDS))


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, ValueError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
