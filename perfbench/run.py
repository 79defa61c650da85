"""semiband benchmark.

    python3 perfbench/run.py --workload order2-mixed --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; semiband is imported from its src/.
Every run performs the four operations (order-2 energies, curvature points,
order-1 `diagonalize` sweeps and RK4 ray pairs); the workload sets the share
of the measured time each one gets.  `--trace 0` prints the end-to-end
metrics, `--trace 1` the per-layer metrics of a traced run.  Metric names and
units come from BENCHMARK.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# numpy links a multithreaded OpenBLAS; set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 2            # fresh processes; with the run's own set-up, 3 samples

# Share of the measured time per activity.  Each activity also runs at least
# its minimum number of chunks, so every metric has samples of every label.
SHARES = {
    "order2-mixed": {"energy": 0.45, "curvature": 0.35, "sweep": 0.1, "rays": 0.1},
    "sweep-order1": {"energy": 0.1, "curvature": 0.3, "sweep": 0.5, "rays": 0.1},
    "ray-fan": {"energy": 0.1, "curvature": 0.3, "sweep": 0.1, "rays": 0.5},
}


def setup(workdir: Path):
    """Import semiband, build the models and warm every operation once.

    Returns the scaled set-up seconds, the models and the stopped sampler.
    The import runs before the sampler can, so the ticks after it stand in.
    """
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import semiband

    if not Path(semiband.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"semiband imported from {semiband.__file__}, not {SRC}")
    import workloads
    from speed import SpeedSampler

    sampler = SpeedSampler()
    sampler.start()
    built = workloads.build_models()
    workloads.warm_up(built, workdir)
    t1 = perf_counter()
    sampler.stop()
    return (t1 - t0 - sampler.spent) * sampler.scale(t0, t1), built, sampler


def probe_setup(workdir: Path) -> float:
    """Set-up time of a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure(acts: list, shares: dict, seconds: float) -> None:
    """Run chunks, always of the activity furthest behind its share, until
    `seconds` have passed and every activity has its minimum chunks."""
    spent = {a.name: 0.0 for a in acts}
    done = {a.name: 0 for a in acts}
    start = perf_counter()
    while True:
        if perf_counter() - start < seconds:
            act = min(acts, key=lambda a: spent[a.name] / shares[a.name])
        else:
            short = [a for a in acts if done[a.name] < a.min_chunks]
            if not short:
                return
            act = short[0]
        t0 = perf_counter()
        act.step()
        spent[act.name] += perf_counter() - t0
        done[act.name] += 1


def end_to_end(acts: dict, setup_s: float) -> dict:
    p50, p90 = acts["energy"].quantiles_ms()
    return {
        "setup_s": setup_s,
        "energy_o2_evals_per_s": acts["energy"].rate(),
        "energy_o2_ms_p50": p50,
        "energy_o2_ms_p90": p90,
        "curvature_points_per_s": acts["curvature"].rate(),
        "sweep_points_per_s": acts["sweep"].rate(),
        "ray_steps_per_s": acts["rays"].rate(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(sp, acts: dict, untraced: dict) -> dict:
    """Layer metrics from the traced phase's spans.

    Counts and times are averaged per label of an operation kind, then over
    labels with the workload mix's weights, so they do not depend on how many
    operations of each label a time-limited run completed.
    """
    import workloads as w

    o2_w = {f"{c}/{r}": n for c, n in w.ENERGY_MIX.items()
            for r in w.REPRESENTATIONS}
    kinds = {
        "o2": o2_w,
        "curv": {c: 1 for c in w.CONFIGS},
        "sweep": {c: 1 for c in w.SWEEP_CONFIGS},
        "ray": {p: 1 for p in w.RAY_PROFILES},
    }

    def mean(kind, per_op, scale=1.0, weights=None):
        return sp.mean_per_op(per_op, kind, weights or kinds[kind]) * scale

    def o2_of(cfg):
        return {f"{cfg}/{r}": 1 for r in w.REPRESENTATIONS}

    ms, us = 1e3, 1e6
    per_point = us / w.SWEEP_POINTS
    steps = 2 * w.RAY_STEPS
    models_self = sp.layer_self("models", "fields")
    m = {}
    for fn in ("analytic_frame", "analytic_connections", "d_hamiltonian",
               "hamiltonian"):
        m[f"models.{fn}.calls_per_o2_eval"] = mean("o2", sp.calls("models", fn))
    m["models.self_ms_per_o2_eval"] = mean("o2", models_self, ms)
    m["models.analytic_frame.calls_per_curvature_point"] = mean(
        "curv", sp.calls("models", "analytic_frame"))
    m["models.self_us_per_sweep_point"] = mean("sweep", models_self, per_point)

    m["fields.calls_per_ray_step"] = mean(
        "ray", sp.per_op(sp.mask(("fields",))), 1 / steps)
    m["fields.self_us_per_ray_step"] = mean(
        "ray", sp.layer_self("fields"), us / steps)

    for fn in ("classical_frame", "berry_connections"):
        m[f"frames.{fn}.calls_per_o2_eval"] = mean("o2", sp.calls("frames", fn))
    frames_self = sp.layer_self("frames")
    m["frames.self_ms_per_o2_eval"] = mean("o2", frames_self, ms)
    m["frames.self_us_per_sweep_point"] = mean("sweep", frames_self, per_point)

    stencil_calls = sp.calls("stencils", "derivative_along")
    m["stencils.derivative_along.calls_per_o2_eval"] = mean("o2", stencil_calls)
    m["stencils.self_ms_per_o2_eval"] = mean("o2", sp.layer_self("stencils"), ms)
    fallbacks = acts["energy"].fallbacks
    m["stencils.fallbacks_per_o2_eval"] = sum(
        n * statistics.fmean(fallbacks[k]) for k, n in o2_w.items()
    ) / sum(o2_w.values())
    m["stencils.derivative_along.calls_per_curvature_point"] = mean(
        "curv", stencil_calls)
    m["stencils.derivative_along.calls_per_sweep_point"] = mean(
        "sweep", stencil_calls, 1 / w.SWEEP_POINTS)

    def named(layer, short, parent=None):
        return sp.inclusive(sp.mask((layer,), short, parent))

    total = named("energy", "band_energy")
    stages = {
        "frame": named("frames", "classical_frame", "band_energy"),
        "conns0": named("frames", "berry_connections", "band_energy"),
        "conn_grads": named("energy", "connection_component_gradients",
                            "band_energy"),
        "dB": named("stencils", "derivative_along", "corrected_connections"),
        "dW": named("stencils", "derivative_along", "band_energy"),
    }
    stages["assembly"] = total - sum(stages.values())
    for cfg in w.CONFIGS:
        for stage, per_op in stages.items():
            m[f"energy.stage.{stage}_ms.{cfg}"] = mean(
                "o2", per_op, ms, o2_of(cfg))
    m["energy.self_us_per_sweep_point"] = mean(
        "sweep", sp.layer_self("energy"), per_point)

    rhs = sp.mask(("dynamics",), "ray_rhs")
    rhs_calls = sp.per_op(rhs)
    rhs_self = sp.per_op(rhs, sp.self_time)
    # The post-pass also evaluates the initial sample, which is not a step.
    m["dynamics.ray_rhs.calls_per_step"] = mean("ray", rhs_calls - 2, 1 / steps)
    m["dynamics.ray_rhs.self_us_per_call"] = (
        mean("ray", rhs_self) / mean("ray", rhs_calls) * us)
    m["dynamics.integrate_ray.self_us_per_step"] = mean(
        "ray", sp.layer_self("dynamics") - rhs_self, us / steps)
    m["dynamics.covariant_variables.calls_per_curvature_point"] = mean(
        "curv", sp.calls("dynamics", "covariant_variables"))
    m["dynamics.self_ms_per_curvature_point"] = mean(
        "curv", sp.layer_self("dynamics"), ms)

    m["weyl.bracket.calls_per_o2_eval.two_level_z"] = mean(
        "o2", sp.calls("weyl", "bracket"), 1.0, o2_of("two_level_z"))
    m["weyl.self_ms_per_o2_eval.two_level_z"] = mean(
        "o2", sp.layer_self("weyl"), ms, o2_of("two_level_z"))

    m["cli.self_us_per_point"] = mean("sweep", sp.layer_self("cli"), per_point)
    m["cli.output_bytes_per_point"] = acts["sweep"].bytes_per_point()
    m["cli.jobs2_speedup"] = untraced["jobs2_speedup"]

    # Traced over untraced time for each workload's mix of activities.
    slowdown = {name: untraced[name] / acts[name].rate() for name in acts}
    for workload, shares in SHARES.items():
        m[f"trace.overhead_frac.{workload}"] = sum(
            share * slowdown[name] for name, share in shares.items())
    return m


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SHARES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="WORKDIR",
                        help="set up once in this process and print seconds")
    args = parser.parse_args(argv)

    if not (SRC / "semiband" / "__init__.py").is_file():
        print(f"error: no semiband sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        seconds, _built, _sampler = setup(Path(args.setup_only))
        print(repr(seconds))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        own_setup, built, sampler = setup(workdir)
        setups = [own_setup] + [probe_setup(workdir)
                                for _ in range(SETUP_PROBES)]
        import numpy as np
        import workloads
        from tracing import Tracer

        run = workloads.Run(sampler)
        acts = {cls.name: cls(run, np.random.default_rng([args.seed, k]),
                              built, workdir)
                for k, cls in enumerate(workloads.ACTIVITIES)}
        shares = SHARES[args.workload]
        sampler.start()
        try:
            if args.trace:
                # Untraced half first, for the overhead and the --jobs 2 sweeps.
                acts["sweep"].jobs2 = True
                measure(list(acts.values()), shares, args.seconds / 2)
                untraced = {name: a.rate() for name, a in acts.items()}
                untraced["jobs2_speedup"] = acts["sweep"].jobs2_speedup()
                acts["sweep"].jobs2 = False
                for a in acts.values():
                    a.reset()
                tracer = Tracer()
                tracer.install()
                run.tracer = tracer
                measure(list(acts.values()), shares, args.seconds / 2)
                values = per_layer(tracer.spans(sampler), acts, untraced)
                tracer.write(OUT / f"trace_{args.workload}.npz")
            else:
                measure(list(acts.values()), shares, args.seconds)
                values = end_to_end(acts, statistics.median(setups))
        finally:
            sampler.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "src_lines": src_lines(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "setup_samples_s": setups,
        "failed_ops_frac": run.failed / max(run.attempted, 1),
    }
    (OUT / f"samples_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "ops": run.log,
                    "ticks": list(zip(sampler.times, sampler.costs))}))
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
