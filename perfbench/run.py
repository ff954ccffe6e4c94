"""End-to-end benchmark of the burstiness capacity-planning pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload paper_pipeline --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of one workload (see
``workloads.py``) with no instrumentation.  ``--trace 1`` instead runs the
workload twice in fresh processes, serially and in-process — once plain,
once with timing wrappers around each layer's entry points (``layers.py``) —
checks that both runs agree on every deterministic count, and reports the
per-layer metrics plus the tracing overhead.

Output: a human summary table, then, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The full
record (every metric, every check, the samples and the environment) is
written to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Gated end-to-end metrics (``--trace 0``), every workload.
END_TO_END = {
    "cold_s": "s",
    "replay_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Reported with every ``--trace 0`` run where they apply, but not gated: the
#: gated set must be defined on every workload.
EXTRA_UNITS = {
    "failed_frac": "fraction",
    "map_err_pct": "%",
    "sim_err_pct": "%",
    "cycle_p50_ms": "ms",
    "cycle_p95_ms": "ms",
    "cycle_samples": "count",
    "events_per_s": "1/s",
    "stage_ok": "count",
    "stage_failed": "count",
    "stage_retried": "count",
    "rounds": "count",
    "plain_wall_s": "s",
    "traced_wall_s": "s",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "tpcw.run_calls": "count",
    "tpcw.run_s": "s",
    "tpcw.self_s": "s",
    "tpcw.transactions": "count",
    "tpcw.tx_per_s": "1/s",
    "monitoring.record_calls": "count",
    "monitoring.record_s": "s",
    "monitoring.series_s": "s",
    "core.dispersion_calls": "count",
    "core.dispersion_s": "s",
    "core.fit_calls": "count",
    "core.fit_s": "s",
    "core.map_err_pct": "%",
    "queueing.solve_calls": "count",
    "queueing.solve_s": "s",
    "queueing.states": "count",
    "queueing.krylov_iterations": "count",
    "queueing.precond_setup_s": "s",
    "queueing.mva_s": "s",
    "simulation.batch_calls": "count",
    "simulation.batch_s": "s",
    "simulation.events": "count",
    "simulation.events_per_s": "1/s",
    "simulation.mtrace1_s": "s",
    "simulation.sim_err_pct": "%",
    "experiments.cells_attempted": "count",
    "experiments.cells_computed": "count",
    "experiments.cells_cached": "count",
    "experiments.cells_failed": "count",
    "experiments.artifact_bytes": "B",
    "experiments.cache_read_s": "s",
    "experiments.import_s": "s",
    "service.cycles": "count",
    "service.cycle_s": "s",
    "service.stage_ok": "count",
    "service.stage_failed": "count",
    "service.stage_retried": "count",
    "service.cycle_p50_ms": "ms",
    "service.cycle_p95_ms": "ms",
    "service.events_per_s": "1/s",
    "trace_overhead_pct": "%",
}

#: Tracer keys reported under another name.
_RENAMED = {"tpcw.self_s": "tpcw.run_self_s", "service.cycles": "service.cycle_calls"}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def environment(ctx: workloads.Context, args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "jobs": ctx.jobs,
        "threads": {
            name: os.environ.get(name, "unset")
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        }
        | {"REPRO_SOLVER_THREADS": "default (1)"},
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ----------------------------------------------------------------------
# --trace 0: end-to-end
# ----------------------------------------------------------------------
def measure(ctx: workloads.Context, workload: str, seconds: float) -> dict:
    if workload == "service_stream":
        run = workloads.measure_service(ctx, seconds)
        rounds = run["rounds"]
        checks, extra = workloads.check_service(rounds)
        extra.update(workloads.service_summary(rounds))
        attempted = extra["stage_ok"] + extra["stage_failed"]
        failed = extra["stage_failed"]
    else:
        size = ctx.sizes[workload]
        packs, check = workloads.cli_inputs(workload, ctx.seed, size)
        run = workloads.measure_cli_workload(ctx, packs, seconds)
        rounds = run["rounds"]
        checks, extra = check(rounds[0]["cold"], [r["replay"] for r in rounds], size)
        colds = [result for r in rounds for result in r["cold"].values()]
        attempted = sum(1 if c is None else c["meta"]["cells_total"] for c in colds)
        failed = sum(1 if c is None else c["meta"].get("cells_failed", 0) for c in colds)
    replays = [seconds for r in rounds for seconds in r["replays"]]
    metrics = {
        "cold_s": _median(r["cold_s"] for r in rounds),
        "replay_s": _median(replays),
        "setup_s": _median(run["setup_s"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    extra["rounds"] = len(rounds)
    samples = {
        "cold_s": [r["cold_s"] for r in rounds],
        "replay_s": replays,
        "setup_s": run["setup_s"],
    }
    if any(math.isnan(v) for v in run["setup_s"]):
        checks.append(("setup.exit_0", False, "a set-up invocation failed"))
    return _outcome(metrics, END_TO_END, extra, checks, attempted, failed, samples)


# ----------------------------------------------------------------------
# --trace 1: per-layer
# ----------------------------------------------------------------------
def _child(ctx: workloads.Context, args, mode: str) -> dict:
    out = ctx.workdir / f"{mode}.json"
    command = [
        sys.executable, str(HERE / "layers.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--mode", mode,
        "--root", str(ctx.root), "--workdir", str(ctx.workdir / mode), "--out", str(out),
    ]
    subprocess.run(command, cwd=ctx.root, env=ctx.env, check=True, timeout=85,
                   stdout=subprocess.DEVNULL)
    return json.loads(out.read_text(encoding="utf-8"))


def trace(ctx: workloads.Context, args) -> dict:
    plain = _child(ctx, args, "plain")
    traced = _child(ctx, args, "traced")
    values = traced["values"]
    checks = [tuple(c) for c in plain["checks"]]
    checks += [(f"traced.{name}", ok, detail) for name, ok, detail in traced["checks"]]
    # Instrumentation must not change what the program computes...
    for key, value in plain["counts"].items():
        checks.append((f"trace.same_{key}", traced["counts"][key] == value,
                       "plain vs traced run"))
    # ...and must see every call the program's own results account for.
    counts = traced["counts"]
    if args.workload != "service_stream":
        checks.append(("trace.sees_cells",
                       values.get("experiments.cells_computed", 0) == counts["cells_computed"],
                       "wrapper vs run meta"))
        checks.append(("trace.sees_transactions",
                       values.get("tpcw.transactions", 0)
                       == counts["testbed_transactions"]
                       + values.get("tpcw.estimation_transactions", 0),
                       "wrapper vs testbed rows + estimation runs"))
        checks.append(("trace.sees_events",
                       values.get("simulation.events", 0) == counts["simulation_events"],
                       "wrapper vs simulation rows"))
    if args.workload == "model_grid":
        checks.append(("trace.sees_krylov",
                       values.get("queueing.krylov_iterations", 0)
                       == counts["ctmc_krylov_iterations"],
                       "wrapper vs ctmc rows"))
    if args.workload == "service_stream":
        checks.append(("trace.sees_stage_workers",
                       values.get("queueing.solve_calls", 0) > 0,
                       "solve calls counted inside forked stage workers"))

    metrics = {name: float(values.get(_RENAMED.get(name, name), 0)) for name in PER_LAYER}
    metrics["tpcw.tx_per_s"] = _rate(values, "tpcw.transactions", "tpcw.run_s")
    metrics["simulation.events_per_s"] = _rate(values, "simulation.events", "simulation.batch_s")
    metrics["experiments.import_s"] = plain["import_s"]
    metrics["core.map_err_pct"] = plain["extra"].get("map_err_pct", 0.0)
    metrics["simulation.sim_err_pct"] = plain["extra"].get("sim_err_pct", 0.0)
    if args.workload == "service_stream":
        for key in ("stage_ok", "stage_failed", "stage_retried", "cycle_p50_ms",
                    "cycle_p95_ms", "events_per_s"):
            metrics[f"service.{key}"] = float(plain["extra"][key])
    metrics["trace_overhead_pct"] = 100 * (traced["wall_s"] / plain["wall_s"] - 1)
    extra = {"plain_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"]}
    return _outcome(metrics, PER_LAYER, extra, checks, 0, 0,
                    {"traced_values": values, "counts": plain["counts"]})


def _rate(values: dict, count: str, seconds: str) -> float:
    return values.get(count, 0) / values[seconds] if values.get(seconds) else 0.0


# ----------------------------------------------------------------------
def _outcome(metrics, units, extra, checks, attempted, failed, samples) -> dict:
    checks_failed = sum(1 for _, ok, _ in checks if not ok)
    attempted += len(checks)
    failed += checks_failed
    extra = {"failed_frac": failed / attempted, **extra}
    return {
        "correct": failed == 0 and all(math.isfinite(v) for v in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "extra": {
            name: {"value": value, "unit": EXTRA_UNITS[name]}
            for name, value in extra.items()
        },
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        "samples": samples,
    }


def summary(outcome: dict, args) -> str:
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}"]
    rows = [(name, m["value"], m["unit"], "gated" if args.trace == 0 else "layer")
            for name, m in outcome["metrics"].items()]
    rows += [(name, m["value"], m["unit"], "info") for name, m in outcome["extra"].items()]
    width = max(len(r[0]) for r in rows)
    lines += [f"  {name:<{width}}  {value:>14.6g}  {unit:<8}  {kind}"
              for name, value, unit, kind in rows]
    bad = [c for c in outcome["checks"] if not c["ok"]]
    lines.append(f"  checks: {len(outcome['checks']) - len(bad)}/{len(outcome['checks'])} passed")
    lines += [f"  FAILED {c['name']}: {c['detail']}" for c in bad]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end and per-layer benchmark.")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    if not (root / "src" / "repro" / "experiments" / "cli.py").is_file():
        print(f"error: {root} holds no program source (src/repro)", file=sys.stderr)
        return 2
    out = root / ".perfbench_out"
    ctx = workloads.Context(
        root=root,
        workdir=out / f"work-{args.workload}-{args.seed}-{os.getpid()}",
        seed=args.seed,
        size=args.size,
        jobs=min(2, os.cpu_count() or 1),
    )
    ctx.workdir.mkdir(parents=True)
    workloads.use_program(root)
    # Turn SIGTERM into an exception, so the running CLI and the work
    # directory are cleaned up on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.trace:
            outcome = trace(ctx, args)
        else:
            outcome = measure(ctx, args.workload, args.seconds)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    outcome["environment"] = environment(ctx, args)
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}"
    table = summary(outcome, args)
    (results / f"{stem}.json").write_text(json.dumps(outcome, indent=2, default=str))
    (results / f"{stem}.txt").write_text(table + "\n")
    print(table)
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
