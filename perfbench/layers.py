"""Per-layer breakdown: one workload, serial and in-process, with timing wrappers.

The wrappers sit on the names callers actually look up — a module attribute
that another module bound at import (``repro.core.model_builder.
estimate_index_of_dispersion``), or a class attribute for methods — and never
inside ``src/``.  Each wrapper counts calls, accumulates wall time and
subtracts the time of nested wrapped calls to give a self time.  The service
runs its stages in forked workers; their wrappers write their counters to
files that the parent merges.

Run as a script, this module executes one workload in a fresh process and
writes a JSON report::

    python3 perfbench/layers.py --workload model_grid --seed 1 \
        --mode traced --workdir DIR --out report.json

``--mode plain`` runs the same work with no wrappers; the benchmark compares
the two (deterministic counts must agree, and the wall-time ratio is the
tracing overhead).
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


class Tracer:
    """Counters and wall times accumulated by wrappers around layer entry points."""

    def __init__(self, dump_dir: Path | None = None) -> None:
        self.values: collections.Counter = collections.Counter()
        self._stack = [0.0]
        self._dump_dir = dump_dir

    def wrap(self, owner, name: str, prefix: str, after=None) -> None:
        """Replace ``owner.name`` by a timed wrapper recording under ``prefix``.

        ``after(values, result)`` adds counts read from the returned result.
        """
        original = getattr(owner, name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack
            stack.append(0.0)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                nested = stack.pop()
                stack[-1] += elapsed
                values = self.values
                values[prefix + "_calls"] += 1
                values[prefix + "_s"] += elapsed
                values[prefix + "_self_s"] += elapsed - nested
            if after is not None:
                after(self.values, result)
            return result

        setattr(owner, name, wrapper)

    def wrap_forked(self, owner, name: str) -> None:
        """Wrap a function that runs in a forked worker: start from zero
        counters there and write them to a file when it returns."""
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            self.values = collections.Counter()
            self._stack = [0.0]
            try:
                return original(*args, **kwargs)
            finally:
                path = self._dump_dir / f"{os.getpid()}-{time.monotonic_ns()}.json"
                path.write_text(json.dumps(self.values), encoding="utf-8")

        setattr(owner, name, wrapper)

    def merge_dumps(self) -> None:
        for path in sorted(self._dump_dir.glob("*.json")):
            self.values.update(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()


def _add(key: str, read):
    def after(values, result):
        values[key] += read(result)

    return after


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points (all workloads share one set)."""
    import repro.core.model_builder as model_builder
    import repro.queueing.mva as mva
    import repro.service.daemon as daemon
    import repro.service.pipeline as pipeline
    import repro.simulation.batched as batched
    import repro.simulation.trace_queue as trace_queue
    import repro.tpcw.experiment as tpcw_experiment
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import ExperimentRunner
    from repro.monitoring.collector import ServerMonitor
    from repro.queueing.map_network import MapClosedNetworkSolver
    from repro.service import WhatIfService
    from repro.tpcw.testbed import TPCWTestbed

    wrap = tracer.wrap
    wrap(TPCWTestbed, "run", "tpcw.run",
         _add("tpcw.transactions", lambda r: r.completed_transactions))
    wrap(tpcw_experiment, "collect_monitoring_dataset", "tpcw.estimation",
         _add("tpcw.estimation_transactions", lambda r: r.completed_transactions))
    for method in ("record_busy", "record_queue_length", "record_completion"):
        wrap(ServerMonitor, method, "monitoring.record")
    wrap(ServerMonitor, "series", "monitoring.series")
    for module in (model_builder, pipeline):
        wrap(module, "estimate_index_of_dispersion", "core.dispersion")
        wrap(module, "fit_map2_from_measurements", "core.fit")
    for module in (model_builder, mva):
        wrap(module, "mva_closed_network", "queueing.mva")

    def solved(values, result):
        values["queueing.states"] += result.num_states
        values["queueing.krylov_iterations"] += result.krylov_iterations or 0
        values["queueing.precond_setup_s"] += result.precond_setup_seconds or 0.0

    wrap(MapClosedNetworkSolver, "solve", "queueing.solve", solved)
    wrap(batched, "simulate_closed_map_network_batch", "simulation.batch",
         _add("simulation.events", lambda results: sum(r.events for r in results)))
    wrap(trace_queue, "simulate_mtrace1", "simulation.mtrace1")

    def ran(values, result):
        meta = result.meta
        values["experiments.cells_attempted"] += meta.get("cells_total", 0)
        values["experiments.cells_computed"] += meta.get("cells_computed", 0)
        values["experiments.cells_cached"] += meta.get("cells_from_cache", 0)
        values["experiments.cells_failed"] += meta.get("cells_failed", 0)
        values["experiments.artifact_bytes"] += meta.get("artifact_bytes_written", 0)

    wrap(ExperimentRunner, "run", "experiments.run", ran)
    wrap(ResultCache, "load", "experiments.cache_read")
    wrap(WhatIfService, "run_cycle", "service.cycle")
    for stage in ("execute_ingest", "execute_fit", "execute_solve"):
        tracer.wrap_forked(daemon, stage)


# ----------------------------------------------------------------------
# One in-process run
# ----------------------------------------------------------------------
def _run_pack(path: Path, cache: Path) -> dict:
    from repro.experiments import ExperimentRunner
    from repro.experiments.packs import load_pack

    result = ExperimentRunner(cache_dir=cache, jobs=1).run(load_pack(path))
    return json.loads(result.to_json())


def output_counts(cold: dict) -> dict:
    """Deterministic counts read from the program's own results."""
    rows = [row for result in cold.values() if result for row in result["rows"]]
    return {
        "cells_computed": sum(r["meta"]["cells_computed"] for r in cold.values() if r),
        "testbed_transactions": sum(
            int(row["metrics"]["completed"]) for row in rows if row["kind"] == "testbed"
        ),
        "ctmc_krylov_iterations": sum(
            row["meta"].get("krylov_iterations", 0) for row in rows if row["kind"] == "ctmc"
        ),
        "simulation_events": sum(
            int(row["metrics"]["events"]) for row in rows if row["kind"] == "simulation"
        ),
    }


def run_workload(ctx: workloads.Context, workload: str) -> dict:
    """Cold + replay of the workload's inputs, serially in this process."""
    if workload == "service_stream":
        rounds = workloads.service_rounds(ctx, seconds=0)
        checks, _ = workloads.check_service(rounds)
        extra = workloads.service_summary(rounds)
        counts = {
            "events": sum(r["events"] for r in rounds),
            "forecast_rows": rounds[0]["forecast_rows"],
            "stage_ok": extra["stage_ok"],
        }
        return {"checks": checks, "extra": extra, "counts": counts}
    size = ctx.sizes[workload]
    packs, check = workloads.cli_inputs(workload, ctx.seed, size)
    paths = workloads.write_packs(packs, ctx.workdir / "packs")
    cache = ctx.workdir / "cache"
    cold = {path.stem: _run_pack(path, cache) for path in paths}
    replay = {path.stem: _run_pack(path, cache) for path in paths}
    checks, extra = check(cold, [replay], size)
    return {"checks": checks, "extra": extra, "counts": output_counts(cold)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--mode", choices=("plain", "traced"), required=True)
    parser.add_argument("--root", type=Path, default=Path.cwd())
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    workloads.use_program(args.root)
    started = time.perf_counter()
    import repro.experiments.cli  # noqa: F401  (what every CLI invocation imports)

    import_s = time.perf_counter() - started
    args.workdir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(root=args.root, workdir=args.workdir, seed=args.seed, size=args.size)
    tracer = None
    if args.mode == "traced":
        dumps = args.workdir / "stage-traces"
        dumps.mkdir()
        tracer = Tracer(dumps)
        install(tracer)
    started = time.perf_counter()
    report = run_workload(ctx, args.workload)
    report["wall_s"] = time.perf_counter() - started
    report["import_s"] = import_s
    if tracer is not None:
        tracer.merge_dumps()
        report["values"] = dict(tracer.values)
    args.out.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
