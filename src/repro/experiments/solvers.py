"""Cell execution: map a (scenario, cell) pair onto the repro solvers.

This module is the bridge between the declarative spec layer and the actual
models of the repository.  Given one :class:`~repro.experiments.spec.Cell`
it builds the workload the cell describes and evaluates it with the cell's
solver, returning a :class:`~repro.experiments.results.CellResult` whose
``metrics`` follow one shared schema:

======================  =====================================================
metric                  produced by
======================  =====================================================
``throughput``          ctmc, mva, simulation, testbed, fitted_map, fitted_mva
``front_utilization``   ctmc, mva, simulation, testbed, fitted_map, fitted_mva
``db_utilization``      ctmc, mva, simulation, testbed, fitted_map, fitted_mva
``response_time``       ctmc, mva, fitted_map, fitted_mva (mean, excl. think)
``mean_response_time``  testbed, mtrace1
``*_queue_length``      ctmc, mva, simulation
``throughput_lower``    bounds (balanced-job lower bound)
``throughput_upper``    bounds (asymptotic/balanced upper bound)
``p95_response_time``   mtrace1
======================  =====================================================

Expensive shared inputs (monitoring runs for fitted models, the Figure-1
trace set) are memoised per process, so a multiprocessing worker pays for
them once however many cells it executes.

Simulation backends
-------------------
``simulation`` cells run on one of two kernels (recorded in
``result.meta["sim_backend"]``): the scalar event loop (``event``, the
default) or the vectorized batched-replication kernel
(:mod:`repro.simulation.batched`, requested with ``{"sim_backend":
"batched"}`` in the solver options).  The effective backend is a function of
the *spec alone* (:func:`simulation_backend`): a batched request falls back
to the scalar kernel when the scenario declares a single replication, so a
cell computes identical values whether it is executed alone, in a fresh
batch, or in the re-batched remainder of a resumed run.
:func:`simulation_batch_groups` is how the runner partitions pending cells
into whole-grid-point batches for :func:`execute_simulation_group`.
"""

from __future__ import annotations

import resource
import sys
import time
from functools import lru_cache

import numpy as np

from repro.experiments.results import CellResult
from repro.experiments.spec import (
    Cell,
    ScenarioSpec,
    SyntheticWorkload,
    TestbedWorkload,
    TimeVaryingWorkload,
    TraceWorkload,
)
from repro.simulation.batched import SIM_BACKENDS

__all__ = [
    "execute_cell",
    "execute_simulation_group",
    "simulation_backend",
    "simulation_batch_groups",
    "warm_shared_inputs",
]

DEFAULT_SIM_HORIZON = 2000.0
DEFAULT_SIM_WARMUP = 200.0


def _peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB.

    ``getrusage`` reports ``ru_maxrss`` in KiB on Linux but in *bytes* on
    macOS (the BSD heritage), so the divisor is platform-dependent — without
    it a Mac run would report memory inflated by 1024x.
    """
    peak = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def execute_cell(spec: ScenarioSpec, cell: Cell) -> CellResult:
    """Run one cell of the scenario grid and return its result (timed).

    Besides the wall-clock time, ``result.meta`` records ``peak_rss_mb`` —
    the executing process's peak resident set *after* the cell ran (a
    high-water mark, so within one worker it is monotone across cells; it
    documents the memory footprint the cell's solver tier required, which is
    what the materialized-vs-matrix-free crossover analysis needs).
    """
    workload = spec.workload
    started = time.perf_counter()
    if isinstance(workload, SyntheticWorkload):
        metrics, artifact, meta = _execute_synthetic(spec, cell)
    elif isinstance(workload, TimeVaryingWorkload):
        metrics, artifact, meta = _execute_timevarying(spec, cell)
    elif isinstance(workload, TestbedWorkload):
        metrics, artifact, meta = _execute_testbed(workload, cell)
    elif isinstance(workload, TraceWorkload):
        metrics, artifact, meta = _execute_trace(workload, cell)
    else:  # pragma: no cover - spec validation prevents this
        raise TypeError(f"unsupported workload type {type(workload)!r}")
    elapsed = time.perf_counter() - started
    meta = dict(meta)
    meta["peak_rss_mb"] = round(_peak_rss_mb(), 1)
    return CellResult(
        solver=cell.solver_label,
        kind=cell.solver_kind,
        params=dict(cell.params),
        replication=cell.replication,
        seed=cell.seed,
        metrics={key: float(value) for key, value in metrics.items()},
        elapsed_seconds=elapsed,
        artifact=artifact,
        meta=meta,
    )


def warm_shared_inputs(spec: ScenarioSpec, cells: list[Cell]) -> None:
    """Precompute the expensive memoised inputs in the calling process.

    The runner invokes this before forking its worker pool: the warmed
    ``lru_cache`` entries (fitted models, the Figure-1 trace set) are then
    inherited copy-on-write by every worker, so e.g. the 800-simulated-second
    monitoring run behind a fitted model executes once per scenario rather
    than once per worker.
    """
    workload = spec.workload
    if isinstance(workload, TestbedWorkload) and workload.estimation is not None:
        for cell in cells:
            if cell.solver_kind in ("fitted_map", "fitted_mva"):
                _fitted_model(**_fitted_model_args(workload, cell))
    elif isinstance(workload, TraceWorkload):
        _figure1_traces(workload.trace_size, workload.trace_seed)


def _fitted_model_args(workload: TestbedWorkload, cell: Cell) -> dict:
    """Canonical `_fitted_model` arguments (= its cache key) for one cell.

    Shared by cell execution and the pre-fork cache warm-up: both must
    resolve solver options identically or the warmed cache entry is missed
    and every worker silently re-runs the monitoring experiment.
    """
    estimation = workload.estimation
    if estimation is None:
        raise ValueError(
            f"scenario uses solver {cell.solver_kind!r} but its testbed workload "
            "declares no estimation run"
        )
    return dict(
        mix_name=str(cell.params["mix"]),
        num_ebs=estimation.num_ebs,
        think_time=float(cell.options.get("estimation_think_time", estimation.think_time)),
        duration=float(cell.options.get("estimation_duration", estimation.duration)),
        warmup=estimation.warmup,
        seed=estimation.seed,
        model_think_time=workload.think_time,
    )


# ----------------------------------------------------------------------
# Synthetic closed MAP network
# ----------------------------------------------------------------------
def simulation_backend(spec: ScenarioSpec, cell: Cell) -> str:
    """Effective simulation backend of one cell — a function of the spec.

    The ``sim_backend`` solver option requests a kernel; ``batched`` falls
    back to the scalar event loop when the scenario declares a single
    replication (there is nothing to batch, and the scalar kernel is the
    cheaper path for one stream).  The decision must depend only on the spec
    — never on how many cells happen to execute together — so that a cell
    resumed from a partial cache entry reproduces its original values.
    """
    backend = str(cell.options.get("sim_backend", "event"))
    if backend not in SIM_BACKENDS:
        raise ValueError(
            f"unknown sim_backend {backend!r}; expected one of {SIM_BACKENDS}"
        )
    if backend == "batched" and spec.replication.replications < 2:
        return "event"
    return backend


def simulation_batch_groups(
    spec: ScenarioSpec, cells: list[Cell]
) -> tuple[list[list[Cell]], list[Cell]]:
    """Partition cells into batched-simulation groups and the remainder.

    A group is every pending replication of one ``(solver label, grid
    point)`` whose effective backend is ``batched``; the runner hands each
    group to :func:`execute_simulation_group` as one work unit.  Group size
    does not matter for the results (the kernel is batch-composition
    independent), only for how well one kernel call amortises.
    """
    if not isinstance(spec.workload, (SyntheticWorkload, TimeVaryingWorkload)):
        return [], list(cells)
    groups: dict[tuple, list[Cell]] = {}
    rest: list[Cell] = []
    for cell in cells:
        if (
            cell.solver_kind == "simulation"
            and simulation_backend(spec, cell) == "batched"
        ):
            key = (cell.solver_label, tuple(sorted(
                (name, repr(value)) for name, value in cell.params.items()
            )))
            groups.setdefault(key, []).append(cell)
        else:
            rest.append(cell)
    return list(groups.values()), rest


def _synthetic_network(workload: SyntheticWorkload, cell: Cell):
    """The (front MAP, db MAP, think time, population) a cell describes."""
    from repro.maps.map2 import map2_from_moments_and_decay

    front = workload.front.build()
    db = map2_from_moments_and_decay(
        workload.db_mean, float(cell.params["db_scv"]), float(cell.params["db_decay"])
    )
    return front, db, workload.think_time, int(cell.params["population"])


def _simulation_metrics(result) -> dict:
    return {
        "throughput": result.throughput,
        "front_utilization": result.front_utilization,
        "db_utilization": result.db_utilization,
        "front_queue_length": result.front_queue_length,
        "db_queue_length": result.db_queue_length,
        "completed": result.completed,
        "measured_time": result.measured_time,
        "events": result.events,
    }


def execute_simulation_group(
    spec: ScenarioSpec, cells: list[Cell]
) -> list[tuple[str, CellResult]]:
    """Run every replication of one simulation grid point in one kernel call.

    All cells must share their solver label and grid parameters (the runner's
    :func:`simulation_batch_groups` guarantees it); their seeds become the
    batched kernel's per-replication seeds, so each returned row is
    bit-identical to executing its cell alone.  The kernel's wall-clock time
    is split evenly across the rows (``elapsed_seconds``), with the whole
    batch's cost and size recorded in ``meta`` (``sim_batch_seconds``,
    ``sim_batch_size``).
    """
    from repro.simulation.batched import simulate_closed_map_network_batch
    from repro.simulation.timevarying import simulate_timevarying_closed_map_network_batch

    if not cells:
        return []
    workload = spec.workload
    if not isinstance(workload, (SyntheticWorkload, TimeVaryingWorkload)):
        raise ValueError("batched simulation requires a synthetic or timevarying workload")
    first = cells[0]
    if any(
        cell.params != first.params or cell.solver_label != first.solver_label
        for cell in cells
    ):
        raise ValueError("a simulation batch must share one grid point and solver")
    started = time.perf_counter()
    if isinstance(workload, TimeVaryingWorkload):
        results = simulate_timevarying_closed_map_network_batch(
            workload.resolved_segments(),
            warmup=float(first.options.get("warmup", 0.0)),
            seeds=[cell.seed for cell in cells],
        )
        artifacts = [_timevarying_sim_artifact(result) for result in results]
    else:
        front, db, think, population = _synthetic_network(workload, first)
        horizon = float(first.options.get("horizon", DEFAULT_SIM_HORIZON))
        warmup = float(first.options.get("warmup", DEFAULT_SIM_WARMUP))
        results = simulate_closed_map_network_batch(
            front,
            db,
            think,
            population,
            horizon=horizon,
            warmup=warmup,
            seeds=[cell.seed for cell in cells],
        )
        artifacts = [None] * len(results)
    elapsed = time.perf_counter() - started
    share = elapsed / len(cells)
    peak_rss = round(_peak_rss_mb(), 1)
    rows = []
    for cell, result, artifact in zip(cells, results, artifacts):
        rows.append((
            cell.key,
            CellResult(
                solver=cell.solver_label,
                kind=cell.solver_kind,
                params=dict(cell.params),
                replication=cell.replication,
                seed=cell.seed,
                metrics={k: float(v) for k, v in _simulation_metrics(result).items()},
                elapsed_seconds=share,
                artifact=artifact,
                meta={
                    "sim_backend": "batched",
                    "sim_batch_size": len(cells),
                    "sim_batch_seconds": elapsed,
                    "peak_rss_mb": peak_rss,
                },
            ),
        ))
    return rows


def _execute_synthetic(spec: ScenarioSpec, cell: Cell):
    from repro.queueing.bounds import asymptotic_throughput_bounds, balanced_job_bounds
    from repro.queueing.map_network import MapClosedNetworkSolver
    from repro.queueing.mva import mva_closed_network
    from repro.simulation.batched import simulate_closed_map_network_batch
    from repro.simulation.closed_network import simulate_closed_map_network

    workload = spec.workload
    front, db, think, population = _synthetic_network(workload, cell)

    if cell.solver_kind == "ctmc":
        # The ``tier`` option forces a steady-state solver tier (``direct``,
        # ``ilu_krylov``, ``matrix_free``); default is size-based selection.
        tier = cell.options.get("tier")
        result = MapClosedNetworkSolver(front, db, think).solve(
            population, tier=tier if tier is None else str(tier)
        )
        meta: dict = {"solver_tier": result.solver_tier}
        if result.krylov_iterations is not None:
            meta["krylov_iterations"] = int(result.krylov_iterations)
        if result.precond_setup_seconds is not None:
            meta["precond_setup_seconds"] = round(result.precond_setup_seconds, 3)
        if result.solver_attempts:
            meta["solver_attempts"] = [dict(a) for a in result.solver_attempts]
        return (
            {
                "throughput": result.throughput,
                "response_time": result.response_time,
                "front_utilization": result.front_utilization,
                "db_utilization": result.db_utilization,
                "front_queue_length": result.front_queue_length,
                "db_queue_length": result.db_queue_length,
                "num_states": result.num_states,
            },
            None,
            meta,
        )
    if cell.solver_kind == "mva":
        demands = [front.mean(), workload.db_mean]
        result = mva_closed_network(demands, think, population)
        utilization = result.utilization_at(population)
        queues = result.queue_length_at(population)
        return (
            {
                "throughput": result.throughput_at(population),
                "response_time": result.system_response_time(population),
                "front_utilization": float(utilization[0]),
                "db_utilization": float(utilization[1]),
                "front_queue_length": float(queues[0]),
                "db_queue_length": float(queues[1]),
            },
            None,
            {},
        )
    if cell.solver_kind == "bounds":
        demands = [front.mean(), workload.db_mean]
        asymptotic = asymptotic_throughput_bounds(demands, think, population)
        balanced = balanced_job_bounds(demands, think, population)
        return (
            {
                "throughput_lower": max(asymptotic.lower, balanced.lower),
                "throughput_upper": min(asymptotic.upper, balanced.upper),
            },
            None,
            {},
        )
    if cell.solver_kind == "simulation":
        horizon = float(cell.options.get("horizon", DEFAULT_SIM_HORIZON))
        warmup = float(cell.options.get("warmup", DEFAULT_SIM_WARMUP))
        backend = simulation_backend(spec, cell)
        if backend == "batched":
            # A batch of one: same kernel and same per-replication stream as
            # when the runner groups this cell with its sibling replications,
            # so results agree across every execution path.
            result = simulate_closed_map_network_batch(
                front, db, think, population,
                horizon=horizon, warmup=warmup, seeds=[cell.seed],
            )[0]
        else:
            result = simulate_closed_map_network(
                front,
                db,
                think,
                population,
                horizon=horizon,
                warmup=warmup,
                rng=np.random.default_rng(cell.seed),
            )
        return _simulation_metrics(result), None, {"sim_backend": backend}
    raise ValueError(
        f"solver {cell.solver_kind!r} is not applicable to synthetic workloads"
    )


# ----------------------------------------------------------------------
# Time-varying closed MAP network
# ----------------------------------------------------------------------
def _timevarying_sim_artifact(result) -> dict:
    """Per-segment simulation estimates as a JSON artifact."""
    return {
        "segments": [
            {
                "label": segment.label,
                "start": segment.start,
                "end": segment.end,
                "population": segment.population,
                "throughput": segment.throughput,
                "front_utilization": segment.front_utilization,
                "db_utilization": segment.db_utilization,
                "front_queue_length": segment.front_queue_length,
                "db_queue_length": segment.db_queue_length,
                "completed": segment.completed,
                "measured_time": segment.measured_time,
            }
            for segment in result.segments
        ]
    }


def _execute_timevarying(spec: ScenarioSpec, cell: Cell):
    from repro.queueing.transient import (
        solve_piecewise_stationary,
        solve_piecewise_transient,
    )
    from repro.simulation.timevarying import (
        simulate_timevarying_closed_map_network,
        simulate_timevarying_closed_map_network_batch,
    )

    workload = spec.workload
    segments = workload.resolved_segments()
    horizon = workload.horizon

    if cell.solver_kind == "piecewise_ctmc":
        tier = cell.options.get("tier")
        results = solve_piecewise_stationary(
            segments, tier=tier if tier is None else str(tier)
        )
        metrics = {
            key: sum(
                (segment.duration / horizon) * getattr(result, key)
                for segment, result in zip(segments, results)
            )
            for key in (
                "throughput",
                "front_utilization",
                "db_utilization",
                "front_queue_length",
                "db_queue_length",
            )
        }
        clock = 0.0
        rows = []
        for segment, result in zip(segments, results):
            rows.append({
                "label": segment.label,
                "start": clock,
                "end": clock + segment.duration,
                "population": segment.population,
                **{k: float(v) for k, v in result.summary().items()},
                "solver_tier": result.solver_tier,
            })
            clock += segment.duration
        tiers = ",".join(sorted({result.solver_tier for result in results}))
        return metrics, {"segments": rows}, {"solver_tier": tiers}

    if cell.solver_kind == "transient_ctmc":
        tol = float(cell.options.get("tol", 1e-10))
        solution = solve_piecewise_transient(segments, tol=tol)
        rows = []
        for segment_result in solution.segments:
            rows.append({
                "label": segment_result.label,
                "start": segment_result.start,
                "end": segment_result.end,
                "average": {k: float(v) for k, v in segment_result.average.summary().items()},
                "final": {k: float(v) for k, v in segment_result.final.summary().items()},
            })
        return solution.overall(), {"segments": rows}, {}

    if cell.solver_kind == "simulation":
        warmup = float(cell.options.get("warmup", 0.0))
        backend = simulation_backend(spec, cell)
        if backend == "batched":
            # A batch of one: same per-replication stream as when the runner
            # groups this cell with its sibling replications.
            result = simulate_timevarying_closed_map_network_batch(
                segments, warmup=warmup, seeds=[cell.seed]
            )[0]
        else:
            result = simulate_timevarying_closed_map_network(
                segments, warmup=warmup, rng=np.random.default_rng(cell.seed)
            )
        return (
            _simulation_metrics(result),
            _timevarying_sim_artifact(result),
            {"sim_backend": backend},
        )

    raise ValueError(
        f"solver {cell.solver_kind!r} is not applicable to time-varying workloads"
    )


# ----------------------------------------------------------------------
# Simulated TPC-W testbed
# ----------------------------------------------------------------------
def _execute_testbed(workload: TestbedWorkload, cell: Cell):
    from repro.tpcw.mixes import STANDARD_MIXES
    from repro.tpcw.testbed import TestbedConfig, TPCWTestbed

    mix_name = str(cell.params["mix"])
    population = int(cell.params["population"])

    if cell.solver_kind == "testbed":
        config = TestbedConfig(
            mix=STANDARD_MIXES[mix_name],
            num_ebs=population,
            think_time=workload.think_time,
            duration=workload.duration,
            warmup=workload.warmup,
            seed=cell.seed,
        )
        result = TPCWTestbed(config).run()
        return (
            {
                "throughput": result.throughput,
                "front_utilization": result.front_utilization,
                "db_utilization": result.db_utilization,
                "mean_response_time": result.mean_response_time,
                "completed": result.completed_transactions,
            },
            result,
            {},
        )

    if cell.solver_kind in ("fitted_map", "fitted_mva"):
        model = _fitted_model(**_fitted_model_args(workload, cell))
        if cell.solver_kind == "fitted_map":
            prediction = model.predict(population)
            return (
                {
                    "throughput": prediction.throughput,
                    "response_time": prediction.response_time,
                    "front_utilization": prediction.front_utilization,
                    "db_utilization": prediction.db_utilization,
                    "front_index_of_dispersion": model.front.index_of_dispersion,
                    "db_index_of_dispersion": model.database.index_of_dispersion,
                },
                None,
                {},
            )
        mva = model.mva_baseline(population)
        utilization = mva.utilization_at(population)
        return (
            {
                "throughput": mva.throughput_at(population),
                "response_time": mva.system_response_time(population),
                "front_utilization": float(utilization[0]),
                "db_utilization": float(utilization[1]),
            },
            None,
            {},
        )
    raise ValueError(f"solver {cell.solver_kind!r} is not applicable to testbed workloads")


@lru_cache(maxsize=16)
def _fitted_model(
    mix_name: str,
    num_ebs: int,
    think_time: float,
    duration: float,
    warmup: float,
    seed: int,
    model_think_time: float,
):
    """Monitoring run + model fit, memoised per process."""
    from repro.tpcw.experiment import build_model_from_testbed, collect_monitoring_dataset
    from repro.tpcw.mixes import STANDARD_MIXES

    dataset = collect_monitoring_dataset(
        STANDARD_MIXES[mix_name],
        num_ebs=num_ebs,
        think_time=think_time,
        duration=duration,
        warmup=warmup,
        seed=seed,
    )
    return build_model_from_testbed(dataset, model_think_time=model_think_time)


# ----------------------------------------------------------------------
# Trace-driven open queue (Table 1)
# ----------------------------------------------------------------------
def _execute_trace(workload: TraceWorkload, cell: Cell):
    from repro.simulation.trace_queue import simulate_mtrace1

    if cell.solver_kind != "mtrace1":
        raise ValueError(f"solver {cell.solver_kind!r} is not applicable to trace workloads")
    trace = _figure1_trace(workload.trace_size, workload.trace_seed, str(cell.params["trace"]))
    utilization = float(cell.params["utilization"])
    result = simulate_mtrace1(
        trace.samples, utilization, rng=np.random.default_rng(cell.seed)
    )
    # Artifact: the per-request distributions behind Table 1, so percentiles
    # beyond the tabulated p95 can be recomputed from a cache-served run.
    artifact = {
        "response_times": result.response_times,
        "waiting_times": result.waiting_times,
    }
    return (
        {
            "mean_response_time": result.mean_response_time,
            "p95_response_time": result.response_time_percentile(0.95),
            "trace_index_of_dispersion": trace.index_of_dispersion,
            "trace_mean": trace.mean,
            "trace_scv": trace.scv,
            "trace_p95": trace.percentile(0.95),
        },
        artifact,
        {},
    )


@lru_cache(maxsize=4)
def _figure1_traces(size: int, seed: int):
    from repro.traces import figure1_traces

    return figure1_traces(size=size, rng=np.random.default_rng(seed))


def _figure1_trace(size: int, seed: int, label: str):
    traces = _figure1_traces(size, seed)
    if label not in traces:
        raise ValueError(f"unknown Figure-1 trace {label!r}; available: {sorted(traces)}")
    return traces[label]
