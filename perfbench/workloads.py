"""The three benchmark workloads: inputs from a seed, measured runs, output checks.

Every workload is built from ``--seed`` alone, so a claim can be re-checked on
a held-out seed.  The program under test only ever sees the generated scenario
packs (``paper_pipeline``, ``model_grid``) or the generated trace records
(``service_stream``).

* ``paper_pipeline`` — the paper's own path through the real CLI: a
  fig4-shaped measured TPC-W sweep, a fig12-shaped sweep adding
  ``fitted_map``/``fitted_mva`` on the same mixes, populations and seed, and
  table1; cold into one fresh cache, then replayed from it.
* ``model_grid`` — a synthetic burstiness x variability x population pack
  solved by ``ctmc``, batched ``simulation``, ``mva`` and ``bounds`` through
  the CLI, cold then replayed.
* ``service_stream`` — :class:`~repro.service.WhatIfService` on a fresh state
  directory, fed by a stepped producer in this process.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("paper_pipeline", "model_grid", "service_stream")

#: Environment variables that would change what the program computes or how;
#: the benchmark runs the program at its defaults.
_PROGRAM_ENV = (
    "REPRO_EXPERIMENTS_CACHE",
    "REPRO_FAULT_INJECT",
    "REPRO_SOLVER_THREADS",
    "REPRO_SOLVER_TIER",
)

#: Input sizes.  ``full`` is what ``BENCHMARK.json`` measures; ``tiny`` runs the
#: same code paths in seconds for the benchmark's own tests.  ``setup_repeats``
#: no-work CLI invocations per run give the median ``setup_s``; ``replays``
#: cache replays (CLI workloads) or restarts (service) per round give the
#: median ``replay_s``.
SIZES = {
    "full": {
        "setup_repeats": 5,
        "replays": 3,
        "paper_pipeline": {
            "mixes": ["browsing", "ordering"],
            "populations": [50, 150],
            "duration": 150.0,
            "warmup": 15.0,
            "estimation_duration": 800.0,
            "trace_size": 20_000,
        },
        "model_grid": {
            "populations": [50, 250],
            "db_scv": [2.0, 8.0],
            "db_decay": [0.5, 0.95],
            "replications": 12,
            "horizon": 100.0,
        },
        "service_stream": {
            "cycles": 20, "windows_per_cycle": 10, "refit_every": 10, "min_samples": 200,
        },
    },
    "tiny": {
        "setup_repeats": 1,
        "replays": 1,
        "paper_pipeline": {
            "mixes": ["ordering"],
            "populations": [50, 150],
            "duration": 150.0,
            "warmup": 15.0,
            "estimation_duration": 800.0,
            "trace_size": 2_000,
        },
        "model_grid": {
            "populations": [3, 6],
            "db_scv": [4.0],
            "db_decay": [0.5],
            "replications": 8,
            "horizon": 200.0,
        },
        "service_stream": {
            "cycles": 20, "windows_per_cycle": 10, "refit_every": 10, "min_samples": 20,
        },
    },
}

#: Service traces: both stations run at the same arrival rate, so one cycle's
#: time slice completes the same windows on both and refits fall on a fixed
#: cycle period.
_SERVICE_STATIONS = {"front": (0.004, 0.4), "db": (0.006, 0.6)}  # mean service, utilization
_SERVICE_TICKS = 1_000_000
#: Far more than one cycle finds: the tailing-daemon case, where the reader's
#: up-front buffer is sized by the budget rather than by the data.
_SERVICE_CHUNK_EVENTS = 1 << 22

#: Figure-12 checks that hold on every seed at these sizes: burstiness never
#: raises the fitted model's throughput above MVA's (up to this slack), and the
#: MAP model's mean throughput error over the grid stays within this band.
#: (A 200 s sweep does not always catch the browsing mix's bottleneck switch,
#: so "MAP beats MVA" per cell is not a stable check here.)
MAP_MVA_SLACK = 0.01
MAP_ERROR_BAND = 0.15
#: Simulation vs CTMC band: the Student-t multiple of the replication
#: standard error that a correct simulator exceeds with this probability per
#: grid point (few replications estimate the standard error poorly, so a
#: fixed multiple would fail at random), plus a relative floor for the finite
#: warm-up.
SIM_BAND_FALSE_ALARM = 1e-5
SIM_BAND_FLOOR = 0.005


@dataclass
class Context:
    """Where and with what a benchmark run works."""

    root: Path  # checkout root, holding src/
    workdir: Path  # scratch directory of this run, inside the checkout
    seed: int
    size: str = "full"
    jobs: int = 1

    @property
    def sizes(self) -> dict:
        return SIZES[self.size]

    @property
    def env(self) -> dict:
        env = {k: v for k, v in os.environ.items() if k not in _PROGRAM_ENV}
        env["PYTHONPATH"] = str(self.root / "src")
        return env


def use_program(root: Path) -> None:
    """Import the program from ``root/src`` at its default settings."""
    for name in _PROGRAM_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(root / "src"))


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _pack(name: str, workload: dict, solvers: list, replication: dict) -> dict:
    return {
        "format": "repro-scenario-pack/1",
        "name": name,
        "description": f"benchmark input {name}",
        "workload": workload,
        "solvers": solvers,
        "replication": replication,
    }


def paper_packs(seed: int, size: dict) -> dict:
    """fig4-shaped sweep, fig12-shaped sweep on the same grid and seed, table1."""
    testbed = {
        "kind": "testbed",
        "mixes": size["mixes"],
        "populations": size["populations"],
        "think_time": 0.5,
        "duration": size["duration"],
        "warmup": size["warmup"],
    }
    shared = {"replications": 1, "base_seed": seed, "policy": "shared"}
    estimation = {
        "num_ebs": 50,
        "think_time": 0.5,
        "duration": size["estimation_duration"],
        "warmup": 60.0,
        "seed": seed + 1,
    }
    return {
        "pp_sweep": _pack("pp_sweep", testbed, [{"kind": "testbed"}], shared),
        "pp_models": _pack(
            "pp_models",
            {**testbed, "estimation": estimation},
            [{"kind": "testbed"}, {"kind": "fitted_map"}, {"kind": "fitted_mva"}],
            shared,
        ),
        "pp_table1": _pack(
            "pp_table1",
            {"kind": "trace", "trace_size": size["trace_size"], "trace_seed": seed + 2},
            [{"kind": "mtrace1"}],
            {"replications": 1, "base_seed": seed + 3, "policy": "per_cell"},
        ),
    }


def model_grid_packs(seed: int, size: dict) -> dict:
    """Burstiness x variability x population, exact vs simulated vs MVA vs bounds."""
    horizon = size["horizon"]
    workload = {
        "kind": "synthetic",
        "front": {"family": "exponential", "mean": 0.02},
        "db_mean": 0.015,
        "db_scv": size["db_scv"],
        "db_decay": size["db_decay"],
        "think_time": 0.5,
        "populations": size["populations"],
    }
    solvers = [
        {"kind": "ctmc"},
        {
            "kind": "simulation",
            "options": {"horizon": horizon, "warmup": horizon / 10, "sim_backend": "batched"},
        },
        {"kind": "mva"},
        {"kind": "bounds"},
    ]
    replication = {"replications": size["replications"], "base_seed": seed, "policy": "per_cell"}
    return {"mg_grid": _pack("mg_grid", workload, solvers, replication)}


def write_packs(packs: dict, directory: Path) -> list:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, payload in packs.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        paths.append(path)
    return paths


def service_batches(ctx: Context) -> dict:
    """Per-cycle record batches of each station, sliced by trace time.

    Cycle ``c`` appends the records that start in windows
    ``[c*K, (c+1)*K)``, so every cycle completes K windows on both stations.
    """
    from repro.service import synthesize_service_trace

    size = ctx.sizes["service_stream"]
    slice_ticks = size["windows_per_cycle"] * _SERVICE_TICKS
    horizon_ticks = size["cycles"] * slice_ticks
    batches = {}
    for offset, (name, (mean, utilization)) in enumerate(_SERVICE_STATIONS.items()):
        path = ctx.workdir / f"source-{name}.trace"
        rate = utilization / mean
        events = int(1.2 * rate * horizon_ticks / _SERVICE_TICKS) + 1000
        synthesize_service_trace(
            path, events=events, mean_service=mean, scv=4.0,
            utilization=utilization, seed=ctx.seed + offset,
        )
        records = np.fromfile(path, dtype="<i8").reshape(-1, 2)
        path.unlink()
        if records[-1, 0] < horizon_ticks:
            raise RuntimeError(f"synthesized {name} trace ends before the last cycle")
        edges = np.searchsorted(records[:, 0], np.arange(size["cycles"] + 1) * slice_ticks)
        batches[name] = [records[a:b] for a, b in zip(edges[:-1], edges[1:])]
    return batches


def service_config(ctx: Context, directory: Path) -> Path:
    """Write the service config (traces next to it) and return its path."""
    size = ctx.sizes["service_stream"]
    refit = size["windows_per_cycle"] * size["refit_every"]
    # Just under a whole refit period, so a window more or less at a slice
    # edge never moves a refit to another cycle.
    refit_windows = refit - size["windows_per_cycle"] // 2
    config = {
        "name": "perfbench",
        "traces": {name: f"{name}.trace" for name in _SERVICE_STATIONS},
        "think_time": 1.0,
        "populations": [1, 4, 16, 32],
        "chunk_events": _SERVICE_CHUNK_EVENTS,
        "max_chunks_per_cycle": 1,
        "refit_windows": refit_windows,
        "fit_horizon_windows": 2 * refit,
        "min_fit_windows": refit_windows,
        "estimator": {"min_windows": 30},
        "stage_timeout_seconds": 60.0,
    }
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "service.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# Running the program
# ----------------------------------------------------------------------
def cli(ctx: Context, *args: str, timeout: float = 170.0) -> tuple:
    """Run the experiment CLI; returns ``(exit code, stdout, seconds)``.

    The CLI gets its own process group, so a timeout, or this process being
    interrupted, also stops the CLI's workers.
    """
    command = [sys.executable, "-m", "repro.experiments", *map(str, args)]
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ctx.workdir, env=ctx.env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except BaseException as error:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        if not isinstance(error, subprocess.TimeoutExpired):
            raise
        return -1, "", time.perf_counter() - started
    return process.returncode, stdout, time.perf_counter() - started


def run_packs_cli(ctx: Context, paths: list, cache: Path) -> tuple:
    """``run --json`` every pack into ``cache``; returns (seconds, {name: result})."""
    results = {}
    total = 0.0
    for path in paths:
        code, stdout, seconds = cli(
            ctx, "run", path, "--jobs", ctx.jobs, "--cache-dir", cache, "--json"
        )
        total += seconds
        results[path.stem] = _parse_result(stdout) if code in (0, 3) else None
    return total, results


def _parse_result(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


def peak_rss_mb(include_self: bool) -> float:
    """Largest resident set of this process's reaped children (and itself)."""
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if include_self:
        peak = max(peak, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak / 1024.0


def _keep_going(started: float, rounds: list, seconds: float, min_rounds: int = 1) -> bool:
    """Rounds start until ``seconds`` have passed (the last one may overrun)
    and at least ``min_rounds`` ran."""
    return len(rounds) < min_rounds or time.perf_counter() - started < seconds


def measure_cli_workload(ctx: Context, packs: dict, seconds: float) -> dict:
    """Set-up, then cold + replay rounds into fresh caches for ``seconds``."""
    paths = write_packs(packs, ctx.workdir / "packs")
    setup = []
    for _ in range(ctx.sizes["setup_repeats"]):
        code, _, elapsed = cli(ctx, "validate", *paths)
        setup.append(elapsed if code == 0 else float("nan"))
    rounds = []
    started = time.perf_counter()
    while _keep_going(started, rounds, seconds):
        cache = ctx.workdir / f"cache-{len(rounds)}"
        cold_s, cold = run_packs_cli(ctx, paths, cache)
        replays = [run_packs_cli(ctx, paths, cache) for _ in range(ctx.sizes["replays"])]
        shutil.rmtree(cache, ignore_errors=True)
        rounds.append({
            "cold_s": cold_s,
            "replays": [seconds for seconds, _ in replays],
            "cold": cold,
            "replay": replays[-1][1],
        })
    return {
        "setup_s": setup,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb(include_self=False),
    }


def service_round(ctx: Context, batches: dict, directory: Path) -> dict:
    """One fresh-state service run: append a batch, run a cycle, repeat.

    Ends with restarts: the service is reopened on its state directory and
    runs one cycle that finds no new records (median: ``replay_s``).
    """
    from repro.service import ServiceConfig, WhatIfService, write_trace_records

    config_path = service_config(ctx, directory)
    config = ServiceConfig.from_json(config_path)
    for path in config.traces.values():
        open(path, "wb").close()
    state = directory / "state"
    latencies = []
    started = time.perf_counter()
    service = WhatIfService.open(config, state)
    for cycle in range(len(batches["front"])):
        for name, path in config.traces.items():
            batch = batches[name][cycle]
            write_trace_records(path, batch[:, 0], batch[:, 1], append=True)
        tick = time.perf_counter()
        service.run_cycle()
        latencies.append(time.perf_counter() - tick)
    cold_s = time.perf_counter() - started
    restarts = []
    for _ in range(ctx.sizes["replays"]):
        tick = time.perf_counter()
        restarted = WhatIfService.open(config, state)
        restarted.run_cycle()
        restarts.append(time.perf_counter() - tick)
    health = json.loads((state / "health.json").read_text(encoding="utf-8"))
    return {
        "cold_s": cold_s,
        "replays": restarts,
        "latencies": latencies,
        "events": service.events_total,
        "status": service.status,
        "serving": service.serving,
        "staleness": service.staleness_windows,
        "restart_status": restarted.status,
        "health": health,
        "forecast_rows": service.last_good.forecast["rows"] if service.last_good else None,
        "windows_match": accumulator_matches_batch(service, batches),
        "config": config_path,
        "state": state,
    }


def accumulator_matches_batch(service, batches: dict) -> bool:
    """The streamed window state equals one batch binning of the same records."""
    from repro.service import bin_trace_windows

    for name, accumulator in service.accumulators.items():
        records = np.concatenate(batches[name])
        windows = accumulator.num_windows
        busy, completions = bin_trace_windows(
            records[:, 0], records[:, 1], accumulator.window_ticks, windows
        )
        snapshot = accumulator.snapshot(0, windows)
        if not (
            np.array_equal(snapshot.busy_ticks, busy)
            and np.array_equal(snapshot.completion_counts, completions)
        ):
            return False
    return True


def service_rounds(ctx: Context, seconds: float) -> list:
    """Fresh-state service rounds for ``seconds``, and at least enough cycles
    that the p95 cycle latency has ten samples beyond it."""
    batches = service_batches(ctx)
    size = ctx.sizes["service_stream"]
    min_rounds = -(-size["min_samples"] // size["cycles"])
    rounds = []
    started = time.perf_counter()
    while _keep_going(started, rounds, seconds, min_rounds):
        rounds.append(service_round(ctx, batches, ctx.workdir / f"round-{len(rounds)}"))
    return rounds


def measure_service(ctx: Context, seconds: float) -> dict:
    rounds = service_rounds(ctx, seconds)
    setup = []
    for _ in range(ctx.sizes["setup_repeats"]):
        code, _, elapsed = cli(
            ctx, "service", "status", rounds[0]["config"], "--state-dir", rounds[0]["state"]
        )
        setup.append(elapsed if code == 0 else float("nan"))
    return {
        "setup_s": setup,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb(include_self=True),
    }


# ----------------------------------------------------------------------
# Output checks: each returns ([(name, ok, detail), ...], {metric: value})
# ----------------------------------------------------------------------
def _rows(result: dict, kind: str) -> list:
    return [row for row in result["rows"] if row["kind"] == kind]


def _cells_ok(name: str, result) -> tuple:
    if result is None:
        return (f"{name}.ran", False, "run failed or printed no result")
    meta = result["meta"]
    return (
        f"{name}.ran",
        not result["failures"] and meta.get("cells_failed", 0) == 0,
        f"{meta.get('cells_computed', 0)} computed, {len(result['failures'])} failed",
    )


def _replays_ok(replays: list) -> list:
    checks = []
    for name in replays[0]:
        computed = [
            None if replay[name] is None else replay[name]["meta"].get("cells_computed")
            for replay in replays
        ]
        checks.append(
            (f"{name}.replay_0_computed", all(c == 0 for c in computed),
             f"computed on replay: {computed}")
        )
    return checks


def check_paper_pipeline(cold: dict, replays: list, size: dict) -> tuple:
    checks = [_cells_ok(name, result) for name, result in cold.items()]
    checks += _replays_ok(replays)
    models = cold.get("pp_models")
    map_errors = []
    if models is not None:
        def by_cell(kind, metric="throughput"):
            return {
                (row["params"]["mix"], row["params"]["population"]): row["metrics"][metric]
                for row in _rows(models, kind)
            }

        measured = by_cell("testbed")
        fitted_map, fitted_mva = by_cell("fitted_map"), by_cell("fitted_mva")
        cells = [(mix, n) for mix in size["mixes"] for n in size["populations"]]
        missing = [c for c in cells if not (c in measured and c in fitted_map and c in fitted_mva)]
        checks.append(("fig12.rows_present", not missing, f"missing: {missing}"))
        cells = [c for c in cells if c not in missing]
        map_errors = [abs(fitted_map[c] - measured[c]) / measured[c] for c in cells]
        for mix in size["mixes"]:
            ratio = max((fitted_map[c] / fitted_mva[c] for c in cells if c[0] == mix),
                        default=float("inf"))
            checks.append(
                (f"fig12.{mix}.burstiness_lowers_throughput", ratio <= 1 + MAP_MVA_SLACK,
                 f"largest MAP/MVA throughput ratio {ratio:.4f}")
            )
        mean_error = statistics.fmean(map_errors) if map_errors else float("inf")
        checks.append(
            ("fig12.map_error_band", mean_error <= MAP_ERROR_BAND,
             f"mean MAP throughput error {100 * mean_error:.1f}%")
        )
        if {"browsing", "ordering"} <= set(size["mixes"]):
            dispersion = by_cell("fitted_map", "db_index_of_dispersion")
            browsing, ordering = (
                [value for (mix, _), value in dispersion.items() if mix == name] or [0.0]
                for name in ("browsing", "ordering")
            )
            checks.append(
                ("fig12.browsing_db_burstier", min(browsing) > max(ordering),
                 f"db index of dispersion: browsing {min(browsing):.1f}, "
                 f"ordering {max(ordering):.1f}")
            )
    table1 = cold.get("pp_table1")
    if table1 is not None:
        response = {
            (row["params"]["trace"], row["params"]["utilization"]):
            row["metrics"]["mean_response_time"]
            for row in _rows(table1, "mtrace1")
        }
        traces = sorted({trace for trace, _ in response})
        checks.append(
            ("table1.load_raises_response",
             bool(traces) and all(response[(t, 0.8)] > response[(t, 0.5)] for t in traces),
             f"{len(traces)} traces")
        )
    extra = {"map_err_pct": 100 * statistics.fmean(map_errors) if map_errors else float("nan")}
    return checks, extra


def check_model_grid(cold: dict, replays: list, size: dict) -> tuple:
    from scipy.stats import t as student_t

    checks = [_cells_ok(name, result) for name, result in cold.items()]
    checks += _replays_ok(replays)
    grid = cold.get("mg_grid")
    sim_errors = []
    if grid is not None:
        def point(row):
            return tuple(sorted(row["params"].items()))

        exact = {point(row): row["metrics"]["throughput"] for row in _rows(grid, "ctmc")}
        bounds = {point(row): row["metrics"] for row in _rows(grid, "bounds")}
        simulated = {}
        for row in _rows(grid, "simulation"):
            simulated.setdefault(point(row), []).append(row["metrics"]["throughput"])
        for key, value in exact.items():
            label = ",".join(f"{k}={v:g}" for k, v in key)
            samples = np.asarray(simulated.get(key, []), dtype=float)
            if samples.size < 2 or key not in bounds:
                checks.append((f"grid[{label}]", False, "missing simulation or bounds rows"))
                continue
            mean = float(samples.mean())
            stderr = float(samples.std(ddof=1) / np.sqrt(samples.size))
            multiple = float(student_t.ppf(1 - SIM_BAND_FALSE_ALARM / 2, samples.size - 1))
            band = multiple * stderr + SIM_BAND_FLOOR * value
            sim_errors.append(abs(mean - value) / value)
            checks.append(
                (f"grid[{label}].sim_vs_ctmc", abs(mean - value) <= band,
                 f"sim {mean:.4f} vs ctmc {value:.4f}, band {band:.4f}")
            )
            low, high = bounds[key]["throughput_lower"], bounds[key]["throughput_upper"]
            slack = 1e-9 * value
            checks.append(
                (f"grid[{label}].bounds_bracket", low - slack <= value <= high + slack,
                 f"{low:.4f} <= {value:.4f} <= {high:.4f}")
            )
    extra = {"sim_err_pct": 100 * statistics.fmean(sim_errors) if sim_errors else float("nan")}
    return checks, extra


def check_service(rounds: list) -> tuple:
    checks = []
    for index, outcome in enumerate(rounds):
        checks.append(
            (f"round{index}.healthy_fresh",
             outcome["status"] == "healthy" and outcome["serving"] == "fresh"
             and outcome["staleness"] == 0,
             f"{outcome['status']}/{outcome['serving']}, staleness {outcome['staleness']}")
        )
        checks.append(
            (f"round{index}.windows_equal_batch", outcome["windows_match"],
             "accumulator snapshot vs bin_trace_windows")
        )
        checks.append(
            (f"round{index}.restart_healthy", outcome["restart_status"] == "healthy",
             outcome["restart_status"])
        )
    first = rounds[0]["forecast_rows"]
    checks.append(
        ("rounds_deterministic",
         first is not None and all(r["forecast_rows"] == first for r in rounds),
         f"{len(rounds)} rounds")
    )
    return checks, {}


def service_summary(rounds: list) -> dict:
    """Cycle latency percentiles, ingest rate and stage outcomes over all rounds."""
    latencies = [lat for r in rounds for lat in r["latencies"]]
    stages = [stage for r in rounds for stage in r["health"]["stages"].values()]
    return {
        "cycle_p50_ms": 1000 * statistics.median(latencies),
        "cycle_p95_ms": 1000 * float(np.quantile(latencies, 0.95)),
        "cycle_samples": len(latencies),
        "events_per_s": sum(r["events"] for r in rounds) / sum(latencies),
        **{
            f"stage_{key}": sum(int(stage[key]) for stage in stages)
            for key in ("ok", "failed", "retried")
        },
    }


def cli_inputs(workload: str, seed: int, size: dict) -> tuple:
    """The packs of a CLI-driven workload and the check of its results."""
    if workload == "paper_pipeline":
        return paper_packs(seed, size), check_paper_pipeline
    return model_grid_packs(seed, size), check_model_grid
