"""Fast tests of the benchmark itself, at tiny input sizes.

Every workload runs through ``run.py`` exactly as the full benchmark does;
only ``--size tiny`` shrinks the inputs.  The output checks are also fed
corrupted results, which they must reject.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(workload: str, trace: int) -> dict:
    process = _run(workload, trace)
    assert process.returncode == 0, process.stderr
    result = json.loads(process.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, process.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_the_metrics_the_benchmark_prints():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_by_name_and_unit(workload):
    metrics = _result(workload, 0)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == run.END_TO_END
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize(
    "workload, busy, idle",
    [
        ("model_grid", ["simulation.batch_calls", "queueing.solve_calls"],
         ["tpcw.run_calls", "service.cycles", "core.fit_calls"]),
        ("service_stream", ["service.cycles", "core.fit_calls", "queueing.solve_calls"],
         ["tpcw.run_calls", "simulation.batch_calls", "experiments.cells_computed"]),
    ],
)
def test_traced_run_reports_every_layer(workload, busy, idle):
    metrics = _result(workload, 1)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == run.PER_LAYER
    assert all(metrics[name]["value"] > 0 for name in busy)
    assert all(metrics[name]["value"] == 0 for name in idle)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench")
    process = _run("model_grid", 0, cwd=tmp_path)
    assert process.returncode != 0
    assert '"metrics"' not in process.stdout


def test_inputs_follow_the_seed():
    size = workloads.SIZES["full"]["paper_pipeline"]
    assert workloads.paper_packs(5, size) == workloads.paper_packs(5, size)
    assert workloads.paper_packs(5, size) != workloads.paper_packs(6, size)
    grid = workloads.SIZES["full"]["model_grid"]
    assert workloads.model_grid_packs(5, grid) != workloads.model_grid_packs(6, grid)


# ----------------------------------------------------------------------
# Output checks reject corrupted results
# ----------------------------------------------------------------------
def _row(kind, params, metrics, meta=None):
    return {"kind": kind, "params": params, "metrics": metrics, "meta": meta or {}}


def _result_of(rows, computed):
    return {"rows": rows, "failures": [],
            "meta": {"cells_total": len(rows), "cells_computed": computed, "cells_failed": 0}}


def _paper_results():
    size = {"mixes": ["browsing"], "populations": [50, 150]}
    rows = []
    for population, measured, fitted_map, fitted_mva in ((50, 50.0, 50.5, 51.0),
                                                        (150, 100.0, 104.0, 140.0)):
        params = {"mix": "browsing", "population": population}
        rows += [_row("testbed", params, {"throughput": measured, "completed": 1}),
                 _row("fitted_map", params, {"throughput": fitted_map}),
                 _row("fitted_mva", params, {"throughput": fitted_mva})]
    table1 = [_row("mtrace1", {"trace": "a", "utilization": u}, {"mean_response_time": r})
              for u, r in ((0.5, 1.0), (0.8, 3.0))]
    cold = {"pp_models": _result_of(rows, len(rows)), "pp_table1": _result_of(table1, 2)}
    replay = {name: _result_of(r["rows"], 0) for name, r in cold.items()}
    return cold, replay, size


def _failed(checks):
    return [name for name, ok, _ in checks if not ok]


def test_paper_checks_accept_good_and_reject_corrupted_results():
    cold, replay, size = _paper_results()
    checks, extra = workloads.check_paper_pipeline(cold, [replay], size)
    assert _failed(checks) == []
    assert extra["map_err_pct"] == pytest.approx(100 * (0.01 + 0.04) / 2)

    bad = copy.deepcopy(cold)
    for row in bad["pp_models"]["rows"]:
        if row["kind"] == "fitted_map":
            row["metrics"]["throughput"] *= 1.6
    assert _failed(workloads.check_paper_pipeline(bad, [replay], size)[0]) == [
        "fig12.browsing.burstiness_lowers_throughput", "fig12.map_error_band"]

    recomputed = copy.deepcopy(replay)
    recomputed["pp_models"]["meta"]["cells_computed"] = 3
    failed = _failed(workloads.check_paper_pipeline(cold, [recomputed], size)[0])
    assert failed == ["pp_models.replay_0_computed"]


def _grid_results(ctmc):
    params = {"db_decay": 0.5, "db_scv": 4.0, "population": 10}
    rows = [_row("ctmc", params, {"throughput": ctmc}),
            _row("bounds", params, {"throughput_lower": 9.0, "throughput_upper": 11.0})]
    rows += [_row("simulation", params, {"throughput": t, "events": 1})
             for t in (9.9, 10.0, 10.1, 10.0) * 2]
    cold = {"mg_grid": _result_of(rows, len(rows))}
    return cold, {"mg_grid": _result_of(rows, 0)}


def test_grid_checks_reject_a_ctmc_outside_the_bounds_and_simulation_band():
    cold, replay = _grid_results(10.0)
    assert _failed(workloads.check_model_grid(cold, [replay], {})[0]) == []
    cold, replay = _grid_results(11.5)
    failed = _failed(workloads.check_model_grid(cold, [replay], {})[0])
    assert sorted(f.rsplit(".", 1)[1] for f in failed) == ["bounds_bracket", "sim_vs_ctmc"]


def test_service_checks_reject_a_stale_or_diverged_round():
    good = {"status": "healthy", "serving": "fresh", "staleness": 0, "windows_match": True,
            "restart_status": "healthy", "forecast_rows": [{"population": 1}]}
    assert _failed(workloads.check_service([good, dict(good)])[0]) == []
    stale = dict(good, staleness=3)
    diverged = dict(good, windows_match=False, forecast_rows=[{"population": 2}])
    failed = _failed(workloads.check_service([good, stale, diverged])[0])
    assert failed == ["round1.healthy_fresh", "round2.windows_equal_batch", "rounds_deterministic"]
