"""Unit tests for the benchmark trajectory + regression gate logic.

``benchmarks/bench_solver.py`` is a script, not a package module; its
history/gate helpers are imported by path and exercised on synthetic
documents so no actual benchmarking happens here.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_BENCH_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_solver.py"
_spec = importlib.util.spec_from_file_location("bench_solver", _BENCH_PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def make_document(
    kron=0.006,
    solves=((100, 0.13), (500, 9.1)),
    quick=False,
    python="3.11.7",
    sim_loop=(("R64", 3.0, 0.9),),
    testbed=None,
) -> dict:
    document = {
        "benchmark": "closed MAP network solver + simulator",
        "generated_utc": "2026-07-26T00:00:00+00:00",
        "quick": quick,
        "environment": {"python": python, "machine": "x86_64"},
        "results": {
            "generator_build": {
                "population": 100,
                "num_states": 20604,
                "naive_seconds": 0.08,
                "kron_seconds": kron,
                "speedup": 0.08 / kron,
            },
            "exact_solve": [
                {
                    "population": population,
                    "num_states": population * 100,
                    "seconds": seconds,
                    "throughput": 49.9,
                    "solver_tier": "ilu_krylov",
                    "peak_rss_mb": 300.0,
                    "materialized_estimate_mb": 150.0,
                }
                for population, seconds in solves
            ],
            "sweep": {"populations": [100], "seconds": 1.0, "throughputs": [49.9]},
            "simulation": {
                "horizon": 2000.0, "seconds": 1.0,
                "completed": 1000, "completions_per_second": 1000.0,
            },
            "sim_loop": [
                {
                    "key": key,
                    "replications": int(key[1:]),
                    "horizon": 250.0,
                    "scalar_seconds": scalar,
                    "scalar_cell_seconds": scalar / int(key[1:]),
                    "scalar_extrapolated": False,
                    "scalar_events_per_second": 1e6,
                    "batched_seconds": batched,
                    "batched_cell_seconds": batched / int(key[1:]),
                    "batched_events_per_second": 1e7,
                    "speedup": scalar / batched,
                }
                for key, scalar, batched in sim_loop
            ],
        },
    }
    if testbed is not None:
        seconds, completed = testbed
        document["results"]["testbed"] = {
            **bench.TESTBED_CELL,
            "seconds": seconds,
            "completed_transactions": completed,
            "transactions_per_second": completed / seconds,
        }
    return document


class TestHistoryEntry:
    def test_compact_entry_shape(self):
        entry = bench.history_entry(make_document(), sha="abc1234")
        assert entry["sha"] == "abc1234"
        assert entry["date_utc"] == "2026-07-26T00:00:00+00:00"
        assert entry["exact_solve"] == {"100": 0.13, "500": 9.1}
        assert entry["generator_build"]["kron_seconds"] == 0.006
        assert entry["environment"] == {"python": "3.11", "machine": "x86_64"}
        assert entry["sim_loop"] == {
            "R64": {
                "scalar_seconds": 3.0,
                "batched_seconds": 0.9,
                "speedup": 3.0 / 0.9,
            }
        }
        assert not entry["quick"]

    def test_pre_sim_loop_documents_absorb_cleanly(self):
        document = make_document()
        del document["results"]["sim_loop"]
        entry = bench.history_entry(document, sha="old")
        assert entry["sim_loop"] == {}


class TestLoadTrajectory:
    def test_missing_file_is_empty(self, tmp_path):
        assert bench.load_trajectory(str(tmp_path / "nope.json")) == []

    def test_corrupt_file_is_empty(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{not json")
        assert bench.load_trajectory(str(path)) == []

    def test_pre_trajectory_format_becomes_first_entry(self, tmp_path):
        """The committed PR-2 flat document anchors the trend."""
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(make_document()))
        history = bench.load_trajectory(str(path))
        assert len(history) == 1
        assert history[0]["sha"] == "pre-trajectory"
        assert history[0]["exact_solve"]["500"] == 9.1

    def test_trajectory_format_round_trip(self, tmp_path):
        path = tmp_path / "bench.json"
        entries = [bench.history_entry(make_document(), sha=s) for s in ("a", "b")]
        path.write_text(json.dumps({"latest": make_document(), "history": entries}))
        assert bench.load_trajectory(str(path)) == entries


class TestRegressionGate:
    def test_no_regression_passes(self):
        baseline = bench.history_entry(make_document(), sha="old")
        entry = bench.history_entry(make_document(kron=0.0065, solves=((100, 0.14),)), sha="new")
        assert bench.check_regressions(entry, baseline) == []

    def test_exact_solve_regression_detected_on_overlap(self):
        baseline = bench.history_entry(make_document(), sha="old")
        entry = bench.history_entry(
            make_document(solves=((100, 0.13 * 1.5), (50, 0.05))), sha="new"
        )
        messages = bench.check_regressions(entry, baseline)
        assert len(messages) == 1
        assert "exact_solve[N=100]" in messages[0]
        # N=50 exists only in the new entry: never gated.
        assert not any("N=50" in message for message in messages)

    def test_generator_build_regression_detected(self):
        baseline = bench.history_entry(make_document(), sha="old")
        entry = bench.history_entry(make_document(kron=0.009), sha="new")
        messages = bench.check_regressions(entry, baseline)
        assert len(messages) == 1
        assert "generator_build.kron_seconds" in messages[0]

    def test_sim_loop_regressions_detected_per_kernel_on_overlap(self):
        baseline = bench.history_entry(make_document(), sha="old")
        # scalar kernel regressed on the overlapping rung, batched did not;
        # R16 exists only in the new entry and is never gated.
        entry = bench.history_entry(
            make_document(sim_loop=(("R64", 4.5, 0.9), ("R16", 9.0, 9.0))), sha="new"
        )
        messages = bench.check_regressions(entry, baseline)
        assert len(messages) == 1
        assert "sim_loop[R64].scalar_seconds" in messages[0]
        assert not any("R16" in message for message in messages)
        slowed = bench.history_entry(make_document(sim_loop=(("R64", 3.0, 1.8),)), sha="new")
        messages = bench.check_regressions(slowed, baseline)
        assert len(messages) == 1
        assert "sim_loop[R64].batched_seconds" in messages[0]

    def test_sim_loop_gate_skips_pre_sim_loop_baselines(self):
        old_document = make_document()
        del old_document["results"]["sim_loop"]
        baseline = bench.history_entry(old_document, sha="old")
        entry = bench.history_entry(make_document(sim_loop=(("R64", 99.0, 99.0),)), sha="new")
        assert bench.check_regressions(entry, baseline) == []

    def test_testbed_gates_seconds_and_exact_transaction_count(self):
        baseline = bench.history_entry(make_document(testbed=(1.0, 24976)), sha="old")
        same = bench.history_entry(make_document(testbed=(1.2, 24976)), sha="new")
        assert bench.check_regressions(same, baseline) == []
        slowed = bench.history_entry(make_document(testbed=(1.3, 24976)), sha="new")
        messages = bench.check_regressions(slowed, baseline)
        assert len(messages) == 1 and "testbed.seconds" in messages[0]
        # One transaction more is a trajectory change, however fast the run.
        drifted = bench.history_entry(make_document(testbed=(0.5, 24977)), sha="new")
        messages = bench.check_regressions(drifted, baseline)
        assert len(messages) == 1 and "testbed.completed_transactions" in messages[0]

    def test_testbed_gate_skips_pre_testbed_baselines(self):
        baseline = bench.history_entry(make_document(), sha="old")
        assert "testbed" not in baseline
        entry = bench.history_entry(make_document(testbed=(99.0, 1)), sha="new")
        assert entry["testbed"] == {"seconds": 99.0, "completed_transactions": 1}
        assert bench.check_regressions(entry, baseline) == []

    def test_threshold_is_respected(self):
        baseline = bench.history_entry(make_document(), sha="old")
        entry = bench.history_entry(make_document(kron=0.006 * 1.2), sha="new")
        assert bench.check_regressions(entry, baseline) == []
        assert bench.check_regressions(entry, baseline, threshold=0.1) != []

    def test_gate_baseline_skips_other_environments(self):
        """Entries from other machine classes never anchor the gate."""
        entry = bench.history_entry(make_document(), sha="new")
        other = bench.history_entry(make_document(python="3.12.1"), sha="ci")
        same = bench.history_entry(make_document(), sha="dev")
        assert bench.gate_baseline(entry, [same, other]) == same
        assert bench.gate_baseline(entry, [other]) is None
        # Pre-environment entries (no 'environment' key) never qualify.
        legacy = {k: v for k, v in same.items() if k != "environment"}
        assert bench.gate_baseline(entry, [legacy]) is None

    def test_quick_gate_wired_into_main(self, tmp_path, monkeypatch):
        """``--quick`` must exit non-zero when the fresh numbers regress."""
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(make_document()))  # baseline: pre-trajectory
        slow = make_document(kron=0.02, solves=((100, 0.5),), quick=True)
        monkeypatch.setattr(bench, "run_benchmarks", lambda quick: slow)
        monkeypatch.setattr(bench, "git_sha", lambda: "feedbeef")
        rc = bench.main(["--quick", "--output", str(path)])
        assert rc == 2
        # The regressed entry must NOT be appended: a rerun would otherwise
        # gate against the regression itself and pass.
        document = json.loads(path.read_text())
        assert [e["sha"] for e in document["history"]] == ["pre-trajectory"]
        assert document["latest"]["quick"]
        # And a rerun of the same slow numbers still fails.
        assert bench.main(["--quick", "--output", str(path)]) == 2

    def test_quick_gate_skipped_without_comparable_baseline(
        self, tmp_path, monkeypatch, capsys
    ):
        """A CI runner with a different interpreter records but never flakes."""
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(make_document()))  # baseline: python 3.11
        slow = make_document(kron=0.02, solves=((100, 0.5),), quick=True, python="3.12.1")
        monkeypatch.setattr(bench, "run_benchmarks", lambda quick: slow)
        monkeypatch.setattr(bench, "git_sha", lambda: "feedbeef")
        assert bench.main(["--quick", "--output", str(path)]) == 0
        assert "regression gate skipped" in capsys.readouterr().out
        document = json.loads(path.read_text())
        assert [e["sha"] for e in document["history"]] == ["pre-trajectory", "feedbeef"]

    def test_no_gate_flag_records_without_failing(self, tmp_path, monkeypatch):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(make_document()))
        slow = make_document(kron=0.02, solves=((100, 0.5),), quick=True)
        monkeypatch.setattr(bench, "run_benchmarks", lambda quick: slow)
        monkeypatch.setattr(bench, "git_sha", lambda: "feedbeef")
        assert bench.main(["--quick", "--no-gate", "--output", str(path)]) == 0

    def test_full_runs_are_never_gated(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(make_document()))
        slow = make_document(kron=0.02, solves=((100, 0.5),), quick=False)
        monkeypatch.setattr(bench, "run_benchmarks", lambda quick: slow)
        monkeypatch.setattr(bench, "git_sha", lambda: "feedbeef")
        assert bench.main(["--output", str(path)]) == 0
