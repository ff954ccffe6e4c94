"""CLI surface: list / show / run / sweep with cache round-trip."""

from __future__ import annotations

import json

import pytest

from repro.experiments.cli import apply_sim_backend, build_sweep_spec, format_table, main
from repro.experiments.registry import get_scenario


class TestList:
    def test_lists_all_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig4", "fig9", "fig12", "table1", "grid_burstiness"):
            assert name in out


class TestShow:
    def test_show_prints_canonical_spec(self, capsys):
        assert main(["show", "fig4"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["name"] == "fig4"
        assert payload["workload"]["kind"] == "testbed"
        assert "hash:" in captured.err


class TestRun:
    def test_run_then_cached_rerun(self, tmp_path, capsys):
        args = ["run", "smoke", "--cache-dir", str(tmp_path), "--jobs", "1"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "computed" in first
        assert "cached at" in first
        assert "solver: ctmc" in first

        assert main(args) == 0
        second = capsys.readouterr().out
        assert "(cache" in second
        assert "0 computed" in second

    def test_run_json_output(self, tmp_path, capsys):
        assert main(["run", "smoke", "--cache-dir", str(tmp_path), "--jobs", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "smoke"
        assert payload["rows"]

    def test_run_no_cache(self, tmp_path, capsys):
        assert main(["run", "smoke", "--no-cache", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "cached at" not in out

    def test_run_table_has_seconds_column(self, capsys):
        assert main(["run", "smoke", "--no-cache", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "seconds" in out


class TestSweepSpec:
    def test_overrides_populations_and_solvers(self):
        spec = build_sweep_spec(
            get_scenario("fig9"), populations=(5, 10), solvers=("ctmc", "mva")
        )
        assert spec.workload.populations == (5, 10)
        assert [solver.kind for solver in spec.solvers] == ["ctmc", "mva"]
        assert spec.name == "fig9-sweep"

    def test_think_time_override_changes_name_and_workload(self):
        spec = build_sweep_spec(get_scenario("fig9"), populations=(5,), think_time=1.5)
        assert spec.workload.think_time == 1.5
        assert spec.name == "fig9-sweep-z1.5"

    def test_keeps_base_solvers_by_default(self):
        base = get_scenario("smoke")
        spec = build_sweep_spec(base, populations=(2,))
        assert spec.solvers == base.solvers

    def test_rejects_trace_workload(self):
        with pytest.raises(ValueError, match="population axis"):
            build_sweep_spec(get_scenario("table1"), populations=(5,))

    def test_rejects_nonpositive_populations(self):
        with pytest.raises(ValueError, match="populations must be >= 1"):
            build_sweep_spec(get_scenario("smoke"), populations=(0, 2))


class TestSweepCommand:
    def test_sweep_synthetic_scenario(self, capsys):
        args = [
            "sweep", "smoke", "--populations", "2,3", "--solvers", "ctmc,mva",
            "--no-cache", "--jobs", "1",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "smoke-sweep" in out
        assert "solver: ctmc" in out
        assert "solver: mva" in out

    def test_sweep_multiple_think_times(self, capsys):
        args = [
            "sweep", "smoke", "--populations", "2", "--think-times", "0.5,1.0",
            "--solvers", "ctmc", "--no-cache", "--jobs", "1",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "smoke-sweep-z0.5" in out
        assert "smoke-sweep-z1" in out

    def test_sweep_json_output(self, capsys):
        args = [
            "sweep", "smoke", "--populations", "2", "--solvers", "ctmc",
            "--no-cache", "--jobs", "1", "--json",
        ]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "smoke-sweep"
        assert {row["params"]["population"] for row in payload["rows"]} == {2}

    def test_sweep_trace_workload_is_an_error(self, capsys):
        args = ["sweep", "table1", "--populations", "2", "--no-cache"]
        assert main(args) == 2
        assert "population axis" in capsys.readouterr().err

    def test_sweep_zero_population_is_an_error_not_a_traceback(self, capsys):
        args = ["sweep", "smoke", "--populations", "0", "--no-cache"]
        assert main(args) == 2
        assert "populations must be >= 1" in capsys.readouterr().err

    def test_sweep_rejects_unknown_solver_kind(self):
        with pytest.raises(SystemExit):
            main(["sweep", "smoke", "--populations", "2", "--solvers", "nonsense"])


class TestSimBackendOverride:
    def test_apply_sets_option_and_renames(self):
        spec = apply_sim_backend(get_scenario("fig9"), "batched")
        assert spec.name == "fig9-batched"
        options = [s.options for s in spec.solvers if s.kind == "simulation"]
        assert options and all(o["sim_backend"] == "batched" for o in options)
        # non-simulation solvers are untouched
        assert all(
            "sim_backend" not in s.options for s in spec.solvers if s.kind != "simulation"
        )
        assert spec.hash() != get_scenario("fig9").hash()

    def test_apply_rejects_scenarios_without_simulation(self):
        with pytest.raises(ValueError, match="no simulation solver"):
            apply_sim_backend(get_scenario("smoke"), "batched")

    def test_apply_overrides_an_existing_backend_option(self):
        # fig9_ci ships with sim_backend=batched; forcing the event loop
        # must replace, not duplicate, the option.
        spec = apply_sim_backend(get_scenario("fig9_ci"), "event")
        assert spec.name == "fig9_ci-event"
        assert all(
            s.options["sim_backend"] == "event"
            for s in spec.solvers
            if s.kind == "simulation"
        )

    def test_run_errors_without_simulation_solver(self, capsys):
        assert main(["run", "smoke", "--sim-backend", "batched", "--no-cache"]) == 2
        assert "no simulation solver" in capsys.readouterr().err

    def test_sweep_with_sim_backend_runs_batched(self, capsys):
        args = [
            "sweep", "fig9", "--populations", "2", "--solvers", "simulation",
            "--sim-backend", "batched", "--no-cache", "--jobs", "1",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "fig9-sweep-batched" in out
        assert "solver: simulation" in out


class TestFormatTable:
    def test_alignment_and_separator(self):
        text = format_table(["a", "long"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert set(lines[1]) <= {"-", " "}

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestCascadeOverride:
    """CLI sweeps forced onto the matrix-free tier (``--tier matrix_free``)."""

    def test_sweep_cascade_records_ladder_and_iterations(self, tmp_path, capsys):
        args = [
            "sweep", "fig9", "--populations", "20,35", "--solvers", "ctmc",
            "--tier", "matrix_free",
            "--cache-dir", str(tmp_path), "--jobs", "1", "--json",
        ]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "fig9-sweep-matrix_free"
        for row in payload["rows"]:
            assert row["meta"]["solver_tier"] == "matrix_free"
            assert row["meta"]["krylov_iterations"] >= 1

    def test_cascade_cache_resume_is_bit_identical(self, tmp_path, capsys):
        args = [
            "sweep", "fig9", "--populations", "20,35", "--solvers", "ctmc",
            "--tier", "matrix_free",
            "--cache-dir", str(tmp_path), "--jobs", "1", "--json",
        ]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        # The resumed run serves every cell from the cache, byte-for-byte:
        # metrics, timings, and the tier/iteration diagnostics.
        assert second["rows"] == first["rows"]
        assert second["spec_hash"] == first["spec_hash"]
