"""Solver-tier selection, overrides, fallbacks and cross-tier agreement.

Pins which steady-state tier is chosen at representative state-space sizes,
covers the environment/keyword overrides the README documents for debugging,
asserts that tier fallbacks are logged at WARNING, and cross-validates the
matrix-free tier against the materialized ones on real networks.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.maps.map2 import map2_exponential, map2_from_moments_and_decay
from repro.queueing import ctmc
from repro.queueing.ctmc import (
    DIRECT_SOLVE_STATE_LIMIT,
    MATERIALIZED_STATE_LIMIT,
    MATERIALIZED_STRATEGIES,
    MATRIX_FREE_STRATEGIES,
    SolveStats,
    TIER_ENV_VAR,
    choose_solver_tier,
    steady_state_distribution,
    steady_state_matrix_free,
)
from repro.queueing.map_network import MapClosedNetworkSolver


@pytest.fixture()
def solver():
    front = map2_exponential(0.02)
    db = map2_from_moments_and_decay(0.015, 4.0, 0.95)
    return MapClosedNetworkSolver(front, db, 0.5)


class TestTierSelection:
    """Regression-pins the size thresholds the README documents."""

    @pytest.mark.parametrize(
        "num_states,expected",
        [
            (1, "direct"),
            (DIRECT_SOLVE_STATE_LIMIT, "direct"),
            (DIRECT_SOLVE_STATE_LIMIT + 1, "ilu_krylov"),
            (100_000, "ilu_krylov"),       # ~N=220 with MAP(2) service
            (503_004, "ilu_krylov"),       # N=500, the materialized headline
            (MATERIALIZED_STATE_LIMIT + 1, "matrix_free"),
            (2_006_004, "matrix_free"),    # N=1000
            (4_509_004, "matrix_free"),    # N=1500
        ],
    )
    def test_size_based_selection(self, num_states, expected):
        assert choose_solver_tier(num_states) == expected

    def test_keyword_override_beats_size(self):
        assert choose_solver_tier(10, override="matrix_free") == "matrix_free"
        assert choose_solver_tier(10_000_000, override="direct") == "direct"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(TIER_ENV_VAR, "ilu_krylov")
        assert choose_solver_tier(10) == "ilu_krylov"
        # The keyword wins over the environment.
        assert choose_solver_tier(10, override="direct") == "direct"

    def test_auto_and_empty_mean_default(self, monkeypatch):
        monkeypatch.setenv(TIER_ENV_VAR, "")
        assert choose_solver_tier(10) == "direct"
        monkeypatch.setenv(TIER_ENV_VAR, "auto")
        assert choose_solver_tier(10) == "direct"

    def test_unknown_tier_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            choose_solver_tier(10, override="quantum")
        monkeypatch.setenv(TIER_ENV_VAR, "quantum")
        with pytest.raises(ValueError):
            choose_solver_tier(10)


class TestCrossTierAgreement:
    def test_result_records_tier(self, solver):
        result = solver.solve(4)
        assert result.solver_tier == "direct"
        forced = solver.solve(4, tier="matrix_free")
        assert forced.solver_tier == "matrix_free"
        # solver_tier is provenance, not content: results still compare equal.
        assert result.population == forced.population

    @pytest.mark.parametrize("population", [3, 25])
    def test_matrix_free_matches_direct(self, solver, population):
        reference = solver.solve(population)
        forced = solver.solve(population, tier="matrix_free")
        assert forced.throughput == pytest.approx(reference.throughput, rel=1e-7)
        assert forced.db_queue_length == pytest.approx(
            reference.db_queue_length, rel=1e-6, abs=1e-9
        )
        assert forced.front_utilization == pytest.approx(
            reference.front_utilization, rel=1e-7
        )

    def test_ilu_matches_direct(self, solver):
        reference = solver.solve(20)
        forced = solver.solve(20, tier="ilu_krylov")
        assert forced.solver_tier == "ilu_krylov"
        assert forced.throughput == pytest.approx(reference.throughput, rel=1e-8)

    def test_sweep_honours_forced_tier_and_matches(self, solver):
        sweep = solver.solve_sweep([4, 8], tier="matrix_free")
        assert [r.solver_tier for r in sweep] == ["matrix_free", "matrix_free"]
        for result in sweep:
            reference = solver.solve(result.population)
            assert result.throughput == pytest.approx(reference.throughput, rel=1e-7)

    def test_steady_state_matrix_free_single_state(self):
        from repro.maps.map_process import MAP
        from repro.queueing.kron import NetworkStateSpace
        from repro.queueing.kron_operator import MatrixFreeGenerator

        poisson = MAP([[-2.0]], [[2.0]])
        operator = MatrixFreeGenerator.from_maps(
            poisson, poisson, 0.5, NetworkStateSpace(0, 1, 1)
        )
        np.testing.assert_array_equal(steady_state_matrix_free(operator), [1.0])


class TestFallbacksAreLogged:
    def test_matrix_free_krylov_fallback_warns(self, solver, caplog, monkeypatch):
        """A failing BiCGSTAB must log and fall through to GMRES."""

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic bicgstab failure")

        monkeypatch.setattr(ctmc, "_matrix_free_bicgstab", boom)
        with caplog.at_level(logging.WARNING, logger="repro.queueing.ctmc"):
            result = solver.solve(4, tier="matrix_free")
        assert result.solver_tier == "matrix_free"
        assert any("bicgstab" in record.message for record in caplog.records)
        reference = solver.solve(4)
        assert result.throughput == pytest.approx(reference.throughput, rel=1e-7)

    def test_matrix_free_tier_failure_falls_back_to_materialized(
        self, solver, caplog, monkeypatch
    ):
        """If the whole matrix-free solve raises, the materialized tier runs."""
        from repro.queueing import map_network

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic operator failure")

        monkeypatch.setattr(map_network, "steady_state_matrix_free", boom)
        with caplog.at_level(logging.WARNING, logger="repro.queueing.map_network"):
            result = solver.solve(4, tier="matrix_free")
        assert result.solver_tier == "ilu_krylov"
        assert any("falling back" in record.message for record in caplog.records)
        reference = solver.solve(4)
        assert result.throughput == pytest.approx(reference.throughput, rel=1e-8)

    def test_preconditioner_setup_failure_warns_and_recovers(
        self, solver, caplog, monkeypatch
    ):
        """An unusable preconditioner downgrades to unpreconditioned Krylov."""
        from repro.queueing import kron_operator

        def boom(self, kind="multilevel"):
            raise RuntimeError("synthetic preconditioner failure")

        monkeypatch.setattr(kron_operator.MatrixFreeGenerator, "preconditioner", boom)
        with caplog.at_level(logging.WARNING, logger="repro.queueing.ctmc"):
            result = solver.solve(3, tier="matrix_free")
        assert any("preconditioner setup failed" in r.message for r in caplog.records)
        reference = solver.solve(3)
        assert result.throughput == pytest.approx(reference.throughput, rel=1e-6)


class TestPreferValidation:
    """Both steady-state entry points validate ``prefer`` the same way."""

    def test_materialized_unknown_prefer_rejected(self, solver):
        generator = solver._build_generator(5)
        with pytest.raises(ValueError, match="unknown solver strategy 'bogus'"):
            steady_state_distribution(generator, prefer="bogus")

    def test_matrix_free_unknown_prefer_rejected(self, solver):
        operator = solver._assembler.operator(solver.state_space(5))
        # "direct" is a materialized strategy, not a matrix-free one: the
        # error message names the allowed set so the mistake is obvious.
        with pytest.raises(ValueError, match="expected one of"):
            steady_state_matrix_free(operator, prefer="direct")
        assert "direct" in MATERIALIZED_STRATEGIES
        assert "direct" not in MATRIX_FREE_STRATEGIES

    def test_power_accepted_in_both_tiers(self, solver):
        generator = solver._build_generator(4)
        stats = SolveStats()
        distribution = steady_state_distribution(generator, prefer="power", stats=stats)
        assert [attempt.strategy for attempt in stats.attempts] == ["power"]
        assert stats.attempts[-1].accepted
        reference = steady_state_distribution(generator)
        np.testing.assert_allclose(distribution, reference, atol=1e-9)

        operator = solver._assembler.operator(solver.state_space(4))
        free_stats = SolveStats()
        free = steady_state_matrix_free(operator, prefer="power", stats=free_stats)
        assert [attempt.strategy for attempt in free_stats.attempts] == ["power"]
        np.testing.assert_allclose(free, reference, atol=1e-9)

    def test_matrix_free_prefer_gmres_goes_first(self, solver):
        operator = solver._assembler.operator(solver.state_space(6))
        stats = SolveStats()
        steady_state_matrix_free(operator, prefer="gmres", stats=stats)
        assert stats.attempts[0].strategy == "gmres"


class TestSolveDiagnostics:
    """Results carry iteration counts, setup time and per-attempt timings."""

    def test_ilu_records_iterations_and_attempts(self, solver):
        result = solver.solve(20, tier="ilu_krylov")
        assert result.krylov_iterations >= 1
        assert result.precond_setup_seconds >= 0.0
        assert result.solver_attempts
        accepted = result.solver_attempts[-1]
        assert accepted["accepted"] is True
        assert accepted["iterations"] == result.krylov_iterations
        assert accepted["seconds"] >= 0.0

    def test_matrix_free_records_iterations(self, solver):
        result = solver.solve(20, tier="matrix_free")
        assert result.krylov_iterations >= 1
        assert result.precond_setup_seconds >= 0.0
        assert result.solver_attempts[-1]["strategy"] == "bicgstab"

    def test_direct_has_no_iterations(self, solver):
        result = solver.solve(4)
        assert result.solver_tier == "direct"
        assert result.krylov_iterations is None
        assert result.solver_attempts[-1]["strategy"] == "direct"

    def test_diagnostics_do_not_affect_equality(self, solver):
        # Diagnostics are provenance, not content (compare=False fields).
        first = solver.solve(20, tier="ilu_krylov")
        second = solver.solve(20, tier="direct")
        assert first.population == second.population
        assert first.throughput == pytest.approx(second.throughput, rel=1e-8)
