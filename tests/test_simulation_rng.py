"""Regression tests for the simulator's chunked RNG (seed policy).

The event loop consumes unit-exponential and uniform variates from chunked
buffers (one numpy call per ``RNG_CHUNK`` draws).  These tests pin the seed
policy: a fixed seed must give bit-identical results across runs, and a
specific seeded trajectory is pinned so that any accidental change to the
draw order (buffer sizes, draw types, interleaving) is caught immediately.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.maps.map2 import map2_exponential, map2_from_moments_and_decay
from repro.simulation.closed_network import simulate_closed_map_network
from repro.simulation.random_streams import RNG_CHUNK, ChunkedDraws

FRONT = map2_exponential(0.02)
DB = map2_from_moments_and_decay(0.015, 4.0, 0.95)


def run(seed: int):
    return simulate_closed_map_network(
        FRONT, DB, 0.5, 20, horizon=200.0, warmup=20.0, rng=np.random.default_rng(seed)
    )


class TestChunkedDraws:
    def test_exponential_matches_unchunked_stream(self):
        """The buffer hands out exactly the generator's batched draws."""
        draws = ChunkedDraws(np.random.default_rng(3))
        values = [draws.exponential() for _ in range(RNG_CHUNK + 5)]
        reference_rng = np.random.default_rng(3)
        expected = np.concatenate(
            [reference_rng.standard_exponential(RNG_CHUNK) for _ in range(2)]
        )[: len(values)]
        assert values == expected.tolist()

    def test_scaled_exponential_matches_generator_exponential(self):
        """``scale * exponential()`` from the buffer is bit-identical to
        repeated ``rng.exponential(scale)`` on the same seed."""
        draws = ChunkedDraws(np.random.default_rng(9))
        reference = np.random.default_rng(9)
        scales = [0.5, 7.0, 0.0123, 1.0, 3.4e-3 * 12.5]
        for index in range(2 * RNG_CHUNK + 7):
            scale = scales[index % len(scales)]
            assert draws.exponential() * scale == reference.exponential(scale)

    def test_uniform_in_unit_interval(self):
        draws = ChunkedDraws(np.random.default_rng(4))
        values = [draws.uniform() for _ in range(1000)]
        assert all(0.0 <= value < 1.0 for value in values)

    def test_streams_independent_of_interleaving_type(self):
        """Exponential and uniform buffers refill independently."""
        draws = ChunkedDraws(np.random.default_rng(5))
        first_exp = draws.exponential()
        _ = [draws.uniform() for _ in range(10)]
        draws2 = ChunkedDraws(np.random.default_rng(5))
        assert first_exp == draws2.exponential()

    def test_uniform_consumption_counter(self):
        draws = ChunkedDraws(np.random.default_rng(6))
        assert draws.uniforms_consumed == 0
        for expected in range(1, RNG_CHUNK + 3):
            draws.uniform()
            assert draws.uniforms_consumed == expected

    def test_initial_phase_draw_is_buffered(self):
        """The initial service phase consumes a chunked uniform, not a raw
        generator call — every draw of a run flows through the streams."""
        from repro.simulation.closed_network import _MapServiceState

        draws = ChunkedDraws(np.random.default_rng(8))
        _MapServiceState(DB, draws)
        assert draws.uniforms_consumed == 1


class TestSeedPolicy:
    def test_same_seed_bit_identical(self):
        assert run(7) == run(7)

    def test_different_seeds_differ(self):
        assert run(7) != run(8)

    def test_pinned_trajectory(self):
        """Pin one seeded run; fails if the draw order ever changes.

        The exact floats below are a property of (numpy's PCG64 stream,
        ``RNG_CHUNK``, the order the event loop consumes variates).  If this
        test breaks, either the seed policy changed deliberately — update the
        pinned values and the module docstring — or a refactor accidentally
        perturbed the trajectory.

        Re-pinned once when the initial service phases moved from a raw
        ``rng.choice`` onto the chunked uniform stream (a deliberate,
        documented trajectory break: every draw now flows through the
        buffered streams).
        """
        result = run(12345)
        assert result.completed == 5769
        assert result.events == 19472
        assert result.measured_time == pytest.approx(180.0, abs=1e-9)
        assert result.throughput == pytest.approx(32.05, rel=1e-12)
        assert result.front_utilization == pytest.approx(0.6350184165825229, rel=1e-12)
        assert result.db_utilization == pytest.approx(0.43873763231901675, rel=1e-12)
        assert result.front_queue_length == pytest.approx(1.627657483965498, rel=1e-12)
        assert result.db_queue_length == pytest.approx(2.269401730939202, rel=1e-12)

    def test_chunk_size_unchanged(self):
        """RNG_CHUNK is part of the seed policy; changing it breaks seeds."""
        assert RNG_CHUNK == 4096
