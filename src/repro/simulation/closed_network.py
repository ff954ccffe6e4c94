"""Simulation of the closed MAP queueing network of Figure 9.

This simulator reproduces, event by event, the stochastic process whose
stationary distribution the analytical solver
(:class:`repro.queueing.map_network.MapClosedNetworkSolver`) computes:

* ``N`` customers cycle think → front server → database server → think,
* think times are exponential with mean ``Z`` (infinite-server delay),
* each server completes work according to its service MAP: while the server
  is busy the MAP generates completion events (the phase is frozen while the
  server is idle), and each completion releases one queued customer.

Its purpose is validation: for any pair of service MAPs the simulated
throughput and utilisations must agree with the exact CTMC solution within
statistical error, which is one of the strongest integration tests in the
repository.

Seed policy
-----------
All randomness is drawn from the single ``rng`` passed in, but *in batches*:
unit-rate exponential and uniform variates are pre-drawn in chunks of
``RNG_CHUNK`` and consumed from buffers
(:class:`~repro.simulation.random_streams.ChunkedDraws`), so the
event loop pays one numpy call per few thousand events instead of one per
MAP jump.  *Every* draw goes through the buffers — including the two initial
service phases, which are sampled by inverse CDF from one buffered uniform
each (one for the front server, then one for the database).  Consequences:

* a fixed ``(seed, RNG_CHUNK)`` pair gives bit-identical results across runs
  and platforms (pinned by a regression test),
* trajectories differ from pre-batching versions of this module (the order
  in which the underlying bit stream is consumed changed), and changing
  ``RNG_CHUNK`` is likewise a trajectory-breaking change.  Routing the
  initial-phase draws through the buffers (they previously bypassed the
  chunked streams via ``rng.choice``) was one more deliberate trajectory
  break, re-pinned in the regression test,
* statistical properties are untouched — every variate is still an
  independent draw from the same generator.

The vectorized batched-replication kernel
(:mod:`repro.simulation.batched`) simulates the same process under its own
seed policy; the two backends give different (equally valid) trajectories
for the same seed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.maps.map_process import MAP
from repro.simulation.random_streams import RNG_CHUNK, ChunkedDraws

__all__ = ["ClosedNetworkSimResult", "simulate_closed_map_network", "RNG_CHUNK"]


@dataclass(frozen=True)
class ClosedNetworkSimResult:
    """Estimates from one simulation run of the closed MAP network."""

    population: int
    think_time: float
    horizon: float
    throughput: float
    front_utilization: float
    db_utilization: float
    front_queue_length: float
    db_queue_length: float
    completed: int
    warmup: float = 0.0
    measured_time: float = 0.0
    #: Jump-chain transitions over the whole run (think completions plus MAP
    #: jumps, hidden and marked, of busy servers) — the denominator-free
    #: work measure the ``sim_loop`` benchmark reports as events/second.
    #: The scalar kernel counts MAP jumps by stream consumption, so the last
    #: partially-consumed completion interval adds a few jumps beyond the
    #: horizon; the batched kernel counts steps started before the horizon.
    events: int = 0

    def summary(self) -> dict:
        """Headline metrics (same keys as the analytical solver)."""
        return {
            "population": self.population,
            "throughput": self.throughput,
            "front_utilization": self.front_utilization,
            "db_utilization": self.db_utilization,
            "front_queue_length": self.front_queue_length,
            "db_queue_length": self.db_queue_length,
        }


class _MapServiceState:
    """Incremental sampling of a MAP's completion process for one server."""

    def __init__(self, map_process: MAP, draws: ChunkedDraws) -> None:
        self.draws = draws
        order = map_process.order
        # Initial phase by inverse CDF from one *buffered* uniform, so every
        # draw of a run flows through the documented chunked streams (a raw
        # ``rng.choice`` here would consume the bit stream out of band).
        stationary_cum = np.cumsum(map_process.embedded_stationary).tolist()
        self.phase = min(bisect_right(stationary_cum, draws.uniform()), order - 1)
        self.order = order
        self.mean_sojourns = (-1.0 / np.diag(map_process.D0)).tolist()
        # Per-phase cumulative jump distribution over the 2K outcomes
        # (K hidden D0 transitions, then K marked D1 transitions), precomputed
        # as plain lists so the hot loop is one buffered exponential draw plus
        # one bisect on a K-element list.
        rates = -np.diag(map_process.D0)
        hidden = np.maximum(map_process.D0, 0.0)
        np.fill_diagonal(hidden, 0.0)
        marked = np.maximum(map_process.D1, 0.0)
        jump_probabilities = np.hstack([hidden, marked]) / rates[:, None]
        self.jump_cdf = np.cumsum(jump_probabilities, axis=1).tolist()

    def sample_completion_interval(self) -> float:
        """Busy time until the next completion event, advancing the phase."""
        elapsed = 0.0
        order = self.order
        last_jump = 2 * order - 1
        draws = self.draws
        mean_sojourns = self.mean_sojourns
        jump_cdf = self.jump_cdf
        while True:
            phase = self.phase
            elapsed += draws.exponential() * mean_sojourns[phase]
            jump = bisect_right(jump_cdf[phase], draws.uniform())
            if jump > last_jump:
                jump = last_jump
            if jump >= order:
                self.phase = jump - order
                return elapsed
            self.phase = jump


def simulate_closed_map_network(
    front_service: MAP,
    db_service: MAP,
    think_time: float,
    population: int,
    horizon: float,
    warmup: float = 0.0,
    rng: np.random.Generator | None = None,
) -> ClosedNetworkSimResult:
    """Simulate the closed network for ``horizon`` simulated seconds.

    Parameters
    ----------
    front_service, db_service:
        Service MAPs of the two queues.
    think_time:
        Mean exponential think time (must be positive; an infinite-server
        station with zero delay would make the event loop degenerate).
    population:
        Number of circulating customers.
    horizon:
        Total simulated time.
    warmup:
        Initial interval excluded from all estimates.
    rng:
        Random generator (a fresh default generator when omitted).
    """
    if think_time <= 0:
        raise ValueError("think_time must be positive for the simulator")
    if population < 1:
        raise ValueError("population must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    if horizon <= warmup:
        raise ValueError("horizon must exceed warmup")
    if rng is None:
        rng = np.random.default_rng()

    draws = ChunkedDraws(rng)
    front_state = _MapServiceState(front_service, draws)
    db_state = _MapServiceState(db_service, draws)

    # State variables.
    thinking = population
    front_queue = 0
    db_queue = 0
    clock = 0.0
    next_think_completion = np.inf
    next_front_completion = np.inf
    next_db_completion = np.inf
    # Remaining busy work until the next MAP completion at each server (the
    # MAP interval is consumed only while the server is busy).
    front_residual = front_state.sample_completion_interval()
    db_residual = db_state.sample_completion_interval()

    def think_rate() -> float:
        return thinking / think_time if thinking > 0 else 0.0

    # Statistics.
    completed = 0
    think_events = 0
    busy_front = 0.0
    busy_db = 0.0
    area_front = 0.0
    area_db = 0.0
    measured_time = 0.0

    def schedule_think() -> float:
        rate = think_rate()
        return clock + draws.exponential() / rate if rate > 0 else np.inf

    next_think_completion = schedule_think()

    while clock < horizon:
        next_front_completion = clock + front_residual if front_queue > 0 else np.inf
        next_db_completion = clock + db_residual if db_queue > 0 else np.inf
        next_time = min(next_think_completion, next_front_completion, next_db_completion)
        if next_time == np.inf or next_time > horizon:
            next_time = horizon
        elapsed = next_time - clock
        in_measurement = max(0.0, min(next_time, horizon) - max(clock, warmup))
        if in_measurement > 0:
            measured_time += in_measurement
            if front_queue > 0:
                busy_front += in_measurement
                area_front += in_measurement * front_queue
            if db_queue > 0:
                busy_db += in_measurement
                area_db += in_measurement * db_queue
        # Consume busy time from the MAP completion intervals.
        if front_queue > 0:
            front_residual -= elapsed
        if db_queue > 0:
            db_residual -= elapsed
        clock = next_time
        if clock >= horizon:
            break
        if next_time == next_think_completion:
            thinking -= 1
            front_queue += 1
            think_events += 1
            next_think_completion = schedule_think()
        elif next_time == next_front_completion:
            front_queue -= 1
            db_queue += 1
            front_residual = front_state.sample_completion_interval()
        else:
            db_queue -= 1
            thinking += 1
            db_residual = db_state.sample_completion_interval()
            next_think_completion = schedule_think()
            if clock >= warmup:
                completed += 1

    # The loop intervals tile [0, horizon] exactly, so the accumulated
    # measurement time equals horizon - warmup up to float rounding; the
    # accumulated value is used as the denominator so that time-average and
    # count estimates stay mutually consistent.
    duration = measured_time
    # Jump-chain transitions: think completions plus the MAP jumps consumed
    # from the uniform stream (minus the two initial-phase draws).
    events = think_events + draws.uniforms_consumed - 2
    return ClosedNetworkSimResult(
        population=population,
        think_time=think_time,
        horizon=horizon,
        throughput=completed / duration,
        front_utilization=busy_front / duration,
        db_utilization=busy_db / duration,
        front_queue_length=area_front / duration,
        db_queue_length=area_db / duration,
        completed=completed,
        warmup=warmup,
        measured_time=measured_time,
        events=events,
    )
