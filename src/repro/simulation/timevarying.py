"""Simulation of the closed MAP network under a time-varying timeline.

The static kernels (:mod:`repro.simulation.closed_network` scalar event loop,
:mod:`repro.simulation.batched` lockstep batch) simulate one fixed network.
This module simulates a *timeline* of :class:`~repro.queueing.transient.
NetworkSegment` entries — diurnal load curves, flash-crowd population ramps,
regime-switching service MAPs, server slowdown and recovery — with the same
trajectory semantics as the transient solver layer
(:mod:`repro.queueing.transient`):

* service-MAP regime switches carry the current phase over (all segments
  must use MAPs of equal orders),
* population increases add customers to the think station,
* population decreases drop the excess from the front queue first, then the
  database queue,
* hard outages (``front_up`` / ``db_up`` false) freeze the down station: its
  service rate is zero, its phase does not move, and jobs queue at it until
  a later segment brings the station back.

A segment in which *every* job is queued at a down station (and the other
station is empty) is a deadlock — no jump can fire.  Both kernels detect the
zero-total-rate state and advance the clock deterministically to the segment
boundary (or the horizon): the scalar kernel consumes no draws for the jump
it never samples, while the batched kernel keeps its lockstep per-column
consumption (the deadlocked replication's draws are discarded exactly like a
clamped step's).  No-outage timelines never hit either path, so their
trajectories are bit-identical to what this module produced before outages
existed.

Segment boundaries
------------------
Both kernels advance the embedded jump chain (the vectorized SSA of the
batched kernel).  When a sampled holding time would carry a replication past
its current segment's end, the step is *clamped*: the clock moves exactly to
the boundary and **no state transition fires**.  This is statistically exact
— the holding time to the next jump is exponential in the current state, so
the process restarted at the boundary with the new segment's rates is the
correct continuation (memorylessness); the clamped draw is simply discarded.

Seed policy
-----------
A clamped step still consumes exactly the same draws as a regular step (one
exponential, one event uniform, one destination uniform), so the per-step
stream layout of the static kernels is preserved: the batched kernel remains
**per-replication deterministic and batch-composition independent** — a
replication's trajectory depends on its own seed and the timeline alone, so
cached replication sets resume bit-identically under any re-batching.  Per
replication the batched stream is consumed exactly as in
:mod:`repro.simulation.batched` (two initial-phase uniforms, then
``BATCH_RNG_CHUNK``-sized blocks of exponentials / event uniforms /
destination uniforms).  The scalar kernel draws per step from the chunked
streams of :class:`~repro.simulation.random_streams.ChunkedDraws` (two
initial-phase uniforms, then per step one exponential and two uniforms);
like the static pair, the two backends consume their generators differently
and give different (equally valid) trajectories for the same seed.

Statistics are collected **per segment** (time-weighted over each segment's
overlap with the post-warmup measurement window) and aggregated over the
whole timeline, so simulated segment estimates are directly comparable with
the per-segment metrics of the piecewise solvers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.queueing.transient import NetworkSegment
from repro.simulation.batched import (
    BATCH_RNG_CHUNK,
    BATCH_WINDOW,
    _destination_table,
    _fold_columns,
    _initial_phase,
)
from repro.simulation.random_streams import ChunkedDraws

__all__ = [
    "SegmentSimStats",
    "TimeVaryingSimResult",
    "simulate_timevarying_closed_map_network",
    "simulate_timevarying_closed_map_network_batch",
]


@dataclass(frozen=True)
class SegmentSimStats:
    """Time-weighted estimates over one segment's measured interval.

    ``measured_time`` is the overlap of the segment with the post-warmup
    measurement window; a segment entirely inside the warmup has zero
    measured time and reports zero rates.
    """

    label: str
    start: float
    end: float
    population: int
    throughput: float
    front_utilization: float
    db_utilization: float
    front_queue_length: float
    db_queue_length: float
    completed: int
    measured_time: float


@dataclass(frozen=True)
class TimeVaryingSimResult:
    """Estimates of one replication over a whole time-varying timeline."""

    horizon: float
    warmup: float
    throughput: float
    front_utilization: float
    db_utilization: float
    front_queue_length: float
    db_queue_length: float
    completed: int
    measured_time: float
    events: int
    segments: tuple[SegmentSimStats, ...]

    def summary(self) -> dict:
        """Headline metrics (same keys as the static kernels and solvers)."""
        return {
            "throughput": self.throughput,
            "front_utilization": self.front_utilization,
            "db_utilization": self.db_utilization,
            "front_queue_length": self.front_queue_length,
            "db_queue_length": self.db_queue_length,
        }


def _validate_timeline(segments: Sequence[NetworkSegment], warmup: float) -> float:
    if not segments:
        raise ValueError("at least one segment is required")
    first = segments[0]
    for segment in segments[1:]:
        if (
            segment.front.order != first.front.order
            or segment.db.order != first.db.order
        ):
            raise ValueError(
                "all segments must use service MAPs of equal orders so phases "
                "carry over at regime switches"
            )
    horizon = float(sum(segment.duration for segment in segments))
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    if horizon <= warmup:
        raise ValueError("timeline horizon must exceed warmup")
    return horizon


def _segment_stats(
    segments: Sequence[NetworkSegment],
    boundaries: np.ndarray,
    completed: np.ndarray,
    busy_front: np.ndarray,
    busy_db: np.ndarray,
    area_front: np.ndarray,
    area_db: np.ndarray,
    measured: np.ndarray,
) -> tuple[SegmentSimStats, ...]:
    stats = []
    start = 0.0
    for s, segment in enumerate(segments):
        m = float(measured[s])
        scale = 1.0 / m if m > 0 else 0.0
        stats.append(
            SegmentSimStats(
                label=segment.label,
                start=start,
                end=float(boundaries[s]),
                population=segment.population,
                throughput=float(completed[s]) * scale,
                front_utilization=float(busy_front[s]) * scale,
                db_utilization=float(busy_db[s]) * scale,
                front_queue_length=float(area_front[s]) * scale,
                db_queue_length=float(area_db[s]) * scale,
                completed=int(completed[s]),
                measured_time=m,
            )
        )
        start = float(boundaries[s])
    return tuple(stats)


def _overall_result(
    horizon: float,
    warmup: float,
    events: int,
    segment_stats: tuple[SegmentSimStats, ...],
) -> TimeVaryingSimResult:
    measured = sum(s.measured_time for s in segment_stats)
    completed = sum(s.completed for s in segment_stats)
    scale = 1.0 / measured if measured > 0 else 0.0
    return TimeVaryingSimResult(
        horizon=horizon,
        warmup=warmup,
        throughput=completed * scale,
        front_utilization=sum(s.front_utilization * s.measured_time for s in segment_stats) * scale,
        db_utilization=sum(s.db_utilization * s.measured_time for s in segment_stats) * scale,
        front_queue_length=sum(s.front_queue_length * s.measured_time for s in segment_stats) * scale,
        db_queue_length=sum(s.db_queue_length * s.measured_time for s in segment_stats) * scale,
        completed=completed,
        measured_time=measured,
        events=events,
        segments=segment_stats,
    )


def simulate_timevarying_closed_map_network(
    segments: Sequence[NetworkSegment],
    warmup: float = 0.0,
    rng: np.random.Generator | None = None,
) -> TimeVaryingSimResult:
    """Scalar jump-chain simulation of one replication over a timeline."""
    segments = list(segments)
    horizon = _validate_timeline(segments, warmup)
    if rng is None:
        rng = np.random.default_rng()
    draws = ChunkedDraws(rng)
    num_segments = len(segments)
    boundaries = np.cumsum([segment.duration for segment in segments])

    # Per-segment parameter tables (plain lists for the scalar hot loop).
    K1 = segments[0].front.order
    K2 = segments[0].db.order
    params = []
    for segment in segments:
        # A down station's exit rates are zero: it never wins the event race,
        # so its (healthy-MAP) jump CDF is never consulted and its phase
        # stays frozen through the outage.
        front_exit = (
            (-np.diag(segment.front.D0)).tolist() if segment.front_up else [0.0] * K1
        )
        db_exit = (
            (-np.diag(segment.db.D0)).tolist() if segment.db_up else [0.0] * K2
        )
        front_cdf = _scalar_jump_cdf(segment.front)
        db_cdf = _scalar_jump_cdf(segment.db)
        params.append(
            (
                segment.population,
                1.0 / segment.think_time,
                front_exit,
                db_exit,
                front_cdf,
                db_cdf,
            )
        )

    # Initial state: everyone thinking, phases ~ the first segment's MAPs'
    # embedded stationary distributions (front drawn first, then database —
    # the shared initial-draw order of all kernels).
    front_cum = np.cumsum(segments[0].front.embedded_stationary)
    db_cum = np.cumsum(segments[0].db.embedded_stationary)
    fp = _initial_phase(front_cum, draws.uniform())
    dp = _initial_phase(db_cum, draws.uniform())

    nf = 0
    ndb = 0
    clock = 0.0
    s = 0
    events = 0
    completed = np.zeros(num_segments, dtype=np.int64)
    busy_front = np.zeros(num_segments)
    busy_db = np.zeros(num_segments)
    area_front = np.zeros(num_segments)
    area_db = np.zeros(num_segments)
    measured = np.zeros(num_segments)

    def _measure(start: float, end: float) -> None:
        span = min(end, horizon) - max(start, warmup)
        if span <= 0:
            return
        measured[s] += span
        if nf > 0:
            busy_front[s] += span
            area_front[s] += span * nf
        if ndb > 0:
            busy_db[s] += span
            area_db[s] += span * ndb

    while clock < horizon:
        population, inv_think, front_exit, db_exit, front_cdf, db_cdf = params[s]
        think_rate = (population - nf - ndb) * inv_think
        front_rate = front_exit[fp] if nf > 0 else 0.0
        db_rate = db_exit[dp] if ndb > 0 else 0.0
        total_rate = think_rate + front_rate + db_rate
        if total_rate <= 0.0:
            # Deadlock: every job is queued at a down station and the other
            # station is empty.  No jump can fire, so the clock advances
            # deterministically to the segment boundary, consuming no draws
            # (there is no holding time to sample).
            segment_end = float(boundaries[s])
            _measure(clock, segment_end)
            clock = segment_end
            if s == num_segments - 1:
                break
            s += 1
            excess = nf + ndb - params[s][0]
            if excess > 0:
                drop_front = min(nf, excess)
                nf -= drop_front
                ndb -= excess - drop_front
            continue
        # A clamped step consumes exactly the draws of a regular step.
        dt = draws.exponential() / total_rate
        u = draws.uniform()
        v = draws.uniform()
        new_clock = clock + dt
        segment_end = float(boundaries[s])
        if new_clock >= segment_end and s < num_segments - 1:
            # Clamp to the boundary: no transition fires (see module
            # docstring); the next segment's parameters take over and a
            # population decrease truncates front first, then database.
            _measure(clock, segment_end)
            clock = segment_end
            s += 1
            excess = nf + ndb - params[s][0]
            if excess > 0:
                drop_front = min(nf, excess)
                nf -= drop_front
                ndb -= excess - drop_front
            continue
        _measure(clock, new_clock)
        clock = new_clock
        if clock >= horizon:
            break
        events += 1
        x = u * total_rate
        if x < think_rate:
            nf += 1
        elif x < think_rate + front_rate:
            jump = min(bisect_right(front_cdf[fp], v), 2 * K1 - 1)
            if jump >= K1:
                fp = jump - K1
                nf -= 1
                ndb += 1
            else:
                fp = jump
        else:
            jump = min(bisect_right(db_cdf[dp], v), 2 * K2 - 1)
            if jump >= K2:
                dp = jump - K2
                ndb -= 1
                if warmup <= clock < horizon:
                    completed[s] += 1
            else:
                dp = jump

    stats = _segment_stats(
        segments, boundaries, completed, busy_front, busy_db, area_front, area_db, measured
    )
    return _overall_result(horizon, warmup, events, stats)


def _scalar_jump_cdf(map_process) -> list[list[float]]:
    """Per-phase cumulative jump distribution over the 2K outcomes."""
    rates = -np.diag(map_process.D0)
    hidden = np.maximum(map_process.D0, 0.0)
    np.fill_diagonal(hidden, 0.0)
    marked = np.maximum(map_process.D1, 0.0)
    return np.cumsum(np.hstack([hidden, marked]) / rates[:, None], axis=1).tolist()


def simulate_timevarying_closed_map_network_batch(
    segments: Sequence[NetworkSegment],
    warmup: float = 0.0,
    seeds: Sequence[int] = (),
) -> list[TimeVaryingSimResult]:
    """Lockstep batched simulation of ``len(seeds)`` timeline replications.

    The vectorized SSA of :func:`~repro.simulation.batched.
    simulate_closed_map_network_batch` extended with per-replication segment
    tracking: every step gathers each replication's current segment's
    parameters (population, think rate, exit rates, destination-CDF table
    rows) from stacked per-segment tables, and boundary crossings clamp the
    replication individually.  Statistics fold per segment through the same
    batch-width-independent pairwise tree-sum, so results are
    batch-composition independent and resume bit-identically.
    """
    segments = list(segments)
    horizon = _validate_timeline(segments, warmup)
    if not seeds:
        raise ValueError("seeds must contain at least one replication seed")

    num_segments = len(segments)
    K1 = segments[0].front.order
    K2 = segments[0].db.order
    KG = K1 + K2
    boundaries = np.cumsum([segment.duration for segment in segments])
    pop_table = np.array([float(segment.population) for segment in segments])
    pop_int = np.array([segment.population for segment in segments], dtype=np.int64)
    inv_think_table = np.array([1.0 / segment.think_time for segment in segments])
    # Down stations get all-zero exit rates: they can never win the event
    # race, so the (healthy-MAP) destination rows below stay untouched and
    # phases freeze through the outage.
    exit_flat = np.concatenate(
        [
            np.concatenate(
                [
                    -np.diag(s.front.D0) if s.front_up else np.zeros(K1),
                    -np.diag(s.db.D0) if s.db_up else np.zeros(K2),
                ]
            )
            for s in segments
        ]
    )
    # Stacked destination tables: row `seg * KG + global_phase`.
    dest_table = np.vstack([_destination_table(s.front, s.db) for s in segments])
    table_width = dest_table.shape[1]

    R = len(seeds)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    front_cum = np.cumsum(segments[0].front.embedded_stationary)
    db_cum = np.cumsum(segments[0].db.embedded_stationary)
    fp = np.empty(R, dtype=np.intp)
    dp = np.empty(R, dtype=np.intp)
    for r, rng in enumerate(rngs):
        fp[r] = _initial_phase(front_cum, rng.random())
        dp[r] = K1 + _initial_phase(db_cum, rng.random())

    nf = np.zeros(R, dtype=np.int64)
    ndb = np.zeros(R, dtype=np.int64)
    clock = np.zeros(R)
    seg_idx = np.zeros(R, dtype=np.intp)
    events = np.zeros(R, dtype=np.int64)
    completed = np.zeros((num_segments, R), dtype=np.int64)
    busy_front = np.zeros((num_segments, R))
    busy_db = np.zeros((num_segments, R))
    area_front = np.zeros((num_segments, R))
    area_db = np.zeros((num_segments, R))
    measured = np.zeros((num_segments, R))

    chunk = BATCH_RNG_CHUNK
    store_shape = (chunk, R + 1)
    exp_store = np.empty(store_shape)
    event_store = np.empty(store_shape)
    dest_store = np.empty(store_shape)
    refill_block = min(16, R)
    refill_scratch = np.empty((refill_block, chunk))

    def _refill() -> None:
        # Identical stream layout to the static batched kernel (the seed
        # policy): per refill, `chunk` exponentials, then `chunk` event
        # uniforms, then `chunk` destination uniforms per replication.
        for store, draw in (
            (exp_store, lambda rng, out: rng.standard_exponential(chunk, out=out)),
            (event_store, lambda rng, out: rng.random(out=out)),
            (dest_store, lambda rng, out: rng.random(out=out)),
        ):
            for r0 in range(0, R, refill_block):
                block = min(refill_block, R - r0)
                for i in range(block):
                    draw(rngs[r0 + i], refill_scratch[i])
                store[:, r0:r0 + block] = refill_scratch[:block].T

    S = BATCH_WINDOW
    nf_buf = np.empty((S, R), dtype=np.int32)
    ndb_buf = np.empty((S, R), dtype=np.int32)
    clock_buf = np.empty((S, R))
    md_buf = np.empty((S, R), dtype=bool)
    seg_buf = np.empty((S, R), dtype=np.intp)
    clamp_buf = np.empty((S, R), dtype=bool)
    before = np.empty((S, R))
    span = np.empty((S, R))
    span_start = np.empty((S, R))
    start_clock = np.empty(R)

    position = chunk  # forces a refill on the first window
    last_segment = num_segments - 1
    while True:
        if position >= chunk:
            _refill()
            position = 0
        np.copyto(start_clock, clock)
        for s in range(S):
            column = position + s
            nf_buf[s] = nf
            ndb_buf[s] = ndb
            seg_buf[s] = seg_idx
            # Per-replication segment parameters.
            population = np.take(pop_table, seg_idx)
            inv_think = np.take(inv_think_table, seg_idx)
            think_rate = (population - nf - ndb) * inv_think
            base = seg_idx * KG
            front_rate = np.take(exit_flat, base + fp) * (nf > 0)
            db_rate = np.take(exit_flat, base + dp) * (ndb > 0)
            through_front = think_rate + front_rate
            total_rate = through_front + db_rate
            # A deadlocked replication (every job queued at a down station)
            # has total_rate == 0: dt = inf clamps it to its segment
            # boundary, or — on the last segment — carries it past the
            # horizon with no further transitions.  Its draws are consumed
            # like a clamped step's (the lockstep seed policy).
            alive = total_rate > 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                dt = exp_store[column, :R] / total_rate
            np.copyto(dt, np.inf, where=~alive)
            new_clock = clock + dt
            segment_end = np.take(boundaries, seg_idx)
            clamp = (new_clock >= segment_end) & (seg_idx < last_segment)
            clock = np.where(clamp, segment_end, new_clock)
            clock_buf[s] = clock
            # Event resolution (clamped and deadlocked replications fire no
            # transition but consumed their draws all the same).
            u = event_store[column, :R] * total_rate
            past_think = u >= think_rate
            past_front = u >= through_front
            act = np.where(past_front, dp, fp)
            rows = np.take(dest_table, base + act, axis=0)
            jump = np.sum(rows <= dest_store[column, :R, None], axis=1)
            marked = jump >= KG
            dest = jump - marked * KG
            apply = ~clamp & alive
            clamp_buf[s] = ~apply
            front_event = (past_think != past_front) & apply
            db_event = past_front & apply
            think_event = ~past_think & apply
            np.copyto(fp, dest, where=front_event)
            np.copyto(dp, dest, where=db_event)
            marked_front = front_event & marked
            marked_db = db_event & marked
            md_buf[s] = marked_db
            nf += think_event
            nf -= marked_front
            ndb += marked_front
            ndb -= marked_db
            if clamp.any():
                # Enter the next segment; a population decrease drops the
                # excess from the front queue first, then the database
                # (unclamped replications already satisfy their segment's
                # population constraint, so the global clip is a no-op
                # for them).
                seg_idx = seg_idx + clamp
                excess = np.clip(nf + ndb - np.take(pop_int, seg_idx), 0, None)
                drop_front = np.minimum(nf, excess)
                nf -= drop_front
                ndb -= excess - drop_front
        position += S
        # Window reductions: per-segment time-weighted statistics; every
        # measured interval lies inside its step-start segment because
        # boundary crossings are clamped.
        before[0] = start_clock
        before[1:] = clock_buf[:-1]
        np.minimum(clock_buf, horizon, out=span)
        np.maximum(before, warmup, out=span_start)
        span -= span_start
        np.clip(span, 0.0, None, out=span)
        in_window = (clock_buf >= warmup) & (clock_buf < horizon)
        for g in range(num_segments):
            mask = seg_buf == g
            masked_span = span * mask
            measured[g] += _fold_columns(masked_span)
            busy_front[g] += _fold_columns(masked_span * (nf_buf > 0))
            busy_db[g] += _fold_columns(masked_span * (ndb_buf > 0))
            area_front[g] += _fold_columns(masked_span * nf_buf)
            area_db[g] += _fold_columns(masked_span * ndb_buf)
            completed[g] += (md_buf & mask & in_window).sum(axis=0)
        events += ((before < horizon) & ~clamp_buf).sum(axis=0)
        if clock.min() >= horizon:
            break

    results = []
    for r in range(R):
        stats = _segment_stats(
            segments,
            boundaries,
            completed[:, r],
            busy_front[:, r],
            busy_db[:, r],
            area_front[:, r],
            area_db[:, r],
            measured[:, r],
        )
        results.append(_overall_result(horizon, warmup, int(events[r]), stats))
    return results
