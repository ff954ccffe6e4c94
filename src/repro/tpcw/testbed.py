"""The simulated three-tier TPC-W testbed.

The simulator reproduces the experimental environment of Section 3.1 of the
paper (Figure 3):

* a fixed number of **emulated browsers (EBs)**, each cycling through
  think → request → response (exponential think time, default 0.5 s),
* a **front server** (web + application tier) modelled as a single
  processor-sharing CPU,
* a **database server**, also processor-sharing, visited once per
  transaction with the transaction's aggregate query demand (the paper makes
  the same serialisation simplification for its analytical model and argues
  it does not affect the coarse-grained observables),
* the **contention process** of Section 3.3 that slows down the database
  queries of Best Seller / Home transactions during contention episodes,
* monitoring hooks that record, exactly like `sar` and HP Diagnostics would,
  per-window utilisations (1 s), completed-request counts (5 s), database
  queue lengths and per-transaction-type in-system counts.

Seed policy
-----------
The root seed spawns four single-purpose streams: think times, service
demands, session navigation and the contention schedule.  The first three
are read through buffered draws
(:class:`~repro.simulation.random_streams.ChunkedDraws`): think times and
demands are unit exponentials scaled at the call site, which numpy defines as
exactly ``exponential(scale)``, and each navigation step takes one uniform
for the stickiness test (when stickiness is positive) and one for the
cdf lookup that ``rng.choice(n, p=...)`` performs.  Because every stream does
one job, reading it in chunks only draws ahead of what is used: unlike
:mod:`repro.simulation.closed_network`, the chunk size is not part of the
trajectory here, and a run gives the same floats as unbuffered draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.monitoring.collector import MonitoringSeries, ServerMonitor
from repro.monitoring.windows import TimeWeightedWindows
from repro.simulation.events import EventQueue
from repro.simulation.ps_server import ProcessorSharingServer
from repro.simulation.random_streams import ChunkedDraws
from repro.tpcw.contention import ContentionConfig, ContentionProcess
from repro.tpcw.mixes import CustomerBehaviorGraph, TransactionMix
from repro.tpcw.transactions import TRANSACTION_CATALOG

__all__ = ["TestbedConfig", "TestbedResult", "TPCWTestbed", "check_monitoring_windows"]


def _whole_multiple(value: float, unit: float) -> bool:
    ratio = value / unit
    return abs(ratio - round(ratio)) <= 1e-9


def check_monitoring_windows(
    warmup: float, utilization_window: float, completion_window: float
) -> None:
    """Reject windows that the warm-up trim would leave out of step.

    The warm-up is cut from the utilisation and the completion series by
    whole windows, and :func:`~repro.tpcw.experiment.measurement_from_series`
    pairs the two by index, so the completion window must hold a whole number
    of utilisation windows and the warm-up a whole number of completion
    windows.
    """
    if utilization_window <= 0:
        raise ValueError("utilization_window must be positive")
    if completion_window < utilization_window or not _whole_multiple(
        completion_window, utilization_window
    ):
        raise ValueError(
            f"completion_window ({completion_window:g} s) must be a whole multiple "
            f"of utilization_window ({utilization_window:g} s)"
        )
    if not _whole_multiple(warmup, completion_window):
        raise ValueError(
            f"warmup ({warmup:g} s) must be a whole number of "
            f"{completion_window:g} s completion windows"
        )


@dataclass(frozen=True)
class TestbedConfig:
    """Configuration of one testbed experiment.

    Attributes
    ----------
    mix:
        Transaction mix driving the emulated browsers.
    num_ebs:
        Number of concurrent emulated browsers (sessions).
    think_time:
        Mean exponential user think time ``Z`` in seconds.
    duration:
        Measured experiment duration in seconds (after warm-up).
    warmup:
        Warm-up period excluded from every reported series and statistic;
        a whole number of completion windows.
    utilization_window:
        Granularity of the utilisation / queue-length series (``sar``, 1 s).
    completion_window:
        Granularity of the completed-request counts (Diagnostics, 5 s); a
        whole multiple of ``utilization_window``.
    contention:
        Parameters of the database contention process.
    tracked_transactions:
        Transaction types whose in-system request counts are recorded
        (Figures 7 and 8 track Best Sellers and Home).
    cbmg_stickiness:
        Optional serial correlation of the session navigation.
    seed:
        Root seed of all random streams.
    """

    mix: TransactionMix
    num_ebs: int
    think_time: float = 0.5
    duration: float = 600.0
    warmup: float = 60.0
    utilization_window: float = 1.0
    completion_window: float = 5.0
    contention: ContentionConfig = field(default_factory=ContentionConfig)
    tracked_transactions: tuple[str, ...] = ("Best Sellers", "Home")
    cbmg_stickiness: float = 0.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.num_ebs < 1:
            raise ValueError("num_ebs must be >= 1")
        if self.think_time <= 0:
            raise ValueError("think_time must be positive")
        if self.duration <= 0 or self.warmup < 0:
            raise ValueError("duration must be positive and warmup non-negative")
        unknown = set(self.tracked_transactions) - set(TRANSACTION_CATALOG)
        if unknown:
            raise ValueError("unknown tracked transactions: %s" % sorted(unknown))
        check_monitoring_windows(self.warmup, self.utilization_window, self.completion_window)

    @property
    def horizon(self) -> float:
        """Total simulated time including warm-up."""
        return self.warmup + self.duration


@dataclass(frozen=True)
class TestbedResult:
    """Monitoring data and aggregate statistics of one testbed run."""

    config: TestbedConfig
    front: MonitoringSeries
    database: MonitoringSeries
    tracked_in_system: dict[str, np.ndarray]
    throughput: float
    completed_transactions: int
    transaction_counts: dict[str, int]
    mean_response_time: float
    contention_episodes: tuple[tuple[float, float], ...]

    @property
    def front_utilization(self) -> float:
        """Average front-server utilisation over the measured interval."""
        return self.front.mean_utilization

    @property
    def db_utilization(self) -> float:
        """Average database-server utilisation over the measured interval."""
        return self.database.mean_utilization

    def summary(self) -> dict:
        """The quantities plotted in Figure 4 for this configuration."""
        return {
            "mix": self.config.mix.name,
            "num_ebs": self.config.num_ebs,
            "throughput": self.throughput,
            "front_utilization": self.front_utilization,
            "db_utilization": self.db_utilization,
            "mean_response_time": self.mean_response_time,
        }


class TPCWTestbed:
    """Discrete-event simulator of the three-tier TPC-W testbed."""

    _THINK_END = 0
    _FRONT_DONE = 1
    _DB_DONE = 2

    def __init__(self, config: TestbedConfig) -> None:
        self.config = config
        self._cbmg = CustomerBehaviorGraph(config.mix, stickiness=config.cbmg_stickiness)

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def run(self) -> TestbedResult:
        """Run the experiment and return its monitoring data."""
        config = self.config
        rng = np.random.default_rng(config.seed)
        think_draws = ChunkedDraws(np.random.default_rng(rng.integers(2**63)))
        demand_draws = ChunkedDraws(np.random.default_rng(rng.integers(2**63)))
        nav_draws = ChunkedDraws(np.random.default_rng(rng.integers(2**63)))
        contention_rng = np.random.default_rng(rng.integers(2**63))

        horizon = config.horizon
        contention = ContentionProcess(config.contention, horizon, contention_rng)

        front = ProcessorSharingServer("front")
        database = ProcessorSharingServer("database")
        front_monitor = ServerMonitor(
            "front", config.utilization_window, config.completion_window
        )
        db_monitor = ServerMonitor(
            "database", config.utilization_window, config.completion_window
        )
        tracked_windows = {
            name: TimeWeightedWindows(config.utilization_window)
            for name in config.tracked_transactions
        }
        tracked_counts = {name: 0 for name in config.tracked_transactions}

        events = EventQueue()
        # Per-EB session state: current transaction name (None until first request).
        current_transaction: list[str | None] = [None] * config.num_ebs
        request_start = [0.0] * config.num_ebs
        front_version = 0
        db_version = 0
        # Jobs at each server (``num_jobs``, counted here: it changes only on
        # arrive and complete_next).
        front_jobs = 0
        db_jobs = 0
        # Number of contention-sensitive requests currently at the database
        # (drives the cascade of the contention slowdown).
        sensitive_at_db = 0

        # Aggregate statistics (measured interval only).
        completed = 0
        response_time_sum = 0.0
        transaction_counts: dict[str, int] = {name: 0 for name in TRANSACTION_CATALOG}

        # Hot-loop bindings: one attribute lookup per run, not per event.
        think_time = config.think_time
        think = think_draws.exponential
        demand = demand_draws.exponential
        navigate = self._cbmg.next_transaction
        nav_uniform = nav_draws.uniform
        front_factor = contention.front_factor
        db_factor = contention.db_factor
        schedule = events.schedule
        pop = events.pop
        record_front = front_monitor.record_busy_interval
        record_db = db_monitor.record_busy_interval
        front_completion = front_monitor.record_completion
        db_completion = db_monitor.record_completion
        tracked = [(name, window.record) for name, window in tracked_windows.items()]
        catalog = TRANSACTION_CATALOG
        warmup = config.warmup
        think_end, front_done, db_done = self._THINK_END, self._FRONT_DONE, self._DB_DONE

        # Start every EB thinking (staggered by an initial think time).
        for eb in range(config.num_ebs):
            schedule(think() * think_time, (think_end, eb))

        clock = 0.0
        while events:
            event_time, payload = pop()
            if event_time > horizon:
                break
            # --- record the interval [clock, event_time) with the *current* state
            if event_time > clock:
                if front_jobs:
                    record_front(clock, event_time, front_jobs)
                if db_jobs:
                    record_db(clock, event_time, db_jobs)
                for name, record in tracked:
                    count = tracked_counts[name]
                    if count:
                        record(clock, event_time, count)
            clock = event_time

            kind = payload[0]
            if kind == think_end:
                eb = payload[1]
                transaction_name = navigate(current_transaction[eb], nav_uniform)
                current_transaction[eb] = transaction_name
                transaction = catalog[transaction_name]
                request_start[eb] = clock
                if transaction_name in tracked_counts:
                    tracked_counts[transaction_name] += 1
                scale = transaction.front_demand * front_factor(clock, transaction)
                front.arrive(eb, demand() * scale, clock)
                front_jobs += 1
                front_version += 1
                completion = front.next_completion_time(clock)
                if completion is not None:
                    schedule(completion, (front_done, front_version))
            elif kind == front_done:
                if payload[1] != front_version:
                    continue  # stale completion event
                if not front_jobs:
                    continue
                eb = front.complete_next(clock)
                front_jobs -= 1
                front_completion(clock)
                front_version += 1
                completion = front.next_completion_time(clock)
                if completion is not None:
                    schedule(completion, (front_done, front_version))
                transaction = catalog[current_transaction[eb]]
                scale = transaction.db_demand * db_factor(clock, transaction, sensitive_at_db)
                if transaction.contention_sensitive:
                    sensitive_at_db += 1
                database.arrive(eb, demand() * scale, clock)
                db_jobs += 1
                db_version += 1
                completion = database.next_completion_time(clock)
                if completion is not None:
                    schedule(completion, (db_done, db_version))
            else:  # DB_DONE
                if payload[1] != db_version:
                    continue
                if not db_jobs:
                    continue
                eb = database.complete_next(clock)
                db_jobs -= 1
                db_completion(clock)
                db_version += 1
                completion = database.next_completion_time(clock)
                if completion is not None:
                    schedule(completion, (db_done, db_version))
                transaction_name = current_transaction[eb]
                if catalog[transaction_name].contention_sensitive:
                    sensitive_at_db -= 1
                if transaction_name in tracked_counts:
                    tracked_counts[transaction_name] -= 1
                if clock >= warmup:
                    completed += 1
                    response_time_sum += clock - request_start[eb]
                    transaction_counts[transaction_name] += 1
                schedule(clock + think() * think_time, (think_end, eb))

        # ------------------------------------------------------------------
        # Snapshot the monitoring data and drop the warm-up windows.
        # ------------------------------------------------------------------
        front_series = self._trim(front_monitor.series(horizon), config)
        db_series = self._trim(db_monitor.series(horizon), config)
        tracked_series = {}
        util_skip = int(round(warmup / config.utilization_window))
        for name, window in tracked_windows.items():
            tracked_series[name] = window.series(horizon, normalize=True)[util_skip:]

        measured_duration = config.duration
        throughput = completed / measured_duration if measured_duration > 0 else 0.0
        mean_response = response_time_sum / completed if completed > 0 else float("nan")
        measured_episodes = tuple(
            (max(start, warmup) - warmup, end - warmup)
            for start, end in contention.episodes
            if end > warmup
        )
        return TestbedResult(
            config=config,
            front=front_series,
            database=db_series,
            tracked_in_system=tracked_series,
            throughput=throughput,
            completed_transactions=completed,
            transaction_counts=transaction_counts,
            mean_response_time=mean_response,
            contention_episodes=measured_episodes,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _trim(series: MonitoringSeries, config: TestbedConfig) -> MonitoringSeries:
        """Drop the warm-up windows from a monitoring series."""
        util_skip = int(round(config.warmup / series.utilization_window))
        completion_skip = int(round(config.warmup / series.completion_window))
        return MonitoringSeries(
            name=series.name,
            utilization_window=series.utilization_window,
            utilization=series.utilization[util_skip:],
            completion_window=series.completion_window,
            completions=series.completions[completion_skip:],
            queue_length=series.queue_length[util_skip:],
        )
