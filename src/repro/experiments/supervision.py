"""Per-cell supervision: timeouts, retries with backoff, crash isolation.

The bare ``multiprocessing.Pool`` the runner used to fan out with has a
production problem: one OOM-killed worker on a huge solve, or one hung
scipy call, poisons the whole campaign.  This module replaces it with a
*supervision envelope* around each work unit:

* every unit runs in its own worker process with a one-way result pipe,
* a per-cell wall-clock timeout (``cell_timeout``) kills hung workers,
* crashed / timed-out / erroring / corrupt-returning units are retried up
  to ``retries`` times with exponential backoff and decorrelated jitter,
* a unit that exhausts its retries becomes a typed
  :class:`~repro.experiments.results.CellFailure` instead of an exception —
  until more than ``max_failures`` cells have failed, at which point
  :class:`FailureBudgetExceeded` aborts the run (the default budget of 0
  makes any post-retry failure fatal; raise it to degrade gracefully to
  partial results).

Retry determinism: a work unit is a pure function of its payload (the cell
seed is derived from the spec and cell key, never from attempt count or
wall clock), so a cell that crashes twice and then succeeds returns rows
bit-identical to one that succeeded immediately.  Fault injection for tests
and chaos runs is read from ``REPRO_FAULT_INJECT`` inside the worker (see
:mod:`repro.experiments.faults`).
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import random
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Iterator

from repro.experiments.faults import (
    POOL_FAULT_KINDS,
    InjectedFault,
    active_directives,
    matching_directive,
)
from repro.experiments.results import CellFailure, CellResult

__all__ = [
    "FailureBudgetExceeded",
    "SupervisedTask",
    "SupervisionPolicy",
    "fork_context",
    "run_supervised",
]

#: Exit code of a worker killed by an injected crash (distinguishable from a
#: clean exit in supervisor logs; any non-zero exit is treated as a crash).
_CRASH_EXIT_CODE = 73

#: An injected hang sleeps this long; the per-cell timeout is expected to
#: reap the worker far earlier.
_HANG_SLEEP_SECONDS = 3600.0

#: Poll ceiling while waiting for a backoff window with no running workers.
_IDLE_WAIT_SECONDS = 0.5


class FailureBudgetExceeded(RuntimeError):
    """More cells failed than ``max_failures`` allows; the run is aborted."""

    def __init__(self, failures: list[CellFailure], budget: int) -> None:
        latest = ", ".join(failure.key for failure in failures[-3:])
        super().__init__(
            f"{len(failures)} cell(s) failed permanently, exceeding the "
            f"failure budget of {budget} (latest: {latest})"
        )
        self.failures = tuple(failures)
        self.budget = budget


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs of the supervision envelope (CLI: ``--cell-timeout``,
    ``--retries``, ``--max-failures``)."""

    #: Wall-clock seconds one attempt of one work unit may take before its
    #: worker is killed; ``None`` disables the timeout.
    cell_timeout: float | None = None
    #: Retries after the first attempt (so a unit runs at most ``1+retries``
    #: times).
    retries: int = 2
    #: How many cells may fail permanently before the run aborts.
    max_failures: int = 0
    #: First retry backoff in seconds; later retries use decorrelated jitter
    #: (``sleep = min(cap, uniform(base, prev * 3))``).
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive when given")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.max_failures < 0:
            raise ValueError("max_failures must be >= 0")
        if self.backoff_base <= 0 or self.backoff_cap < self.backoff_base:
            raise ValueError("backoff must satisfy 0 < base <= cap")


def fork_context():
    """Prefer ``fork`` (cheap, inherits ``sys.path`` and warmed caches)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


@dataclass(frozen=True)
class SupervisedTask:
    """One supervised work unit (a single cell or a batched replication set).

    ``cells`` carries ``(key, solver_label, seed, replication)`` per covered
    cell so a permanent failure can be recorded per cell in the manifest.
    """

    payload: Any
    keys: tuple[str, ...]
    cells: tuple[tuple[str, str, int, int], ...]


def _child_main(conn, execute, payload, keys, attempt) -> None:
    """Worker entry point: apply fault injection, execute, ship the rows."""
    directive = None
    for key in keys:
        directive = matching_directive(
            active_directives(), key, attempt, kinds=POOL_FAULT_KINDS
        )
        if directive is not None:
            break
    try:
        if directive is not None:
            if directive.kind == "crash":
                os._exit(_CRASH_EXIT_CODE)
            if directive.kind == "hang":
                time.sleep(_HANG_SLEEP_SECONDS)
                os._exit(_CRASH_EXIT_CODE)
            if directive.kind == "corrupt":
                conn.send(("rows", [("__corrupt__", None) for _ in keys]))
                return
            raise InjectedFault(
                f"injected error for {keys[0]!r} (attempt {attempt})"
            )
        rows = execute(payload)
    except BaseException as error:  # ship the failure; never die silently
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except (BrokenPipeError, OSError):
            pass
        return
    conn.send(("rows", rows))


@dataclass
class _Running:
    task: SupervisedTask
    attempt: int
    process: Any
    conn: Any
    deadline: float | None
    started: float
    prev_sleep: float


def run_supervised(
    tasks: list[SupervisedTask],
    execute: Callable[[Any], list],
    policy: SupervisionPolicy,
    jobs: int,
    context=None,
    validate_rows: Callable[[Any, SupervisedTask], bool] | None = None,
) -> Iterator[tuple[str, Any]]:
    """Execute tasks under supervision; yield events as units settle.

    Events: ``("rows", [(key, CellResult), ...])`` for a completed unit,
    ``("retry", keys)`` when an attempt failed and the unit was re-queued,
    ``("failures", [CellFailure, ...])`` when a unit exhausted its retries.
    Raises :class:`FailureBudgetExceeded` once permanent failures outnumber
    ``policy.max_failures`` (running workers are killed, completed rows have
    already been yielded).

    ``validate_rows`` decides whether a worker's payload is structurally
    acceptable (a rejected payload is classified as ``corrupt`` and retried).
    The default enforces the experiment runner's cell contract — one
    :class:`CellResult` per task key; other supervised pipelines (the live
    what-if service stages) pass their own validator instead of duplicating
    the envelope.
    """
    if validate_rows is None:
        validate_rows = _rows_valid
    if context is None:
        context = fork_context()
    jobs = max(1, jobs)
    max_attempts = 1 + policy.retries
    # Jitter only spaces out retry launches; results never depend on it.
    jitter = random.Random(0x5EED)
    sequence = itertools.count()
    # Heap of (not_before, tiebreak, task, attempt, prev_sleep).
    queue: list[tuple[float, int, SupervisedTask, int, float]] = []
    for task in tasks:
        heapq.heappush(queue, (0.0, next(sequence), task, 1, policy.backoff_base))
    running: dict[Any, _Running] = {}
    failures: list[CellFailure] = []

    def _launch(task: SupervisedTask, attempt: int, prev_sleep: float) -> None:
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_child_main,
            args=(child_conn, execute, task.payload, task.keys, attempt),
            daemon=True,
        )
        process.start()
        child_conn.close()  # keep exactly one write end so EOF means death
        now = time.monotonic()
        deadline = now + policy.cell_timeout if policy.cell_timeout else None
        running[parent_conn] = _Running(
            task=task,
            attempt=attempt,
            process=process,
            conn=parent_conn,
            deadline=deadline,
            started=now,
            prev_sleep=prev_sleep,
        )

    def _settle(entry: _Running, kind: str, message: str):
        """Retry or record a failed attempt; returns the event to yield."""
        if entry.attempt < max_attempts:
            sleep = min(
                policy.backoff_cap,
                jitter.uniform(policy.backoff_base, max(policy.backoff_base, entry.prev_sleep * 3.0)),
            )
            heapq.heappush(
                queue,
                (time.monotonic() + sleep, next(sequence), entry.task, entry.attempt + 1, sleep),
            )
            return ("retry", entry.task.keys)
        elapsed = time.monotonic() - entry.started
        unit_failures = [
            CellFailure(
                key=key,
                solver=solver,
                kind=kind,
                attempts=entry.attempt,
                seed=seed,
                replication=replication,
                message=message,
                elapsed_seconds=elapsed,
            )
            for key, solver, seed, replication in entry.task.cells
        ]
        failures.extend(unit_failures)
        return ("failures", unit_failures)

    def _reap(entry: _Running) -> None:
        try:
            entry.conn.close()
        except OSError:
            pass
        entry.process.join()

    try:
        while queue or running:
            now = time.monotonic()
            while len(running) < jobs and queue and queue[0][0] <= now:
                _, _, task, attempt, prev_sleep = heapq.heappop(queue)
                _launch(task, attempt, prev_sleep)
            if not running:
                # Every unit is backing off; sleep until the earliest wakes.
                time.sleep(min(_IDLE_WAIT_SECONDS, max(0.0, queue[0][0] - now)))
                continue
            waits = [entry.deadline - now for entry in running.values() if entry.deadline is not None]
            if queue and len(running) < jobs:
                waits.append(queue[0][0] - now)
            timeout = max(0.0, min(waits)) if waits else None
            ready = mp_connection.wait(list(running), timeout=timeout)
            for conn in ready:
                entry = running.pop(conn)
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    _reap(entry)
                    code = entry.process.exitcode
                    event = _settle(entry, "crash", f"worker died with exit code {code}")
                else:
                    _reap(entry)
                    if (
                        isinstance(message, tuple)
                        and len(message) == 2
                        and message[0] == "rows"
                        and validate_rows(message[1], entry.task)
                    ):
                        event = ("rows", message[1])
                    elif isinstance(message, tuple) and len(message) == 2 and message[0] == "error":
                        event = _settle(entry, "error", str(message[1]))
                    else:
                        event = _settle(
                            entry,
                            "corrupt",
                            "worker returned a corrupt payload "
                            f"({_describe_payload(message)})",
                        )
                yield event
                if event[0] == "failures" and len(failures) > policy.max_failures:
                    raise FailureBudgetExceeded(failures, policy.max_failures)
            now = time.monotonic()
            for conn, entry in list(running.items()):
                if entry.deadline is not None and now >= entry.deadline:
                    running.pop(conn)
                    entry.process.kill()
                    _reap(entry)
                    event = _settle(
                        entry,
                        "timeout",
                        f"cell exceeded the {policy.cell_timeout:g}s timeout; worker killed",
                    )
                    yield event
                    if event[0] == "failures" and len(failures) > policy.max_failures:
                        raise FailureBudgetExceeded(failures, policy.max_failures)
    finally:
        for entry in running.values():
            entry.process.kill()
            _reap(entry)
        running.clear()


def _rows_valid(rows, task: SupervisedTask) -> bool:
    """A worker result is accepted only if it covers exactly the task's cells."""
    if not isinstance(rows, list) or len(rows) != len(task.keys):
        return False
    seen = set()
    for item in rows:
        if not (isinstance(item, tuple) and len(item) == 2):
            return False
        key, row = item
        if not isinstance(row, CellResult):
            return False
        seen.add(key)
    return seen == set(task.keys)


def _describe_payload(message) -> str:
    if isinstance(message, tuple) and len(message) == 2 and message[0] == "rows":
        return f"rows with unexpected keys or types, {len(message[1])} item(s)"
    return f"unexpected message of type {type(message).__name__}"
