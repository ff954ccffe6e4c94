"""Crash-tolerant distributed sweep orchestration over a shared run directory.

The pool backend (:mod:`repro.experiments.supervision`) supervises workers it
forked itself: state lives in the supervisor's memory, so a SIGKILLed
*supervisor* loses the in-flight bookkeeping and a second machine cannot help
drain a large campaign.  This module replaces that coupling with a
**file-backed work queue** kept inside the campaign's own cache run
directory::

    <cache-dir>/<scenario>-<spec-hash>/
        manifest.json            # merged result (the cache layer's document)
        <cell-slug>-<h>.npz      # artifact side-files, written by workers
        .fleet/
            campaign.json        # units, lease timeout, SupervisionPolicy
            leases/<unit>.json   # at most one per unit: owner, heartbeat, claim
            claims/<unit>.<n>.json         # O_EXCL marker of claim n (+ retries)
            claims/<unit>.<n>.reaped.json  # why claim n's lease was reaped
            done/<unit>.json     # exactly-once commit marker
            results/<unit>.json  # per-unit result shard (manifest row records)
            failed/<unit>.json   # per-unit permanent-failure records
            workers/<owner>.json # worker heartbeats (for ``fleet workers``)

Everything is plain files with atomic writes, so the fleet needs no broker,
no sockets and no shared memory — N **stateless worker processes** (local,
or on any host that shares the cache directory) cooperate purely through the
queue.  A worker does only this:

* *claim* a unit by creating ``leases/<unit>.json`` with ``O_CREAT |
  O_EXCL`` (+ fsync) — the filesystem arbitrates races — and then the claim
  marker ``claims/<unit>.<n>.json`` with ``O_EXCL``, so claim numbers only
  ever increase; a claimer that loses the marker race gives the lease back,
* heartbeat the lease from a thread while the unit runs,
* run the unit through :func:`~repro.experiments.supervision.run_supervised`
  — the pool's own envelope, with the campaign's
  :class:`~repro.experiments.supervision.SupervisionPolicy`: per-attempt
  timeout, retries, backoff, ``crash``/``hang``/``error``/``corrupt``
  classification,
* *commit* the unit's result shard and then create the ``done/`` marker
  with ``O_EXCL`` — so even a forced double claim commits **exactly once**
  and the loser discards its result — or write the unit's typed
  :class:`CellFailure` records into ``failed/``.

Anyone (worker or supervisor) *reaps* a lease whose heartbeat went stale or
whose same-host owner pid died.  A reap only frees the unit: it renames the
lease to a private tomb and keeps it only if the tomb still holds the very
bytes it judged stale (anything else is put back), so it can never delete a
live lease.  The next claim of a reaped unit takes the next claim number; a
unit claimed ``1 + retries`` times whose last lease was reaped settles as
failed with the kind of that reap (``timeout`` or ``crash``).

Work units are the runner's existing content-addressed shapes (single cells,
or every pending replication of a batched-simulation grid point), and cell
seeds derive from the spec — never from attempt count, owner or wall clock —
so a SIGKILLed worker loses nothing but its in-flight unit, and the fleet
converges on a manifest whose :func:`~repro.experiments.cache.manifest_fingerprint`
is identical to a serial run's.

The **supervisor** (:func:`campaign_events`, driven by
:class:`~repro.experiments.runner.ExperimentRunner` with ``backend="fleet"``
or by :func:`run_fleet_campaign`) builds the campaign, spawns the local
workers, reaps and respawns, and streams settled units into the manifest as
the runner's ordinary ``rows``/``retry``/``failures`` events.  It enforces
the failure budget (``SupervisionPolicy.max_failures``).  On SIGINT/SIGTERM
it drains gracefully: workers are asked to finish their current unit,
committed shards are merged into a resumable ``status: "partial"`` manifest,
every lease is released, and :class:`CampaignInterrupted` propagates (CLI
exit code 1).  Each spawned worker leads its own process group, so killing a
worker at the end of the drain grace, or after it died, also kills the
unit's child process.  Killing the supervisor outright is also safe — the
queue *is* the state, so a later supervisor (or a bare
:func:`fetch_campaign`) attaches and continues.

Fault injection: fleet workers honour the ``worker-kill``, ``lease-stall``
and ``double-claim`` kinds of ``REPRO_FAULT_INJECT`` at the claim number;
the unit's child honours the pool kinds at the supervised attempt number —
see :mod:`repro.experiments.faults`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import signal
import socket
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Iterator

from repro.experiments.cache import (
    FLEET_DIRNAME,
    ResultCache,
    _artifact_stem,
    manifest_record,
    rows_from_records,
    source_fingerprint,
)
from repro.experiments.faults import (
    FLEET_FAULT_KINDS,
    active_directives,
    matching_directive,
)
from repro.experiments.results import ArtifactRef, CellFailure, CellResult, write_artifact
from repro.experiments.results.schema import ExperimentResult
from repro.experiments.runner import (
    ExperimentRunner,
    _execute_payload,
    collect_result,
    plan_run,
    supervised_task,
)
from repro.experiments.solvers import simulation_batch_groups, warm_shared_inputs
from repro.experiments.spec import Cell, ScenarioSpec
from repro.experiments.supervision import (
    FailureBudgetExceeded,
    SupervisionPolicy,
    fork_context,
    run_supervised,
)

__all__ = [
    "CampaignInterrupted",
    "FleetPolicy",
    "FleetQueue",
    "WorkUnit",
    "build_units",
    "campaign_events",
    "campaign_status",
    "fetch_campaign",
    "fleet_worker",
    "run_fleet_campaign",
    "submit_campaign",
]

logger = logging.getLogger(__name__)

_CAMPAIGN = "campaign.json"
_CAMPAIGN_FORMAT = 2
#: Safety ceiling for a fence-waiting stalled worker (``lease-stall``): if
#: nobody reaps the lease within this many timeouts, abandon anyway.
_STALL_TIMEOUTS = 20.0
#: Idle poll period of workers and supervisor.
_POLL_INTERVAL = 0.05
#: Seconds a draining supervisor waits for workers to finish their current
#: unit before killing them.
_DRAIN_GRACE = 10.0
#: How many replacement workers the supervisor may spawn after deaths.
_MAX_RESPAWNS = 8


class CampaignInterrupted(RuntimeError):
    """The supervisor was asked to stop (SIGINT/SIGTERM) and drained.

    The run directory holds a resumable ``status: "partial"`` manifest with
    every committed unit merged, and no leases — re-running the same spec
    picks up exactly where the fleet stopped.
    """

    def __init__(self, signum: int, settled: int, total: int) -> None:
        name = signal.Signals(signum).name if signum else "signal"
        super().__init__(
            f"fleet campaign interrupted by {name} with {settled}/{total} "
            "unit(s) settled; partial manifest written, leases released"
        )
        self.signum = signum
        self.settled = settled
        self.total = total


@dataclass(frozen=True)
class FleetPolicy:
    """Knobs of a fleet campaign (CLI: ``--workers``, ``--lease-timeout``).

    Retries, backoff, the per-attempt timeout and the failure budget are the
    campaign's :class:`SupervisionPolicy`, exactly as on the pool backend.
    """

    #: Local worker processes the supervisor spawns.
    workers: int = 2
    #: Seconds without a lease heartbeat before the unit is reaped as
    #: ``timeout`` and freed; leases heartbeat every quarter of it.
    lease_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")


@dataclass(frozen=True)
class WorkUnit:
    """One claimable unit: a single cell or a batched replication group.

    The id is content-addressed (a digest of the covered cell keys), so the
    same pending set always yields the same queue files — a resumed campaign
    recognises the previous campaign's commits.
    """

    id: str
    kind: str  # "cell" | "group"
    cells: tuple[Cell, ...]

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(cell.key for cell in self.cells)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkUnit":
        return cls(
            id=payload["id"],
            kind=payload["kind"],
            cells=tuple(Cell.from_dict(d) for d in payload["cells"]),
        )


def _unit_id(keys: tuple[str, ...]) -> str:
    return "u" + hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()[:16]


def build_units(spec: ScenarioSpec, pending: list[Cell]) -> list[WorkUnit]:
    """Decompose pending cells into claimable units.

    Uses the runner's existing shapes: every pending replication of a
    batched-simulation grid point is one unit (one vectorized kernel call),
    everything else is a unit per cell.  The kernel is batch-composition
    independent, so resumed campaigns (whose groups hold only the
    replications a previous run did not finish) reproduce the original rows
    bit-identically.
    """
    groups, singles = simulation_batch_groups(spec, pending)
    units = []
    for group in groups:
        keys = tuple(cell.key for cell in group)
        units.append(WorkUnit(id=_unit_id(keys), kind="group", cells=tuple(group)))
    for cell in singles:
        units.append(WorkUnit(id=_unit_id((cell.key,)), kind="cell", cells=(cell,)))
    return units


# ----------------------------------------------------------------------
# Low-level file helpers
# ----------------------------------------------------------------------
def _write_json_atomic(path: Path, payload: dict | list) -> None:
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True))
    os.replace(tmp, path)


def _create_exclusive(path: Path, payload: dict) -> bool:
    """Create ``path`` with ``O_EXCL`` and fsync it; False if it exists."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    except FileExistsError:
        return False
    try:
        os.write(fd, json.dumps(payload, sort_keys=True).encode("utf-8"))
        os.fsync(fd)
    finally:
        os.close(fd)
    return True


def _read_json(path: Path) -> dict | list | None:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


def _remove_if_unchanged(path: Path, judged: bytes) -> bool:
    """Remove ``path`` only if it still holds exactly the bytes ``judged``.

    The file is renamed to a tomb only this caller knows, then compared.  A
    lease that was refreshed, or replaced by a fresh claim, after it was
    judged stale is linked back into place (unless an even newer lease took
    the name meanwhile), so a reaper can only ever remove the lease it
    judged.
    """
    tomb = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tomb")
    try:
        os.rename(path, tomb)
    except FileNotFoundError:
        return False  # another reaper (or the owner) removed it first
    try:
        if tomb.read_bytes() == judged:
            return True
        try:
            os.link(tomb, path)
        except FileExistsError:
            pass
        return False
    finally:
        tomb.unlink(missing_ok=True)


@dataclass
class _Claim:
    """A successful :meth:`FleetQueue.claim_next`."""

    unit: WorkUnit
    #: The claim number (1-based); fleet fault kinds match against it.
    attempt: int
    #: A ``double-claim`` fault took the unit *despite* a foreign lease; the
    #: claimer holds no lease or marker and must expect to lose the commit.
    rogue: bool = False


class FleetQueue:
    """The on-disk work queue of one campaign (see the module docstring).

    Every method is safe to call from any process sharing the run directory;
    mutual exclusion comes from ``O_EXCL`` creates and atomic renames, never
    from in-memory locks.  The read path (:meth:`status`,
    :meth:`settled_events`, …) takes no locks at all.
    """

    def __init__(self, entry_dir: str | os.PathLike) -> None:
        self.entry_dir = Path(entry_dir)
        self.root = self.entry_dir / FLEET_DIRNAME
        self.leases = self.root / "leases"
        self.claims = self.root / "claims"
        self.done = self.root / "done"
        self.results = self.root / "results"
        self.failed = self.root / "failed"
        self.workers = self.root / "workers"
        self.host = socket.gethostname()
        self._units: list[WorkUnit] | None = None
        self._lease_timeout = 0.0
        self._supervision: SupervisionPolicy | None = None

    # ------------------------------------------------------------------
    # Campaign document
    # ------------------------------------------------------------------
    @property
    def campaign_path(self) -> Path:
        return self.root / _CAMPAIGN

    def exists(self) -> bool:
        return self.campaign_path.is_file()

    def create_campaign(
        self,
        spec: ScenarioSpec,
        units: list[WorkUnit],
        lease_timeout: float,
        supervision: SupervisionPolicy,
        reset: bool = False,
    ) -> None:
        """Write (or attach to) the campaign document for ``units``.

        Attaching to an existing campaign of the same spec and source state
        keeps committed shards that still verify (they are merged, not
        recomputed) but gives every pending unit a fresh retry budget: the
        ``failed/`` and ``claims/`` records of the listed units are cleared,
        as are done markers whose result shard no longer loads or covers the
        wrong keys.  ``reset=True`` (``--force``) additionally discards every
        committed shard so the whole grid recomputes.
        """
        for directory in (self.root, self.leases, self.claims, self.done,
                          self.results, self.failed, self.workers):
            directory.mkdir(parents=True, exist_ok=True)
        for unit in units:
            done = self.done / f"{unit.id}.json"
            if reset or (done.exists() and self._load_shard(unit) is None):
                if not reset:
                    logger.warning(
                        "fleet: discarding unreadable result shard of unit %s; "
                        "the unit will recompute", unit.id,
                    )
                done.unlink(missing_ok=True)
                (self.results / f"{unit.id}.json").unlink(missing_ok=True)
            (self.failed / f"{unit.id}.json").unlink(missing_ok=True)
            for path in self.claims.glob(f"{unit.id}.*"):
                path.unlink(missing_ok=True)
        _write_json_atomic(self.campaign_path, {
            "format": _CAMPAIGN_FORMAT,
            "name": spec.name,
            "spec_hash": spec.hash(),
            "code_fingerprint": source_fingerprint(),
            "created": time.time(),
            "lease_timeout": lease_timeout,
            "supervision": asdict(supervision),
            "units": [unit.to_dict() for unit in units],
        })
        self._units = list(units)
        self._lease_timeout = lease_timeout
        self._supervision = supervision

    def load_campaign(self) -> bool:
        """Load units and policies from ``campaign.json``; False if absent/bad."""
        payload = _read_json(self.campaign_path)
        if not isinstance(payload, dict):
            return False
        try:
            if payload["format"] != _CAMPAIGN_FORMAT:
                raise ValueError(f"campaign format {payload['format']!r}")
            self._units = [WorkUnit.from_dict(d) for d in payload["units"]]
            self._lease_timeout = float(payload["lease_timeout"])
            self._supervision = SupervisionPolicy(**payload["supervision"])
        except (KeyError, TypeError, ValueError) as error:
            logger.warning("fleet: unreadable campaign document %s: %s",
                           self.campaign_path, error)
            return False
        return True

    def _require_campaign(self) -> None:
        if self._units is None and not self.load_campaign():
            raise FileNotFoundError(f"no fleet campaign at {self.campaign_path}")

    @property
    def units(self) -> list[WorkUnit]:
        self._require_campaign()
        return list(self._units)

    @property
    def lease_timeout(self) -> float:
        self._require_campaign()
        return self._lease_timeout

    @property
    def supervision(self) -> SupervisionPolicy:
        self._require_campaign()
        return self._supervision

    # ------------------------------------------------------------------
    # Claiming
    # ------------------------------------------------------------------
    def _lease_path(self, unit_id: str) -> Path:
        return self.leases / f"{unit_id}.json"

    def _claim_path(self, unit_id: str, number: int, suffix: str = "") -> Path:
        return self.claims / f"{unit_id}.{number}{suffix}.json"

    def _settled(self, unit_id: str) -> bool:
        return (self.done / f"{unit_id}.json").exists() or (
            self.failed / f"{unit_id}.json").exists()

    def claim_count(self, unit_id: str) -> int:
        """How many times the unit was claimed (its claim markers are 1..n)."""
        count = 0
        while self._claim_path(unit_id, count + 1).exists():
            count += 1
        return count

    def claim_next(self, owner: str) -> tuple[_Claim | None, bool]:
        """Try to claim one unit; returns ``(claim, campaign_busy)``.

        ``campaign_busy`` is True while any unit is unsettled — a worker
        that got no claim should poll again (units may be leased elsewhere)
        rather than exit.  Expired leases encountered during the scan are
        reaped opportunistically, and units out of claims are settled as
        failed, so claiming makes progress even without a supervisor.
        """
        directives = active_directives()
        busy = False
        # Rotate the scan so concurrent workers do not all hammer the same
        # next unit's lease create.
        units = self.units
        if units:
            offset = int(hashlib.sha256(owner.encode()).hexdigest(), 16) % len(units)
            units = units[offset:] + units[:offset]
        now = time.time()
        for unit in units:
            if self._settled(unit.id):
                continue
            busy = True
            self._reap_lease_if_expired(unit.id, now)
            count = self.claim_count(unit.id)
            lease = self._lease_path(unit.id)
            if lease.exists():
                if _fleet_directive(directives, unit, count + 1) == "double-claim":
                    logger.warning(
                        "fleet: %s double-claiming unit %s despite a foreign "
                        "lease (injected fault)", owner, unit.id,
                    )
                    return _Claim(unit=unit, attempt=count + 1, rogue=True), True
                continue
            if count >= 1 + self.supervision.retries:
                self._settle_exhausted(unit, count)
                continue
            number = count + 1
            if not _create_exclusive(lease, self._lease_payload(owner, number)):
                continue
            if self._settled(unit.id) or not _create_exclusive(
                self._claim_path(unit.id, number), {"owner": owner, "retries": 0}
            ):
                # Lost a race: a commit landed after our settled check, or a
                # claimer that counted before the last reap took this number.
                lease.unlink(missing_ok=True)
                continue
            return _Claim(unit=unit, attempt=number), True
        return None, busy

    def _lease_payload(self, owner: str, number: int) -> dict:
        now = time.time()
        return {
            "owner": owner,
            "pid": os.getpid(),
            "host": self.host,
            "claim": number,
            "acquired": now,
            "heartbeat": now,
            "lease_timeout": self.lease_timeout,
        }

    def heartbeat_lease(self, unit_id: str, owner: str) -> bool:
        """Refresh a held lease; False when fenced (lost / foreign owner).

        Best-effort fencing: the lease is re-read first and a foreign owner
        (or a missing file — the lease was reaped) stops the heartbeat.  The
        read-then-replace pair is not atomic, so the ``done/`` marker — not
        the lease — remains the only commit authority.
        """
        path = self._lease_path(unit_id)
        payload = _read_json(path)
        if not isinstance(payload, dict) or payload.get("owner") != owner:
            return False
        payload["heartbeat"] = time.time()
        try:
            _write_json_atomic(path, payload)
        except OSError:
            return False
        return True

    def record_retries(self, unit_id: str, number: int, owner: str, retries: int) -> None:
        """Store how many supervised retries claim ``number`` has used so far."""
        _write_json_atomic(
            self._claim_path(unit_id, number), {"owner": owner, "retries": retries}
        )

    def release_lease(self, unit_id: str, owner: str) -> None:
        """Drop a lease if (best-effort) still ours."""
        path = self._lease_path(unit_id)
        payload = _read_json(path)
        if isinstance(payload, dict) and payload.get("owner") == owner:
            path.unlink(missing_ok=True)

    def release_all_leases(self) -> None:
        """Remove every lease (the draining supervisor's last act)."""
        for path in self.leases.glob("*.json"):
            path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Reaping
    # ------------------------------------------------------------------
    def reap_expired(self) -> int:
        """Free every unit whose lease expired or whose owner died."""
        now = time.time()
        return sum(
            self._reap_lease_if_expired(path.stem, now)
            for path in self.leases.glob("*.json")
        )

    def _reap_lease_if_expired(self, unit_id: str, now: float) -> int:
        path = self._lease_path(unit_id)
        try:
            raw = path.read_bytes()
            mtime = path.stat().st_mtime
        except OSError:
            return 0
        try:
            payload = json.loads(raw)
            heartbeat = float(payload["heartbeat"])
        except (ValueError, KeyError, TypeError):
            # Unreadable (e.g. a claimer died between create and write):
            # judge it by its mtime.
            if now - mtime <= self.lease_timeout:
                return 0
            payload, kind, message = {}, "crash", "unreadable lease file"
        else:
            timeout = float(payload.get("lease_timeout", self.lease_timeout))
            if (self.done / f"{unit_id}.json").exists():
                # Committed but the lease lingered (e.g. killed between
                # commit and release): just clean up.
                _remove_if_unchanged(path, raw)
                return 0
            if now - heartbeat > timeout:
                kind = "timeout"
                message = (
                    f"lease heartbeat from {payload.get('owner')} went stale "
                    f"({now - heartbeat:.1f}s > {timeout:g}s); unit freed"
                )
            elif (
                payload.get("host") == self.host
                and isinstance(payload.get("pid"), int)
                and not _pid_alive(payload["pid"])
            ):
                kind = "crash"
                message = (
                    f"worker {payload.get('owner')} (pid {payload['pid']}) "
                    "died holding the lease; unit freed"
                )
            else:
                return 0
        if not _remove_if_unchanged(path, raw):
            return 0
        number = payload.get("claim") or self.claim_count(unit_id)
        _write_json_atomic(
            self._claim_path(unit_id, number, ".reaped"),
            {"kind": kind, "message": message},
        )
        logger.info("fleet: reaped claim %d of unit %s: %s", number, unit_id, message)
        return 1

    def _settle_exhausted(self, unit: WorkUnit, claims: int) -> None:
        """Fail a unit whose every allowed claim ended in a reap."""
        reap = _read_json(self._claim_path(unit.id, claims, ".reaped"))
        if not isinstance(reap, dict):
            reap = {"kind": "crash", "message": "lease lost without a reap record"}
        if self._settled(unit.id):
            return
        self.record_failures(unit, [
            CellFailure(
                key=cell.key,
                solver=cell.solver_label,
                kind=reap["kind"],
                attempts=claims,
                seed=cell.seed,
                replication=cell.replication,
                message=reap["message"],
                elapsed_seconds=0.0,
            )
            for cell in unit.cells
        ])
        logger.warning("fleet: unit %s failed permanently after %d claim(s): %s",
                       unit.id, claims, reap["message"])

    # ------------------------------------------------------------------
    # Settling
    # ------------------------------------------------------------------
    def commit(self, unit: WorkUnit, owner: str, records: list[dict]) -> bool:
        """Persist a unit's result shard and claim the exactly-once marker.

        The shard is written first (atomic replace), then the ``done/``
        marker is created with ``O_EXCL``: whichever writer creates the
        marker owns the commit; every other writer of the same unit —
        double-claimers, zombies that outlived their lease — gets ``False``
        and must discard.  Shard content is equivalent across writers
        (seeds derive from the spec), so a late overwrite of the shard by a
        loser is harmless.
        """
        _write_json_atomic(self.results / f"{unit.id}.json", records)
        committed = _create_exclusive(self.done / f"{unit.id}.json", {
            "owner": owner,
            "committed": time.time(),
        })
        if not committed:
            logger.warning(
                "fleet: %s lost the commit race for unit %s; result discarded "
                "(exactly-once marker already exists)", owner, unit.id,
            )
        return committed

    def record_failures(self, unit: WorkUnit, failures: list[CellFailure]) -> None:
        """Settle a unit as permanently failed with one record per cell."""
        _write_json_atomic(
            self.failed / f"{unit.id}.json", [f.to_dict() for f in failures]
        )

    def _load_shard(self, unit: WorkUnit) -> list[dict] | None:
        """The unit's committed records, or ``None`` unless they cover it."""
        payload = _read_json(self.results / f"{unit.id}.json")
        if not isinstance(payload, list):
            return None
        try:
            keys = {record["key"] for record in payload}
        except (TypeError, KeyError):
            return None
        return payload if keys == set(unit.keys) else None

    def retries(self, unit: WorkUnit) -> int:
        """Retries the unit used: one per re-claim and per supervised retry."""
        count = self.claim_count(unit.id)
        recorded = 0
        for number in range(1, count + 1):
            marker = _read_json(self._claim_path(unit.id, number))
            if isinstance(marker, dict):
                recorded += int(marker.get("retries", 0))
        return max(0, count - 1) + recorded

    def settled_events(self, seen: set[str]) -> Iterator[tuple[str, Any]]:
        """Runner events of every unit settled and not yet in ``seen``.

        A committed unit yields ``("rows", …)`` from its verified shard, a
        failed one ``("failures", …)``; either is preceded by one
        ``("retry", keys)`` event covering its retries.  Yielded units are
        added to ``seen``.
        """
        for unit in self.units:
            if unit.id in seen:
                continue
            if (self.done / f"{unit.id}.json").exists():
                try:
                    rows = rows_from_records(self._load_shard(unit), self.entry_dir)
                except (KeyError, TypeError, ValueError):
                    logger.warning(
                        "fleet: committed unit %s has an unreadable result "
                        "shard; skipping it in the merge (it will recompute "
                        "next run)", unit.id,
                    )
                    seen.add(unit.id)
                    continue
                event = ("rows", list(rows.items()))
            else:
                payload = _read_json(self.failed / f"{unit.id}.json")
                if not isinstance(payload, list):
                    continue
                event = ("failures", [CellFailure.from_dict(d) for d in payload])
            seen.add(unit.id)
            retries = self.retries(unit)
            if retries:
                yield "retry", unit.keys * retries
            yield event

    # ------------------------------------------------------------------
    # Worker presence + status
    # ------------------------------------------------------------------
    def update_worker(self, owner: str, state: str, unit_id: str | None = None) -> None:
        """Refresh this worker's heartbeat file (``fleet workers``, gc)."""
        try:
            _write_json_atomic(self.workers / f"{owner}.json", {
                "owner": owner,
                "pid": os.getpid(),
                "host": self.host,
                "state": state,
                "unit": unit_id,
                "heartbeat": time.time(),
                "lease_timeout": self.lease_timeout,
            })
        except OSError:
            pass

    def worker_states(self) -> list[dict]:
        if not self.workers.is_dir():
            return []
        states = []
        now = time.time()
        for path in sorted(self.workers.glob("*.json")):
            payload = _read_json(path)
            if isinstance(payload, dict):
                payload["age_seconds"] = max(0.0, now - float(payload.get("heartbeat", now)))
                states.append(payload)
        return states

    def status(self) -> dict:
        """Campaign progress counters (lock-free snapshot)."""
        done = failed = leased = 0
        for unit in self.units:
            if (self.done / f"{unit.id}.json").exists():
                done += 1
            elif (self.failed / f"{unit.id}.json").exists():
                failed += 1
            elif self._lease_path(unit.id).exists():
                leased += 1
        total = len(self.units)
        return {
            "units": total,
            "done": done,
            "failed": failed,
            "leased": leased,
            "pending": total - done - failed,
            "settled": done + failed == total,
        }

    def settled(self) -> bool:
        return all(self._settled(unit.id) for unit in self.units)


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
def _fleet_directive(directives, unit: WorkUnit, number: int) -> str | None:
    """Kind of the first fleet fault directive firing for the unit's claim."""
    for key in unit.keys:
        directive = matching_directive(directives, key, number, kinds=FLEET_FAULT_KINDS)
        if directive is not None:
            return directive.kind
    return None


def _persist_records(
    entry_dir: Path, rows: list[tuple[str, CellResult]]
) -> list[dict]:
    """Write artifact side-files into the run directory; return row records."""
    records = []
    for key, row in rows:
        if row.artifact is not None and not isinstance(row.artifact, ArtifactRef):
            ref = write_artifact(row.artifact, entry_dir, _artifact_stem(key))
            row = row.with_artifact(ref)
        records.append(manifest_record(key, row))
    return records


@contextmanager
def _heartbeat(queue: FleetQueue, unit_id: str, owner: str) -> Iterator[None]:
    """Refresh the lease from a thread; stops for good once it is lost.

    The unit's supervised child is forked while this thread runs; the
    thread only rewrites the lease file and holds no lock the child needs.
    """
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(queue.lease_timeout / 4.0):
            if not queue.heartbeat_lease(unit_id, owner):
                return

    thread = threading.Thread(target=beat, daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=5.0)


def fleet_worker(
    entry_dir: str | os.PathLike,
    spec: ScenarioSpec,
    owner: str | None = None,
    drain: threading.Event | None = None,
) -> int:
    """Claim-run-commit loop of one stateless worker; returns units committed.

    Runs until the campaign settles (every unit done or failed) or ``drain``
    is set (the graceful-shutdown path: the current unit is finished and
    committed, the lease released, then the loop exits).  Each unit runs
    through :func:`run_supervised` under the campaign's
    :class:`SupervisionPolicy`, with an unbounded failure budget so that a
    unit out of retries yields its failure records instead of raising — the
    campaign-wide budget is the supervisor's.  Safe to run many times
    concurrently — all coordination goes through :class:`FleetQueue`.
    """
    queue = FleetQueue(entry_dir)
    policy = replace(queue.supervision, max_failures=sys.maxsize)
    owner = owner or f"{queue.host}-{os.getpid()}"
    drain = drain or threading.Event()
    directives = active_directives()
    spec_dict = spec.to_dict()
    committed = 0
    queue.update_worker(owner, "idle")
    try:
        while not drain.is_set():
            claim, busy = queue.claim_next(owner)
            if claim is None:
                if not busy:
                    break
                queue.update_worker(owner, "idle")
                drain.wait(_POLL_INTERVAL)
                continue
            unit = claim.unit
            queue.update_worker(owner, "executing", unit.id)
            fault = _fleet_directive(directives, unit, claim.attempt)
            if fault == "worker-kill":
                # Simulated OOM-kill / power loss: die without cleanup; the
                # lease's owner pid is dead, so a reaper frees the unit.
                os.kill(os.getpid(), signal.SIGKILL)
            if fault == "lease-stall":
                _stall_until_fenced(queue, unit.id, owner, drain)
                continue
            task = supervised_task(spec_dict, unit.kind, unit.cells, True)
            rows, failures, retries = None, [], 0
            with nullcontext() if claim.rogue else _heartbeat(queue, unit.id, owner):
                for event, body in run_supervised([task], _execute_payload, policy, jobs=1):
                    if event == "rows":
                        rows = body
                    elif event == "retry":
                        retries += 1
                        if not claim.rogue:
                            queue.record_retries(unit.id, claim.attempt, owner, retries)
                    else:
                        failures = body
            if rows is not None:
                records = _persist_records(queue.entry_dir, rows)
                if queue.commit(unit, owner, records):
                    committed += 1
            else:
                queue.record_failures(unit, failures)
            if not claim.rogue:
                queue.release_lease(unit.id, owner)
    finally:
        queue.update_worker(owner, "exited")
    return committed


def _stall_until_fenced(queue: FleetQueue, unit_id: str, owner: str,
                        drain: threading.Event) -> None:
    """``lease-stall``: hold the lease without heartbeating until reaped.

    Simulates a hung host.  Once the lease is no longer ours (a reaper
    expired it and another worker may already own the unit), abandon
    without committing.  A drain request un-hangs the simulation (releasing
    the lease) so graceful shutdown stays fast even mid-fault.
    """
    queue.update_worker(owner, "stalled", unit_id)
    logger.warning("fleet: %s stalling on unit %s (injected fault)", owner, unit_id)
    deadline = time.time() + _STALL_TIMEOUTS * queue.lease_timeout
    while time.time() < deadline and not drain.is_set():
        payload = _read_json(queue._lease_path(unit_id))
        if not isinstance(payload, dict) or payload.get("owner") != owner:
            return  # fenced — the unit belongs to someone else now
        time.sleep(_POLL_INTERVAL)
    # Nobody reaped us (no supervisor, no peers) or we are draining:
    # release and move on.
    queue.release_lease(unit_id, owner)


def _worker_entry(entry_dir: str, spec_dict: dict, owner: str) -> None:
    """Process target for supervisor-spawned workers (SIGTERM drains)."""
    # Lead a process group, so killing the group takes the unit's child too.
    os.setpgid(0, 0)
    drain = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: drain.set())
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the supervisor drains
    fleet_worker(entry_dir, ScenarioSpec.from_dict(spec_dict), owner=owner, drain=drain)


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
def _kill_worker(process) -> None:
    """SIGKILL a worker together with its process group (the unit's child).

    A worker that exited cleanly has already reaped its unit's child, and its
    pid may be reused, so only a live or abnormally ended worker's group is
    signalled.
    """
    if process.exitcode != 0:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    if process.is_alive():
        process.kill()
    process.join(timeout=1.0)


def campaign_events(
    cache: ResultCache,
    spec: ScenarioSpec,
    pending: list[Cell],
    policy: FleetPolicy,
    supervision: SupervisionPolicy,
    force: bool = False,
) -> Iterator[tuple[str, Any]]:
    """Run ``pending`` on a fleet of leased local workers; yield runner events.

    Raises :class:`FailureBudgetExceeded` once more cells failed than
    ``supervision.max_failures`` allows, :class:`CampaignInterrupted` after
    a graceful SIGINT/SIGTERM drain, and :class:`RuntimeError` when every
    worker died and the respawn budget is spent — each after yielding
    everything committed so far and releasing every lease.
    """
    queue = FleetQueue(cache.path(spec))
    units = build_units(spec, pending)
    queue.create_campaign(spec, units, policy.lease_timeout, supervision, reset=force)
    if not units:
        return
    # Forked workers inherit the warmed shared inputs instead of recomputing
    # them once per process.
    warm_shared_inputs(spec, [c for unit in units if unit.kind == "cell" for c in unit.cells])

    context = fork_context()
    spec_dict = spec.to_dict()
    seen: set[str] = set()
    failures: list[CellFailure] = []
    interrupted: list[int] = []

    def _on_signal(signum, frame):  # noqa: ARG001
        interrupted.append(signum)

    def _settled() -> Iterator[tuple[str, Any]]:
        for event in queue.settled_events(seen):
            if event[0] == "failures":
                failures.extend(event[1])
            yield event

    previous_handlers = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[signum] = signal.signal(signum, _on_signal)
    except ValueError:
        pass  # embedded in a non-main thread: drain only via settle/budget

    processes: list = []
    buried: set[int] = set()

    def _bury(process) -> None:
        if process.pid not in buried:
            buried.add(process.pid)
            _kill_worker(process)

    def _stop_workers(grace: float) -> None:
        """Ask workers to finish their unit (SIGTERM); kill them after ``grace``."""
        for process in processes:
            if process.pid not in buried and process.is_alive():
                process.terminate()
        deadline = time.time() + grace
        for process in processes:
            process.join(timeout=max(0.0, deadline - time.time()))
            _bury(process)

    def _spawn() -> None:
        owner = f"{queue.host}-{os.getpid()}-w{len(processes) + 1}"
        # Not daemonic: a worker forks its unit's supervised child.
        process = context.Process(
            target=_worker_entry, args=(str(queue.entry_dir), spec_dict, owner),
        )
        process.start()
        try:
            os.setpgid(process.pid, process.pid)  # also done by the child
        except OSError:
            pass
        processes.append(process)

    try:
        for _ in range(min(policy.workers, len(units))):
            _spawn()
        exhausted = False
        while True:
            if interrupted or exhausted or len(failures) > supervision.max_failures:
                _stop_workers(_DRAIN_GRACE)
                yield from _settled()
                queue.release_all_leases()
                if interrupted:
                    raise CampaignInterrupted(interrupted[0], len(seen), len(units))
                if exhausted:
                    raise RuntimeError(
                        "fleet: every worker died and the respawn budget "
                        f"({_MAX_RESPAWNS}) is exhausted; partial manifest written"
                    )
                raise FailureBudgetExceeded(failures, supervision.max_failures)
            if len(seen) == len(units):
                break
            queue.reap_expired()
            yield from _settled()
            if len(seen) == len(units):
                continue  # settled: workers are exiting, do not respawn them
            for process in processes:
                if not process.is_alive():
                    _bury(process)  # its unit's child may still run
            alive = len(processes) - len(buried)
            if alive < min(policy.workers, len(units) - len(seen)):
                respawns = len(processes) - min(policy.workers, len(units))
                if respawns < _MAX_RESPAWNS:
                    logger.warning("fleet: %d worker(s) died; respawning (%d/%d)",
                                   len(buried), respawns + 1, _MAX_RESPAWNS)
                    _spawn()
                elif not alive:
                    exhausted = True
                    continue
            time.sleep(_POLL_INTERVAL)
    finally:
        for signum, handler in previous_handlers.items():
            try:
                signal.signal(signum, handler)
            except ValueError:
                pass
        # Settled workers exit on their own; anything left after the grace
        # (or after an error above) is killed with its group.
        _stop_workers(_DRAIN_GRACE)


def run_fleet_campaign(
    cache: ResultCache,
    spec: ScenarioSpec,
    policy: FleetPolicy | None = None,
    supervision: SupervisionPolicy | None = None,
    force: bool = False,
) -> ExperimentResult:
    """Run ``spec`` to completion on a fleet of leased local workers.

    The fleet backend of :class:`ExperimentRunner`: serves/resumes from the
    cache exactly like a pool run, raises :class:`FailureBudgetExceeded`
    when permanent failures exceed the budget (partial manifest persisted),
    and raises :class:`CampaignInterrupted` after a graceful SIGINT/SIGTERM
    drain.
    """
    runner = ExperimentRunner(
        cache_dir=cache.directory, supervision=supervision, backend="fleet",
        fleet=policy,
    )
    return runner.run(spec, force=force)


# ----------------------------------------------------------------------
# Supervisor-less operations (async CLI verbs)
# ----------------------------------------------------------------------
def submit_campaign(
    cache: ResultCache,
    spec: ScenarioSpec,
    policy: FleetPolicy | None = None,
    supervision: SupervisionPolicy | None = None,
    force: bool = False,
) -> dict:
    """Create (or attach to) a campaign without running any worker.

    The async half of the CLI: ``fleet submit`` enqueues, any number of
    ``fleet work`` processes — possibly on other hosts sharing the cache
    directory — drain the queue, and ``fleet status`` / ``fleet fetch``
    observe and merge.  Returns a status snapshot.
    """
    entry = str(cache.path(spec))
    if not force and cache.load(spec) is not None:
        return {"entry": entry, "units": 0, "done": 0, "failed": 0, "leased": 0,
                "pending": 0, "settled": True, "complete": True}
    queue = FleetQueue(cache.path(spec))
    queue.create_campaign(
        spec,
        build_units(spec, plan_run(cache, spec, force).pending),
        (policy or FleetPolicy()).lease_timeout,
        supervision or SupervisionPolicy(),
        reset=force,
    )
    return {**queue.status(), "entry": entry, "complete": False}


def campaign_status(cache: ResultCache, spec: ScenarioSpec) -> dict | None:
    """Status snapshot of an existing campaign, or ``None`` if there is none."""
    queue = FleetQueue(cache.path(spec))
    if not queue.load_campaign():
        return None
    return {**queue.status(), "entry": str(cache.path(spec)),
            "workers": queue.worker_states()}


def fetch_campaign(
    cache: ResultCache, spec: ScenarioSpec
) -> tuple[str, ExperimentResult | None]:
    """Merge a campaign's committed shards into the manifest, supervisor-free.

    Returns ``("complete", result)`` when every unit is settled (the
    manifest is finalized; ``result.failures`` carries any permanent
    failures), or ``("in-progress", None)`` after merging what exists into
    a resumable partial manifest.  Raises :class:`FileNotFoundError` when
    no campaign exists.
    """
    queue = FleetQueue(cache.path(spec))
    if not queue.load_campaign():
        raise FileNotFoundError(f"no fleet campaign at {queue.campaign_path}")
    settled = queue.settled()
    result = collect_result(
        cache, spec, plan_run(cache, spec), queue.settled_events(set()),
        meta={"backend": "fleet"}, finalize=settled,
    )
    return ("complete", result) if settled else ("in-progress", None)
