"""Directory-per-run result store keyed by scenario content hash.

A cache entry is one *run directory* per scenario run::

    <cache-dir>/<scenario-name>-<spec-hash>/
        manifest.json            # spec, row metrics, artifact index, status
        <cell-slug>-<h>.npz      # one integrity-checked side-file per
        <cell-slug>-<h>.json     # artifact-bearing cell

Because the directory name embeds the spec's content hash, editing any field
of a scenario automatically misses the cache, while re-running an identical
spec is served from disk — artifacts included, decoded lazily from their
side-files.  The manifest embeds the spec and its hash, which
:meth:`ResultCache.load` verifies before trusting the entry, and records a
SHA-256 digest per side-file, which :class:`ArtifactRef` re-verifies on
every load.

The manifest also embeds a **code fingerprint** (:func:`source_fingerprint`):
a content hash of every ``repro`` module that can affect a cell's computed
values — the whole tree minus the engine's storage/scheduling/presentation
modules.  Spec hashes cover what was asked for, not the code that computed
it, so an entry written before a solver or simulator kernel changed could
otherwise silently serve pre-change numbers; a fingerprint mismatch is a
logged miss instead (both for complete loads and for resume-from-partial),
and ``cache gc`` prunes such entries — they can never be served again.

Writes are incremental and atomic: the runner streams completed cells into
a :class:`CacheWriter`, which writes each artifact side-file and rewrites
the manifest (temp file + ``os.replace``) after every cell, with
``status: "partial"`` until the run finishes.  A killed run therefore leaves
a valid partial entry, and the next run of the same spec resumes from it
(:meth:`ResultCache.load_resume_state`) instead of recomputing finished cells.

Unreadable, truncated or hand-edited entries are never an error: they are
treated as a miss (logged at WARNING).  Entries written by the pre-artifact
single-file format (``<scenario-name>-<spec-hash>.json``) predate the code
fingerprint and therefore cannot prove which kernels produced them: they are
listed by ``cache ls`` and removed by ``rm``/``gc``, but never served.

Suspect payloads are **quarantined**, not destroyed: a side-file that fails
its digest check on the resume path, and the files of an entry whose manifest
is corrupt or fingerprint-stale when a new writer takes the directory over,
are moved into the entry's ``.quarantine/`` subdirectory (preserved for
post-mortems, pruned by ``cache gc``) instead of being silently overwritten.

Manifests also record the **failures** of a supervised run (cells whose
retry budget was exhausted; see :mod:`repro.experiments.supervision`) next to
the completed rows.  A finalized entry that carries failures is a *partial
result*: :meth:`ResultCache.load` refuses to serve it, and the next run of
the same spec retries exactly the failed cells through
:meth:`ResultCache.load_resume_state`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import shutil
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from repro.experiments.results import ArtifactIntegrityError, ArtifactRef, write_artifact
from repro.experiments.results.schema import CellFailure, CellResult, ExperimentResult
from repro.experiments.spec import ScenarioSpec, cell_key

__all__ = [
    "CacheEntryInfo",
    "CacheWriter",
    "FLEET_DIRNAME",
    "GcReport",
    "ResultCache",
    "ResumeState",
    "default_cache_dir",
    "fleet_activity",
    "manifest_fingerprint",
    "manifest_record",
    "source_fingerprint",
]

logger = logging.getLogger(__name__)

_CACHE_ENV_VAR = "REPRO_EXPERIMENTS_CACHE"
_DEFAULT_DIRNAME = ".experiments-cache"
_MANIFEST = "manifest.json"
_QUARANTINE = ".quarantine"
#: Queue directory a distributed fleet campaign keeps inside the run
#: directory (see :mod:`repro.experiments.fleet`).  The cache only needs to
#: know it exists: gc must treat an entry with live leases or worker
#: heartbeats in here as in-flight, and may sweep the whole subdirectory
#: once the campaign is merged and dead.
FLEET_DIRNAME = ".fleet"
_FORMAT = 4  # 3: manifests embed the solver-code fingerprint; 4: failures
_HASH_LEN = 16  # length of ScenarioSpec.hash()
#: How long gc leaves a manifest-less (corrupt-looking) entry alone, so a
#: concurrent run that has written its first artifact but not yet its first
#: manifest is never swept away.
_CORRUPT_GRACE_SECONDS = 3600.0
#: How long a lease or worker heartbeat protects an entry from gc when the
#: lease file does not record its own timeout (unreadable / partially
#: written): fall back to the file's mtime against this window.
_DEFAULT_LEASE_PROTECT_SECONDS = 3600.0


def default_cache_dir() -> Path:
    """Cache directory: ``$REPRO_EXPERIMENTS_CACHE`` or ``./.experiments-cache``."""
    return Path(os.environ.get(_CACHE_ENV_VAR, _DEFAULT_DIRNAME))


#: Engine modules whose code can never change a cell's *computed values*:
#: storage/transport (cache), presentation (cli), scheduling (runner — cells
#: are seeded by the spec, not by dispatch), the supervision envelope and its
#: fault injector (they decide whether and when a cell runs; a failed attempt
#: contributes no rows, and a retried cell recomputes from its spec-derived
#: seed), and the registry (a registry edit changes the spec itself, which
#: the spec hash already covers).
#: Everything else in ``repro.experiments`` IS value-determining —
#: ``solvers.py`` holds execution defaults and metric construction,
#: ``spec.py`` the grid expansion and seed derivation, ``results/`` the
#: artifact codecs — and stays in the fingerprint.
_FINGERPRINT_NEUTRAL_MODULES = frozenset({
    "experiments/__init__.py",
    "experiments/__main__.py",
    "experiments/cache.py",
    "experiments/cli.py",
    "experiments/faults.py",
    "experiments/fleet.py",
    "experiments/registry.py",
    "experiments/runner.py",
    "experiments/supervision.py",
})

#: Package prefixes that are fingerprint-neutral wholesale.  The live
#: what-if service (:mod:`repro.service`) is an execution harness around
#: the core pipeline — it decides *when* to refit and *what to serve on
#: failure*, never how a cell value is computed — so editing the daemon
#: must not invalidate experiment caches.
_FINGERPRINT_NEUTRAL_PREFIXES = ("service/",)


@lru_cache(maxsize=1)
def source_fingerprint() -> str:
    """Content hash of every ``repro`` module that can affect cell values.

    Covers the whole ``repro`` tree minus the few engine modules that only
    store, schedule or present results (:data:`_FINGERPRINT_NEUTRAL_MODULES`)
    — so editing any solver, simulator, model, codec, execution default or
    seed-derivation rule invalidates cached entries.  Run manifests embed
    this fingerprint so a cached cell is only ever served by a source state
    that computes the same values.  Memoised per process — the source tree
    does not change under a running interpreter.
    """
    import repro

    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if relative in _FINGERPRINT_NEUTRAL_MODULES:
            continue
        if relative.startswith(_FINGERPRINT_NEUTRAL_PREFIXES):
            continue
        digest.update(relative.encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _atomic_write_text(path: Path, text: str) -> None:
    # The temp name embeds the pid so concurrent writers (fleet workers and
    # their supervisor share one run directory) never interleave writes into
    # one temp file; ``os.replace`` keeps the final swap atomic either way.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def manifest_record(key: str, row: CellResult) -> dict:
    """The manifest ``rows`` document of one completed cell.

    Shared between :class:`CacheWriter` (pool runs append records as cells
    stream in) and the fleet workers (which persist the same records into
    per-unit result shards for the merge step), so both paths serialise
    cells identically.
    """
    record = row.to_dict()
    record["key"] = key
    record["artifact"] = (
        row.artifact.to_dict() if isinstance(row.artifact, ArtifactRef) else None
    )
    return record


def rows_from_records(records: list[dict], directory: Path) -> dict[str, CellResult]:
    """Rows of :func:`manifest_record` documents, artifacts as lazy refs.

    Raises ``KeyError``/``TypeError``/``ValueError`` on malformed records.
    """
    rows: dict[str, CellResult] = {}
    for record in records:
        row = CellResult.from_dict(record)
        if record.get("artifact") is not None:
            row = row.with_artifact(ArtifactRef.from_dict(record["artifact"], directory))
        rows[record["key"]] = row
    return rows


def manifest_fingerprint(path: str | os.PathLike) -> str:
    """Digest of a run manifest over its *computed* content only.

    Wall-clock timings and per-cell execution ``meta`` (peak RSS, solver
    attempt timings) vary run to run even when the computed results are
    bit-identical, as do failure retry counts under nondeterministic fault
    timing; they are excluded.  Everything that describes *what was
    computed* — spec, spec hash, code fingerprint, status, row metrics,
    seeds, artifact SHA-256 digests, failure identities — is hashed in
    canonical JSON form.  Two runs of one spec — serial, pool-parallel or a
    distributed fleet — therefore fingerprint equal exactly when they
    produced the same results, which is the property the concurrent-writer
    tests and the CI fleet-smoke job assert.
    """
    manifest = json.loads(Path(path).read_text())
    manifest.pop("elapsed_seconds", None)
    for record in manifest.get("rows", ()):
        record.pop("elapsed_seconds", None)
        record.pop("meta", None)
    for record in manifest.get("failures", ()):
        record.pop("elapsed_seconds", None)
        record.pop("message", None)
        record.pop("attempts", None)
    text = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _heartbeat_is_live(path: Path, now: float) -> bool:
    """Whether one lease/worker heartbeat file still protects its entry.

    The payload's own ``heartbeat`` timestamp and ``lease_timeout`` decide
    (with a generous 2x margin — gc must err on the side of not pruning);
    unreadable or partially written files fall back to their mtime against
    :data:`_DEFAULT_LEASE_PROTECT_SECONDS`.
    """
    try:
        payload = json.loads(path.read_text())
        heartbeat = float(payload["heartbeat"])
        timeout = float(payload.get("lease_timeout", _DEFAULT_LEASE_PROTECT_SECONDS))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
        try:
            return now - path.stat().st_mtime < _DEFAULT_LEASE_PROTECT_SECONDS
        except OSError:
            return False
    return now - heartbeat < max(2.0 * timeout, 60.0)


def fleet_activity(entry_dir: str | os.PathLike) -> bool:
    """Whether a live fleet campaign is working inside this run directory.

    True when any lease or worker-heartbeat file under ``.fleet/`` is fresh
    (see :func:`_heartbeat_is_live`).  ``cache gc`` treats such an entry as
    in-flight: a worker may be mid-write on a cell whose artifact is not in
    the manifest yet, so nothing of the entry — not even "corrupt-looking"
    remnants past the 1h grace or unreferenced side-files — may be pruned.
    """
    root = Path(entry_dir) / FLEET_DIRNAME
    if not root.is_dir():
        return False
    now = time.time()
    for sub in ("leases", "workers"):
        directory = root / sub
        if not directory.is_dir():
            continue
        try:
            children = list(directory.iterdir())
        except OSError:
            continue
        for child in children:
            if child.is_file() and _heartbeat_is_live(child, now):
                return True
    return False


def _tree_size(root: Path) -> tuple[int, int]:
    """(files, bytes) of a directory tree; best-effort under concurrent edits."""
    files = 0
    total = 0
    try:
        for child in root.rglob("*"):
            if child.is_file():
                files += 1
                total += child.stat().st_size
    except OSError:
        pass
    return files, total


def _artifact_stem(key: str) -> str:
    """Side-file stem for a cell key: legible slug + collision-proof digest."""
    slug = re.sub(r"[^A-Za-z0-9._=,-]+", "_", key).strip("_")[:80]
    return f"{slug}-{hashlib.sha256(key.encode('utf-8')).hexdigest()[:8]}"


def _quarantine_file(entry_dir: Path, file_path: Path) -> Path | None:
    """Move one suspect file into the entry's ``.quarantine/`` subdirectory.

    A same-named file already in quarantine is replaced (latest suspect
    wins).  Returns the quarantined path, or ``None`` when the move failed —
    quarantining is best-effort and must never turn a cache miss into an
    error.
    """
    try:
        quarantine_dir = entry_dir / _QUARANTINE
        quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = quarantine_dir / file_path.name
        os.replace(file_path, target)
        return target
    except OSError:
        return None


def _quarantine_entry(entry_dir: Path) -> int:
    """Quarantine every top-level file of an entry; returns how many moved."""
    moved = 0
    try:
        children = [child for child in entry_dir.iterdir() if child.is_file()]
    except OSError:
        return 0
    for child in children:
        if _quarantine_file(entry_dir, child) is not None:
            moved += 1
    return moved


def _quarantine_stats(entry_dir: Path) -> tuple[int, int]:
    """(files, bytes) currently held in an entry's quarantine subdirectory."""
    quarantine_dir = entry_dir / _QUARANTINE
    if not quarantine_dir.is_dir():
        return 0, 0
    files = [f for f in quarantine_dir.iterdir() if f.is_file()]
    return len(files), sum(f.stat().st_size for f in files)


@dataclass(frozen=True)
class CacheEntryInfo:
    """One cache entry as reported by :meth:`ResultCache.entries`."""

    name: str
    spec_hash: str
    path: Path
    status: str  # "complete" | "partial" | "legacy" | "corrupt"
    cells: int
    artifacts: int
    total_bytes: int
    mtime: float
    #: ``code_fingerprint`` recorded in the manifest (``None`` for legacy and
    #: corrupt entries, which can never be served).
    code_fingerprint: str | None = None

    @property
    def age_seconds(self) -> float:
        return max(0.0, time.time() - self.mtime)


@dataclass(frozen=True)
class GcReport:
    """What :meth:`ResultCache.gc` removed."""

    removed_entries: tuple[str, ...]
    removed_orphans: int
    freed_bytes: int


@dataclass(frozen=True)
class ResumeState:
    """Verified contents of an existing run directory, for the resume path.

    ``rows`` holds the intact completed cells (tampered side-files are
    quarantined, their rows dropped), ``failures`` the permanent cell
    failures the entry's supervised run recorded, and ``status`` whether the
    writing run finished (``"complete"`` — possible with failures under a
    ``max_failures`` budget) or was killed mid-flight (``"partial"``).
    """

    rows: dict[str, CellResult]
    failures: tuple[CellFailure, ...]
    status: str


class ResultCache:
    """Run-directory store for :class:`ExperimentResult` documents."""

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def path(self, spec: ScenarioSpec) -> Path:
        """The run directory of ``spec``'s cache entry."""
        return self.directory / f"{spec.name}-{spec.hash()}"

    def manifest_path(self, spec: ScenarioSpec) -> Path:
        return self.path(spec) / _MANIFEST

    def legacy_path(self, spec: ScenarioSpec) -> Path:
        """Entry location of the pre-artifact single-file cache format."""
        return self.directory / f"{spec.name}-{spec.hash()}.json"

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------
    def load(self, spec: ScenarioSpec) -> ExperimentResult | None:
        """Return the complete cached result for ``spec``, or ``None``.

        Partial entries (a killed run) are a miss here — the runner picks
        them up through :meth:`load_resume_state` and finishes the remaining
        cells.  Any unreadable entry is a logged miss, never an exception.
        """
        manifest = self._read_manifest(spec)
        if manifest is None:
            legacy = self.legacy_path(spec)
            if legacy.exists():
                logger.warning(
                    "legacy cache entry %s predates the solver-code fingerprint "
                    "and cannot prove which kernels produced it; treating it as "
                    "a miss (remove it with `cache rm` or `cache gc`)", legacy,
                )
            return None
        if manifest.get("status") != "complete":
            return None
        if manifest.get("failures"):
            logger.info(
                "cache entry %s finished with %d failed cell(s); serving the "
                "completed rows as resume state and retrying the failures",
                self.path(spec), len(manifest["failures"]),
            )
            return None
        rows_by_key = self._rows_from_manifest(spec, manifest)
        if rows_by_key is None:
            return None
        ordered = []
        for cell in spec.cells():
            row = rows_by_key.get(cell.key)
            if row is None:
                logger.warning(
                    "cache entry %s is marked complete but misses cell %s; "
                    "treating it as a miss", self.path(spec), cell.key,
                )
                return None
            ordered.append(row)
        total = len(ordered)
        return ExperimentResult(
            name=spec.name,
            spec=manifest["spec"],
            spec_hash=manifest["spec_hash"],
            rows=tuple(ordered),
            elapsed_seconds=float(manifest.get("elapsed_seconds", 0.0)),
            from_cache=True,
            meta={
                "cells_total": total,
                "cells_computed": 0,
                "cells_from_cache": total,
                "artifacts_written": 0,
                "artifact_bytes_written": 0,
            },
        )

    def load_resume_state(self, spec: ScenarioSpec) -> "ResumeState | None":
        """Everything a resuming run needs from an existing entry, or ``None``.

        Artifact side-files are verified eagerly here — a resumed run must
        not build on tampered or truncated payloads, so any row whose
        artifact fails verification is quarantined under ``.quarantine/``
        and dropped from the resume state (the cell will be recomputed).
        Recorded failures ride along so the runner can replay or retry them.
        """
        manifest = self._read_manifest(spec)
        if manifest is None:
            return None
        rows_by_key = self._rows_from_manifest(spec, manifest)
        if rows_by_key is None:
            return None
        directory = self.path(spec)
        intact: dict[str, CellResult] = {}
        for key, row in rows_by_key.items():
            if isinstance(row.artifact, ArtifactRef):
                try:
                    row.artifact.verify()
                except ArtifactIntegrityError as error:
                    quarantined = _quarantine_file(directory, Path(row.artifact.path))
                    logger.warning(
                        "dropping cached cell %s from the resume state (%s)%s",
                        key, error,
                        f"; side-file quarantined at {quarantined}" if quarantined else "",
                    )
                    continue
            intact[key] = row
        try:
            failures = tuple(
                CellFailure.from_dict(record)
                for record in manifest.get("failures", ())
            )
        except (KeyError, TypeError, ValueError) as error:
            logger.warning(
                "ignoring malformed failure records in cache entry %s: %s",
                directory, error,
            )
            failures = ()
        return ResumeState(
            rows=intact,
            failures=failures,
            status=str(manifest.get("status", "partial")),
        )

    def _read_manifest(self, spec: ScenarioSpec) -> dict | None:
        path = self.manifest_path(spec)
        if not path.exists():
            return None
        try:
            manifest = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            logger.warning(
                "treating unreadable cache manifest %s as a miss: %s", path, error
            )
            return None
        if not isinstance(manifest, dict) or manifest.get("spec_hash") != spec.hash():
            logger.warning(
                "cache manifest %s does not match the requested spec hash %s; "
                "treating it as a miss", path, spec.hash(),
            )
            return None
        fingerprint = manifest.get("code_fingerprint")
        if fingerprint != source_fingerprint():
            logger.warning(
                "cache entry %s was produced by a different solver/simulator "
                "source state (%s, current %s); treating it as a miss",
                self.path(spec), fingerprint, source_fingerprint(),
            )
            return None
        return manifest

    def _rows_from_manifest(
        self, spec: ScenarioSpec, manifest: dict
    ) -> dict[str, CellResult] | None:
        directory = self.path(spec)
        try:
            return rows_from_records(manifest["rows"], directory)
        except (KeyError, TypeError, ValueError) as error:
            logger.warning(
                "treating malformed cache manifest in %s as a miss: %s", directory, error
            )
            return None

    # ------------------------------------------------------------------
    # Write
    # ------------------------------------------------------------------
    def writer(
        self,
        spec: ScenarioSpec,
        resumed: dict[str, CellResult] | None = None,
        failures: tuple[CellFailure, ...] = (),
    ) -> "CacheWriter":
        """Incremental writer for ``spec``'s run directory.

        ``failures`` pre-seeds the manifest's failure records — used when a
        resumed run replays failures from a killed run's manifest instead of
        retrying them.
        """
        return CacheWriter(self, spec, resumed or {}, failures)

    def store(self, result: ExperimentResult, spec: ScenarioSpec) -> Path:
        """Write a finished ``result`` for ``spec`` in one call.

        Convenience wrapper over :meth:`writer` for callers that do not
        stream (tests, ad-hoc scripts); returns the run directory.
        """
        writer = self.writer(spec)
        for row in result.rows:
            writer.add(cell_key(spec.name, row.solver, row.params, row.replication), row)
        writer.finalize(result.elapsed_seconds)
        return self.path(spec)

    # ------------------------------------------------------------------
    # Inventory / maintenance (the ``cache`` CLI surface)
    # ------------------------------------------------------------------
    def entries(self) -> list[CacheEntryInfo]:
        """Every entry in the cache directory, new-format and legacy."""
        if not self.directory.exists():
            return []
        infos = []
        for child in sorted(self.directory.iterdir()):
            info = self._describe_entry(child)
            if info is not None:
                infos.append(info)
        return infos

    def _describe_entry(self, child: Path) -> CacheEntryInfo | None:
        # Only children whose name matches ``<scenario>-<16-hex-hash>`` are
        # cache entries; anything else (a mispointed --cache-dir full of
        # source trees, unrelated files) is invisible to ls/rm/gc — gc must
        # never be able to rmtree a directory this store did not create.
        name, spec_hash = _split_entry_name(child.name.removesuffix(".json"))
        if not spec_hash:
            return None
        if child.is_dir():
            manifest_path = child / _MANIFEST
            total_bytes = sum(f.stat().st_size for f in child.iterdir() if f.is_file())
            mtime = child.stat().st_mtime
            try:
                manifest = json.loads(manifest_path.read_text())
                rows = manifest["rows"]
                return CacheEntryInfo(
                    name=manifest.get("name", name),
                    spec_hash=manifest.get("spec_hash", spec_hash),
                    path=child,
                    status=manifest.get("status", "corrupt"),
                    cells=len(rows),
                    artifacts=sum(1 for r in rows if r.get("artifact") is not None),
                    total_bytes=total_bytes,
                    mtime=manifest_path.stat().st_mtime,
                    code_fingerprint=manifest.get("code_fingerprint"),
                )
            except (OSError, json.JSONDecodeError, KeyError, TypeError):
                return CacheEntryInfo(
                    name=name, spec_hash=spec_hash, path=child, status="corrupt",
                    cells=0, artifacts=0, total_bytes=total_bytes, mtime=mtime,
                )
        if child.is_file() and child.suffix == ".json":
            try:
                payload = json.loads(child.read_text())
                if not isinstance(payload, dict) or "spec_hash" not in payload:
                    return None
                return CacheEntryInfo(
                    name=payload.get("name", name),
                    spec_hash=payload.get("spec_hash", spec_hash),
                    path=child,
                    status="legacy",
                    cells=len(payload.get("rows", [])),
                    artifacts=0,
                    total_bytes=child.stat().st_size,
                    mtime=child.stat().st_mtime,
                )
            except (OSError, json.JSONDecodeError):
                return CacheEntryInfo(
                    name=name, spec_hash=spec_hash, path=child, status="corrupt",
                    cells=0, artifacts=0, total_bytes=child.stat().st_size,
                    mtime=child.stat().st_mtime,
                )
        return None

    def remove(self, scenario: str) -> list[CacheEntryInfo]:
        """Remove every entry (any spec hash) of the named scenario."""
        removed = []
        for info in self.entries():
            if info.name == scenario:
                _remove_entry_path(info.path)
                removed.append(info)
        return removed

    def gc(
        self,
        current_hashes: dict[str, str] | None = None,
        max_age_days: float | None = None,
    ) -> GcReport:
        """Prune stale entries and orphan side-files.

        * entries of a scenario in ``current_hashes`` whose hash differs from
          the current spec hash (the spec changed, the entry can never be
          served again),
        * entries whose ``code_fingerprint`` differs from the current
          :func:`source_fingerprint` — the solver/simulator code changed, so
          they can never be served again either; legacy single-file entries
          (which predate the fingerprint entirely) fall in the same bucket,
        * entries older than ``max_age_days``,
        * corrupt remnants (entry-named paths with an unreadable manifest)
          that have been sitting for at least an hour — the grace period
          protects a concurrent run whose directory exists but whose first
          manifest write has not landed yet,
        * side-files inside live run directories that no manifest references
          (left behind by a kill between an artifact write and the manifest
          rewrite),
        * ``.quarantine/`` subdirectories — suspect payloads are kept for
          post-mortems until gc runs, then discarded,
        * ``.fleet/`` queue directories of *merged, dead* campaigns (the
          manifest is complete and no lease or worker heartbeat is fresh) —
          the shards and markers are derived into the manifest and only
          take space.

        An entry with a **live fleet campaign** (any fresh lease or worker
        heartbeat under ``.fleet/``, see :func:`fleet_activity`) is skipped
        entirely: a worker may be mid-write on a cell whose artifact the
        manifest does not reference yet, so neither the age/corrupt
        heuristics nor orphan pruning may touch it.

        Only paths named ``<scenario>-<16-hex-hash>`` are ever touched.
        """
        current_hashes = current_hashes or {}
        removed_entries: list[str] = []
        removed_orphans = 0
        freed = 0
        for info in self.entries():
            if info.path.is_dir() and fleet_activity(info.path):
                logger.info(
                    "gc: skipping cache entry %s — a fleet campaign holds "
                    "live leases or worker heartbeats in it", info.path,
                )
                continue
            stale_hash = (
                info.name in current_hashes and info.spec_hash != current_hashes[info.name]
            )
            stale_code = (
                info.status in ("complete", "partial")
                and info.code_fingerprint != source_fingerprint()
            ) or info.status == "legacy"
            too_old = (
                max_age_days is not None
                and info.age_seconds > max_age_days * 86400.0
            )
            corrupt = info.status == "corrupt" and info.age_seconds > _CORRUPT_GRACE_SECONDS
            if stale_hash or stale_code or too_old or corrupt:
                quarantine_bytes = 0
                fleet_bytes = 0
                if info.path.is_dir():
                    _, quarantine_bytes = _quarantine_stats(info.path)
                    _, fleet_bytes = _tree_size(info.path / FLEET_DIRNAME)
                freed += info.total_bytes + quarantine_bytes + fleet_bytes
                _remove_entry_path(info.path)
                removed_entries.append(info.path.name)
                continue
            if info.path.is_dir():
                if (info.path / _QUARANTINE).is_dir():
                    quarantined, quarantine_bytes = _quarantine_stats(info.path)
                    shutil.rmtree(info.path / _QUARANTINE, ignore_errors=True)
                    removed_orphans += quarantined
                    freed += quarantine_bytes
                fleet_dir = info.path / FLEET_DIRNAME
                if fleet_dir.is_dir() and info.status == "complete":
                    # Merged, dead campaign: the manifest holds everything
                    # the queue's shards and markers recorded.
                    fleet_files, fleet_bytes = _tree_size(fleet_dir)
                    shutil.rmtree(fleet_dir, ignore_errors=True)
                    removed_orphans += fleet_files
                    freed += fleet_bytes
                orphans, orphan_bytes = self._prune_orphans(info.path)
                removed_orphans += orphans
                freed += orphan_bytes
        return GcReport(tuple(removed_entries), removed_orphans, freed)

    @staticmethod
    def _prune_orphans(entry_dir: Path) -> tuple[int, int]:
        try:
            manifest = json.loads((entry_dir / _MANIFEST).read_text())
            referenced = {
                record["artifact"]["file"]
                for record in manifest["rows"]
                if record.get("artifact") is not None
            }
        except (OSError, json.JSONDecodeError, KeyError, TypeError):
            return 0, 0
        removed = 0
        freed = 0
        for child in entry_dir.iterdir():
            if child.name == _MANIFEST or not child.is_file():
                continue
            if child.name not in referenced:
                freed += child.stat().st_size
                child.unlink()
                removed += 1
        return removed, freed


def _split_entry_name(stem: str) -> tuple[str, str]:
    if len(stem) > _HASH_LEN + 1 and stem[-_HASH_LEN - 1] == "-":
        candidate = stem[-_HASH_LEN:]
        if re.fullmatch(r"[0-9a-f]+", candidate):
            return stem[: -_HASH_LEN - 1], candidate
    return stem, ""


def _remove_entry_path(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        path.unlink(missing_ok=True)


class CacheWriter:
    """Streams completed cells into one run directory.

    Each :meth:`add` writes the cell's artifact side-file (if any) and
    atomically rewrites the manifest with ``status: "partial"``;
    :meth:`add_failure` records a permanently failed cell the same way;
    :meth:`finalize` flips the status to ``complete`` (failures included — a
    finalized-with-failures entry is a partial *result* the next run
    retries).  A run killed at any point therefore leaves a loadable partial
    entry.

    Taking over a directory whose manifest exists but is unusable for this
    spec and source state (corrupt, wrong hash, fingerprint-stale) moves its
    files into ``.quarantine/`` first, so suspect payloads are preserved for
    inspection instead of being overwritten in place.
    """

    def __init__(
        self,
        cache: ResultCache,
        spec: ScenarioSpec,
        resumed: dict[str, CellResult],
        failures: tuple[CellFailure, ...] = (),
    ) -> None:
        self.cache = cache
        self.spec = spec
        self.directory = cache.path(spec)
        self.artifacts_written = 0
        self.bytes_written = 0
        self._records: dict[str, dict] = {}
        self._failures: dict[str, dict] = {}
        if (
            not resumed
            and (self.directory / _MANIFEST).exists()
            and cache._read_manifest(spec) is None
        ):
            moved = _quarantine_entry(self.directory)
            if moved:
                logger.warning(
                    "quarantined %d file(s) of unusable cache entry %s under %s/",
                    moved, self.directory, _QUARANTINE,
                )
        for key, row in resumed.items():
            self._records[key] = self._record(key, row)
        for failure in failures:
            self._failures[failure.key] = failure.to_dict()

    def add(self, key: str, row: CellResult, keep_in_memory: bool = False) -> CellResult:
        """Persist one completed cell; returns the row to hand back.

        The returned row carries an :class:`ArtifactRef` in place of the
        in-memory artifact unless ``keep_in_memory`` asks to keep the decoded
        object on the row (the cache side-file is written either way).
        """
        stored = row
        self._failures.pop(key, None)  # a computed cell supersedes its failure
        if row.artifact is not None and not isinstance(row.artifact, ArtifactRef):
            ref = write_artifact(row.artifact, self.directory, _artifact_stem(key))
            self.artifacts_written += 1
            self.bytes_written += ref.nbytes
            stored = row if keep_in_memory else row.with_artifact(ref)
            self._records[key] = self._record(key, row.with_artifact(ref))
        else:
            if isinstance(row.artifact, ArtifactRef):
                # Written into this run directory by a fleet worker.
                self.artifacts_written += 1
                self.bytes_written += row.artifact.nbytes
            self._records[key] = self._record(key, row)
        self._write_manifest(status="partial")
        return stored

    def add_failure(self, failure: CellFailure) -> None:
        """Record one permanently failed cell in the manifest as it happens.

        Like :meth:`add`, the manifest is rewritten immediately, so a run
        killed after the failure still carries the record — a resumed run
        replays it instead of blindly recomputing a cell that may hang again.
        """
        self._failures[failure.key] = failure.to_dict()
        self._records.pop(failure.key, None)
        self._write_manifest(status="partial")

    def write_partial(self, elapsed_seconds: float = 0.0) -> Path:
        """Persist the current state with ``status: "partial"`` (resumable).

        Used by a fleet fetch of a campaign that has not settled yet.
        """
        self._write_manifest(status="partial", elapsed_seconds=elapsed_seconds)
        return self.directory

    @property
    def failures(self) -> tuple[CellFailure, ...]:
        """The failure records currently in the manifest."""
        return tuple(CellFailure.from_dict(record) for record in self._failures.values())

    def finalize(self, elapsed_seconds: float) -> Path:
        # Canonical row order on the final document: the spec's grid order,
        # however the records arrived (serial completion order, pool
        # streaming order, fleet merge order, resumed-rows-first).  Serial
        # and distributed runs of one spec therefore finalize manifests that
        # differ only in volatile timing fields — the property
        # :func:`manifest_fingerprint` hashes over.
        order = {cell.key: index for index, cell in enumerate(self.spec.cells())}
        fallback = len(order)
        self._records = dict(
            sorted(self._records.items(), key=lambda kv: (order.get(kv[0], fallback), kv[0]))
        )
        self._failures = dict(
            sorted(self._failures.items(), key=lambda kv: (order.get(kv[0], fallback), kv[0]))
        )
        self._write_manifest(status="complete", elapsed_seconds=elapsed_seconds)
        return self.directory

    def _record(self, key: str, row: CellResult) -> dict:
        return manifest_record(key, row)

    def _write_manifest(self, status: str, elapsed_seconds: float = 0.0) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format": _FORMAT,
            "name": self.spec.name,
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec.hash(),
            "code_fingerprint": source_fingerprint(),
            "status": status,
            "elapsed_seconds": elapsed_seconds,
            "rows": list(self._records.values()),
            "failures": list(self._failures.values()),
        }
        # The manifest is rewritten after every cell (that is what makes a
        # kill recoverable), so the streaming rewrites stay compact; only the
        # final document is pretty-printed for human readers.
        if status == "complete":
            text = json.dumps(manifest, indent=2, sort_keys=True)
        else:
            text = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
        _atomic_write_text(self.directory / _MANIFEST, text)
