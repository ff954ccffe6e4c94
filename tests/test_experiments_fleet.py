"""Distributed fleet backend: leases, exactly-once commits, crash tolerance.

Everything here drives *real* worker processes over the real on-disk work
queue.  The load-bearing assertions mirror the PR's acceptance criteria:

* two workers on disjoint cells merge a manifest whose
  :func:`manifest_fingerprint` equals a serial run's (the "bit-identical"
  contract — only volatile timing fields differ),
* a SIGKILLed worker loses no committed cell and the campaign converges,
* a forced double claim commits exactly once,
* a SIGTERMed supervisor drains to a resumable ``status: "partial"``
  manifest with every lease released,
* ``cache gc`` never touches an entry holding a live lease,
* the ``fleet`` CLI honours the documented exit-code contract (0/3/1/2
  plus 4 = in progress).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import (
    CampaignInterrupted,
    ExperimentRunner,
    ExperimentResult,
    FailureBudgetExceeded,
    FleetPolicy,
    MapSpec,
    ReplicationPolicy,
    ScenarioSpec,
    SolverSpec,
    SupervisionPolicy,
    SyntheticWorkload,
    fetch_campaign,
    parse_fault_spec,
    run_fleet_campaign,
    submit_campaign,
)
from repro.experiments.cache import (
    FLEET_DIRNAME,
    ResultCache,
    fleet_activity,
    manifest_fingerprint,
)
from repro.experiments.cli import main
from repro.experiments.faults import (
    FAULT_ENV,
    FLEET_FAULT_KINDS,
    POOL_FAULT_KINDS,
    FaultDirective,
    matching_directive,
)
from repro.experiments.fleet import FleetQueue, build_units, fleet_worker

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def small_spec(name="fleet_unit") -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        description="small analytic scenario for fleet tests",
        workload=SyntheticWorkload(
            front=MapSpec(family="exponential", mean=0.05),
            db_mean=0.04,
            db_scv=(4.0,),
            db_decay=(0.5,),
            think_time=0.5,
            populations=(1, 3),
        ),
        solvers=(SolverSpec(kind="ctmc"), SolverSpec(kind="mva"), SolverSpec(kind="bounds")),
        replication=ReplicationPolicy(base_seed=3),
    )


def fast_policy(**overrides) -> FleetPolicy:
    fields = dict(workers=2, lease_timeout=2.0)
    fields.update(overrides)
    return FleetPolicy(**fields)


def serial_fingerprint(spec: ScenarioSpec, tmp_path: Path) -> str:
    cache_dir = tmp_path / "serial-baseline"
    cache = ResultCache(cache_dir)
    ExperimentRunner(cache_dir=cache_dir, jobs=1).run(spec)
    return manifest_fingerprint(cache.manifest_path(spec))


def rows_signature(result: ExperimentResult):
    return [
        (row.solver, tuple(sorted(row.params.items())), row.seed, row.metrics)
        for row in result.rows
    ]


class TestFleetFaultGrammar:
    """The ``REPRO_FAULT_INJECT`` grammar extended with the fleet kinds."""

    def test_parses_fleet_kinds(self):
        directives = parse_fault_spec(
            "worker-kill:ctmc/*;lease-stall:population=3;double-claim:mva:1"
        )
        assert directives == (
            FaultDirective(kind="worker-kill", pattern="ctmc/*"),
            FaultDirective(kind="lease-stall", pattern="population=3"),
            FaultDirective(kind="double-claim", pattern="mva", max_attempts=1),
        )

    def test_kind_sets_partition_as_documented(self):
        # The pool kinds fire inside the supervised child on either backend
        # (a fleet unit runs through the same envelope); the fleet kinds act
        # on the worker that claimed the unit and mean nothing to the pool.
        for kind in ("crash", "hang", "error", "corrupt"):
            assert kind in POOL_FAULT_KINDS and kind not in FLEET_FAULT_KINDS
        for kind in ("worker-kill", "lease-stall", "double-claim"):
            assert kind in FLEET_FAULT_KINDS and kind not in POOL_FAULT_KINDS

    def test_kinds_filter_hides_foreign_directives(self):
        fleet_only = FaultDirective(kind="worker-kill", pattern="*")
        pool_only = FaultDirective(kind="hang", pattern="*")
        both = (fleet_only, pool_only)
        assert matching_directive(both, "k", 1, kinds=POOL_FAULT_KINDS) is pool_only
        assert matching_directive(both, "k", 1, kinds=FLEET_FAULT_KINDS) is fleet_only
        assert matching_directive((fleet_only,), "k", 1, kinds=POOL_FAULT_KINDS) is None

    def test_pool_runner_ignores_fleet_directives(self, tmp_path, monkeypatch):
        # A fleet spec must be inert under the pool backend: the run
        # completes as if no injection were configured.
        monkeypatch.setenv(FAULT_ENV, "worker-kill:*;lease-stall:*;double-claim:*")
        spec = small_spec()
        result = ExperimentRunner(cache_dir=tmp_path / "c", jobs=2).run(spec)
        assert len(result.rows) == len(spec.cells())
        assert not result.failures
        assert result.meta["cells_retried"] == 0


class TestConcurrentWriters:
    def test_two_workers_merge_fingerprint_identical_to_serial(self, tmp_path):
        spec = small_spec()
        baseline = serial_fingerprint(spec, tmp_path)
        cache = ResultCache(tmp_path / "fleet")
        result = run_fleet_campaign(cache, spec, fast_policy())
        assert len(result.rows) == len(spec.cells())
        assert result.meta["cells_computed"] == len(spec.cells())
        assert manifest_fingerprint(cache.manifest_path(spec)) == baseline
        # Rows come back in spec grid order with spec-derived seeds.
        serial = ExperimentRunner(cache_dir=tmp_path / "serial-baseline", jobs=1).run(spec)
        assert rows_signature(result) == rows_signature(serial)

    def test_second_run_is_pure_cache_replay(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "fleet")
        run_fleet_campaign(cache, spec, fast_policy())
        again = run_fleet_campaign(cache, spec, fast_policy())
        assert again.from_cache
        assert again.meta["cells_computed"] == 0

    def test_commit_marker_is_exactly_once(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "fleet")
        submit_campaign(cache, spec, fast_policy())
        queue = FleetQueue(cache.path(spec))
        unit = queue.units[0]
        records = [
            {"key": key, "solver": "x", "artifact": None} for key in unit.keys
        ]
        assert queue.commit(unit, "winner", records) is True
        assert queue.commit(unit, "loser", records) is False
        marker = json.loads((queue.done / f"{unit.id}.json").read_text())
        assert marker["owner"] == "winner"

    def test_forced_double_claim_commits_exactly_once(self, tmp_path, monkeypatch):
        spec = small_spec()
        baseline = serial_fingerprint(spec, tmp_path)
        cache = ResultCache(tmp_path / "fleet")
        submit_campaign(cache, spec, fast_policy())
        queue = FleetQueue(cache.path(spec))
        victim = next(u for u in queue.units if "bounds" in u.keys[0])
        # A live foreign lease that will never expire nor be reaped (its pid
        # is alive): only a double-claim directive can take this unit.
        intruder_lease = queue.leases / f"{victim.id}.json"
        intruder_lease.write_text(json.dumps({
            "owner": "intruder", "pid": os.getpid(), "host": queue.host,
            "attempt": 1, "heartbeat": time.time(), "lease_timeout": 9999.0,
            "acquired": time.time(),
        }))
        monkeypatch.setenv(FAULT_ENV, "double-claim:bounds")
        committed = fleet_worker(cache.path(spec), spec, owner="rogue")
        assert committed == len(queue.units)
        marker = json.loads((queue.done / f"{victim.id}.json").read_text())
        assert marker["owner"] == "rogue"
        # The rogue never owned the lease, so the intruder's is untouched.
        assert json.loads(intruder_lease.read_text())["owner"] == "intruder"
        # A later commit of the same unit (the intruder finally finishing)
        # is discarded by the exactly-once marker.  Real late writers produce
        # equivalent shards (seeds derive from the spec), so replaying the
        # committed shard models the race faithfully.
        records = json.loads((queue.results / f"{victim.id}.json").read_text())
        assert queue.commit(victim, "intruder", records) is False
        monkeypatch.delenv(FAULT_ENV)
        state, result = fetch_campaign(cache, spec)
        assert state == "complete"
        assert len(result.rows) == len(spec.cells())
        assert manifest_fingerprint(cache.manifest_path(spec)) == baseline


class TestCrashTolerance:
    def test_sigkilled_worker_loses_no_cells(self, tmp_path, monkeypatch):
        spec = small_spec()
        baseline = serial_fingerprint(spec, tmp_path)
        cache = ResultCache(tmp_path / "fleet")
        monkeypatch.setenv(FAULT_ENV, "worker-kill:ctmc/db_decay=0.5,db_scv=4.0,population=3:1")
        result = run_fleet_campaign(
            cache, spec, fast_policy(lease_timeout=1.0)
        )
        assert len(result.rows) == len(spec.cells())
        assert not result.failures
        assert result.meta["cells_retried"] >= 1
        assert manifest_fingerprint(cache.manifest_path(spec)) == baseline

    def test_lease_stall_is_fenced_and_requeued(self, tmp_path, monkeypatch):
        spec = small_spec()
        baseline = serial_fingerprint(spec, tmp_path)
        cache = ResultCache(tmp_path / "fleet")
        monkeypatch.setenv(FAULT_ENV, "lease-stall:mva:1")
        result = run_fleet_campaign(
            cache, spec, fast_policy(lease_timeout=0.5)
        )
        assert len(result.rows) == len(spec.cells())
        assert not result.failures
        assert manifest_fingerprint(cache.manifest_path(spec)) == baseline

    def test_crash_retries_to_identical_result(self, tmp_path, monkeypatch):
        spec = small_spec()
        baseline = serial_fingerprint(spec, tmp_path)
        cache = ResultCache(tmp_path / "fleet")
        monkeypatch.setenv(FAULT_ENV, "crash:bounds:1")
        result = run_fleet_campaign(cache, spec, fast_policy())
        assert len(result.rows) == len(spec.cells())
        assert result.meta["cells_retried"] == 2  # two bounds cells, one retry each
        assert manifest_fingerprint(cache.manifest_path(spec)) == baseline

    def test_corrupt_payload_retries_to_identical_result(self, tmp_path, monkeypatch):
        spec = small_spec()
        baseline = serial_fingerprint(spec, tmp_path)
        cache = ResultCache(tmp_path / "fleet")
        monkeypatch.setenv(FAULT_ENV, "corrupt:bounds:1")
        result = run_fleet_campaign(cache, spec, fast_policy())
        assert len(result.rows) == len(spec.cells())
        assert not result.failures
        assert result.meta["cells_retried"] == 2
        assert manifest_fingerprint(cache.manifest_path(spec)) == baseline

    def test_hang_times_out_while_the_lease_heartbeats(self, tmp_path, monkeypatch):
        spec = small_spec()
        cache = ResultCache(tmp_path / "fleet")
        hung = next(c.key for c in spec.cells() if "mva" in c.key and "population=3" in c.key)
        monkeypatch.setenv(FAULT_ENV, f"hang:{hung}")
        # The cell timeout is three lease timeouts: the lease survives the
        # hang only because the worker keeps heartbeating it.
        result = run_fleet_campaign(
            cache, spec, fast_policy(lease_timeout=1.0),
            SupervisionPolicy(cell_timeout=3.0, retries=0, max_failures=1),
        )
        assert [(f.key, f.kind, f.attempts) for f in result.failures] == [
            (hung, "timeout", 1)
        ]
        assert len(result.rows) == len(spec.cells()) - 1
        assert result.meta["cells_retried"] == 0
        queue = FleetQueue(cache.path(spec))
        unit = next(u for u in queue.units if u.keys == (hung,))
        assert queue.claim_count(unit.id) == 1  # never reaped, never re-claimed

    def test_pool_and_fleet_share_one_retry_policy(self, tmp_path, monkeypatch):
        spec = small_spec()
        policy = SupervisionPolicy(
            retries=1, max_failures=2, backoff_base=0.01, backoff_cap=0.05
        )
        monkeypatch.setenv(FAULT_ENV, "crash:bounds:1;error:mva")
        pool_cache = ResultCache(tmp_path / "pool")
        fleet_cache = ResultCache(tmp_path / "fleet")
        pool = ExperimentRunner(
            cache_dir=pool_cache.directory, jobs=2, supervision=policy
        ).run(spec)
        fleet = ExperimentRunner(
            cache_dir=fleet_cache.directory, supervision=policy, backend="fleet",
            fleet=fast_policy(workers=2),
        ).run(spec)

        def failure_set(result):
            return {(f.key, f.kind, f.attempts) for f in result.failures}

        # Two bounds cells retried once each, two mva cells retried once
        # before failing with two attempts.
        assert pool.meta["cells_retried"] == fleet.meta["cells_retried"] == 4
        assert failure_set(pool) == failure_set(fleet)
        assert {(kind, attempts) for _, kind, attempts in failure_set(pool)} == {
            ("error", 2)
        }
        assert len(failure_set(pool)) == 2
        assert manifest_fingerprint(pool_cache.manifest_path(spec)) == (
            manifest_fingerprint(fleet_cache.manifest_path(spec))
        )

    def test_budget_exceeded_leaves_resumable_partial(self, tmp_path, monkeypatch):
        spec = small_spec()
        cache = ResultCache(tmp_path / "fleet")
        monkeypatch.setenv(FAULT_ENV, "error:mva")  # every attempt of mva fails
        with pytest.raises(FailureBudgetExceeded):
            run_fleet_campaign(cache, spec, fast_policy(), SupervisionPolicy(retries=1))
        manifest = json.loads(cache.manifest_path(spec).read_text())
        assert manifest["status"] == "partial"
        # Every lease was released by the drain.
        queue = FleetQueue(cache.path(spec))
        assert not list(queue.leases.glob("*.json"))
        # Resume semantics mirror the pool runner's: the partial entry's
        # recorded failures are *replayed* (the killed run already burned
        # their retry budget), so the next campaign completes with them on
        # record; the run after that retries exactly the failed cells.
        monkeypatch.delenv(FAULT_ENV)
        baseline = serial_fingerprint(spec, tmp_path)
        replay = run_fleet_campaign(
            cache, spec, fast_policy(), SupervisionPolicy(max_failures=2)
        )
        assert replay.failures
        assert all("mva" in f.key for f in replay.failures)
        retry = run_fleet_campaign(cache, spec, fast_policy())
        assert not retry.failures
        assert len(retry.rows) == len(spec.cells())
        assert retry.meta["cells_from_cache"] > 0
        assert manifest_fingerprint(cache.manifest_path(spec)) == baseline

    def test_failures_within_budget_finalize_with_records(self, tmp_path, monkeypatch):
        spec = small_spec()
        cache = ResultCache(tmp_path / "fleet")
        monkeypatch.setenv(FAULT_ENV, "error:mva")
        result = run_fleet_campaign(
            cache, spec, fast_policy(), SupervisionPolicy(retries=1, max_failures=2)
        )
        assert len(result.failures) == 2
        assert {f.kind for f in result.failures} == {"error"}
        assert all(f.attempts == 2 for f in result.failures)
        manifest = json.loads(cache.manifest_path(spec).read_text())
        assert manifest["status"] == "complete"
        assert len(manifest["failures"]) == 2
        # A finalized-with-failures entry is a partial *result*: the next
        # run retries exactly the failed cells.
        monkeypatch.delenv(FAULT_ENV)
        retried = run_fleet_campaign(cache, spec, fast_policy())
        assert not retried.failures
        assert retried.meta["cells_computed"] == 2
        assert retried.meta["cells_from_cache"] == 4


_DRAIN_SCRIPT = """
import json, sys
from repro.experiments import run_fleet_campaign, CampaignInterrupted, FleetPolicy, ScenarioSpec
from repro.experiments.cache import ResultCache

spec = ScenarioSpec.from_dict(json.loads(sys.argv[1]))
cache = ResultCache(sys.argv[2])
policy = FleetPolicy(workers=2, lease_timeout=60.0)
try:
    run_fleet_campaign(cache, spec, policy)
except CampaignInterrupted:
    sys.exit(1)
sys.exit(0)
"""


class TestGracefulShutdown:
    def test_sigterm_supervisor_writes_partial_and_releases_leases(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "fleet")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        # Exactly one cell stalls forever (lease_timeout is 60s, far beyond
        # the test horizon), the other five complete; SIGTERM must merge the
        # committed units and release the stalled lease.
        env[FAULT_ENV] = "lease-stall:mva/db_decay=0.5,db_scv=4.0,population=3"
        process = subprocess.Popen(
            [sys.executable, "-c", _DRAIN_SCRIPT,
             json.dumps(spec.to_dict()), str(cache.directory)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            queue = FleetQueue(cache.path(spec))
            deadline = time.time() + 60.0
            while time.time() < deadline:
                if queue.exists() and queue.load_campaign():
                    done = queue.status()["done"]
                    if done >= 5:
                        break
                time.sleep(0.05)
            else:
                pytest.fail("campaign never computed its non-stalled cells")
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30.0) == 1  # CampaignInterrupted
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)
        manifest = json.loads(cache.manifest_path(spec).read_text())
        assert manifest["status"] == "partial"
        assert len(manifest["rows"]) >= 5  # committed units were merged
        assert not list(queue.leases.glob("*.json"))  # all leases released
        # The partial entry resumes: a fault-free campaign finishes only the
        # stalled cell and fingerprints identical to a serial run.
        baseline = serial_fingerprint(spec, tmp_path)
        result = run_fleet_campaign(cache, spec, fast_policy())
        assert len(result.rows) == len(spec.cells())
        assert result.meta["cells_from_cache"] >= 5
        assert result.meta["cells_computed"] <= 1
        assert manifest_fingerprint(cache.manifest_path(spec)) == baseline


class TestGcLeaseAwareness:
    def _live_lease(self, entry_dir: Path) -> Path:
        leases = entry_dir / FLEET_DIRNAME / "leases"
        leases.mkdir(parents=True, exist_ok=True)
        path = leases / "u0.json"
        path.write_text(json.dumps({
            "owner": "w", "pid": os.getpid(), "host": "h", "attempt": 1,
            "heartbeat": time.time(), "lease_timeout": 30.0,
        }))
        return path

    def _age_lease(self, path: Path) -> None:
        payload = json.loads(path.read_text())
        payload["heartbeat"] = time.time() - 7200.0
        path.write_text(json.dumps(payload))
        os.utime(path, (time.time() - 7200.0,) * 2)

    def test_fleet_activity_distinguishes_live_and_stale(self, tmp_path):
        entry = tmp_path / "scn-0123456789abcdef"
        entry.mkdir()
        assert not fleet_activity(entry)
        lease = self._live_lease(entry)
        assert fleet_activity(entry)
        self._age_lease(lease)
        assert not fleet_activity(entry)

    def test_gc_skips_entries_with_live_leases(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "c")
        ExperimentRunner(cache_dir=cache.directory, jobs=1).run(spec)
        entry = cache.path(spec)
        # An orphan side-file gc would normally prune, plus a live lease.
        orphan = entry / "orphan-deadbeef.json"
        orphan.write_text("{}")
        lease = self._live_lease(entry)
        report = cache.gc()
        assert report.removed_entries == ()
        assert orphan.exists()  # nothing inside the entry was touched
        # Once the lease is stale the campaign is dead: gc prunes the
        # orphan and sweeps the whole .fleet queue of the complete entry.
        self._age_lease(lease)
        report = cache.gc()
        assert report.removed_entries == ()
        assert not orphan.exists()
        assert not (entry / FLEET_DIRNAME).exists()
        assert cache.load(spec) is not None  # still servable

    def test_gc_never_prunes_corrupt_looking_entry_with_live_lease(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.directory.mkdir(parents=True)
        # Manifest-less directory, mtime far past the 1h corrupt grace —
        # gc would prune it, but a worker is mid-write under a live lease.
        entry = cache.directory / "scn-0123456789abcdef"
        entry.mkdir()
        (entry / "half-written.npz").write_text("x")
        self._live_lease(entry)
        old = time.time() - 7200.0
        os.utime(entry, (old, old))
        report = cache.gc()
        assert report.removed_entries == ()
        assert (entry / "half-written.npz").exists()

    def test_completed_fleet_run_survives_gc_and_replays(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "fleet")
        run_fleet_campaign(cache, spec, fast_policy())
        # Age every fleet heartbeat so the campaign reads as dead.
        fleet_dir = cache.path(spec) / FLEET_DIRNAME
        for sub in ("leases", "workers"):
            for path in (fleet_dir / sub).glob("*.json"):
                payload = json.loads(path.read_text())
                payload["heartbeat"] = time.time() - 7200.0
                path.write_text(json.dumps(payload))
                os.utime(path, (time.time() - 7200.0,) * 2)
        cache.gc()
        assert not fleet_dir.exists()  # queue swept, manifest kept
        replay = run_fleet_campaign(cache, spec, fast_policy())
        assert replay.from_cache


class TestFleetCli:
    def test_exit_code_contract(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        spec_args = ["--cache-dir", cache_dir]
        assert main(["fleet", "status", "smoke", *spec_args]) == 1
        assert main(["fleet", "fetch", "smoke", *spec_args]) == 1
        assert main(["fleet", "workers", "smoke", *spec_args]) == 1
        assert main(["fleet", "submit", "smoke", *spec_args]) == 0
        assert main(["fleet", "status", "smoke", *spec_args]) == 4
        assert main(["fleet", "fetch", "smoke", *spec_args]) == 4
        assert main(["fleet", "workers", "smoke", *spec_args]) == 0
        assert main([
            "fleet", "work", "smoke", "--workers", "2", *spec_args
        ]) == 0
        assert main(["fleet", "status", "smoke", *spec_args]) == 0
        assert main(["fleet", "fetch", "smoke", *spec_args]) == 0
        capsys.readouterr()

    def test_run_backend_fleet_and_cache_replay(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main([
            "run", "smoke", "--backend", "fleet", "--workers", "2",
            "--cache-dir", cache_dir,
        ]) == 0
        capsys.readouterr()
        assert main([
            "run", "smoke", "--backend", "fleet", "--cache-dir", cache_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert "(cache; 0 computed" in out

    def test_run_backend_fleet_rejects_no_cache(self, tmp_path, capsys):
        assert main([
            "run", "smoke", "--backend", "fleet", "--no-cache",
            "--cache-dir", str(tmp_path),
        ]) == 2
        assert "needs the cache" in capsys.readouterr().err

    def test_work_keeps_the_submitted_retry_policy(self, tmp_path, capsys, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        assert main([
            "fleet", "submit", "smoke", "--retries", "0", "--max-failures", "5",
            "--cache-dir", cache_dir,
        ]) == 0
        monkeypatch.setenv(FAULT_ENV, "error:mva")
        # Under the default policy (2 retries, no failure budget) this run
        # would abort with exit 1.
        assert main(["fleet", "work", "smoke", "--cache-dir", cache_dir]) == 3
        capsys.readouterr()
        manifest = json.loads(next(Path(cache_dir).glob("smoke-*/manifest.json")).read_text())
        assert manifest["failures"]
        assert {(f["kind"], f["attempts"]) for f in manifest["failures"]} == {("error", 1)}

    def test_submit_on_complete_entry_is_a_noop(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["fleet", "work", "smoke", "--workers", "2",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["fleet", "submit", "smoke", "--cache-dir", cache_dir]) == 0
        assert "already complete" in capsys.readouterr().out


class TestQueueMechanics:
    def test_build_units_are_content_addressed(self):
        spec = small_spec()
        units = build_units(spec, spec.cells())
        again = build_units(spec, spec.cells())
        assert [u.id for u in units] == [u.id for u in again]
        assert len({u.id for u in units}) == len(units)
        covered = sorted(key for unit in units for key in unit.keys)
        assert covered == sorted(cell.key for cell in spec.cells())

    def test_reap_charges_attempt_exactly_once(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "c")
        submit_campaign(cache, spec, fast_policy(lease_timeout=0.1))
        queue = FleetQueue(cache.path(spec))
        claim, _busy = queue.claim_next("w1")
        assert claim is not None
        time.sleep(0.3)  # let the lease expire without heartbeats
        assert queue.reap_expired() == 1
        assert queue.reap_expired() == 0  # second reaper finds nothing
        # Exactly one claim was used up: the next claim is attempt 2.
        again, _busy = queue.claim_next("w1")
        assert again is not None and again.unit.id == claim.unit.id
        assert again.attempt == 2

    def test_campaign_attach_keeps_committed_units(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "c")
        policy = fast_policy()
        submit_campaign(cache, spec, policy)
        queue = FleetQueue(cache.path(spec))
        unit = queue.units[0]
        records = [{"key": key, "artifact": None} for key in unit.keys]
        assert queue.commit(unit, "w", records)
        # Re-attach (a new submit of the same pending set): the committed
        # unit keeps its done marker, so only the rest recomputes.
        status = submit_campaign(cache, spec, policy)
        assert status["done"] == 1
        assert status["pending"] == len(queue.units) - 1
        # --force resets everything.
        status = submit_campaign(cache, spec, policy, force=True)
        assert status["done"] == 0


class TestReapRaces:
    """Deterministic interleavings of one reaper with a rival queue user.

    ``os.rename``/``os.unlink`` are wrapped so the rival acts at the exact
    moment the reaper removes (or is about to remove) the stale lease.
    """

    def _stale_claim(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "c")
        submit_campaign(cache, spec, fast_policy(lease_timeout=0.1))
        queue = FleetQueue(cache.path(spec))
        claim, _busy = queue.claim_next("w1")
        assert claim is not None
        time.sleep(0.3)  # let the lease go stale without heartbeats
        return FleetQueue(cache.path(spec)), queue, claim

    @staticmethod
    def _hook_lease_removal(monkeypatch, lease, hook, before):
        fired = []

        def wrap(function):
            def wrapped(src, *args, **kwargs):
                trigger = Path(src) == lease and not fired
                if trigger:
                    fired.append(True)
                    if before:
                        hook()
                result = function(src, *args, **kwargs)
                if trigger and not before:
                    hook()
                return result
            return wrapped

        monkeypatch.setattr(os, "rename", wrap(os.rename))
        monkeypatch.setattr(os, "unlink", wrap(os.unlink))
        return fired

    def test_claim_during_a_reap_gets_the_next_attempt(self, tmp_path, monkeypatch):
        rival, queue, claim = self._stale_claim(tmp_path)
        lease = queue.leases / f"{claim.unit.id}.json"
        claims = []
        # The rival claims right after the reaper took the stale lease away,
        # before the reap has finished.
        fired = self._hook_lease_removal(
            monkeypatch, lease, lambda: claims.append(rival.claim_next("w1")[0]),
            before=False,
        )
        assert queue.reap_expired() == 1
        monkeypatch.undo()
        assert fired and claims[0] is not None
        assert claims[0].unit.id == claim.unit.id
        assert claims[0].attempt == 2

    def test_reaper_never_removes_a_lease_it_did_not_judge(self, tmp_path, monkeypatch):
        rival, queue, claim = self._stale_claim(tmp_path)
        lease = queue.leases / f"{claim.unit.id}.json"

        def reap_and_reclaim():
            # A second reaper removes the stale lease first, and a new owner
            # takes the unit with a fresh, live lease.
            assert rival.reap_expired() == 1
            lease.write_text(json.dumps({
                "owner": "w3", "pid": os.getpid(), "host": rival.host,
                "claim": 2, "acquired": time.time(), "heartbeat": time.time(),
                "lease_timeout": 60.0,
            }))

        fired = self._hook_lease_removal(
            monkeypatch, lease, reap_and_reclaim, before=True
        )
        assert queue.reap_expired() == 0
        monkeypatch.undo()
        assert fired
        assert json.loads(lease.read_text())["owner"] == "w3"


_HANG_SCRIPT = """
import json, sys
from repro.experiments import fleet
from repro.experiments import FleetPolicy, ScenarioSpec, run_fleet_campaign
from repro.experiments.cache import ResultCache

fleet._DRAIN_GRACE = 1.0
spec = ScenarioSpec.from_dict(json.loads(sys.argv[1]))
try:
    run_fleet_campaign(ResultCache(sys.argv[2]), spec,
                       FleetPolicy(workers=1, lease_timeout=60.0))
except fleet.CampaignInterrupted:
    sys.exit(1)
sys.exit(0)
"""


def _proc_stat(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the command name (state, ppid, …)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def _running(pid: int) -> bool:
    fields = _proc_stat(pid)
    return fields is not None and fields[0] != "Z"


def _children(pid: int) -> list[int]:
    kids = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            fields = _proc_stat(int(entry.name))
            if fields is not None and int(fields[1]) == pid and fields[0] != "Z":
                kids.append(int(entry.name))
    return kids


def _wait_for(predicate, timeout: float):
    deadline = time.time() + timeout
    while time.time() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.05)
    return predicate()


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
class TestNoOrphans:
    def _hung_worker(self, queue: FleetQueue, exclude: set[int]):
        """(worker pid, unit child pid) of a worker executing a hung unit."""
        for state in queue.worker_states() if queue.exists() else ():
            pid = state.get("pid")
            if state.get("state") == "executing" and pid not in exclude:
                kids = _children(pid)
                if kids:
                    return pid, kids[0]
        return None

    def test_killed_workers_leave_no_unit_process(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "fleet")
        queue = FleetQueue(cache.path(spec))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        env[FAULT_ENV] = "hang:*"  # every unit hangs, no cell timeout
        supervisor = subprocess.Popen(
            [sys.executable, "-c", _HANG_SCRIPT,
             json.dumps(spec.to_dict()), str(cache.directory)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        spawned: list[int] = []
        try:
            first = _wait_for(lambda: self._hung_worker(queue, set()), 60.0)
            assert first, "no worker ever ran a hung unit"
            spawned.extend(first)
            worker, child = first
            # SIGKILL the worker mid-unit: the supervisor notices the death
            # and must take the unit's child down with it (respawn path).
            os.kill(worker, signal.SIGKILL)
            assert _wait_for(lambda: not _running(child), 15.0)
            second = _wait_for(lambda: self._hung_worker(queue, {worker}), 60.0)
            assert second, "the supervisor never respawned a worker"
            spawned.extend(second)
            # Drain: the hung unit cannot finish, so the worker is killed at
            # the end of the grace — together with its unit's child.
            supervisor.send_signal(signal.SIGTERM)
            assert supervisor.wait(timeout=30.0) == 1
            assert _wait_for(lambda: not any(map(_running, second)), 15.0)
        finally:
            if supervisor.poll() is None:
                supervisor.kill()
                supervisor.wait(timeout=10.0)
            for pid in spawned:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
