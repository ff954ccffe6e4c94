"""Declarative scenario engine with a streaming, artifact-aware runner.

This subpackage turns the paper's evaluation (and any new study) into
declarative, hashable scenario specs executed by a caching, multiprocessing
runner:

* :mod:`~repro.experiments.spec` — scenario specifications (workload,
  solvers, replication/seeding) with dict/JSON round-trip and content hash,
* :mod:`~repro.experiments.registry` — named paper scenarios (fig4–fig12,
  table1, the estimation/granularity monitoring runs) plus synthetic
  exploration grids,
* :mod:`~repro.experiments.solvers` — execution of one grid cell against the
  repository's analytical solvers, simulators and the TPC-W testbed,
* :mod:`~repro.experiments.results` — the typed result schema and the
  artifact codecs (npz side-files for time-series payloads, JSON for small
  structures) with integrity-checked lazy refs,
* :mod:`~repro.experiments.cache` — the directory-per-run result store with
  atomic incremental writes and resume-from-partial,
* :mod:`~repro.experiments.runner` — multiprocessing fan-out that streams
  completed cells into the store as they finish,
* :mod:`~repro.experiments.supervision` — the fault-tolerant execution
  envelope around the pool fan-out and every fleet unit: per-cell
  timeouts, bounded retries with backoff, crash isolation and a failure
  budget, with deterministic fault injection
  (:mod:`~repro.experiments.faults`) for chaos tests,
* :mod:`~repro.experiments.fleet` — crash-tolerant distributed campaigns:
  a file-backed work queue inside the run directory, leased stateless
  workers (atomic lease files, heartbeats, exactly-once commit markers)
  and a draining supervisor — ``run --backend fleet`` and the async
  ``fleet submit/work/status/fetch/workers`` CLI verbs,
* :mod:`~repro.experiments.packs` — scenario *packs*: JSON spec files
  (``scenarios/*.json``) validated and run directly from the CLI,
* :mod:`~repro.experiments.cli` — ``python -m repro.experiments run fig4``
  (or ``run scenarios/flash_crowd.json``) and the ``cache ls/rm/gc``
  maintenance surface.
"""

from repro.experiments.cache import ResultCache, ResumeState, default_cache_dir
from repro.experiments.faults import FAULT_ENV, parse_fault_spec
from repro.experiments.fleet import (
    CampaignInterrupted,
    FleetPolicy,
    fetch_campaign,
    run_fleet_campaign,
    submit_campaign,
)
from repro.experiments.registry import (
    EB_VALUES,
    PAPER_SCENARIOS,
    get_scenario,
    list_scenarios,
    monitoring_scenario,
    register_scenario,
    scenario_descriptions,
    tpcw_sweep_scenario,
)
from repro.experiments.results import (
    ArtifactIntegrityError,
    ArtifactRef,
    CellFailure,
    CellResult,
    ExperimentResult,
    register_artifact_codec,
)
from repro.experiments.packs import (
    PACK_FORMAT,
    PackValidationError,
    load_pack,
    validate_pack,
)
from repro.experiments.runner import ExperimentRunner, run_scenario
from repro.experiments.supervision import FailureBudgetExceeded, SupervisionPolicy
from repro.experiments.spec import (
    Cell,
    EstimationSpec,
    MapSpec,
    OutageWindow,
    ReplicationPolicy,
    ScenarioSpec,
    SolverSpec,
    SyntheticWorkload,
    TestbedWorkload,
    TimeVaryingSegment,
    TimeVaryingWorkload,
    TraceWorkload,
)

__all__ = [
    "ArtifactIntegrityError",
    "ArtifactRef",
    "CampaignInterrupted",
    "Cell",
    "CellFailure",
    "CellResult",
    "EB_VALUES",
    "EstimationSpec",
    "ExperimentResult",
    "ExperimentRunner",
    "FAULT_ENV",
    "FailureBudgetExceeded",
    "FleetPolicy",
    "MapSpec",
    "OutageWindow",
    "PACK_FORMAT",
    "PAPER_SCENARIOS",
    "PackValidationError",
    "ReplicationPolicy",
    "ResultCache",
    "ResumeState",
    "ScenarioSpec",
    "SolverSpec",
    "SupervisionPolicy",
    "SyntheticWorkload",
    "TestbedWorkload",
    "TimeVaryingSegment",
    "TimeVaryingWorkload",
    "TraceWorkload",
    "default_cache_dir",
    "fetch_campaign",
    "load_pack",
    "parse_fault_spec",
    "validate_pack",
    "get_scenario",
    "list_scenarios",
    "monitoring_scenario",
    "register_artifact_codec",
    "register_scenario",
    "run_fleet_campaign",
    "run_scenario",
    "scenario_descriptions",
    "submit_campaign",
    "tpcw_sweep_scenario",
]
