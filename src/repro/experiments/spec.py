"""Declarative scenario specifications for the experiment engine.

A :class:`ScenarioSpec` is a complete, serialisable description of one
experiment: the *workload* (a synthetic closed MAP network, the simulated
TPC-W testbed, or the trace-driven open queue of Table 1), the *solvers* to
evaluate it with (exact CTMC, MVA, asymptotic/balanced-job bounds, event
simulation, the testbed itself, or models fitted from monitoring data), and
the *replication policy* (number of replications and how per-cell seeds are
derived).

Specs round-trip losslessly through plain dictionaries / JSON, and their
canonical JSON form defines a stable content hash (:meth:`ScenarioSpec.hash`)
that keys the on-disk result cache: two specs with the same hash describe the
same experiment, so cached results can be reused safely.

A spec *expands* into a grid of :class:`Cell`\\ s — the cartesian product of
its workload axes (population sweep, transaction mix, burstiness decay,
service variability), its solvers and its replications — each cell carrying a
deterministic seed derived from the scenario's base seed and the cell's key
via :func:`repro.simulation.random_streams.derive_seed`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from itertools import product
from typing import Any

from repro.simulation.random_streams import derive_seed

__all__ = [
    "MapSpec",
    "SyntheticWorkload",
    "TestbedWorkload",
    "EstimationSpec",
    "TraceWorkload",
    "OutageWindow",
    "TimeVaryingSegment",
    "TimeVaryingWorkload",
    "SolverSpec",
    "ReplicationPolicy",
    "Cell",
    "ScenarioSpec",
]


MAP_FAMILIES = ("exponential", "moments_decay", "hyperexp_renewal", "fitted")
SOLVER_KINDS = (
    "ctmc",
    "mva",
    "bounds",
    "simulation",
    "testbed",
    "fitted_map",
    "fitted_mva",
    "mtrace1",
    "piecewise_ctmc",
    "transient_ctmc",
)
SEED_POLICIES = ("per_cell", "shared")
#: Solver kinds whose output is a deterministic function of the spec; they
#: run exactly once per grid point regardless of the replication count.
DETERMINISTIC_SOLVERS = frozenset(
    {"ctmc", "mva", "bounds", "fitted_map", "fitted_mva", "piecewise_ctmc", "transient_ctmc"}
)


@dataclass(frozen=True)
class MapSpec:
    """Parametric description of a service MAP.

    Families
    --------
    ``exponential``
        Poisson process; only ``mean`` is used.
    ``moments_decay``
        Correlated hyper-exponential MAP(2) from ``(mean, scv, decay)`` —
        the workhorse family of the paper's fitting procedure.
    ``hyperexp_renewal``
        Renewal MAP(2) with hyper-exponential marginal ``(mean, scv)``.
    ``fitted``
        MAP(2) produced by the paper's fitting procedure from
        ``(mean, index_of_dispersion[, p95])``.
    """

    family: str
    mean: float
    scv: float | None = None
    decay: float | None = None
    index_of_dispersion: float | None = None
    p95: float | None = None

    def __post_init__(self) -> None:
        if self.family not in MAP_FAMILIES:
            raise ValueError(f"unknown MAP family {self.family!r}; expected one of {MAP_FAMILIES}")
        if self.mean <= 0:
            raise ValueError("mean must be positive")

    def build(self):
        """Construct the :class:`repro.maps.map_process.MAP` described here."""
        from repro.core.map_fitting import fit_map2_from_measurements
        from repro.maps.map2 import (
            map2_exponential,
            map2_from_moments_and_decay,
            map2_hyperexponential_renewal,
        )

        scv = 1.0 if self.scv is None else self.scv
        decay = 0.0 if self.decay is None else self.decay
        if self.family == "exponential":
            return map2_exponential(self.mean)
        if self.family == "moments_decay":
            return map2_from_moments_and_decay(self.mean, scv, decay)
        if self.family == "hyperexp_renewal":
            return map2_hyperexponential_renewal(self.mean, scv)
        fitted = fit_map2_from_measurements(
            mean=self.mean,
            index_of_dispersion=(
                1.0 if self.index_of_dispersion is None else self.index_of_dispersion
            ),
            p95=self.p95,
        )
        return fitted.map


@dataclass(frozen=True)
class SyntheticWorkload:
    """A synthetic closed MAP network (Figure 9) with sweepable burstiness.

    The front server follows a fixed :class:`MapSpec`; the database server is
    drawn from the correlated hyper-exponential family with the given mean
    and every combination of ``db_scv`` (service variability axis) and
    ``db_decay`` (burstiness axis).  ``populations`` is the population axis.
    """

    front: MapSpec
    db_mean: float
    think_time: float
    populations: tuple[int, ...]
    db_scv: tuple[float, ...] = (1.0,)
    db_decay: tuple[float, ...] = (0.0,)

    kind = "synthetic"

    def __post_init__(self) -> None:
        _require_axis("populations", self.populations)
        _require_axis("db_scv", self.db_scv)
        _require_axis("db_decay", self.db_decay)
        if self.db_mean <= 0:
            raise ValueError("db_mean must be positive")
        if self.think_time <= 0:
            raise ValueError("think_time must be positive")

    def axes(self) -> dict[str, tuple]:
        return {
            "db_scv": tuple(self.db_scv),
            "db_decay": tuple(self.db_decay),
            "population": tuple(self.populations),
        }


def _check_testbed_warmup(warmup: float) -> None:
    """The warm-up must trim whole windows of the testbed's default series."""
    from repro.tpcw.testbed import TestbedConfig, check_monitoring_windows

    check_monitoring_windows(
        warmup, TestbedConfig.utilization_window, TestbedConfig.completion_window
    )


@dataclass(frozen=True)
class EstimationSpec:
    """How to collect the monitoring run that parameterises fitted models.

    Follows Section 4.2 of the paper: a long run at a moderate population,
    optionally with a *larger* think time than the predicted scenario
    (``Z_estim``) so that the index of dispersion is estimated from
    finer-grained windows.
    """

    num_ebs: int = 50
    think_time: float = 0.5
    duration: float = 800.0
    warmup: float = 60.0
    seed: int = 21

    def __post_init__(self) -> None:
        _check_testbed_warmup(self.warmup)


@dataclass(frozen=True)
class TestbedWorkload:
    """The simulated TPC-W testbed, swept over mixes and populations."""

    __test__ = False  # not a pytest test class despite the name

    mixes: tuple[str, ...]
    populations: tuple[int, ...]
    think_time: float = 0.5
    duration: float = 400.0
    warmup: float = 40.0
    estimation: EstimationSpec | None = None

    kind = "testbed"

    def __post_init__(self) -> None:
        _require_axis("mixes", self.mixes)
        _require_axis("populations", self.populations)
        from repro.tpcw.mixes import STANDARD_MIXES

        unknown = [mix for mix in self.mixes if mix not in STANDARD_MIXES]
        if unknown:
            raise ValueError(f"unknown transaction mixes: {unknown}")
        # TestbedConfig measures `duration` seconds *after* the warmup
        # transient (horizon = warmup + duration), so any positive duration
        # is valid regardless of the warmup length.
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")
        _check_testbed_warmup(self.warmup)

    def axes(self) -> dict[str, tuple]:
        return {"mix": tuple(self.mixes), "population": tuple(self.populations)}


@dataclass(frozen=True)
class TraceWorkload:
    """The M/Trace/1 open queue of Table 1, swept over traces and loads."""

    traces: tuple[str, ...] = ("a", "b", "c", "d")
    utilizations: tuple[float, ...] = (0.5, 0.8)
    trace_size: int = 20_000
    trace_seed: int = 42

    kind = "trace"

    def __post_init__(self) -> None:
        _require_axis("traces", self.traces)
        _require_axis("utilizations", self.utilizations)
        if any(not 0.0 < u < 1.0 for u in self.utilizations):
            raise ValueError("utilizations must lie in the open interval (0, 1)")
        if self.trace_size < 2:
            raise ValueError("trace_size must be at least 2")

    def axes(self) -> dict[str, tuple]:
        return {"trace": tuple(self.traces), "utilization": tuple(self.utilizations)}


#: Stations a segment or outage window may refer to.
STATIONS = ("front", "db")


@dataclass(frozen=True)
class OutageWindow:
    """A hard server outage: ``station`` is down over ``[start, start+duration)``.

    The window is laid over the segment timeline in absolute time — it may
    start mid-segment and span segment boundaries; the resolved timeline is
    split at the window edges.  While down, the station serves at rate zero
    (its service MAP is frozen) and jobs keep queueing at it.
    """

    station: str
    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.station not in STATIONS:
            raise ValueError(
                f"unknown outage station {self.station!r}; expected one of {STATIONS}"
            )
        if self.start < 0:
            raise ValueError("outage start must be non-negative")
        if self.duration <= 0:
            raise ValueError("outage duration must be positive")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class TimeVaryingSegment:
    """One stationary segment of a time-varying workload timeline.

    Every field except ``duration`` is optional and, when omitted, inherits
    the workload-level baseline — a segment only states what *changes*: a
    flash crowd overrides ``population``, a server slowdown overrides
    ``db_mean``, a burstiness regime switch overrides ``db_decay`` /
    ``db_scv``, and so on.  ``down`` names stations that are hard-down for
    the whole segment (``"front"`` / ``"db"``): they serve at rate zero while
    jobs queue at them.
    """

    duration: float
    label: str = ""
    population: int | None = None
    think_time: float | None = None
    db_mean: float | None = None
    db_scv: float | None = None
    db_decay: float | None = None
    down: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("segment duration must be positive")
        for name in ("think_time", "db_mean"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"segment {name} must be positive when given")
        if self.population is not None and self.population < 1:
            raise ValueError("segment population must be >= 1 when given")
        down = tuple(self.down)
        object.__setattr__(self, "down", down)
        for station in down:
            if station not in STATIONS:
                raise ValueError(
                    f"unknown down station {station!r}; expected one of {STATIONS}"
                )
        if len(set(down)) != len(down):
            raise ValueError(f"down stations must not repeat: {down}")


@dataclass(frozen=True)
class TimeVaryingWorkload:
    """A time-varying closed MAP network: a baseline plus a segment timeline.

    The baseline fields describe the same network as
    :class:`SyntheticWorkload` at a single grid point (fixed population,
    fixed database ``(mean, scv, decay)``); ``segments`` is the timeline,
    each segment lasting ``duration`` simulated seconds with any baseline
    field overridden.  The workload has no sweep axes — a scenario is one
    timeline — so the grid has a single point and replications/solvers
    provide the comparison structure.

    All segments share the front :class:`MapSpec` and the database MAP(2)
    family, so service phases carry over regime switches (equal MAP orders
    by construction).

    Failure modeling
    ----------------
    ``outages`` lays hard :class:`OutageWindow`\\ s over the timeline in
    absolute time (the resolved timeline is split at window edges); segments
    may equivalently mark themselves down via their ``down`` field.  The
    ``*_mttf`` / ``*_mttr`` pairs instead model *random* exponential
    failure–repair cycles by expanding the station's service MAP with an
    up/down dimension (:func:`repro.maps.failures.expand_map_with_failures`)
    — an ergodic model that every solver tier, including piecewise
    stationary, supports.
    """

    front: MapSpec
    db_mean: float
    think_time: float
    population: int
    segments: tuple[TimeVaryingSegment, ...]
    db_scv: float = 1.0
    db_decay: float = 0.0
    outages: tuple[OutageWindow, ...] = ()
    front_mttf: float | None = None
    front_mttr: float | None = None
    db_mttf: float | None = None
    db_mttr: float | None = None

    kind = "timevarying"

    def __post_init__(self) -> None:
        if self.db_mean <= 0:
            raise ValueError("db_mean must be positive")
        if self.think_time <= 0:
            raise ValueError("think_time must be positive")
        if self.population < 1:
            raise ValueError("population must be >= 1")
        if not isinstance(self.segments, tuple) or not self.segments:
            raise ValueError("segments must be a non-empty tuple")
        object.__setattr__(self, "outages", tuple(self.outages))
        horizon = self.horizon
        for station in STATIONS:
            windows = sorted(
                (w for w in self.outages if w.station == station),
                key=lambda w: w.start,
            )
            for window in windows:
                if window.end > horizon + 1e-9:
                    raise ValueError(
                        f"outage window on {station!r} ends at {window.end} "
                        f"past the timeline horizon {horizon}"
                    )
            for left, right in zip(windows, windows[1:]):
                if right.start < left.end - 1e-12:
                    raise ValueError(
                        f"outage windows on {station!r} overlap: "
                        f"[{left.start}, {left.end}) and [{right.start}, {right.end})"
                    )
        for station in STATIONS:
            mttf = getattr(self, f"{station}_mttf")
            mttr = getattr(self, f"{station}_mttr")
            if (mttf is None) != (mttr is None):
                raise ValueError(
                    f"{station}_mttf and {station}_mttr must be given together"
                )
            if mttf is not None and (mttf <= 0 or mttr <= 0):
                raise ValueError(f"{station} mttf/mttr must be positive when given")

    def axes(self) -> dict[str, tuple]:
        return {}

    @property
    def horizon(self) -> float:
        """Total timeline duration in simulated seconds."""
        return float(sum(segment.duration for segment in self.segments))

    def resolved_segments(self):
        """The concrete :class:`~repro.queueing.transient.NetworkSegment`
        timeline, with MAPs built, baseline fields filled in, MTTF/MTTR
        failure–repair expansion applied, and outage windows overlaid
        (splitting segments at window edges)."""
        from repro.maps.failures import expand_map_with_failures
        from repro.maps.map2 import map2_from_moments_and_decay
        from repro.queueing.transient import NetworkSegment

        front = self.front.build()
        if self.front_mttf is not None:
            front = expand_map_with_failures(front, self.front_mttf, self.front_mttr)
        resolved = []
        for index, segment in enumerate(self.segments):
            db = map2_from_moments_and_decay(
                self.db_mean if segment.db_mean is None else segment.db_mean,
                self.db_scv if segment.db_scv is None else segment.db_scv,
                self.db_decay if segment.db_decay is None else segment.db_decay,
            )
            if self.db_mttf is not None:
                db = expand_map_with_failures(db, self.db_mttf, self.db_mttr)
            resolved.append(
                NetworkSegment(
                    duration=segment.duration,
                    front=front,
                    db=db,
                    think_time=(
                        self.think_time if segment.think_time is None else segment.think_time
                    ),
                    population=(
                        self.population if segment.population is None else segment.population
                    ),
                    label=segment.label or f"segment{index}",
                    front_up="front" not in segment.down,
                    db_up="db" not in segment.down,
                )
            )
        return _overlay_outages(resolved, self.outages)


def _overlay_outages(resolved, outages):
    """Split a resolved timeline at outage-window edges and mark down spans.

    With no windows the timeline is returned unchanged (bit-identical to the
    pre-outage path).  Otherwise each interval between consecutive cut points
    (segment boundaries ∪ window edges) inherits its owning segment's network
    and adds the stations down at that time; interval membership is decided
    at the interval midpoint so exact edge coincidences stay robust.
    """
    if not outages:
        return resolved
    from bisect import bisect_right
    from dataclasses import replace as dc_replace

    starts = []
    clock = 0.0
    for segment in resolved:
        starts.append(clock)
        clock += segment.duration
    horizon = clock
    cuts = sorted(
        set(starts)
        | {horizon}
        | {min(w.start, horizon) for w in outages}
        | {min(w.end, horizon) for w in outages}
    )
    overlaid = []
    for a, b in zip(cuts, cuts[1:]):
        if b - a <= 1e-12:
            continue
        mid = 0.5 * (a + b)
        base = resolved[bisect_right(starts, mid) - 1]
        down = {w.station for w in outages if w.start <= mid < w.end}
        front_up = base.front_up and "front" not in down
        db_up = base.db_up and "db" not in down
        label = base.label
        if not (front_up and db_up):
            stations = "+".join(
                name for name, up in (("front", front_up), ("db", db_up)) if not up
            )
            label = f"{base.label}/down:{stations}"
        overlaid.append(
            dc_replace(base, duration=b - a, front_up=front_up, db_up=db_up, label=label)
        )
    return overlaid


_WORKLOAD_KINDS = {
    "synthetic": SyntheticWorkload,
    "testbed": TestbedWorkload,
    "trace": TraceWorkload,
    "timevarying": TimeVaryingWorkload,
}


@dataclass(frozen=True)
class SolverSpec:
    """One way of evaluating the workload.

    ``label`` distinguishes multiple solvers of the same kind within one
    scenario (e.g. two ``fitted_map`` solvers estimated at different
    ``Z_estim``); it defaults to the kind.  ``options`` are solver-specific
    knobs (e.g. ``horizon`` / ``warmup`` for the event simulation,
    ``estimation_think_time`` / ``estimation_duration`` for fitted models).
    """

    kind: str
    label: str = ""
    options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in SOLVER_KINDS:
            raise ValueError(f"unknown solver kind {self.kind!r}; expected one of {SOLVER_KINDS}")
        if not self.label:
            object.__setattr__(self, "label", self.kind)

    def option(self, name: str, default=None):
        return self.options.get(name, default)


@dataclass(frozen=True)
class ReplicationPolicy:
    """Replications and seed derivation.

    ``per_cell`` derives an independent seed per cell from ``base_seed`` and
    the cell key (changing one cell never perturbs another); ``shared`` gives
    every cell the same ``base_seed`` — common random numbers, which is what
    the paper-style EB sweeps use so that the measured curves stay monotone.
    """

    replications: int = 1
    base_seed: int = 0
    policy: str = "per_cell"

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.policy not in SEED_POLICIES:
            raise ValueError(f"unknown seed policy {self.policy!r}; expected one of {SEED_POLICIES}")
        if self.policy == "shared" and self.replications > 1:
            raise ValueError(
                "the 'shared' seed policy gives every cell the same seed, so "
                "replications > 1 would produce identical duplicate rows; use "
                "policy='per_cell' for replicated stochastic runs"
            )


@dataclass(frozen=True)
class Cell:
    """One point of the expanded scenario grid."""

    scenario: str
    solver_kind: str
    solver_label: str
    options: dict[str, Any]
    params: dict[str, Any]
    replication: int
    seed: int

    @property
    def key(self) -> str:
        return cell_key(self.scenario, self.solver_label, self.params, self.replication)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "Cell":
        return cls(**payload)


def cell_key(scenario: str, solver_label: str, params: dict, replication: int) -> str:
    """Stable textual identity of a cell (also the seed-derivation name)."""
    rendered = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{scenario}/{solver_label}/{rendered}/rep{replication}"


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, fully declarative experiment scenario."""

    name: str
    description: str
    workload: SyntheticWorkload | TestbedWorkload | TraceWorkload | TimeVaryingWorkload
    solvers: tuple[SolverSpec, ...]
    replication: ReplicationPolicy = field(default_factory=ReplicationPolicy)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if not self.solvers:
            raise ValueError("at least one solver is required")
        labels = [solver.label for solver in self.solvers]
        if len(set(labels)) != len(labels):
            raise ValueError(f"solver labels must be unique, got {labels}")

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "workload": {"kind": self.workload.kind, **asdict(self.workload)},
            "solvers": [asdict(solver) for solver in self.solvers],
            "replication": asdict(self.replication),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSpec":
        workload_payload = dict(payload["workload"])
        kind = workload_payload.pop("kind")
        if kind not in _WORKLOAD_KINDS:
            raise ValueError(f"unknown workload kind {kind!r}")
        workload_cls = _WORKLOAD_KINDS[kind]
        workload_payload = _tuplify(workload_payload)
        if kind in ("synthetic", "timevarying"):
            workload_payload["front"] = MapSpec(**dict(payload["workload"]["front"]))
        if kind == "timevarying":
            workload_payload["segments"] = tuple(
                TimeVaryingSegment(**dict(segment))
                for segment in payload["workload"]["segments"]
            )
            workload_payload["outages"] = tuple(
                OutageWindow(**dict(window))
                for window in payload["workload"].get("outages") or ()
            )
        if kind == "testbed" and workload_payload.get("estimation") is not None:
            workload_payload["estimation"] = EstimationSpec(**dict(payload["workload"]["estimation"]))
        workload = workload_cls(**workload_payload)
        solvers = tuple(
            SolverSpec(kind=s["kind"], label=s.get("label", ""), options=dict(s.get("options", {})))
            for s in payload["solvers"]
        )
        replication = ReplicationPolicy(**payload.get("replication", {}))
        return cls(
            name=payload["name"],
            description=payload.get("description", ""),
            workload=workload,
            solvers=solvers,
            replication=replication,
        )

    def canonical_json(self) -> str:
        """Canonical JSON text of the spec (stable key order, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def hash(self) -> str:
        """Content hash of the spec; keys the on-disk result cache."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Grid expansion
    # ------------------------------------------------------------------
    def cells(self) -> list[Cell]:
        """Expand the scenario into its full grid of cells.

        Cell order is deterministic: axes vary slowest-first in the order
        reported by the workload's :meth:`axes`, then solver, then
        replication.  Deterministic solvers (see :data:`DETERMINISTIC_SOLVERS`)
        are never replicated — repeating them would reproduce identical rows.
        """
        axes = self.workload.axes()
        names = list(axes)
        cells: list[Cell] = []
        for values in product(*(axes[name] for name in names)):
            params = dict(zip(names, values))
            for solver in self.solvers:
                replications = (
                    1 if solver.kind in DETERMINISTIC_SOLVERS else self.replication.replications
                )
                for replication in range(replications):
                    if self.replication.policy == "shared":
                        seed = self.replication.base_seed
                    else:
                        seed = derive_seed(
                            self.replication.base_seed,
                            cell_key(self.name, solver.label, params, replication),
                        )
                    cells.append(
                        Cell(
                            scenario=self.name,
                            solver_kind=solver.kind,
                            solver_label=solver.label,
                            options=dict(solver.options),
                            params=dict(params),
                            replication=replication,
                            seed=seed,
                        )
                    )
        return cells


def _require_axis(name: str, values) -> None:
    if not isinstance(values, tuple):
        raise ValueError(f"{name} must be a tuple")
    if not values:
        raise ValueError(f"{name} must be non-empty")
    if len(set(values)) != len(values):
        # Duplicate axis values would expand into duplicate cells with
        # ambiguous result lookups.
        raise ValueError(f"{name} must not contain duplicates: {values}")


def _tuplify(payload: dict) -> dict:
    """JSON turns tuples into lists; convert the axis fields back."""
    return {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in payload.items()
    }
