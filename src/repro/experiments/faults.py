"""Deterministic fault injection for the supervised runner and the fleet.

Chaos testing needs cells that fail *on demand and reproducibly* — a crash
here, a hang there, a corrupt payload — without littering solver code with
test hooks.  The environment variable ``REPRO_FAULT_INJECT`` carries a small
spec the worker processes interpret just before executing a cell::

    REPRO_FAULT_INJECT="crash:ctmc/*;hang:population=3;corrupt:mva:1"

Grammar: ``;``-separated directives, each ``kind:pattern[:max_attempts]``.

``kind``
    ``crash`` — the worker dies via ``os._exit`` (simulates OOM kills /
    segfaults), ``hang`` — the worker sleeps forever (simulates a stuck
    scipy call; the supervisor's per-cell timeout reaps it), ``error`` —
    the worker raises ``InjectedFault``, ``corrupt`` — the worker returns a
    structurally broken payload the parent must reject.  These four fire
    inside the child process of :func:`~repro.experiments.supervision.run_supervised`,
    on either execution backend (a fleet worker runs its unit through the
    same envelope), and the attempt number is the supervised attempt.

    Three further kinds target the workers of the distributed fleet backend
    (:mod:`repro.experiments.fleet`) and match against the unit's *claim*
    number: ``worker-kill`` — the claiming worker
    SIGKILLs its own process (simulates an OOM-killed or power-cycled host;
    the supervisor reaps the orphaned lease), ``lease-stall`` — the worker
    stops heartbeating while holding its lease (simulates a hung host; the
    lease expires, another worker re-claims the unit, and the stalled
    worker, now fenced, must abandon the unit without committing),
    ``double-claim`` — the worker deliberately ignores an existing lease
    and executes the unit anyway (the exactly-once commit marker must make
    one of the two writers discard its result).

    Three further kinds target the live what-if service
    (:mod:`repro.service`): ``fit-diverge`` — the fit stage raises a typed
    :class:`repro.core.map_fitting.MapFitError` (simulates a pathological
    estimation window no MAP(2) candidate can match), ``solve-crash`` — the
    solve stage's worker dies via ``os._exit`` (simulates an OOM-killed
    solver), ``ingest-stall`` — the ingest stage sleeps forever (simulates a
    stalled trace source; the stage timeout reaps it).  For service kinds
    the *attempt* number is the stage's lifetime invocation counter (it
    persists across service restarts via the checkpoint), so
    ``fit-diverge:*:2`` means "the first two refits ever attempted diverge,
    later ones succeed" — the shape the degradation/recovery smoke relies
    on.

    Each execution context only honours the kinds it understands (see
    :func:`matching_directive`'s ``kinds`` filter), so fleet kinds are inert
    under the pool backend and service kinds outside the service.
``pattern``
    matched as a substring of the cell key
    (``scenario/solver_label/params/repN``); ``*`` matches every cell.
    Cell keys never contain ``:`` or ``;``, so the grammar is unambiguous.
``max_attempts``
    the directive only fires while the cell's attempt number (1-based) is
    ``<= max_attempts``; omitted means *always*.  ``crash:mva:1`` therefore
    means "the first attempt of every mva cell crashes, retries succeed" —
    the shape retry-determinism tests rely on.

Injection is deterministic by construction: whether a given (cell, attempt)
fails is a pure function of the spec string, never of timing or randomness.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "FAULT_ENV",
    "FAULT_KINDS",
    "FLEET_FAULT_KINDS",
    "POOL_FAULT_KINDS",
    "SERVICE_FAULT_KINDS",
    "FaultDirective",
    "InjectedFault",
    "active_directives",
    "matching_directive",
    "parse_fault_spec",
]

#: Environment variable holding the fault-injection spec.
FAULT_ENV = "REPRO_FAULT_INJECT"

FAULT_KINDS = (
    "crash",
    "hang",
    "error",
    "corrupt",
    "worker-kill",
    "lease-stall",
    "double-claim",
    "fit-diverge",
    "solve-crash",
    "ingest-stall",
)

#: Kinds the per-cell supervision envelope interprets (pool and fleet units).
POOL_FAULT_KINDS = frozenset({"crash", "hang", "error", "corrupt"})

#: Kinds the distributed fleet workers themselves interpret, per claim.
FLEET_FAULT_KINDS = frozenset({"worker-kill", "lease-stall", "double-claim"})

#: Kinds the live what-if service stages interpret (see :mod:`repro.service`).
#: Each stage additionally narrows to the kinds that make sense for it —
#: ``fit-diverge`` only fires inside the fit stage, ``solve-crash`` inside
#: the solve stage, ``ingest-stall`` inside the ingest stage.
SERVICE_FAULT_KINDS = frozenset({"fit-diverge", "solve-crash", "ingest-stall"})


class InjectedFault(RuntimeError):
    """Raised by an ``error`` directive inside the worker."""


@dataclass(frozen=True)
class FaultDirective:
    """One parsed ``kind:pattern[:max_attempts]`` directive."""

    kind: str
    pattern: str
    max_attempts: int | None = None

    def matches(self, cell_key: str, attempt: int) -> bool:
        """Whether this directive fires for the given cell and 1-based attempt."""
        if self.max_attempts is not None and attempt > self.max_attempts:
            return False
        return self.pattern == "*" or self.pattern in cell_key


def parse_fault_spec(spec: str) -> tuple[FaultDirective, ...]:
    """Parse a ``REPRO_FAULT_INJECT`` spec string (raises on malformed input)."""
    directives = []
    for raw in spec.split(";"):
        raw = raw.strip()
        if not raw:
            continue
        parts = raw.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"malformed fault directive {raw!r}; expected "
                "kind:pattern[:max_attempts]"
            )
        kind, pattern = parts[0], parts[1]
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r} in directive {raw!r}; expected "
                f"one of {FAULT_KINDS}"
            )
        if not pattern:
            raise ValueError(f"empty pattern in fault directive {raw!r}")
        max_attempts: int | None = None
        if len(parts) == 3:
            try:
                max_attempts = int(parts[2])
            except ValueError:
                raise ValueError(
                    f"max_attempts must be an integer in directive {raw!r}"
                ) from None
            if max_attempts < 1:
                raise ValueError(f"max_attempts must be >= 1 in directive {raw!r}")
        directives.append(FaultDirective(kind=kind, pattern=pattern, max_attempts=max_attempts))
    return tuple(directives)


def active_directives() -> tuple[FaultDirective, ...]:
    """Directives parsed from the environment (empty when unset)."""
    spec = os.environ.get(FAULT_ENV, "")
    if not spec:
        return ()
    return parse_fault_spec(spec)


def matching_directive(
    directives: tuple[FaultDirective, ...],
    cell_key: str,
    attempt: int,
    kinds: "frozenset[str] | None" = None,
) -> FaultDirective | None:
    """First directive that fires for the cell at this attempt, if any.

    ``kinds`` restricts the match to the fault kinds the calling execution
    context knows how to perform — a ``worker-kill`` directive must not be
    swallowed (and silently ignored) by a supervised child, nor a ``hang``
    by the fleet worker that claimed the unit.
    """
    for directive in directives:
        if kinds is not None and directive.kind not in kinds:
            continue
        if directive.matches(cell_key, attempt):
            return directive
    return None
