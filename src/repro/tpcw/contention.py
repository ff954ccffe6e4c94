"""The shared-resource contention process at the database tier.

Section 3.3 of the paper traces the burstiness of the browsing mix to
"hidden" resource contention between transactions of different types at the
database server: Best Seller and Home queries periodically compete for a
shared resource (locks, buffer pool, ...), and while they do, their service
slows down by an order of magnitude, the database becomes the bottleneck and
the rest of the system drains.

The simulator models the *symptom* the paper identifies without committing to
a specific low-level cause: a two-state background process alternates between
a ``normal`` and a ``contention`` state with exponential sojourn times; while
in the contention state the database demand of contention-sensitive
transactions is multiplied by ``db_slowdown`` (and their front-server demand
by the milder ``front_slowdown``).  Because the process is exogenous, the
same mechanism is present under every mix — but only mixes that send a large
fraction of sensitive transactions (the browsing mix) saturate the database
during contention episodes, which is exactly the mix-dependence reported in
the paper.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = ["ContentionConfig", "ContentionProcess"]


@dataclass(frozen=True)
class ContentionConfig:
    """Parameters of the database contention process.

    The per-transaction *impact* of an episode (how much a Best Seller or a
    Home query slows down) lives with the transaction catalogue
    (:class:`repro.tpcw.transactions.TransactionType`); this configuration
    only describes the *schedule* of the episodes.
    """

    normal_mean_duration: float = 85.0
    contention_mean_duration: float = 18.0
    cascade_coefficient: float = 0.15
    cascade_threshold: int = 3
    cascade_cap: float = 3.0
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.normal_mean_duration <= 0 or self.contention_mean_duration <= 0:
            raise ValueError("sojourn durations must be positive")
        if self.cascade_coefficient < 0:
            raise ValueError("cascade_coefficient must be non-negative")
        if self.cascade_threshold < 0:
            raise ValueError("cascade_threshold must be non-negative")
        if self.cascade_cap < 1.0:
            raise ValueError("cascade_cap must be >= 1")

    @property
    def contention_fraction(self) -> float:
        """Long-run fraction of time spent in the contention state."""
        if not self.enabled:
            return 0.0
        total = self.normal_mean_duration + self.contention_mean_duration
        return self.contention_mean_duration / total


class ContentionProcess:
    """Pre-sampled alternating-renewal contention schedule.

    The schedule of contention episodes over a finite horizon is drawn once
    up front, so that queries can test ``is_contended(t)`` in O(log n) and the
    whole schedule can be inspected by tests and reports.
    """

    def __init__(
        self,
        config: ContentionConfig,
        horizon: float,
        rng: np.random.Generator,
        start_in_contention: bool = False,
    ) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.config = config
        self.horizon = float(horizon)
        episodes: list[tuple[float, float]] = []
        clock = 0.0
        contended = start_in_contention
        while clock < horizon and config.enabled:
            if contended:
                duration = rng.exponential(config.contention_mean_duration)
                episodes.append((clock, min(clock + duration, horizon)))
            else:
                duration = rng.exponential(config.normal_mean_duration)
            clock += duration
            contended = not contended
        self._episodes = episodes
        self._starts = [start for start, _ in episodes]
        self._ends = [end for _, end in episodes]

    @property
    def episodes(self) -> list[tuple[float, float]]:
        """List of ``(start, end)`` contention episodes within the horizon."""
        return list(self._episodes)

    def is_contended(self, time: float) -> bool:
        """Whether the shared resource is contended at the given time.

        Episodes are half-open: contended from ``start`` inclusive to ``end``
        exclusive.
        """
        index = bisect_right(self._starts, time) - 1
        return index >= 0 and time < self._ends[index]

    def contended_time(self, start: float = 0.0, end: float | None = None) -> float:
        """Total contended time within ``[start, end]``."""
        if end is None:
            end = self.horizon
        total = 0.0
        for episode_start, episode_end in self._episodes:
            overlap = min(end, episode_end) - max(start, episode_start)
            if overlap > 0:
                total += overlap
        return total

    def db_factor(self, time: float, transaction, sensitive_jobs_at_db: int = 0) -> float:
        """Database demand multiplier for a query of ``transaction`` at ``time``.

        During an episode the slowdown *cascades* with the number of other
        contention-sensitive jobs already at the database: each conflicting
        job lengthens lock-wait chains, so the per-query demand multiplier is

            base_factor * min(cascade_cap, 1 + cascade_coefficient * max(0, k - cascade_threshold))

        where ``k`` is the number of sensitive jobs currently at the database.
        Small overlaps (``k`` below the threshold) do not amplify, so lightly
        loaded mixes see only the base slowdown; sustained pile-ups amplify
        up to ``cascade_cap`` times the base factor.
        This super-linear coupling is what makes the same exogenous episode
        schedule harmless for mixes that send few Best Seller / Home requests
        (shopping, ordering) and devastating for the browsing mix — the
        mix-dependence reported in Section 3.3 of the paper.
        """
        if not self.is_contended(time):
            return 1.0
        base = float(transaction.contention_db_factor)
        if base <= 1.0:
            return 1.0
        excess = max(0, sensitive_jobs_at_db - self.config.cascade_threshold)
        cascade = min(
            self.config.cascade_cap,
            1.0 + self.config.cascade_coefficient * excess,
        )
        return base * cascade

    def front_factor(self, time: float, transaction) -> float:
        """Front-server demand multiplier for ``transaction`` processed at ``time``."""
        if self.is_contended(time):
            return float(transaction.contention_front_factor)
        return 1.0
