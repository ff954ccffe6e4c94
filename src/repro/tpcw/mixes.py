"""TPC-W transaction mixes and the customer-behaviour session model.

TPC-W defines three standard mixes by the weight given to the browsing and
the ordering transaction classes:

* the **browsing** mix — 95 % browsing, 5 % ordering,
* the **shopping** mix — 80 % browsing, 20 % ordering,
* the **ordering** mix — 50 % browsing, 50 % ordering.

The per-transaction weights below follow the TPC-W specification.  Navigation
within a user session is described by a Customer Behaviour Model Graph
(CBMG): a Markov chain over transaction types whose stationary distribution
is the mix.  The default CBMG used here makes every row of the transition
matrix equal to the mix (memoryless navigation), with an optional
``stickiness`` parameter that interpolates towards staying in the current
state, which leaves the stationary mix unchanged but lets experiments study
the effect of session-level correlation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.tpcw.transactions import TRANSACTION_CATALOG, TransactionClass

__all__ = [
    "TransactionMix",
    "BROWSING_MIX",
    "SHOPPING_MIX",
    "ORDERING_MIX",
    "STANDARD_MIXES",
    "CustomerBehaviorGraph",
]


@dataclass(frozen=True)
class TransactionMix:
    """A named probability distribution over the 14 transaction types."""

    name: str
    weights: dict[str, float]

    def __post_init__(self) -> None:
        unknown = set(self.weights) - set(TRANSACTION_CATALOG)
        if unknown:
            raise ValueError("unknown transactions in mix: %s" % sorted(unknown))
        total = float(sum(self.weights.values()))
        if total <= 0:
            raise ValueError("mix weights must sum to a positive value")
        normalized = {name: weight / total for name, weight in self.weights.items()}
        object.__setattr__(self, "weights", normalized)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def probability(self, transaction: str) -> float:
        """Probability of the given transaction type under this mix."""
        return self.weights.get(transaction, 0.0)

    def browsing_fraction(self) -> float:
        """Total weight of the browsing-class transactions."""
        return sum(
            weight
            for name, weight in self.weights.items()
            if TRANSACTION_CATALOG[name].transaction_class is TransactionClass.BROWSING
        )

    def mean_front_demand(self) -> float:
        """Mix-average front-server demand per transaction (seconds)."""
        return sum(
            weight * TRANSACTION_CATALOG[name].front_demand
            for name, weight in self.weights.items()
        )

    def mean_db_demand(self) -> float:
        """Mix-average database demand per transaction (seconds), no contention."""
        return sum(
            weight * TRANSACTION_CATALOG[name].db_demand
            for name, weight in self.weights.items()
        )

    def sensitive_db_demand(self) -> float:
        """Mix-average database demand carried by contention-sensitive types."""
        return sum(
            weight * TRANSACTION_CATALOG[name].db_demand
            for name, weight in self.weights.items()
            if TRANSACTION_CATALOG[name].contention_sensitive
        )

    def as_arrays(self) -> tuple[list[str], np.ndarray]:
        """Return (names, probabilities) aligned arrays for samplers."""
        names = list(self.weights.keys())
        probabilities = np.array([self.weights[name] for name in names])
        return names, probabilities


#: TPC-W browsing mix: 95 % browsing-class, 5 % ordering-class transactions.
BROWSING_MIX = TransactionMix(
    "browsing",
    {
        "Home": 29.00,
        "New Products": 11.00,
        "Best Sellers": 11.00,
        "Product Detail": 21.00,
        "Search Request": 12.00,
        "Execute Search": 11.00,
        "Shopping Cart": 2.00,
        "Customer Registration": 0.82,
        "Buy Request": 0.75,
        "Buy Confirm": 0.69,
        "Order Inquiry": 0.30,
        "Order Display": 0.25,
        "Admin Request": 0.10,
        "Admin Confirm": 0.09,
    },
)

#: TPC-W shopping mix: 80 % browsing-class, 20 % ordering-class transactions.
SHOPPING_MIX = TransactionMix(
    "shopping",
    {
        "Home": 16.00,
        "New Products": 5.00,
        "Best Sellers": 5.00,
        "Product Detail": 17.00,
        "Search Request": 20.00,
        "Execute Search": 17.00,
        "Shopping Cart": 11.60,
        "Customer Registration": 3.00,
        "Buy Request": 2.60,
        "Buy Confirm": 1.20,
        "Order Inquiry": 0.75,
        "Order Display": 0.66,
        "Admin Request": 0.10,
        "Admin Confirm": 0.09,
    },
)

#: TPC-W ordering mix: 50 % browsing-class, 50 % ordering-class transactions.
ORDERING_MIX = TransactionMix(
    "ordering",
    {
        "Home": 9.12,
        "New Products": 0.46,
        "Best Sellers": 0.46,
        "Product Detail": 12.35,
        "Search Request": 14.53,
        "Execute Search": 13.08,
        "Shopping Cart": 13.53,
        "Customer Registration": 12.86,
        "Buy Request": 12.73,
        "Buy Confirm": 10.18,
        "Order Inquiry": 1.25,
        "Order Display": 0.22,
        "Admin Request": 0.12,
        "Admin Confirm": 0.11,
    },
)

#: The three standard mixes keyed by name.
STANDARD_MIXES: dict[str, TransactionMix] = {
    mix.name: mix for mix in (BROWSING_MIX, SHOPPING_MIX, ORDERING_MIX)
}


@dataclass
class CustomerBehaviorGraph:
    """Customer Behaviour Model Graph: session-level navigation chain.

    Parameters
    ----------
    mix:
        Target stationary distribution over transaction types.
    stickiness:
        Probability mass kept on the current state.  ``0`` reduces the CBMG
        to memoryless sampling from the mix (the default); values in (0, 1)
        add positive serial correlation to the navigation while keeping the
        stationary mix unchanged.
    start_transaction:
        The transaction every session starts with (TPC-W sessions start at
        the Home page).
    """

    mix: TransactionMix
    stickiness: float = 0.0
    start_transaction: str = "Home"
    _names: list[str] = field(init=False, repr=False)
    _probabilities: np.ndarray = field(init=False, repr=False)
    _cdf: list[float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.stickiness < 1.0:
            raise ValueError("stickiness must be in [0, 1)")
        if self.start_transaction not in TRANSACTION_CATALOG:
            raise ValueError("unknown start transaction %r" % self.start_transaction)
        self._names, self._probabilities = self.mix.as_arrays()
        # The cdf numpy's ``Generator.choice(n, p=...)`` builds on every call:
        # cumulative sum, normalised by its last entry.
        cdf = self._probabilities.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf.tolist()

    def initial_transaction(self) -> str:
        """The first transaction of a fresh session."""
        return self.start_transaction

    def next_transaction(self, current: str | None, uniform: Callable[[], float]) -> str:
        """Sample the next transaction given the current one.

        ``uniform()`` returns uniforms on ``[0, 1)``, e.g. ``rng.random``.
        One is consumed for the stickiness test (only when ``stickiness >
        0``) and one for the transition, which picks the first cdf entry
        above it: what ``rng.choice(n, p=...)`` does with its single uniform,
        so a session fed ``rng.random`` draws the same transactions as
        ``rng.choice``.
        """
        if current is None:
            return self.start_transaction
        if self.stickiness > 0.0 and uniform() < self.stickiness:
            return current
        return self._names[bisect_right(self._cdf, uniform())]

    def transition_matrix(self) -> tuple[list[str], np.ndarray]:
        """Explicit CBMG transition matrix (rows sum to one)."""
        size = len(self._names)
        base = np.tile(self._probabilities, (size, 1))
        matrix = (1.0 - self.stickiness) * base + self.stickiness * np.eye(size)
        return list(self._names), matrix
