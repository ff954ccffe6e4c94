"""Seeded random-stream management for reproducible simulations.

Each logical source of randomness in a simulation (think times, per-type
service demands, contention process, ...) gets its own independent
:class:`numpy.random.Generator` spawned from a single seed, so that changing
how one source is consumed never perturbs the others — an essential property
for controlled experiments and variance-reduction across configurations.

Event loops draw through :class:`ChunkedDraws`, which buffers one
generator's unit-exponential and uniform variates in chunks of
``RNG_CHUNK``.  Whether the chunk size is part of a simulator's trajectory
depends on how many jobs its generator does; each simulator's seed policy
says which (``closed_network.py`` and ``tpcw/testbed.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["RNG_CHUNK", "ChunkedDraws", "RandomStreams", "derive_seed", "named_seed_sequence"]

#: Number of variates drawn per numpy call by :class:`ChunkedDraws`.  Part
#: of the closed-network simulator's seed policy: its seeded trajectories
#: depend on this value.
RNG_CHUNK = 4096


def named_seed_sequence(seed: int, name: str) -> np.random.SeedSequence:
    """Deterministic child seed sequence for a named stream.

    The child depends only on the root ``seed`` and the ``name`` (the name's
    bytes form the spawn key), never on creation order — the property that
    makes per-cell seeding in experiment grids reproducible and independent.
    ``seed`` must be a concrete integer: ``None`` would draw fresh OS entropy
    on every call, silently breaking the determinism promised here.
    """
    if seed is None:
        raise ValueError("named_seed_sequence requires an integer seed, not None")
    digest = np.frombuffer(name.encode("utf-8"), dtype=np.uint8)
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(b) for b in digest))


def derive_seed(seed: int, name: str) -> int:
    """Deterministic integer seed for the named stream (e.g. a grid cell)."""
    return int(named_seed_sequence(seed, name).generate_state(1, dtype=np.uint64)[0])


class RandomStreams:
    """A family of independent random generators derived from one seed."""

    def __init__(self, seed: int | None = None) -> None:
        self._seed_sequence = np.random.SeedSequence(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``.

        The generator for a given name is deterministic in the root seed and
        the name, independent of creation order.
        """
        if name not in self._streams:
            child = named_seed_sequence(self._seed_sequence.entropy, name)
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]

    def __getitem__(self, name: str) -> np.random.Generator:
        return self.stream(name)


class ChunkedDraws:
    """Buffered unit-exponential and uniform draws from one generator.

    Refills in chunks of ``RNG_CHUNK`` (one numpy call per chunk) and hands
    out plain Python floats, which keeps the per-event cost of a simulation
    loop at a couple of list indexings instead of numpy method dispatches.
    The two buffers refill independently.  numpy draws ``exponential(scale)``
    as exactly ``scale * standard_exponential()``, so scaling a buffered
    variate at the call site reproduces the unbuffered draw bit for bit.
    """

    __slots__ = ("rng", "_exp", "_exp_pos", "_uni", "_uni_pos", "_uni_refills")

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._exp: list[float] = []
        self._exp_pos = 0
        self._uni: list[float] = []
        self._uni_pos = 0
        self._uni_refills = 0

    def exponential(self) -> float:
        """Next unit-rate exponential variate (scale at the call site)."""
        pos = self._exp_pos
        if pos >= len(self._exp):
            self._exp = self.rng.standard_exponential(RNG_CHUNK).tolist()
            pos = 0
        self._exp_pos = pos + 1
        return self._exp[pos]

    def uniform(self) -> float:
        """Next uniform variate on ``[0, 1)``."""
        pos = self._uni_pos
        if pos >= len(self._uni):
            self._uni = self.rng.random(RNG_CHUNK).tolist()
            self._uni_refills += 1
            pos = 0
        self._uni_pos = pos + 1
        return self._uni[pos]

    @property
    def uniforms_consumed(self) -> int:
        """Uniform variates handed out so far (a free per-jump counter).

        Each MAP jump consumes exactly one uniform (and each initial-phase
        draw one more), so this counts MAP jumps without touching the hot
        loop: only the rare refill increments a counter.
        """
        if self._uni_refills == 0:
            return 0
        return (self._uni_refills - 1) * RNG_CHUNK + self._uni_pos
