"""Windowed accumulators.

Monitoring tools report per-window aggregates: the number of completed
requests in each 5-second Diagnostics window, the busy fraction of each
1-second `sar` window, the average queue length over a window, and so on.
The two accumulators below convert a stream of point events / piecewise
constant signals into such fixed-window series.

Window semantics
----------------
Both accumulators share one half-open convention: window ``k`` is the
interval ``[k*W, (k+1)*W)``.  Concretely:

* a point event at time ``t`` lands in window ``floor(t / W)`` — an event
  exactly on a boundary opens the *next* window (``record(5.0)`` with
  ``W = 1`` counts in window 5),
* a piecewise-constant interval ``[start, end)`` excludes its right
  endpoint — an interval ending exactly on a boundary does *not* open the
  next window (``record(0.0, 5.0, v)`` with ``W = 1`` fills windows 0–4 and
  nothing else), so ``series()`` has exactly ``ceil(t_end / W)`` entries,
* ``series(horizon=H)`` pads the series with zero windows up to
  ``ceil(H / W)`` entries but never discards recorded data: windows holding
  recorded events or mass beyond the horizon are always returned.  (The
  historical behaviour silently truncated them, which dropped events landing
  exactly at the horizon.)
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["CountWindows", "TimeWeightedWindows"]


def _first_time(index: int, window: float) -> float:
    """Smallest non-negative float ``t`` with ``t // window >= index``."""
    time = index * window
    while time // window < index:
        time = math.nextafter(time, math.inf)
    while time > 0.0 and math.nextafter(time, -math.inf) // window >= index:
        time = math.nextafter(time, -math.inf)
    return time


def _window_range(index: int, window: float) -> tuple[float, float]:
    """Exact float range ``[lo, hi)`` of the times ``t`` in window ``index``.

    Float ``//`` is the exact floor of the real quotient, hence monotone in
    ``t``, so ``lo <= t < hi`` holds exactly when ``int(t // window) ==
    index``: two comparisons instead of a floor division.
    """
    return _first_time(index, window), _first_time(index + 1, window)


class CountWindows:
    """Counts point events per fixed-length window.

    Windows are ``[k*W, (k+1)*W)`` for ``k = 0, 1, ...``; the horizon may be
    extended lazily as events arrive.
    """

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = float(window)
        self._counts: list[float] = []

    def record(self, time: float, amount: float = 1.0) -> None:
        """Record ``amount`` events at the given absolute time."""
        if time < 0:
            raise ValueError("time must be non-negative")
        index = int(time // self.window)
        if index >= len(self._counts):
            self._counts.extend([0.0] * (index + 1 - len(self._counts)))
        self._counts[index] += amount

    def series(self, horizon: float | None = None) -> np.ndarray:
        """Per-window counts, zero-padded up to ``horizon``.

        The horizon only pads: recorded events are never discarded, so an
        event landing exactly at ``horizon`` (which the half-open convention
        places in window ``horizon / W``) stays in the series.
        """
        counts = list(self._counts)
        if horizon is not None:
            needed = int(np.ceil(horizon / self.window))
            if needed > len(counts):
                counts.extend([0.0] * (needed - len(counts)))
        return np.asarray(counts, dtype=float)


class TimeWeightedWindows:
    """Integrates a piecewise-constant signal over fixed-length windows.

    Typical uses: busy time per window (value 1 while the server is busy,
    0 otherwise — dividing by the window length yields the utilisation) and
    queue-length integrals (value = current queue length — dividing by the
    window length yields the average queue length).
    """

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = float(window)
        self._integrals: list[float] = []
        # The window the last recorded interval ended in, with its exact
        # float range (see _window_range); none until the first record.
        self._open_index = -1
        self._open_lo = self._open_hi = math.inf

    def record(self, start: float, end: float, value: float) -> None:
        """Add ``value`` integrated over the interval ``[start, end)``."""
        if self._open_lo <= start < end < self._open_hi:
            # Common case: the interval lies inside the window the previous
            # one ended in.  This is the single-window branch below: lo is at
            # or above ``index * window``, so ``end > lo`` never triggers the
            # boundary rule.
            self._integrals[self._open_index] += value * (end - start)
            return
        if end < start:
            raise ValueError("end must not precede start")
        if value == 0.0 or end == start:
            return
        if start < 0:
            raise ValueError("start must be non-negative")
        first = int(start // self.window)
        last = int(end // self.window)
        if end == last * self.window:
            # The interval is half-open: an end exactly on a window boundary
            # contributes nothing to the window starting there (appending it
            # would add a spurious trailing zero window to the series).
            last -= 1
        if last >= len(self._integrals):
            self._integrals.extend([0.0] * (last + 1 - len(self._integrals)))
        if last != self._open_index:
            self._open_index = last
            self._open_lo, self._open_hi = _window_range(last, self.window)
        if first == last:
            self._integrals[first] += value * (end - start)
            return
        # First partial window.
        self._integrals[first] += value * ((first + 1) * self.window - start)
        # Full windows in between.
        for index in range(first + 1, last):
            self._integrals[index] += value * self.window
        # Last partial window.
        self._integrals[last] += value * (end - last * self.window)

    def series(self, horizon: float | None = None, normalize: bool = True) -> np.ndarray:
        """Per-window integrals, optionally divided by the window length.

        Like :meth:`CountWindows.series`, the horizon only pads with zero
        windows — recorded mass is never truncated away.
        """
        integrals = list(self._integrals)
        if horizon is not None:
            needed = int(np.ceil(horizon / self.window))
            if needed > len(integrals):
                integrals.extend([0.0] * (needed - len(integrals)))
        series = np.asarray(integrals, dtype=float)
        if normalize:
            series = series / self.window
        return series
