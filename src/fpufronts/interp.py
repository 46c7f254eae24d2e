"""Linear interpolation of a stream of scattered samples onto a uniform grid.

``np.interp(x, xp, fp)`` over samples sorted stably by their abscissa reads,
at each point x, only two of them: the last at or below x and the one after
it.  ``HeldPairs`` keeps just those two per point of a slice of the grid as
batches of samples arrive, so that interpolating the pairs gives the floats
one sort of every sample gives, in memory that grows with the slice and not
with the samples.

At one abscissa the stable order puts the samples in the order they
arrived.  The last at or below x is then the one that arrived last of those
with the greatest abscissa at or below x, and the first above x the one
that arrived first of those with the least abscissa above it; a point's
pair holds these two.  Among the pairs of several points a sample held as
the first above one point comes before a sample of the same abscissa held
as the last at or below another, as in the whole pool: the first is the
earliest and the second the latest of its abscissa.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np


class _ArangeGrid:
    """The points of ``np.arange(start, stop, step)``, without building the array.

    numpy sizes the array ``ceil((stop - start) / step)``, writes ``start``
    and ``start + step`` into its first two entries, and fills entry
    ``i >= 2`` with ``start + i * delta``, ``delta = (start + step) - start``.
    ``points`` repeats those floats, so a slice of the grid costs its own
    length.
    """

    def __init__(self, start: float, stop: float, step: float):
        self.start = start
        self.second = start + step
        self.delta = self.second - start
        self.size = max(0, math.ceil((stop - start) / step))

    def points(self, i0: int, i1: int) -> np.ndarray:
        """``np.arange(start, stop, step)[i0:i1]``, for 0 <= i0 <= i1 <= size."""
        out = self.start + np.arange(i0, i1) * self.delta
        for i, x in ((0, self.start), (1, self.second)):
            if i0 <= i < i1:
                out[i - i0] = x
        return out


def _fill(won: np.ndarray, start: np.ndarray, stop: np.ndarray, p: np.ndarray, y: np.ndarray,
          p_dst: np.ndarray, y_dst: list[np.ndarray]) -> None:
    """Write sample ``won[k]``, its abscissa ``p`` and its column of ``y``,
    into the points ``[start[k], stop[k])`` of ``p_dst`` and the rows
    ``y_dst``; the ranges are disjoint, empty where ``stop <= start``."""
    count = np.maximum(stop - start, 0)
    at = np.repeat(start + count - np.cumsum(count), count) + np.arange(count.sum())
    i = np.repeat(won, count)
    p_dst[at] = p[i]
    for dst, src in zip(y_dst, y):
        dst[at] = src[i]


class HeldPairs:
    """Per point of the grid points ``span = (h0, h1)``, the two samples
    ``np.interp`` reads there, of every sample folded in.

    A sample is an abscissa and a column of ``rows`` values.  Each point
    holds its last sample at or below it (abscissa -inf where there is none)
    and its first above it (+inf where there is none); both abscissae rise
    with the point.  The span grows with ``reach``, into buffers with room
    beyond each side that outgrew its room, so that a longer span copies
    what is held only then, and one buffer at a time.
    """

    def __init__(self, grid: _ArangeGrid, rows: int, at: int):
        self.grid = grid
        self.span = (at, at)
        self._base = at  # the grid point of the buffers' first entry
        # the points; the abscissae of their last samples at or below them
        # and of their first above them; then per row of values, those two
        # samples' values
        self._buf = [np.empty(0) for _ in range(3 + 2 * rows)]

    @property
    def points(self) -> np.ndarray:
        """The grid points of the span."""
        return self._buf[0][self.span[0] - self._base:self.span[1] - self._base]

    def _held(self, i0: int, i1: int) -> list[np.ndarray]:
        return [b[i0 - self._base:i1 - self._base] for b in self._buf]

    def reach(self, i0: int, i1: int, outside: Callable[[np.ndarray], np.ndarray]) -> None:
        """Hold the points [i0, i1) as well; ``outside(x)`` gives the pairs of
        points ``x`` beyond the span, over the samples folded in so far, one
        row per buffer after the points: the abscissae below and above, then
        per row of values the values below and above."""
        h0, h1 = self.span
        n0, n1 = min(i0, h0), max(i1, h1)
        end = self._base + self._buf[0].size
        if n0 < self._base or n1 > end:
            # room of the new span's length on each side that outgrew its room
            base = max(0, 2 * n0 - n1) if n0 < self._base else self._base
            end = min(self.grid.size, 2 * n1 - n0) if n1 > end else end
            for k, b in enumerate(self._buf):
                self._buf[k] = np.empty(end - base)
                self._buf[k][h0 - base:h1 - base] = b[h0 - self._base:h1 - self._base]
            self._base = base
        for j0, j1 in ((n0, h0), (h1, n1)):
            if j0 < j1:
                x, *pairs = self._held(j0, j1)
                x[...] = self.grid.points(j0, j1)
                for dst, src in zip(pairs, outside(x)):
                    dst[...] = src
        self.span = (n0, n1)

    def fold(self, p: np.ndarray, y: np.ndarray) -> None:
        """Fold in the samples of abscissae ``p`` (sorted stably in arrival
        order) and values ``y`` (one column each), after every sample held.

        Sample i is the last at or below x for the points ``[a_i, a_{i+1})``,
        ``a_i`` the first point at or above ``p[i]``, and replaces the held
        one where that lies at or below ``p[i]`` (the later sample wins the
        tie): a prefix of the range, as the held abscissa rises, so none
        unless the first.  It is the first above x for ``[a_{i-1}, a_i)`` and
        replaces the held one where that lies above ``p[i]``: a suffix, so
        none unless the last.
        """
        x, below, above, *values = self._held(*self.span)
        a = np.searchsorted(x, p)
        e = np.concatenate(([0], a, [x.size]))  # a_{i-1}, a_i and a_{i+1} at i, i + 1 and i + 2
        i = np.flatnonzero((e[1:-1] < e[2:]) & (np.take(below, a, mode="clip") <= p))
        if i.size:
            stop = np.minimum(e[i + 2], np.searchsorted(below, p[i], "right"))
            _fill(i, a[i], stop, p, y, below, values[0::2])
        i = np.flatnonzero((e[:-2] < e[1:-1]) & (np.take(above, a - 1, mode="clip") > p))
        if i.size:
            start = np.maximum(e[i], np.searchsorted(above, p[i], "right"))
            _fill(i, start, a[i], p, y, above, values[1::2])

    def interp(self, i0: int, i1: int) -> np.ndarray:
        """The values interpolated at the held points [i0, i1), one row each:
        ``np.interp`` over the points' pairs in the pool's order (see the
        module docstring), which reads each point's own pair."""
        x, below, above, *values = self._held(i0, i1)
        p = np.concatenate((above, below))
        order = np.argsort(p, kind="stable")
        p = p[order]
        return np.array([np.interp(x, p, np.concatenate((values[k + 1], values[k]))[order])
                         for k in range(0, len(values), 2)])
