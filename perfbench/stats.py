"""Summary statistics and metric-name rules shared by the timed and traced runs."""

from __future__ import annotations

import math
import re
import statistics

# Percentiles a timing may report as its tail, lowest first.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    """Metric names start with a letter or digit and use at most 64 of
    letters, digits, ``_``, ``.`` and ``-``."""
    return _NAME.fullmatch(name) is not None


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ten of ``n`` samples beyond it.

    ``None`` when even the median has fewer than ten samples above it.
    """
    best = None
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(values: list[float]) -> dict:
    """Median, sample count, and the tail the sample count supports."""
    p = tail_percentile(len(values))
    return {
        "median": statistics.median(values),
        "n": len(values),
        "tail_percentile": p,
        "tail_value": percentile(values, p) if p is not None else None,
    }


def list_schedule(durations: list[float], workers: int) -> float:
    """Makespan of jobs handed, in order, to whichever worker frees first --
    how a process pool's ``map`` spreads jobs when each runs as long as given."""
    free_at = [0.0] * workers
    for d in durations:
        i = free_at.index(min(free_at))
        free_at[i] += d
    return max(free_at)
