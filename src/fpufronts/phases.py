"""Separation-of-phases diagnostics for averaged profiles.

The averaged profile U of a candidate front takes values near -1 (negative
phase) and near +1 (positive phase), linked by transition layers.  The zero
set {|U| <= 1/2} must be covered by finitely many layer intervals, each of
which carries a guaranteed minimum action cost; a converged front has exactly
one layer.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import EmptyZeroSet, LayerCostBelowBound
from .grid import GridProfile, apply_averaging
from .potentials import Potential

# The samples of |u| <= 3/4 that ``mu_bar_for`` reads, and the largest step
# down that ``is_monotone`` still counts as nondecreasing.
_MU_SAMPLES = 20_001
_MONOTONE_TOL = 1e-12
# The interior the outcome classifier and the plateau check read: the nodes
# at least this many phase units inside the grid's ends.
_INTERIOR_MARGIN = 2.0
# The plateau rule of ``interior_plateau``: its run length, its flatness
# tolerance and its least distance from the states.
_PLATEAU_NODES = 50
_PLATEAU_TOL = 1e-3
_PLATEAU_DISTINCT = 1e-2


@dataclass
class PhaseSeparation:
    """Ordered transition-layer intervals covering the zero set."""

    eta_bar: float
    intervals: list[tuple[float, float]]
    anchors: list[float]
    signs: list[int]
    sign_consistent: bool

    @property
    def m(self) -> int:
        """The number of layers."""
        return len(self.intervals)

    def to_dict(self) -> dict:
        return {"m": self.m, **asdict(self)}


def zero_set(u: GridProfile) -> np.ndarray:
    """Node indices where |U| <= 1/2; empty for degenerate profiles."""
    idx = np.nonzero(np.abs(u.values) <= 0.5)[0]
    if idx.size == 0:
        raise EmptyZeroSet("no node with |U| <= 1/2; profile does not transition")
    return idx


def eta_bar_for(gamma: float) -> float:
    """Half-width over which an averaged profile in the constraint set cannot
    leave [-3/4, 3/4] around a zero-set point (Lipschitz constant 2*gamma)."""
    return 1.0 / (8.0 * gamma)


def mu_bar_for(pot: Potential, gamma: float) -> float:
    """Guaranteed lower bound for the layer cost integral.

    Computed as 2*eta_bar times the smallest defect value a layer can realize:
    within eta_bar of a zero-set point the averaged profile stays in
    [-3/4, 3/4] and cannot move further than 1/4 from its anchor value, so
    |U| stays in a band where the defect is bounded below by its minimum over
    1/4 <= |u| <= 3/4 ... conservatively, over |u| <= 3/4, sampled at 20 001
    points.
    """
    eta = eta_bar_for(gamma)
    u = np.linspace(-0.75, 0.75, _MU_SAMPLES)
    band = np.abs(u) >= 0.25
    inf_psi = float(np.min(pot.psi(u[band])))
    return 2.0 * eta * max(inf_psi, 0.0)


def separate_phases(u: GridProfile, gamma: float) -> PhaseSeparation:
    """Greedy construction of a separation of phases for an averaged profile.

    Anchors at the smallest uncovered zero-set point, opens an interval of
    half-width 2*eta_bar around it, merged with the last one where they
    overlap or touch, and repeats, in one pass over the zero set.  Signs are
    read off the gaps between consecutive intervals and the two tails; a gap
    on which U is not uniformly signed clears ``sign_consistent``.  A
    profile without a zero set raises ``zero_set``'s EmptyZeroSet.
    """
    nodes = u.nodes
    zidx = zero_set(u)
    eta = eta_bar_for(gamma)

    # each anchor's [phi - 2 eta, phi + 2 eta], merged into the last where
    # they overlap or touch, then snapped outward to nodes
    anchors, merged = [], []
    for i in zidx:
        phi = nodes[i]
        if merged and phi <= merged[-1][1]:
            continue
        anchors.append(float(phi))
        lo, hi = phi - 2 * eta, phi + 2 * eta
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    h = u.h
    intervals = [
        (float(np.floor((lo + u.L) / h) * h - u.L),
         float(np.ceil((hi + u.L) / h) * h - u.L))
        for lo, hi in merged
    ]

    # the gaps before, between and after the intervals
    edges = [-np.inf, *(x for iv in intervals for x in iv), np.inf]
    signs = []
    consistent = True
    for lo, hi in zip(edges[::2], edges[1::2]):
        vals = u.values[(nodes > lo) & (nodes < hi)]
        if lo == -np.inf:
            s = -1
        elif hi == np.inf:
            s = +1
        elif vals.size:
            s = int(np.sign(np.mean(np.sign(vals))) or 1)
        else:
            s = signs[-1]
        if vals.size and np.any(vals * s <= 0):
            consistent = False
        signs.append(s)

    return PhaseSeparation(eta_bar=eta, intervals=intervals, anchors=anchors, signs=signs,
                           sign_consistent=consistent)


def layer_cost(w: GridProfile, pot: Potential, anchor: float, gamma: float) -> float:
    """Defect integral over one transition layer around ``anchor``.

    Raises when the anchor is not in the zero set, or when the measured cost
    undercuts the guaranteed bound (which signals a profile far outside the
    constraint set).
    """
    u = apply_averaging(w)
    i = u.index_of(anchor)
    i = min(max(i, 0), u.D)
    if abs(u.values[i]) > 0.5:
        raise ValueError(f"|U({anchor})| = {abs(u.values[i]):.3f} > 1/2")
    eta = eta_bar_for(gamma)
    nodes = u.nodes
    mask = np.abs(nodes - anchor) <= eta + 1e-12
    cost = float(np.trapezoid(pot.psi(u.values[mask]), dx=u.h))
    bound = mu_bar_for(pot, gamma)
    if bound > 0 and cost < bound * (1.0 - 1e-6) - 1e-12:
        raise LayerCostBelowBound(f"cost {cost:.3e} below bound {bound:.3e}")
    return cost


def is_monotone(w: GridProfile) -> bool:
    """Nondecreasing profile check, up to steps down of 1e-12."""
    return bool(np.all(np.diff(w.values) >= -_MONOTONE_TOL))


def _median(a: np.ndarray) -> float:
    """``np.median`` of a nonempty NaN-free array, bit for bit.

    np.median checks for NaN through ``np.ma``, whose import costs more than
    a plateau check.  It averages the middle one or two entries of a
    partition with np.mean, whose sum starts from 0.0 (turning a -0.0 into
    0.0); both are repeated here.
    """
    k, m = (a.size - 1) // 2, a.size // 2
    p = np.partition(a, [k, m])
    if k == m:
        return float(0.0 + p[k])
    return float(((0.0 + p[k]) + p[m]) / 2)


def interior(w: GridProfile) -> np.ndarray:
    """The values of ``w`` at the nodes with ``|phi| <= L - 2``."""
    return w.values[np.abs(w.nodes) <= w.L - _INTERIOR_MARGIN]


def interior_plateau(w: GridProfile) -> tuple[float, int] | None:
    """Longest interior run of near-constant values away from +-1.

    Returns (plateau value, run length in nodes) or None.  Used by the solver
    to detect the action-unbounded failure mode where iterates grow a plateau
    at an interior defect minimizer.  The rule: among the ``interior`` nodes
    (``|phi| <= L - 2``), the level is the median of the locally flat ones
    (within 1e-3 of their left neighbour) more than 1e-2 from both +-1, and
    a plateau is a run of at least 50 consecutive nodes within 1e-3 of it.
    """
    v = interior(w)
    if v.size < _PLATEAU_NODES:
        return None
    # Candidate plateau level: locally flat nodes away from both states.
    flat = np.abs(np.diff(v)) <= _PLATEAU_TOL
    cand = v[1:][flat]
    cand = cand[np.minimum(np.abs(cand - 1.0), np.abs(cand + 1.0)) > _PLATEAU_DISTINCT]
    if cand.size == 0:
        return None
    val = _median(cand)  # cand holds no NaN: a NaN node is never flat
    close = np.abs(v - val) <= _PLATEAU_TOL
    # Longest consecutive run at that level: the padded mask flips at the
    # start and one past the end of every run.
    flips = np.flatnonzero(np.diff(np.concatenate(([False], close, [False]))))
    best = int((flips[1::2] - flips[::2]).max(initial=0))
    if best < _PLATEAU_NODES:
        return None
    return val, best
