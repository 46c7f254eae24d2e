"""Direct time integration of the atom chain and travelling-wave verification.

The chain evolves by

    dr_j/dt = v_{j+1} - v_j,      dv_j/dt = phi'(r_j) - phi'(r_{j-1}),

with ghost values clamped to the asymptotic states at both ends.  A converged
front profile initializes the chain, which should then translate rigidly at
the front speed; the integrator is a staggered leapfrog (velocity-Verlet on
atom positions), second order and time-reversible.

The integrator advances only an active window of atoms.  Every atom outside
it sits exactly at the left or the right asymptotic state, where the step
would leave it unchanged (zero force, zero strain rate); the window widens
before a departure from the states can reach past its edges, so the result
is bit for bit that of stepping the whole chain.  A strain beyond ten times
the invariant bound, or one that is not a number, stops the run (BlowUp).

A step costs a fixed number of numpy calls on the window's slices, about
fifteen for the quartic, and on windows of a few hundred atoms each call
costs mostly its own overhead, so the step's cost is its call count.  ``v``
has one trailing ghost slot holding ``v_plus`` and ``phi'(r)`` one leading
ghost slot holding ``phi'(r_minus)``, so the drift ``v_{j+1} - v_j`` and the
force ``phi'(r_j) - phi'(r_{j-1})`` are one subtraction each, with no
scalar fix-up at a window edge: the slot an edge reads beyond the window is
the ghost or an atom exactly at that state, the same float.  The product
``force * dt/2`` is made once per step, at its end, and added in that
step's second half kick and in the next step's first: it is the float
each of the two kicks would compute.  The potential writes ``phi'(r)``
straight into its slots (``phi_prime(r, out=...)``), with no copy; ``dt``
and ``dt/2`` are numpy floats made once per run, so no call converts a
Python float (to the same float64); and the strain bound reads the largest
``|r|`` at ``argmax``, which is the first NaN where there is one.

The checks read the chain snapshot by snapshot, so a long run keeps no
full-chain copies.  ``evolve(..., observe=f)`` calls ``f`` with a
``ChainState`` over the integrator's live arrays every ``snapshot_stride``
steps; those arrays change after ``f`` returns, so ``f`` copies what it
keeps.  The state also carries the integrator's window ``(lo, hi)``: every
atom outside it is exactly at its state and has not changed since the run
started, so a reduction may read the window alone.  ``front_crossing`` and
``EnergyLaw.add`` are such per-snapshot reductions, and
``measure_front_speed`` and ``check_energy_law`` are loops over them, so a
snapshot list and a stream give the same floats.

``verify_front``, the check ``fpufronts verify`` runs, reduces each snapshot
to its sup error against the translated profile, its front crossing and its
energy-law row, and reads for the first two only a window of atoms: those
off the states, widened for the sup error by the atoms whose reference
phase lies on the profile's nodes and for the crossing by one atom on each
side.  The runs of atoms at the states that bound it are themselves read
inside the integrator's window (``_state_runs``).  Outside it both
reductions see exact equalities.  An atom at a state and ``np.interp``'s
``left=``/``right=`` value for a phase beyond the nodes are the same float,
so their difference is 0.  Two neighbours at one state give the product
``(v - level)**2``, the same float all along the run, which is a crossing
at the run's first pair if it is <= 0 and none if not.  So the window gives
the whole chain's floats, provided the window's offset is added to the
integer atom index before the fraction, as the whole-chain search adds it.

The snapshot's total energy stays one ``np.sum`` over the whole chain
(``np.sum`` adds pairwise, and a sum over part of the chain rounds
differently), but of an energy-density array that ``EnergyLaw`` keeps from
snapshot to snapshot: evaluated in full for a run's first snapshot, and
after that only inside the window.  An atom outside the window has not
changed since the run started, and the window only widens, so the atom was
outside every window since the full evaluation: its entry is the float a
fresh evaluation gives, and the sum is the whole chain's.

``EnergyLaw`` evaluates the law on a profile interpolated from the pool of
every snapshot's interior atoms, at phases ``j - sigma*t``, but keeps no
pool.  ``np.interp`` at a grid point x reads only two pooled samples: the
last at or below x in the stable phase order and the one after it.  The
pool is laid out snapshot by snapshot, and a snapshot's phases rise with
the atom, so the first is a snapshot's last atom at or below x, of the
latest snapshot where several share its phase, and the second a
snapshot's first atom above x, of the earliest such snapshot.  As each
snapshot arrives, its atoms near the points held are folded into those two
samples per point (``interp.HeldPairs``); the atoms ``ceil(x_first + c) -
2`` to ``ceil(x_last + c) + 1`` of a snapshot of shift c, clamped to its
interior, hold both for every x in [x_first, x_last], an atom of slack on
each side allowing for the rounding of ``x + c``.  A snapshot that ends
below x gives its last interior atom and one that starts above x its
first.  The report interpolates, block by block, each block's pairs in the
pool's order, which gives the floats a sort of the whole pool gives.

The points held are those near the phases of the snapshots' windows, the
interior atoms between the runs exactly at the left and the right state.
Far enough below them every pooled sample within reach is exactly at the
left state, and above them at the right state, and ``np.interp`` between
two equal samples returns that value exactly (slope 0): the profile is at
a state there, and the residual exactly 0.  A later window may reach beyond
the points held; the new points lie more than four phase units beyond every
earlier window, where the earlier snapshots' atoms near them are at a
state, or their first or last interior atom, so their pairs come from the
windows, shifts and end atoms of those snapshots alone.  So the memory grows
with the windows' phase span, not with the snapshots.  A block of residuals
reads the profile on its own grid points and on the two phase units
(``2/dphi`` points) beyond them, which the next block carries over, and of
``np.gradient`` only the central differences, never its one-sided ends; the
report keeps a running ``max|res|``.

The front speed is the least-squares slope through the visible crossings in
closed form, ``sum(t*c) / sum(t*t)`` over the centred times and crossings,
summed by numpy reductions: a two-parameter fit needs no LAPACK call, and
its float does not depend on the BLAS kernel.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import BlowUp, NotAFront
from .interp import HeldPairs, _ArangeGrid
from .macroscopic import FrontData, denormalize_profile
from .potentials import Potential

# A solved run is read only for its profile and outcome; importing the solver
# to name its type would load it into ``fpufronts verify``, which never runs it.
if TYPE_CHECKING:
    from .grid import GridProfile
    from .solver import RunResult


@dataclass
class ChainState:
    """Distances and velocities of a finite chain with clamped ghost states.

    ``window``, where set, is ``evolve``'s active window ``(lo, hi)`` on a
    state it hands to an observer: every atom left of ``lo`` is exactly at
    ``(r_minus, v_minus)``, every one from ``hi`` on exactly at ``(r_plus,
    v_plus)``, and none of them has changed since ``evolve`` started.
    ``None`` promises nothing.
    """

    r: np.ndarray
    v: np.ndarray
    t: float
    dt: float
    r_minus: float
    v_minus: float
    r_plus: float
    v_plus: float
    window: tuple[int, int] | None = None

    @property
    def n_atoms(self) -> int:
        return self.r.size


def sample_front(result: RunResult, fd: FrontData, phi: np.ndarray):
    """Linear interpolation of the denormalized front profiles at phases ``phi``."""
    return _profile_at(result.profile, fd, phi)


def _profile_at(profile: GridProfile, fd: FrontData, phi: np.ndarray):
    r_prof, v_prof = denormalize_profile(profile, fd)
    nodes = profile.nodes
    r = np.interp(phi, nodes, r_prof, left=fd.r_minus, right=fd.r_plus)
    v = np.interp(phi, nodes, v_prof, left=fd.v_minus, right=fd.v_plus)
    return r, v


def init_from_front(
    result: RunResult,
    fd: FrontData,
    n_atoms: int = 400,
    offset: float | None = None,
    dt: float = 0.01,
) -> ChainState:
    """Chain initialized on the travelling-wave ansatz at time zero.

    ``offset`` places the transition; by default it sits mid-chain.
    """
    if result.outcome != "front_converged":
        raise NotAFront(f"solver outcome was {result.outcome!r}")
    if offset is None:
        offset = n_atoms / 2.0
    return _chain_on(result.profile, fd, n_atoms, offset, dt)


def _chain_on(profile: GridProfile, fd: FrontData, n_atoms: int, offset: float,
              dt: float) -> ChainState:
    j = np.arange(n_atoms, dtype=float)
    r, v = _profile_at(profile, fd, j - offset)
    return ChainState(r=r, v=v, t=0.0, dt=dt,
                      r_minus=fd.r_minus, v_minus=fd.v_minus,
                      r_plus=fd.r_plus, v_plus=fd.v_plus)


# The active window of ``evolve`` checks its edges every _CHECK_EVERY steps.
# In between, a departure from the states moves at most 2 * _CHECK_EVERY
# atoms, so _GUARD exceeds that; a touched guard band widens the window by
# _CHUNK >= _GUARD atoms, all of them at the state, so the new band is exact.
_CHECK_EVERY = 8
_GUARD = 2 * _CHECK_EVERY + 2
_CHUNK = 64


def _run_length(mask: np.ndarray) -> int:
    """Number of leading True entries."""
    return mask.size if mask.all() else int(mask.argmin())


def _at_state(r: np.ndarray, v: np.ndarray, r_state: float, v_state: float) -> np.ndarray:
    return (r == r_state) & (v == v_state)


def _state_runs(state: ChainState) -> tuple[int, int]:
    """Lengths of the runs of atoms exactly at the left state (from the left
    end) and at the right state (from the right end).

    With a ``window`` only its atoms are read: the atoms left of it extend
    the left run and those right of it the right run.  A run that covers
    the whole window may go on beyond it (where both states are one), so
    then the whole chain is read.
    """
    def runs(lo: int, hi: int) -> tuple[int, int]:
        r, v = state.r[lo:hi], state.v[lo:hi]
        return (_run_length(_at_state(r, v, state.r_minus, state.v_minus)),
                _run_length(_at_state(r[::-1], v[::-1], state.r_plus, state.v_plus)))

    n = state.n_atoms
    lo, hi = state.window or (0, n)
    head, tail = runs(lo, hi)
    if (lo, hi) != (0, n) and hi - lo in (head, tail):
        lo, hi = 0, n
        head, tail = runs(lo, hi)
    return lo + head, n - hi + tail


# The largest leapfrog step of a chain run.
MAX_DT = 0.05
# The atoms at each end of a chain that the chain check leaves out: its sup
# error and its energy law read only the atoms inside both margins.
MARGIN_ATOMS = 20


def chain_clock(t0: float, dt: float, T: float,
                stride: int | None = None) -> tuple[int, list[float]]:
    """The clock of a chain run of ``T`` at step ``dt`` from time ``t0``.

    Returns its step count ``round(T/dt)`` and the times of the states
    after the steps 0, ``stride``, 2 ``stride``, ... up to that count, or,
    without a ``stride``, after step 0 and the last step: the state after
    step k is at ``t0 + k*dt``.  ``evolve`` stamps its states with these
    times.  Raises ValueError unless ``0 < dt <= MAX_DT`` and ``T`` is
    finite and ``>= 0``.
    """
    if not 0.0 < dt <= MAX_DT:
        raise ValueError(f"dt must lie in (0, {MAX_DT}], not {dt!r}")
    if not (math.isfinite(T) and T >= 0.0):
        raise ValueError(f"T must be finite and at least 0, not {T!r}")
    n = int(round(T / dt))
    return n, [t0 + k * dt for k in (range(0, n + 1, stride) if stride else (0, n))]


def evolve(
    state: ChainState,
    pot: Potential,
    T: float,
    gamma: float = 2.0,
    snapshot_stride: int | None = None,
    observe: Callable[[ChainState], None] | None = None,
) -> ChainState | tuple[ChainState, list[ChainState]]:
    """Advance the chain by time ``T`` with fixed-step staggered leapfrog.

    Each step is a half velocity kick, a full strain drift, and a second half
    kick; the scheme is time-reversible up to rounding.  The force of the
    second kick is that of the next step's first kick, so it is evaluated,
    and multiplied by ``dt/2``, once per step.  The steps and the states'
    times are ``chain_clock``'s, which raises ValueError unless ``0 < dt <=
    MAX_DT`` and ``T`` is finite and ``>= 0``.  Raises BlowUp at the first
    step after which a strain leaves ten times the invariant interval or is
    not finite (a NaN strain compares false with every bound, so the test is
    ``not |r| <= bound``).  With ``snapshot_stride`` set, also returns the
    intermediate states every that many steps.

    With ``observe`` set as well, ``observe(s)`` is called with each
    intermediate state instead, and only the final state is returned.  ``s``
    is a ``ChainState`` over the integrator's live ``r`` and ``v`` arrays,
    valid only during the call: copy what you keep.  Its ``window`` is the
    active window below.  The returned list is what an observer appending
    copies (without the window) collects.

    Only an active window ``[lo, hi)`` of atoms is integrated.  Invariant:
    every atom left of it equals ``(r_minus, v_minus)`` and every atom right
    of it ``(r_plus, v_plus)``, exactly (``==``).  Such an atom gets force
    ``phi'(x) - phi'(x) = 0`` and drift ``dt * 0``, so the full-chain step
    would leave it as it is.  A step spreads a departure from the states at
    most one atom left (the kick reads ``r_{j-1}``) and two atoms right (the
    drift reads ``v_{j+1}``), so the window keeps a guard band of exact atoms
    inside each edge between checks and widens by a fixed chunk when one is
    touched.  Inside the window every atom is updated by the same expressions
    as on the full chain, which makes ``r``, ``v``, the snapshots and the step
    of a BlowUp those of the full-chain integration.  A chain whose tails are
    not at the states integrates all of its atoms.  The returned ``v`` is a
    view of the velocity buffer, whose last slot is the ghost ``v_plus``
    (see the module docstring).
    """
    n_steps, (_, t_end) = chain_clock(state.t, state.dt, T)
    if observe is not None and not snapshot_stride:
        raise ValueError("observe needs a snapshot_stride")
    dt = state.dt
    bound = 10.0 * gamma
    n = state.n_atoms
    r = state.r.copy()
    v_buf = np.append(state.v, state.v_plus)  # v, then the ghost v_plus
    v = v_buf[:n]
    # phi'(r_minus), then phi'(r); a slot left of the window keeps the ghost
    # value: the window only widens, and it writes only right of its lo
    fp_buf = np.full(n + 1, pot.phi_prime(state.r_minus))
    kick = np.empty(n)  # (phi'(r_j) - phi'(r_{j-1})) * dt/2, for both half kicks
    scratch = np.empty(n)

    head, tail = _state_runs(state)
    lo = max(0, min(head, n - tail) - _GUARD)
    hi = min(n, max(head, n - tail) + _GUARD)
    resize = True
    snapshots = None
    if snapshot_stride and observe is None:
        snapshots = []

        def observe(s: ChainState) -> None:
            snapshots.append(ChainState(s.r.copy(), s.v.copy(), s.t, s.dt,
                                        s.r_minus, s.v_minus, s.r_plus, s.v_plus))
    # the steps after which to observe a snapshot and to check the guard
    # bands, and the snapshots' times (the first is the start's)
    snap_at = snapshot_stride - 1 if snapshot_stride else -1
    times = chain_clock(state.t, dt, T, snapshot_stride)[1]
    check_at = _CHECK_EVERY - 1
    # The step's constants as numpy floats, which its ufuncs take without
    # converting (a Python float converts to the same float64 on every
    # call), and its ufuncs as locals.
    step_dt, half_dt = np.float64(dt), np.float64(0.5 * dt)
    add, subtract, multiply, absolute = np.add, np.subtract, np.multiply, np.absolute
    phi_prime = pot.phi_prime
    for step in range(n_steps):
        if resize:
            rw, vw, v_next = r[lo:hi], v_buf[lo:hi], v_buf[lo + 1:hi + 1]
            fp_prev, fpw = fp_buf[lo:hi], fp_buf[lo + 1:hi + 1]
            kw, sw = kick[lo:hi], scratch[lo:hi]
            phi_prime(rw, out=fpw)
            multiply(subtract(fpw, fp_prev, kw), half_dt, kw)
            resize = False
        add(vw, kw, vw)
        add(rw, multiply(subtract(v_next, vw, sw), step_dt, sw), rw)
        phi_prime(rw, out=fpw)
        multiply(subtract(fpw, fp_prev, kw), half_dt, kw)
        add(vw, kw, vw)
        # Also true for a NaN strain: argmax gives the first NaN.  The atoms
        # left out are at a state, and the first window holds some of them,
        # so a state beyond the bound raises here at step 0.
        absolute(rw, sw)
        if not sw[sw.argmax()] <= bound:
            raise BlowUp(f"strain exceeded 10*gamma at step {step}")
        if step == snap_at:
            snap_at += snapshot_stride
            observe(ChainState(r, v, times[(step + 1) // snapshot_stride], dt,
                               state.r_minus, state.v_minus,
                               state.r_plus, state.v_plus, (lo, hi)))
        if step == check_at:
            check_at += _CHECK_EVERY
            if lo > 0 and not _at_state(rw[:_GUARD], vw[:_GUARD],
                                        state.r_minus, state.v_minus).all():
                lo, resize = max(0, lo - _CHUNK), True
            if hi < n and not _at_state(rw[-_GUARD:], vw[-_GUARD:],
                                        state.r_plus, state.v_plus).all():
                hi, resize = min(n, hi + _CHUNK), True
    final = ChainState(r, v, t_end, dt,
                       state.r_minus, state.v_minus,
                       state.r_plus, state.v_plus)
    if snapshots is not None:
        return final, snapshots
    return final


def _energy_density(r: np.ndarray, v: np.ndarray, pot: Potential) -> np.ndarray:
    return 0.5 * v**2 + pot.phi(r)


def total_energy(state: ChainState, pot: Potential) -> float:
    return float(np.sum(_energy_density(state.r, state.v, pot)))


def boundary_flux(state: ChainState, pot: Potential) -> float:
    """Instantaneous energy flux into the chain through the clamped ends."""
    fp_last = float(pot.phi_prime(state.r[-1]))
    fp_ghost = float(pot.phi_prime(state.r_minus))
    return fp_last * state.v_plus - fp_ghost * float(state.v[0])


@dataclass
class EnergyLawReport:
    residual_sup: float
    energy_drift_rel: float


# EnergyLaw holds grid points _BLOCK phase units beyond those it needs, so
# that its span grows a chunk at a time, and its report evaluates the
# residual in blocks of _BLOCK phase units.
_BLOCK = 8


class EnergyLaw:
    """Travelling-wave energy law, accumulated one snapshot at a time.

    ``times`` announces the snapshots' times, in the order ``add`` takes
    them: the phase grid spans every snapshot's interior, so it depends on
    them.  ``add`` reads a snapshot, which may be a live ``evolve`` state,
    and refuses one at any other time, or with another atom count or other
    states than the first snapshot's; ``report`` evaluates the law over all
    snapshots announced (see ``check_energy_law``).

    Per snapshot it keeps ``t``, the total energy, the boundary flux, the
    interior atoms ``[lo, hi)`` between the runs of atoms exactly at the
    left and the right state (at least one atom, so every interior atom
    left of it is exactly at ``(r_minus, v_minus)`` and every one right of
    it at ``(r_plus, v_plus)``), and r and v of its first and last interior
    atom.
    Of the pool of every snapshot's interior atoms it keeps, per point of
    the phase grid near those windows, only the two samples ``np.interp``
    reads there (see the module docstring), in seven arrays of that span
    (the points and the two samples' phases, strains and velocities);
    ``report`` interpolates them block by block.  Its memory grows with
    the windows' phase span, not with the snapshots.
    """

    def __init__(self, pot: Potential, sigma: float, times,
                 margin_atoms: int = MARGIN_ATOMS, dphi: float = 0.05):
        self.pot = pot
        self.sigma = sigma
        self.margin = margin_atoms
        self.dphi = dphi
        self._announced = list(times)
        self._shifts = sigma * np.array(self._announced, dtype=float)
        self.times: list[float] = []
        self.energies: list[float] = []
        self.fluxes: list[float] = []
        self._windows = np.zeros((len(self._announced), 2), dtype=np.int64)  # (lo, hi) per snapshot
        # per snapshot, r and v of its first and of its last interior atom
        self._ends = np.zeros((len(self._announced), 4))
        self._chain = None  # (n, r_minus, v_minus, r_plus, v_plus), from the first snapshot
        self._grid = None  # the phase grid, set by the first snapshot
        self._p_lo = np.inf  # the least and the greatest phase of any window's atoms
        self._p_hi = -np.inf
        self._pairs = None  # the pool's pairs near the windows, a HeldPairs of (r, v)
        self._density = np.empty(0)  # the last snapshot's energy density, atom by atom
        self._live = None  # that snapshot's r, where it came with a window

    def add(self, state: ChainState) -> None:
        self._add(state, *_state_runs(state))

    def _add(self, state: ChainState, head: int, tail: int) -> None:
        """``add``, given the snapshot's ``_state_runs``."""
        n, m = state.n_atoms, self.margin
        if n <= 2 * m:
            raise ValueError(f"a chain of {n} atoms has no interior inside two {m}-atom margins")
        k = len(self.times)
        if k == len(self._announced) or state.t != self._announced[k]:
            expected = self._announced[k] if k < len(self._announced) else "none"
            raise ValueError(f"snapshot {k} is at t = {state.t!r}, not at the announced time {expected}")
        chain = (n, state.r_minus, state.v_minus, state.r_plus, state.v_plus)
        if k == 0:
            self._chain = chain
            self._grid = _ArangeGrid(np.min(m - self._shifts) + 1.5,
                                     np.max(n - m - 1 - self._shifts) - 1.5, self.dphi)
        elif chain != self._chain:
            raise ValueError(f"snapshot {k} has (atoms, r_minus, v_minus, r_plus, v_plus) = "
                             f"{chain}, not the first snapshot's {self._chain}")
        lo = min(max(head, m), n - m - 1)
        hi = max(min(n - tail, n - m), lo + 1)
        c = self._shifts[k]
        self._p_lo = min(self._p_lo, lo - c)
        self._p_hi = max(self._p_hi, (hi - 1) - c)
        g0, g1 = self._interpolated()
        if k == 0:
            self._pairs = HeldPairs(self._grid, 2, g0)
        h0, h1 = self._pairs.span
        chunk = max(1, int(round(_BLOCK / self.dphi)))
        self._pairs.reach(max(0, g0 - chunk) if g0 < h0 else h0,
                          min(self._grid.size, g1 + chunk) if g1 > h1 else h1, self._outside)
        self.times.append(state.t)
        self.energies.append(self._energy(state))
        self.fluxes.append(boundary_flux(state, self.pot))
        self._windows[k] = lo, hi
        last = n - m - 1
        self._ends[k] = state.r[m], state.v[m], state.r[last], state.v[last]
        x = self._pairs.points
        if x.size:
            j0, j1 = self._atoms(x[0], x[-1], c)
            self._pairs.fold(np.arange(j0, j1 + 1) - c, np.array((state.r[j0:j1 + 1], state.v[j0:j1 + 1])))

    def _atoms(self, x_first, x_last, c):
        """The first and the last interior atom that may be a snapshot's last
        sample at or below, or its first sample above, a point of [x_first,
        x_last]: from ``ceil(x_first + c) - 2`` to ``ceil(x_last + c) + 1``,
        clamped to the interior.  ``c`` is its shift, a float or a column."""
        j = np.ceil(np.add.outer(c, (x_first, x_last))) + (-2, 1)
        j = np.minimum(np.maximum(j, self.margin), self._chain[0] - self.margin - 1).astype(np.int64)
        return j[..., 0], j[..., 1]

    def _interpolated(self) -> tuple[int, int]:
        """The grid points ``[g0, g1)`` the report interpolates: those within
        two phase units and ``2/dphi + 4`` points of the windows' phases.

        Below ``g0`` (from ``g1`` on) every sample within reach is exactly
        at the left (right) state, so the profile is, and the energy
        gradient and the residual are exactly 0 there; the points kept on
        each side of the windows cover every residual that reads a point
        off the states, and two more cover the rounding of grid point i to
        ``start + i*delta``.
        """
        grid, pad = self._grid, 2 * int(round(1.0 / self.dphi)) + 2
        g0 = min(max(0, math.floor((self._p_lo - 2.0 - grid.start) / grid.delta) - pad - 2), grid.size)
        g1 = min(grid.size, math.ceil((self._p_hi + 2.0 - grid.start) / grid.delta) + pad + 2)
        return g0, max(g0, g1)

    def _outside(self, x: np.ndarray) -> np.ndarray:
        """The pairs of grid points ``x`` beyond the span held, over the
        snapshots added so far (see ``HeldPairs.reach``).

        Those points lie more than four phase units beyond every window
        added, so each snapshot's samples near them are atoms at a state, or
        its first or last interior atom (where the interior ends nearer).
        ``_atoms`` of every snapshot, laid out snapshot by snapshot, atoms in
        order, and stably sorted by phase are a piece of the pool in its
        order, and each point's pair is read from it as ``np.interp`` reads
        the pool.
        """
        k, s = len(self.times), x.size
        if not k:
            return np.concatenate((np.full((1, s), -np.inf), np.full((1, s), np.inf), np.zeros((4, s))))
        n, r_minus, v_minus, r_plus, v_plus = self._chain
        c = self._shifts[:k, None]
        j0, j1 = self._atoms(x[0], x[-1], c)
        width = j1 - j0 + 1
        # A (snapshots x widest) grid of atoms; cells past a snapshot's width
        # get phase +inf, so that they sort last.
        cols = np.arange(width.max())
        phi = (j0 + cols) - c
        phi[cols >= width] = np.inf
        order = np.argsort(phi, axis=None, kind="stable")
        phi = phi.ravel()[order]
        i = np.searchsorted(phi, x, "right")
        i = np.concatenate((i - 1, i))  # each point's last sample at or below it, then its first above
        at = np.take(order, i, mode="clip")
        row = at // cols.size
        j = j0[row, 0] + at % cols.size
        lo, hi = self._windows[row].T
        ends = self._ends[row].T
        inside = np.where(j == self.margin, ends[:2], ends[2:])
        rv = np.where(j < lo, [[r_minus], [v_minus]], np.where(j >= hi, [[r_plus], [v_plus]], inside))
        # -inf where a point has no sample at or below it, +inf where none above
        p = np.where(i < 0, -np.inf, np.where(i < phi.size, np.take(phi, i, mode="clip"), np.inf))
        return np.concatenate((p.reshape(2, s), rv.reshape(4, s)))

    def _energy(self, state: ChainState) -> float:
        """``total_energy(state, pot)``: one ``np.sum`` of the energy density
        over every atom.

        Where the last snapshot was one of the same ``evolve`` run (the same
        live ``r``), only the density inside the ``window`` is evaluated.
        The atoms outside it have not changed since the run started, and the
        window only widens, so they were outside every window since the
        density was last evaluated in full, on this run: their entries are
        the floats a fresh evaluation gives, and so is the sum.
        """
        if state.window is None or state.r is not self._live:
            self._density = _energy_density(state.r, state.v, self.pot)
        else:
            lo, hi = state.window
            self._density[lo:hi] = _energy_density(state.r[lo:hi], state.v[lo:hi], self.pot)
        self._live = None if state.window is None else state.r
        return float(np.sum(self._density))

    def _residual(self) -> Iterator[tuple[int, np.ndarray]]:
        """The energy-law residual on the uniform phase grid, block by block.

        Yields ``(g, res)``: ``res`` is the grid residual from index ``g``
        on.  The blocks follow each other without a gap, and every entry
        outside them is exactly 0.
        """
        sigma, dphi = self.sigma, self.dphi
        shift = int(round(1.0 / dphi))
        if self._grid.size <= 2 * shift:
            raise ValueError("snapshot phases span too short a profile")
        g0, g1 = self._interpolated()
        # Block by block: np.interp at x reads only the held pair of x, so a
        # block interpolates from its own points' pairs (see HeldPairs).
        # Every grid point lies inside the pool's phases, so neither end
        # value is used.  Residual i reads the profile at grid points i to
        # i + 2*shift, so a block of residuals [b0, b1) needs the points
        # [b0, b1 + 2*shift): the last 2*shift of the previous block's
        # points, and new ones.  np.gradient's central difference
        # (e[k+1] - e[k-1]) / (2*dphi) is all the residual reads of it: its
        # one-sided ends fall in the cut shift points at each end.
        n_res = g1 - g0 - 2 * shift
        block = max(1, int(round(_BLOCK / dphi)))
        r_g = v_g = np.empty(0)
        for b0 in range(0, n_res, block):
            k = min(block, n_res - b0)  # residuals in this block
            r, v = self._pairs.interp(g0 + b0 + r_g.size, g0 + b0 + k + 2 * shift)
            r_g, v_g = np.concatenate((r_g, r)), np.concatenate((v_g, v))
            e = 0.5 * v_g**2 + self.pot.phi(r_g)
            de = (e[shift + 1:shift + 1 + k] - e[shift - 1:shift - 1 + k]) / (2.0 * dphi)
            fp = self.pot.phi_prime(r_g)
            yield g0 + b0, (sigma * de
                            + fp[shift:shift + k] * v_g[2 * shift:]
                            - fp[:k] * v_g[shift:shift + k])
            r_g, v_g = r_g[k:], v_g[k:]

    def report(self) -> EnergyLawReport:
        if len(self.times) < 2:
            raise ValueError("need at least two snapshots")
        if len(self.times) < len(self._announced):
            raise ValueError(f"{len(self.times)} of {len(self._announced)} announced snapshots added")
        residual_sup = 0.0
        for _, res in self._residual():
            residual_sup = float(np.max(np.abs(res), initial=residual_sup))

        # Energy bookkeeping: drift of total energy minus time-integrated flux.
        e0 = self.energies[0]
        times = np.array(self.times)
        energies = np.array(self.energies)
        fluxes = np.array(self.fluxes)
        flux_int = np.concatenate([[0.0], np.cumsum(
            0.5 * (fluxes[1:] + fluxes[:-1]) * np.diff(times))])
        drift = np.max(np.abs(energies - e0 - flux_int))
        return EnergyLawReport(residual_sup=residual_sup,
                               energy_drift_rel=float(drift / max(abs(e0), 1.0)))


def check_energy_law(
    snapshots: list[ChainState],
    pot: Potential,
    sigma: float,
    margin_atoms: int = MARGIN_ATOMS,
    dphi: float = 0.05,
) -> EnergyLawReport:
    """Residual of the travelling-wave energy law along the reconstructed profile.

    Pools the interior atoms of all snapshots into scattered samples of the
    wave profile at phases j - sigma*t, interpolates onto a uniform phase
    grid, and evaluates

        sigma * d/dphi (v^2/2 + phi(r)) + phi'(r(phi)) v(phi+1)
            - phi'(r(phi-1)) v(phi)

    by central differences and exact unit shifts.  Also reports the relative
    drift of the total energy corrected by the accumulated boundary flux.
    A loop of ``EnergyLaw.add`` over the snapshots.
    """
    law = EnergyLaw(pot, sigma, [s.t for s in snapshots], margin_atoms, dphi)
    for s in snapshots:
        law.add(s)
    return law.report()


def front_crossing(v: np.ndarray, level: float) -> float | None:
    """Position ``i + frac`` where the velocity profile first reaches ``level``.

    Linear interpolation between atoms ``i`` and ``i + 1``; None when the
    profile stays on one side of ``level``.
    """
    return _crossing(v - level, 0)


def _crossing(d: np.ndarray, offset: int) -> float | None:
    """``front_crossing`` of a run of atoms from atom ``offset`` on, given
    ``d = v[offset:stop] - level``, as a position on the whole chain.

    The offset is added to the integer index before ``frac``, as on the
    whole chain: added after, it can change the last bit.
    """
    idx = np.nonzero(d[:-1] * d[1:] <= 0)[0]
    if idx.size == 0:
        return None
    i = idx[0]
    frac = d[i] / (d[i] - d[i + 1]) if d[i] != d[i + 1] else 0.0
    return float((offset + i) + frac)


def _crossing_between_runs(v: np.ndarray, level: float, v_minus: float, v_plus: float,
                           head: int, tail: int) -> float | None:
    """``front_crossing(v, level)``, where the first ``head`` atoms are at
    ``v_minus`` and the last ``tail`` at ``v_plus``.

    It reads only the atoms from the last of the left run to the first of
    the right run.  Within a run every pair of neighbours gives that
    state's product ``d * d`` and frac 0, so a run's first pair is the
    crossing if that product is <= 0: a state at the level, or one so near
    it that the product underflows.
    """
    d_minus, d_plus = v_minus - level, v_plus - level
    if head >= 2 and d_minus * d_minus <= 0:
        return 0.0
    a = max(head - 1, 0)
    c = _crossing(v[a:v.size - tail + 1] - level, a)
    if c is None and tail >= 2 and d_plus * d_plus <= 0:
        return float(v.size - tail)
    return c


def front_speed(times: list[float], crossings: list[float | None]) -> float:
    """Slope of a least-squares line through the visible crossings.

    The closed form over the centred times and crossings, ``sum(t*c) /
    sum(t*t)``, summed by plain numpy reductions: a two-parameter fit needs
    no LAPACK call, and its float does not depend on the BLAS kernel.
    Raises ValueError where no slope can be read: fewer than two visible
    crossings, times whose centred squares sum to 0 (one time, or times
    so close that the squares underflow) or a slope that is not finite.
    """
    visible = [(t, c) for t, c in zip(times, crossings) if c is not None]
    if len(visible) < 2:
        raise ValueError("front crossing not visible in snapshots")
    t, c = np.array(visible).T
    t = t - np.mean(t)
    c = c - np.mean(c)
    tt = np.sum(t * t)
    slope = float(np.sum(t * c) / tt) if tt else math.nan
    if not math.isfinite(slope):
        raise ValueError("the visible crossings' times give no finite slope")
    return slope


def measure_front_speed(snapshots: list[ChainState], level: float | None = None) -> float:
    """Front speed from the drift of the mid-level crossing of the velocity profile.

    ``level`` defaults to the mean of the asymptotic velocities.
    """
    if len(snapshots) < 2:
        raise ValueError("need at least two snapshots")
    s0 = snapshots[0]
    if level is None:
        level = 0.5 * (s0.v_minus + s0.v_plus)
    return front_speed([s.t for s in snapshots], [front_crossing(s.v, level) for s in snapshots])


@dataclass
class FrontVerification:
    """What ``verify_front`` measured, one entry per snapshot, ``t = 0`` first."""

    times: list[float]
    sup_errors: list[float]
    crossings: list[float | None]
    energies: list[float]
    fluxes: list[float]
    speed: float
    energy: EnergyLawReport


def verify_front(
    profile: GridProfile,
    fd: FrontData,
    pot: Potential,
    *,
    gamma: float,
    n_atoms: int,
    T: float,
    dt: float,
    stride: int,
) -> FrontVerification:
    """Chain check of a solved front: does it travel rigidly at speed sigma?

    ``profile`` is the W profile of a converged solve.  Seeds ``n_atoms``
    atoms with the front centred mid-chain, evolves them for ``T`` at step
    ``dt`` and reduces the start and every ``stride``-th step, each as
    ``evolve`` makes it, to three things: the sup error, over the
    atoms inside two ``MARGIN_ATOMS`` margins, between the strain and the front
    profile translated to the phases ``j - n_atoms/2 - sigma t``; the
    mid-level ``front_crossing`` of the velocity; and the snapshot's row of
    the ``EnergyLaw``.  Then fits the front speed through the crossings and
    reports the energy law.  The sup error and the crossing read only a
    window of atoms and give the whole chain's floats (see the module
    docstring for why).
    """
    state = _chain_on(profile, fd, n_atoms, n_atoms / 2.0, dt)
    nodes = profile.nodes
    r_prof, _ = denormalize_profile(profile, fd)
    level = 0.5 * (fd.v_minus + fd.v_plus)
    sup_errors, crossings = [], []
    # the start and every stride-th step, as evolve stamps them
    law = EnergyLaw(pot, fd.sigma, chain_clock(state.t, dt, T, stride)[1])

    def sup_error(s: ChainState, head: int, tail: int) -> float:
        # the atoms whose phase j - c may lie on [nodes[0], nodes[-1]], with
        # two atoms to spare for rounding ...
        c = n_atoms / 2.0 + fd.sigma * s.t
        on_nodes = math.floor(nodes[0] + c) - 1, math.ceil(nodes[-1] + c) + 2
        # ... spanned together with the atoms off the states, inside the
        # margins; every other atom is at the state np.interp returns there
        a = max(min(head, on_nodes[0]), MARGIN_ATOMS)
        b = min(max(n_atoms - tail, on_nodes[1]), n_atoms - MARGIN_ATOMS)
        if a >= b:
            return 0.0
        r_ref = np.interp(np.arange(a, b, dtype=float) - n_atoms / 2.0 - fd.sigma * s.t,
                          nodes, r_prof, left=fd.r_minus, right=fd.r_plus)
        return float(np.max(np.abs(s.r[a:b] - r_ref)))

    def observe(s: ChainState) -> None:
        head, tail = _state_runs(s)
        sup_errors.append(sup_error(s, head, tail))
        crossings.append(_crossing_between_runs(s.v, level, fd.v_minus, fd.v_plus, head, tail))
        law._add(s, head, tail)

    observe(state)
    evolve(state, pot, T, gamma=gamma, snapshot_stride=stride, observe=observe)
    return FrontVerification(
        times=law.times, sup_errors=sup_errors, crossings=crossings,
        energies=law.energies, fluxes=law.fluxes,
        speed=front_speed(law.times, crossings), energy=law.report(),
    )
