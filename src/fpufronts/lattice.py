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

A step costs a fixed number of numpy calls on the window's slices, fifteen
for the quartic (thirteen ufuncs, the force's ``np.asarray`` and the strain
bound's ``argmax``) and then one element read, and every ``_CHECK_EVERY``
steps the guard bands' check adds at most four comparisons and four
``np.count_nonzero``.  On windows of a few hundred atoms each call costs
mostly its own overhead, so the step's cost is its call count.  ``v``
has one trailing ghost slot holding ``v_plus`` and ``phi'(r)`` one leading
ghost slot holding ``phi'(r_minus)``, so the drift ``v_{j+1} - v_j`` and the
force ``phi'(r_j) - phi'(r_{j-1})`` are one subtraction each, with no
scalar fix-up at a window edge: the slot an edge reads beyond the window is
the ghost or an atom exactly at that state, the same float.  The product
``force * dt/2`` is made once per step, at its end, and added in that
step's second half kick and in the next step's first: it is the float
each of the two kicks would compute.  The potential writes ``phi'(r)``
straight into its slots (``phi_prime(r, out=...)``), with no copy.
``dt`` and ``dt/2``, like the quartic force's constants, are 0-d arrays
made once, which a ufunc takes at less cost than a numpy or a Python
float of the same float64 (a 600-atom ``np.multiply`` took 0.48 against
0.73 us on a 2-core Xeon).  The strain bound reads the largest ``|r|``
at ``argmax``, which is the first NaN where there is one, after every
step: a strain can leave the bound and come back between two checks.

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

Each rule on a chain run's inputs is written once, here: ``chain_clock``,
``_check_stride``, ``check_chain_run`` and ``evolve``'s ``gamma > 0``.
``fpufronts verify`` runs ``check_chain_run`` before it reads a file.

``verify_front``, the check ``fpufronts verify`` runs, reduces each snapshot
to its sup error against the translated profile, its front crossing, its
total energy and its boundary flux, and reads for the first two only a
window of atoms: the integrator's window (for the start state, the atoms
between its runs at the states), widened for the sup error by the atoms
whose reference phase lies on the profile's nodes and for the crossing by
one atom on each side.  Every atom outside it is at a state,
where both reductions see exact equalities.  An atom at a state and
``np.interp``'s ``left=``/``right=`` value for a phase beyond the nodes
are the same float, so their difference is 0.  Two neighbours at one state
give the product ``(v - level)**2``, the same float all along the run,
which is a crossing at the run's first pair if it is <= 0 and none if
not.  So the window gives the whole chain's floats, provided the window's
offset is added to the integer atom index before the fraction, as the
whole-chain search adds it.

The snapshot's total energy stays one ``np.sum`` over the whole chain
(``np.sum`` adds pairwise, and a sum over part of the chain rounds
differently), but of an energy-density array that ``EnergyLaw`` keeps from
snapshot to snapshot: evaluated in full for a run's first snapshot, and
after that only inside the window, in either case a fixed block of atoms
at a time.  An atom outside the window has not changed since the run
started, and the window only widens, so the atom was outside every window
since the full evaluation: its entry is the float a fresh evaluation gives,
and the sum is the whole chain's.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import BlowUp, NotAFront
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
    return _profile_at(result.profile.nodes, *denormalize_profile(result.profile, fd), fd, phi)


def _profile_at(nodes: np.ndarray, r_prof: np.ndarray, v_prof: np.ndarray, fd: FrontData,
                phi: np.ndarray):
    r = np.interp(phi, nodes, r_prof, left=fd.r_minus, right=fd.r_plus)
    v = np.interp(phi, nodes, v_prof, left=fd.v_minus, right=fd.v_plus)
    return r, v


def init_from_front(
    result: RunResult, fd: FrontData, n_atoms: int = 400, dt: float = 0.01
) -> ChainState:
    """Chain initialized on the travelling-wave ansatz at time zero, with
    the transition mid-chain."""
    if result.outcome != "front_converged":
        raise NotAFront(f"solver outcome was {result.outcome!r}")
    profile = result.profile
    return _chain_on(profile.nodes, *denormalize_profile(profile, fd), fd, n_atoms,
                     n_atoms / 2.0, dt)


def _chain_on(nodes: np.ndarray, r_prof: np.ndarray, v_prof: np.ndarray, fd: FrontData,
              n_atoms: int, offset: float, dt: float) -> ChainState:
    """A chain of ``n_atoms`` atoms, atom j on the denormalized profiles
    ``r_prof`` and ``v_prof`` at the phase ``j - offset``."""
    j = np.arange(n_atoms, dtype=float)
    r, v = _profile_at(nodes, r_prof, v_prof, fd, j - offset)
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
    end) and at the right state (from the right end), read over the whole
    chain."""
    r, v = state.r, state.v
    return (_run_length(_at_state(r, v, state.r_minus, state.v_minus)),
            _run_length(_at_state(r[::-1], v[::-1], state.r_plus, state.v_plus)))


# The largest leapfrog step of a chain run.
MAX_DT = 0.05
# The atoms at each end of a chain that the chain check leaves out: its sup
# error reads only the atoms inside both margins.
MARGIN_ATOMS = 20


def chain_clock(dt: float, T: float) -> int:
    """The step count ``round(T/dt)`` of a chain run of ``T`` at step ``dt``.

    Raises ValueError unless ``0 < dt <= MAX_DT``, ``T`` is finite and
    ``>= 0``, and ``T/dt`` is finite, which a subnormal ``dt`` can overflow.
    """
    if not 0.0 < dt <= MAX_DT:
        raise ValueError(f"dt must lie in (0, {MAX_DT}], not {dt!r}")
    if not (math.isfinite(T) and T >= 0.0):
        raise ValueError(f"T must be finite and at least 0, not {T!r}")
    steps = T / dt
    if not math.isfinite(steps):
        raise ValueError(f"T/dt = {T!r}/{dt!r} is no finite step count")
    return int(round(steps))


def _check_stride(stride, name: str) -> None:
    """Raises ValueError, naming the stride, unless it is an integer >= 1."""
    if not (isinstance(stride, numbers.Integral) and stride >= 1):
        raise ValueError(f"{name} must be an integer of at least 1, not {stride!r}")


def check_chain_run(n_atoms: int, T: float, dt: float, stride: int) -> int:
    """The step count of ``verify_front``'s run of ``n_atoms`` atoms over
    ``T`` at step ``dt``, reduced every ``stride`` steps.  Raises ValueError,
    naming the rule, unless ``chain_clock`` counts the steps, ``stride`` is
    an integer >= 1 that the steps reach, and ``n_atoms`` exceeds the two
    ``MARGIN_ATOMS`` margins."""
    n_steps = chain_clock(dt, T)
    _check_stride(stride, "stride")
    if n_steps < stride:
        raise ValueError(f"a run of {n_steps} steps is shorter than its stride, {stride}")
    if n_atoms <= 2 * MARGIN_ATOMS:
        raise ValueError(f"a chain of {n_atoms} atoms has no interior inside two "
                         f"{MARGIN_ATOMS}-atom margins")
    return n_steps


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
    and multiplied by ``dt/2``, once per step.  It takes ``chain_clock``'s
    step count, which refuses a ``dt`` or a ``T`` with ValueError, and
    stamps the state after step k with the time ``state.t + k*dt``.  Raises
    ValueError unless ``gamma > 0`` (NaN too), and BlowUp at the first step
    after which a strain leaves [-10*gamma, 10*gamma] or is not finite (a
    NaN strain compares false with every bound, so the test is
    ``not |r| <= bound``); the strains are physical where the states are.
    With ``snapshot_stride`` set, also returns the intermediate states every
    that many steps; ``_check_stride`` refuses a stride that is not an
    integer of at least 1.

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
    n_steps = chain_clock(state.dt, T)
    if not gamma > 0:  # NaN too
        raise ValueError(f"gamma must be a number > 0, not {gamma!r}")
    if snapshot_stride is not None:
        _check_stride(snapshot_stride, "snapshot_stride")
    elif observe is not None:
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
    # the steps after which to observe a snapshot and to check the guard bands
    snap_at = snapshot_stride - 1 if snapshot_stride else -1
    check_at = _CHECK_EVERY - 1
    # The step's constants as 0-d arrays, which its ufuncs take at less cost
    # than a numpy or a Python float (the same float64), and its ufuncs as
    # locals.
    step_dt, half_dt = np.array(dt), np.array(0.5 * dt)
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
            observe(ChainState(r, v, state.t + (step + 1) * dt, dt,
                               state.r_minus, state.v_minus,
                               state.r_plus, state.v_plus, (lo, hi)))
        if step == check_at:
            check_at += _CHECK_EVERY
            if lo > 0 and (np.count_nonzero(rw[:_GUARD] != state.r_minus)
                           or np.count_nonzero(vw[:_GUARD] != state.v_minus)):
                lo, resize = max(0, lo - _CHUNK), True
            if hi < n and (np.count_nonzero(rw[-_GUARD:] != state.r_plus)
                           or np.count_nonzero(vw[-_GUARD:] != state.v_plus)):
                hi, resize = min(n, hi + _CHUNK), True
    final = ChainState(r, v, state.t + n_steps * dt, dt,
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


# The atoms of one energy-density evaluation: a whole-chain evaluation
# holds this block's temporaries, 8 kB each, not the chain's.
_DENSITY_BLOCK = 1024


@dataclass
class EnergyLawReport:
    energy_drift_rel: float


class EnergyLaw:
    """The chain's energy balance, accumulated one snapshot at a time.

    ``add`` reads a snapshot, which may be a live ``evolve`` state, and
    refuses one with another atom count or other states than the first
    snapshot's; ``report`` refuses fewer than two snapshots.

    Per snapshot it keeps ``t``, the total energy and the boundary flux;
    of the last snapshot it keeps the energy density, atom by atom, in one
    array made at the first snapshot and filled in place (see ``_energy``).
    Nothing else grows with the snapshots or the atoms.
    """

    def __init__(self, pot: Potential):
        self.pot = pot
        self.times: list[float] = []
        self.energies: list[float] = []
        self.fluxes: list[float] = []
        self._chain = None  # (n, r_minus, v_minus, r_plus, v_plus), from the first snapshot
        self._density = None  # the last snapshot's energy density, atom by atom
        self._live = None  # that snapshot's r, where it came with a window

    def add(self, state: ChainState) -> None:
        k = len(self.times)
        chain = (state.n_atoms, state.r_minus, state.v_minus, state.r_plus, state.v_plus)
        if k == 0:
            self._chain = chain
            self._density = np.empty(state.n_atoms)
        elif chain != self._chain:
            raise ValueError(f"snapshot {k} has (atoms, r_minus, v_minus, r_plus, v_plus) = "
                             f"{chain}, not the first snapshot's {self._chain}")
        self.times.append(state.t)
        self.energies.append(self._energy(state))
        self.fluxes.append(boundary_flux(state, self.pot))

    def _energy(self, state: ChainState) -> float:
        """``total_energy(state, pot)``: one ``np.sum`` of the energy density
        over every atom.

        The density is evaluated over a span of atoms, ``_DENSITY_BLOCK``
        atoms at a time, into the law's own array; each entry is the float
        a whole-chain evaluation gives, so the sum is too, and no
        evaluation holds more than a block's temporaries.  The span is the
        whole chain, except where the last snapshot was one of the same
        ``evolve`` run (the same live ``r``): then it is the ``window``.
        The atoms outside it have not changed since the run started, and
        the window only widens, so they were outside every window since the
        density was last evaluated in full, on this run: their entries are
        the floats a fresh evaluation gives.
        """
        lo, hi = 0, state.n_atoms
        if state.window is not None and state.r is self._live:
            lo, hi = state.window
        for a in range(lo, hi, _DENSITY_BLOCK):
            b = min(a + _DENSITY_BLOCK, hi)
            self._density[a:b] = _energy_density(state.r[a:b], state.v[a:b], self.pot)
        self._live = None if state.window is None else state.r
        return float(np.sum(self._density))

    def report(self) -> EnergyLawReport:
        """The largest drift of the total energy from the first snapshot's,
        corrected by the boundary flux integrated by the trapezoidal rule,
        relative to the first energy (or to 1, where that is smaller)."""
        if len(self.times) < 2:
            raise ValueError("need at least two snapshots")
        e0 = self.energies[0]
        times = np.array(self.times)
        energies = np.array(self.energies)
        fluxes = np.array(self.fluxes)
        flux_int = np.concatenate([[0.0], np.cumsum(
            0.5 * (fluxes[1:] + fluxes[:-1]) * np.diff(times))])
        drift = np.max(np.abs(energies - e0 - flux_int))
        return EnergyLawReport(energy_drift_rel=float(drift / max(abs(e0), 1.0)))


def check_energy_law(snapshots: list[ChainState], pot: Potential, sigma: float) -> EnergyLawReport:
    """Relative drift of the total energy of the snapshots, corrected by the
    accumulated boundary flux: a loop of ``EnergyLaw.add`` over them.

    ``sigma`` is unused.  It stays, by position or by keyword, for the
    callers of this list-form helper, which goes with the others once
    ``evolve`` has one return shape.
    """
    law = EnergyLaw(pot)
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


def measure_front_speed(snapshots: list[ChainState]) -> float:
    """Front speed from the drift of the mid-level crossing of the velocity
    profile, the level the mean of the asymptotic velocities."""
    if len(snapshots) < 2:
        raise ValueError("need at least two snapshots")
    s0 = snapshots[0]
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
    mid-level ``front_crossing`` of the velocity; and the snapshot's total
    energy and boundary flux (``EnergyLaw``).  Then fits the front speed
    through the crossings and reports the energy drift.  The sup error and
    the crossing read only the atoms off the states: of the start state,
    those between its runs at the states (``_state_runs``, the read that
    gives ``evolve`` its first window), and after that the window
    ``evolve`` hands over with each state.  They give the whole chain's
    floats (see the module docstring for why).  ``check_chain_run`` refuses
    the run before the chain is built, and ``evolve`` a ``gamma`` that is
    not ``> 0``, each with a ValueError.

    ``gamma`` bounds the normalized profile (|u| <= gamma), and the chain's
    strains are r = r_bar + u*dr/2 (r_bar the states' mean, dr = r_plus -
    r_minus), so ``evolve`` gets ``max(gamma, |r_bar|/10 + gamma*|dr|/2)``:
    ``gamma`` itself for the states -+1.  A ``gamma`` that is not > 0 goes
    to ``evolve`` unmapped, which refuses it.
    """
    check_chain_run(n_atoms, T, dt, stride)
    nodes = profile.nodes
    r_prof, v_prof = denormalize_profile(profile, fd)
    state = _chain_on(nodes, r_prof, v_prof, fd, n_atoms, n_atoms / 2.0, dt)
    level = 0.5 * (fd.v_minus + fd.v_plus)
    sup_errors, crossings = [], []
    law = EnergyLaw(pot)

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

    def reduce(s: ChainState, head: int, tail: int) -> None:
        # the first head atoms are at the left state, the last tail at the right
        sup_errors.append(sup_error(s, head, tail))
        crossings.append(_crossing_between_runs(s.v, level, fd.v_minus, fd.v_plus, head, tail))
        law.add(s)

    # the start state's runs at the states, which evolve reads for its first
    # window; then every atom outside a window is at its state
    reduce(state, *_state_runs(state))
    r_bar, dr = 0.5 * (fd.r_minus + fd.r_plus), fd.r_plus - fd.r_minus
    strain_gamma = max(gamma, abs(r_bar) / 10 + gamma * abs(dr) / 2) if gamma > 0 else gamma
    evolve(state, pot, T, gamma=strain_gamma, snapshot_stride=stride,
           observe=lambda s: reduce(s, s.window[0], n_atoms - s.window[1]))
    return FrontVerification(
        times=law.times, sup_errors=sup_errors, crossings=crossings,
        energies=law.energies, fluxes=law.fluxes,
        speed=front_speed(law.times, crossings), energy=law.report(),
    )
