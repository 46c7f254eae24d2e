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
is bit for bit that of stepping the whole chain.

The checks read the chain snapshot by snapshot, so a long run keeps no
full-chain copies.  ``evolve(..., observe=f)`` calls ``f`` with a
``ChainState`` over the integrator's live arrays every ``snapshot_stride``
steps; those arrays change after ``f`` returns, so ``f`` copies what it
keeps.  ``front_crossing`` and ``EnergyLaw.add`` are such per-snapshot
reductions, and ``measure_front_speed`` and ``check_energy_law`` are loops
over them, so a snapshot list and a stream give the same floats.

``EnergyLaw`` keeps, of each snapshot, only the interior atoms between the
runs exactly at the left and the right state, and its report rebuilds the
pooled profile only near their phases.  That is exact: every pooled sample
left of the kept phases is exactly at the left state and every one right of
them at the right state, and ``np.interp`` between two equal samples returns
that value exactly (slope 0), so the interpolated profile, and with it the
residual, are the floats a sort of every snapshot's whole interior gives.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import BlowUp, NotAFront
from .macroscopic import FrontData, denormalize_profile
from .potentials import Potential
from .solver import RunResult


@dataclass
class ChainState:
    """Distances and velocities of a finite chain with clamped ghost states."""

    r: np.ndarray
    v: np.ndarray
    t: float
    dt: float
    r_minus: float
    v_minus: float
    r_plus: float
    v_plus: float

    @property
    def n_atoms(self) -> int:
        return self.r.size


def sample_front(result: RunResult, fd: FrontData, phi: np.ndarray):
    """Linear interpolation of the denormalized front profiles at phases ``phi``."""
    r_prof, v_prof = denormalize_profile(result.profile, fd)
    nodes = result.profile.nodes
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
    j = np.arange(n_atoms, dtype=float)
    r, v = sample_front(result, fd, j - offset)
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


def _forces(r: np.ndarray, pot: Potential, fp_ghost, out: np.ndarray) -> None:
    """out_j = phi'(r_j) - phi'(r_{j-1}), with phi'(r_{-1}) = ``fp_ghost``."""
    fp = pot.phi_prime(r)
    out[0] = fp[0] - fp_ghost
    np.subtract(fp[1:], fp[:-1], out=out[1:])


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
    second kick is that of the next step's first kick, so it is evaluated
    once per step.  Raises BlowUp when a strain leaves ten times the
    invariant interval.  With ``snapshot_stride`` set, also returns the
    intermediate states every that many steps.

    With ``observe`` set as well, ``observe(s)`` is called with each
    intermediate state instead, and only the final state is returned.  ``s``
    is a ``ChainState`` over the integrator's live ``r`` and ``v`` arrays,
    valid only during the call: copy what you keep.  The returned list is
    what an observer appending copies collects.

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
    not at the states integrates all of its atoms.
    """
    if state.dt > 0.05:
        raise ValueError("dt must be at most 0.05")
    if observe is not None and not snapshot_stride:
        raise ValueError("observe needs a snapshot_stride")
    n_steps = int(round(T / state.dt))
    dt = state.dt
    half_dt = 0.5 * dt
    bound = 10.0 * gamma
    r = state.r.copy()
    v = state.v.copy()
    n = r.size
    force = np.empty(n)
    scratch = np.empty(n)
    fp_ghost = pot.phi_prime(state.r_minus)

    head = _run_length(_at_state(r, v, state.r_minus, state.v_minus))
    tail = _run_length(_at_state(r[::-1], v[::-1], state.r_plus, state.v_plus))
    lo = max(0, min(head, n - tail) - _GUARD)
    hi = min(n, max(head, n - tail) + _GUARD)
    resize = True
    snapshots = None
    if snapshot_stride and observe is None:
        snapshots = []

        def observe(s: ChainState) -> None:
            snapshots.append(ChainState(s.r.copy(), s.v.copy(), s.t, s.dt,
                                        s.r_minus, s.v_minus, s.r_plus, s.v_plus))
    for step in range(n_steps):
        if resize:
            rw, vw, fw, sw = r[lo:hi], v[lo:hi], force[lo:hi], scratch[lo:hi]
            _forces(rw, pot, fp_ghost, fw)
            outside_peak = max(abs(state.r_minus) if lo > 0 else 0.0,
                               abs(state.r_plus) if hi < n else 0.0)
            resize = False
        np.add(vw, np.multiply(fw, half_dt, out=sw), out=vw)
        np.subtract(vw[1:], vw[:-1], out=sw[:-1])
        sw[-1] = state.v_plus - vw[-1]
        np.add(rw, np.multiply(sw, dt, out=sw), out=rw)
        _forces(rw, pot, fp_ghost, fw)
        np.add(vw, np.multiply(fw, half_dt, out=sw), out=vw)
        if np.maximum(np.abs(rw, out=sw).max(), outside_peak) > bound:
            raise BlowUp(f"strain exceeded 10*gamma at step {step}")
        if snapshot_stride and (step + 1) % snapshot_stride == 0:
            observe(ChainState(r, v, state.t + (step + 1) * dt, dt,
                               state.r_minus, state.v_minus,
                               state.r_plus, state.v_plus))
        if (step + 1) % _CHECK_EVERY == 0:
            if lo > 0 and not _at_state(rw[:_GUARD], vw[:_GUARD],
                                        state.r_minus, state.v_minus).all():
                lo, resize = max(0, lo - _CHUNK), True
            if hi < n and not _at_state(rw[-_GUARD:], vw[-_GUARD:],
                                        state.r_plus, state.v_plus).all():
                hi, resize = min(n, hi + _CHUNK), True
    final = ChainState(r, v, state.t + n_steps * dt, dt,
                       state.r_minus, state.v_minus,
                       state.r_plus, state.v_plus)
    if snapshots is not None:
        return final, snapshots
    return final


def total_energy(state: ChainState, pot: Potential) -> float:
    return float(np.sum(0.5 * state.v**2 + pot.phi(state.r)))


def boundary_flux(state: ChainState, pot: Potential) -> float:
    """Instantaneous energy flux into the chain through the clamped ends."""
    fp_last = float(pot.phi_prime(state.r[-1]))
    fp_ghost = float(pot.phi_prime(state.r_minus))
    return fp_last * state.v_plus - fp_ghost * float(state.v[0])


@dataclass
class EnergyLawReport:
    residual_sup: float
    energy_drift_rel: float


class EnergyLaw:
    """Travelling-wave energy law, accumulated one snapshot at a time.

    ``add`` reads a snapshot, which may be a live ``evolve`` state; ``report``
    evaluates the law over all snapshots added (see ``check_energy_law``).
    Per snapshot it keeps ``t``, the total energy and the boundary flux,
    and a copy of the interior atoms between the runs of atoms exactly at the
    left and the right state.  That window holds at least one atom, so every
    interior atom left of it is exactly at ``(r_minus, v_minus)`` and every
    one right of it at ``(r_plus, v_plus)``.
    """

    def __init__(self, pot: Potential, sigma: float, margin_atoms: int = 20, dphi: float = 0.05):
        self.pot = pot
        self.sigma = sigma
        self.margin = margin_atoms
        self.dphi = dphi
        self.times: list[float] = []
        self.energies: list[float] = []
        self.fluxes: list[float] = []
        self._windows: list[tuple[int, np.ndarray, np.ndarray]] = []
        self._chain = None  # (n, r_minus, v_minus, r_plus, v_plus), from the first snapshot

    def add(self, state: ChainState) -> None:
        n, m = state.n_atoms, self.margin
        if n <= 2 * m:
            raise ValueError(f"a chain of {n} atoms has no interior inside two {m}-atom margins")
        if not self.times:
            self._chain = (n, state.r_minus, state.v_minus, state.r_plus, state.v_plus)
        head = _run_length(_at_state(state.r, state.v, state.r_minus, state.v_minus))
        tail = _run_length(_at_state(state.r[::-1], state.v[::-1], state.r_plus, state.v_plus))
        lo = min(max(head, m), n - m - 1)
        hi = max(min(n - tail, n - m), lo + 1)
        self.times.append(state.t)
        self.energies.append(total_energy(state, self.pot))
        self.fluxes.append(boundary_flux(state, self.pot))
        self._windows.append((lo, state.r[lo:hi].copy(), state.v[lo:hi].copy()))

    def _pool(self, phi_lo: float, phi_hi: float):
        """The pooled samples with phases in [phi_lo, phi_hi], sorted by phase.

        Each snapshot contributes its interior atoms j at phase j - sigma*t:
        the window's values and the states on either side of it.  The stable
        sort puts equal phases in snapshot order, as a sort of the whole
        pool does.
        """
        n, r_minus, v_minus, r_plus, v_plus = self._chain
        j = np.arange(n)[self.margin:n - self.margin]
        spans = []
        for t in self.times:
            phi = j - self.sigma * t
            spans.append((int(np.searchsorted(phi, phi_lo)),
                          int(np.searchsorted(phi, phi_hi, side="right"))))
        size = sum(b - a for a, b in spans)
        phi_all, r_all, v_all = np.empty(size), np.empty(size), np.empty(size)
        start = 0
        for t, (lo, r, v), (a, b) in zip(self.times, self._windows, spans):
            end = start + b - a
            k0 = start + lo - int(j[a])  # the window's first sample
            k1 = k0 + r.size
            phi_all[start:end] = j[a:b] - self.sigma * t
            for out, left, window, right in ((r_all, r_minus, r, r_plus),
                                             (v_all, v_minus, v, v_plus)):
                out[start:k0] = left
                out[k0:k1] = window
                out[k1:end] = right
            start = end
        order = np.argsort(phi_all, kind="stable")
        # one array at a time, so that each unsorted copy is freed as it goes
        phi_all = phi_all[order]
        r_all = r_all[order]
        v_all = v_all[order]
        return phi_all, r_all, v_all

    def _residual(self) -> tuple[int, np.ndarray]:
        """The energy-law residual on the uniform phase grid, from index ``g0``.

        Returns ``(g0, res)``: ``res`` is the grid residual from index ``g0``
        on, and every entry outside it is exactly 0.
        """
        n, r_minus, v_minus, r_plus, v_plus = self._chain
        sigma, dphi, m = self.sigma, self.dphi, self.margin
        shifts = [sigma * t for t in self.times]
        # The grid spans the phases of every snapshot's whole interior ...
        first = min(m - c for c in shifts)
        last = max(n - m - 1 - c for c in shifts)
        shift = int(round(1.0 / dphi))
        grid = np.arange(first + 1.5, last - 1.5, dphi)
        if grid.size <= 2 * shift:
            raise ValueError("snapshot phases span too short a profile")
        # ... but is interpolated only near the windows' phases.  Below p_lo
        # (above p_hi) every pooled sample, and so the profile, is exactly at
        # the left (right) state, which makes the energy gradient and the
        # residual exactly 0 there; 2*shift + 2 state points on each side of
        # the slice cover every residual that reads a point off the states.
        p_lo = min(lo - c for (lo, _, _), c in zip(self._windows, shifts)) - 2.0
        p_hi = max(lo + r.size - 1 - c for (lo, r, _), c in zip(self._windows, shifts)) + 2.0
        pad = 2 * shift + 2
        g0 = max(0, int(np.searchsorted(grid, p_lo)) - pad)
        g1 = min(grid.size, int(np.searchsorted(grid, p_hi, side="right")) + pad)
        grid = grid[g0:g1]
        phi_all, r_all, v_all = self._pool(p_lo, p_hi)
        r_g = np.interp(grid, phi_all, r_all, left=r_minus, right=r_plus)
        v_g = np.interp(grid, phi_all, v_all, left=v_minus, right=v_plus)
        e_g = 0.5 * v_g**2 + self.pot.phi(r_g)

        de = np.gradient(e_g, dphi)
        fp = self.pot.phi_prime(r_g)
        return g0, (sigma * de[shift:-shift]
                    + fp[shift:-shift] * v_g[2 * shift:]
                    - fp[:-2 * shift] * v_g[shift:-shift])

    def report(self) -> EnergyLawReport:
        if len(self.times) < 2:
            raise ValueError("need at least two snapshots")
        _, res = self._residual()
        residual_sup = float(np.max(np.abs(res), initial=0.0))

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
    margin_atoms: int = 20,
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
    law = EnergyLaw(pot, sigma, margin_atoms, dphi)
    for s in snapshots:
        law.add(s)
    return law.report()


def front_crossing(v: np.ndarray, level: float) -> float | None:
    """Position ``i + frac`` where the velocity profile first reaches ``level``.

    Linear interpolation between atoms ``i`` and ``i + 1``; None when the
    profile stays on one side of ``level``.
    """
    d = v - level
    idx = np.nonzero(d[:-1] * d[1:] <= 0)[0]
    if idx.size == 0:
        return None
    i = idx[0]
    frac = d[i] / (d[i] - d[i + 1]) if d[i] != d[i + 1] else 0.0
    return float(i + frac)


def front_speed(times: list[float], crossings: list[float | None]) -> float:
    """Slope of a least-squares line through the visible crossings."""
    visible = [(t, c) for t, c in zip(times, crossings) if c is not None]
    if len(visible) < 2:
        raise ValueError("front crossing not visible in snapshots")
    times, crossings = zip(*visible)
    return float(np.polyfit(times, crossings, 1)[0])


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
