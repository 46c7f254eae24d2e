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
"""

from __future__ import annotations

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
) -> ChainState | tuple[ChainState, list[ChainState]]:
    """Advance the chain by time ``T`` with fixed-step staggered leapfrog.

    Each step is a half velocity kick, a full strain drift, and a second half
    kick; the scheme is time-reversible up to rounding.  The force of the
    second kick is that of the next step's first kick, so it is evaluated
    once per step.  Raises BlowUp when a strain leaves ten times the
    invariant interval.  With ``snapshot_stride`` set, also returns the
    intermediate states every that many steps.

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
    snapshots = []
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
            snapshots.append(ChainState(r.copy(), v.copy(),
                                        state.t + (step + 1) * dt, dt,
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
    if snapshot_stride:
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


def check_energy_law(
    snapshots: list[ChainState],
    pot: Potential,
    sigma: float,
    margin_atoms: int = 20,
    dphi: float = 0.05,
) -> EnergyLawReport:
    """Residual of the travelling-wave energy law along the reconstructed profile.

    Pools all snapshots into scattered samples of the wave profile at phases
    j - sigma*t, interpolates onto a uniform phase grid, and evaluates

        sigma * d/dphi (v^2/2 + phi(r)) + phi'(r(phi)) v(phi+1)
            - phi'(r(phi-1)) v(phi)

    by central differences and exact unit shifts.  Also reports the relative
    drift of the total energy corrected by the accumulated boundary flux.
    """
    if len(snapshots) < 2:
        raise ValueError("need at least two snapshots")
    n = snapshots[0].n_atoms
    j = np.arange(n)
    interior = slice(margin_atoms, n - margin_atoms)

    phis = []
    rs = []
    vs = []
    for s in snapshots:
        phis.append(j[interior] - sigma * s.t)
        rs.append(s.r[interior])
        vs.append(s.v[interior])
    phi_all = np.concatenate(phis)
    order = np.argsort(phi_all, kind="stable")
    phi_all = phi_all[order]
    r_all = np.concatenate(rs)[order]
    v_all = np.concatenate(vs)[order]

    shift = int(round(1.0 / dphi))
    lo = phi_all[0] + 1.5
    hi = phi_all[-1] - 1.5
    grid = np.arange(lo, hi, dphi)
    r_g = np.interp(grid, phi_all, r_all)
    v_g = np.interp(grid, phi_all, v_all)
    e_g = 0.5 * v_g**2 + pot.phi(r_g)

    de = np.gradient(e_g, dphi)
    fp = pot.phi_prime(r_g)
    res = (sigma * de[shift:-shift]
           + fp[shift:-shift] * v_g[2 * shift:]
           - fp[:-2 * shift] * v_g[shift:-shift])
    residual_sup = float(np.max(np.abs(res)))

    # Energy bookkeeping: drift of total energy minus time-integrated flux.
    e0 = total_energy(snapshots[0], pot)
    times = np.array([s.t for s in snapshots])
    energies = np.array([total_energy(s, pot) for s in snapshots])
    fluxes = np.array([boundary_flux(s, pot) for s in snapshots])
    flux_int = np.concatenate([[0.0], np.cumsum(
        0.5 * (fluxes[1:] + fluxes[:-1]) * np.diff(times))])
    drift = np.max(np.abs(energies - e0 - flux_int))
    return EnergyLawReport(residual_sup=residual_sup,
                           energy_drift_rel=float(drift / max(abs(e0), 1.0)))


def measure_front_speed(snapshots: list[ChainState], level: float | None = None) -> float:
    """Front speed from the drift of the mid-level crossing of the velocity profile.

    ``level`` defaults to the mean of the asymptotic velocities.
    """
    if len(snapshots) < 2:
        raise ValueError("need at least two snapshots")
    s0 = snapshots[0]
    if level is None:
        level = 0.5 * (s0.v_minus + s0.v_plus)
    times = []
    crossings = []
    for s in snapshots:
        d = s.v - level
        idx = np.nonzero(d[:-1] * d[1:] <= 0)[0]
        if idx.size == 0:
            continue
        i = idx[0]
        frac = d[i] / (d[i] - d[i + 1]) if d[i] != d[i + 1] else 0.0
        crossings.append(i + frac)
        times.append(s.t)
    if len(times) < 2:
        raise ValueError("front crossing not visible in snapshots")
    slope = np.polyfit(times, crossings, 1)[0]
    return float(slope)
