"""Direct time integration of the atom chain and travelling-wave verification.

The chain evolves by

    dr_j/dt = v_{j+1} - v_j,      dv_j/dt = phi'(r_j) - phi'(r_{j-1}),

with ghost values clamped to the asymptotic states at both ends.  A converged
front profile initializes the chain, which should then translate rigidly at
the front speed; the integrator is a staggered leapfrog (velocity-Verlet on
atom positions), second order and time-reversible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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

    def copy(self) -> "ChainState":
        return replace(self, r=self.r.copy(), v=self.v.copy())


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


def _forces(r: np.ndarray, pot: Potential, r_minus: float) -> np.ndarray:
    """dv_j/dt = phi'(r_j) - phi'(r_{j-1}) with the left ghost clamped."""
    fp = pot.phi_prime(r)
    fp_left = np.empty_like(fp)
    fp_left[0] = pot.phi_prime(r_minus)
    fp_left[1:] = fp[:-1]
    return fp - fp_left


def _strain_rate(v: np.ndarray, v_plus: float) -> np.ndarray:
    """dr_j/dt = v_{j+1} - v_j with the right ghost clamped."""
    out = np.empty_like(v)
    out[:-1] = v[1:] - v[:-1]
    out[-1] = v_plus - v[-1]
    return out


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
    """
    if state.dt > 0.05:
        raise ValueError("dt must be at most 0.05")
    n_steps = int(round(T / state.dt))
    dt = state.dt
    r = state.r.copy()
    v = state.v.copy()
    snapshots = []
    force = _forces(r, pot, state.r_minus)
    for step in range(n_steps):
        v = v + 0.5 * dt * force
        r = r + dt * _strain_rate(v, state.v_plus)
        force = _forces(r, pot, state.r_minus)
        v = v + 0.5 * dt * force
        if np.max(np.abs(r)) > 10.0 * gamma:
            raise BlowUp(f"strain exceeded 10*gamma at step {step}")
        if snapshot_stride and (step + 1) % snapshot_stride == 0:
            snapshots.append(ChainState(r.copy(), v.copy(),
                                        state.t + (step + 1) * dt, dt,
                                        state.r_minus, state.v_minus,
                                        state.r_plus, state.v_plus))
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
