import contextlib
from unittest import mock

import numpy as np
import pytest

from fpufronts import (
    AssumptionReport,
    FrontVerification,
    GridProfile,
    Potential,
    QuarticPotential,
    SolverConfig,
    boundary_flux,
    check_energy_law,
    compute_invariant_bound,
    evolve,
    front_crossing,
    front_speed,
    init_from_front,
    minimize,
    sample_front,
    shock_profile,
    total_energy,
)
from fpufronts.action import Evaluation
from fpufronts.errors import InvariantBoundNotFound

L_DEFAULT = 20.0
D_DEFAULT = 3200


def pinned_tanh_profile(rng, L=L_DEFAULT, D=D_DEFAULT, n_bumps=3):
    """Random heteroclinic profile with exactly constant tails.

    A tanh backbone plus a few interior bumps; the outer two window widths
    are forced to the extension values so the compact-support functionals
    apply exactly.
    """
    nodes = np.linspace(-L, L, D + 1)
    steep = 0.5 + rng.uniform(0.0, 1.5)
    v = np.tanh(steep * nodes)
    for _ in range(n_bumps):
        center = rng.uniform(-L / 2, L / 2)
        width = rng.uniform(0.5, 2.0)
        amp = rng.uniform(-0.3, 0.3)
        v = v + amp * np.exp(-((nodes - center) / width) ** 2)
    prof = GridProfile(L, D, v)
    k2 = 2 * prof.K
    v = prof.values.copy()
    v[:k2] = -1.0
    v[-k2:] = 1.0
    return prof.with_values(v)


def compact_perturbation(rng, L=L_DEFAULT, D=D_DEFAULT, scale=0.1):
    """Random smooth profile vanishing on the boundary region, zero extension."""
    nodes = np.linspace(-L, L, D + 1)
    v = np.zeros(D + 1)
    for _ in range(4):
        center = rng.uniform(-L / 2, L / 2)
        width = rng.uniform(0.3, 2.0)
        v = v + rng.uniform(-scale, scale) * np.exp(-((nodes - center) / width) ** 2)
    prof = GridProfile(L, D, v, left_value=0.0, right_value=0.0)
    k2 = 2 * prof.K
    v = prof.values.copy()
    v[:k2] = 0.0
    v[-k2:] = 0.0
    return prof.with_values(v)


class LinearForcePotential(Potential):
    """phi(u) = u^2/2, so psi vanishes identically.

    Degenerate case: the force is the identity and no invariant bound
    strictly above 1 exists.
    """

    family = "linear_force"

    def phi(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u**2

    def phi_prime(self, u, out=None):
        # np.positive copies every float exactly, -0.0 and NaN included; the
        # force of a scalar or a 0-d u stays a 0-d array, as u is
        u = np.asarray(u, dtype=float)
        return np.asarray(np.positive(u, out=out))


class NaNBeyondPotential(Potential):
    """phi(u) = 3 u^2 / 2, not a number past |u| > 1.5.

    The force 3u drives the flow out of [-1.5, 1.5] on its first step.
    """

    def phi(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(np.abs(u) > 1.5, np.nan, 1.5 * u**2)

    def phi_prime(self, u, out=None):
        u = np.asarray(u, dtype=float)
        return np.positive(np.where(np.abs(u) > 1.5, np.nan, 3.0 * u), out=out)


class UphillForcePotential(Potential):
    """phi = 0, so the action is half the squared L2 norm of the extended W,
    but the force returned is 3u, not phi' = 0.

    The Euler direction 3 A^2 W - W then has a positive inner product with
    the true gradient W wherever W is nearly +-1, as on the shock, so every
    candidate raises the (convex, quadratic) action at every step size.
    """

    def phi(self, u):
        return np.zeros_like(np.asarray(u, dtype=float))

    def phi_prime(self, u, out=None):
        return np.multiply(3.0, np.asarray(u, dtype=float), out=out)


@contextlib.contextmanager
def no_least_squares():
    """``np.polyfit`` and ``np.linalg.lstsq`` raise while the block runs."""
    with (mock.patch("numpy.polyfit", side_effect=AssertionError("np.polyfit called")),
          mock.patch("numpy.linalg.lstsq", side_effect=AssertionError("lstsq called"))):
        yield


def whole_chain_verify(result, fd, pot, *, gamma, n_atoms, T, dt, stride):
    """``verify_front`` written out on ``evolve``'s snapshot list.

    Every reduction runs over the whole chain: the sup error over all atoms
    inside the margins against ``sample_front``, and ``front_crossing`` over
    every atom.  The chain's strain bound is ``gamma`` mapped to the physical
    states as ``verify_front`` maps it.  ``verify_front`` must return the
    same floats.
    """
    state = init_from_front(result, fd, n_atoms=n_atoms, dt=dt)
    r_bar, dr = 0.5 * (fd.r_minus + fd.r_plus), fd.r_plus - fd.r_minus
    strain_gamma = max(gamma, abs(r_bar) / 10 + gamma * abs(dr) / 2) if gamma > 0 else gamma
    _, snaps = evolve(state, pot, T, gamma=strain_gamma, snapshot_stride=stride)
    snaps = [state] + snaps
    j = np.arange(n_atoms, dtype=float)
    margin = slice(20, n_atoms - 20)
    level = 0.5 * (fd.v_minus + fd.v_plus)
    times = [s.t for s in snaps]
    sup_errors = []
    for s in snaps:
        r_ref, _ = sample_front(result, fd, j - n_atoms / 2.0 - fd.sigma * s.t)
        sup_errors.append(float(np.max(np.abs(s.r[margin] - r_ref[margin]))))
    crossings = [front_crossing(s.v, level) for s in snaps]
    return FrontVerification(
        times=times, sup_errors=sup_errors, crossings=crossings,
        energies=[total_energy(s, pot) for s in snaps],
        fluxes=[boundary_flux(s, pot) for s in snaps],
        speed=front_speed(times, crossings),
        energy=check_energy_law(snaps, pot, fd.sigma),
    )


def whole_array_check_assumptions(pot, scan_halfwidth=6.0, n_samples=100_000, tol=1e-10):
    """``check_assumptions`` on whole sample arrays: psi and psi' at every
    sample at once, ``np.argmin`` over all of psi.

    The blocked scan must give the same report; its invariant bound comes
    from ``whole_array_invariant_bound`` over the same sample count.
    """
    u = np.linspace(-scan_halfwidth, scan_halfwidth, n_samples)
    spacing = u[1] - u[0]
    psi = np.asarray(pot.psi(u))
    psi_prime = np.asarray(pot.psi_prime(u))

    i_min = int(np.argmin(psi))
    psi_min = float(psi[i_min])
    psi_argmin = float(u[i_min])
    graph_ok = bool(psi_min >= -tol)

    delta = 10.0 * spacing
    curv = pot.psi_second(np.array([-1.0, 1.0]))
    away = (np.abs(np.abs(u) - 1.0) > delta)
    genericity_ok = bool(np.all(curv > tol) and np.all(psi[away] > tol))

    supersonic_ok = bool(np.all(pot.phi_second(np.array([-1.0, 1.0])) < 1.0 + tol))

    right = psi_prime[u > 1.0]
    left = psi_prime[u < -1.0]
    monotone_tails_ok = bool(
        right.size > 0
        and left.size > 0
        and right[-1] > 0
        and left[0] < 0
    )

    try:
        gamma = whole_array_invariant_bound(pot, scan_halfwidth, n_samples)
    except InvariantBoundNotFound:
        gamma = None

    return AssumptionReport(
        graph_ok=graph_ok,
        genericity_ok=genericity_ok,
        monotone_tails_ok=monotone_tails_ok,
        supersonic_ok=supersonic_ok,
        gamma=gamma,
        psi_min=psi_min,
        psi_argmin=psi_argmin,
        scan_interval=(-scan_halfwidth, scan_halfwidth),
        tolerance=tol,
    )


def whole_array_invariant_bound(pot, search_limit=6.0, n_samples=100_000):
    """``compute_invariant_bound`` on whole sample arrays: the tail condition
    at every sample at once, and ``np.max`` over every sample of the force."""
    u = np.linspace(1.0, search_limit, n_samples)[1:]
    ok = (pot.psi_prime(u) > 0) & (pot.psi_prime(-u) < 0)
    if not ok[-1]:
        raise InvariantBoundNotFound("tail condition fails at the search limit")
    bad = np.nonzero(~ok)[0]
    gamma_tilde = float(u[bad[-1] + 1]) if bad.size else float(u[0])

    gamma = gamma_tilde
    for _ in range(64):
        dense = np.linspace(-gamma, gamma, n_samples)
        reach = float(np.max(np.abs(pot.phi_prime(dense))))
        if np.isnan(reach):
            raise InvariantBoundNotFound(f"the force is NaN on [-Gamma, Gamma], Gamma = {gamma!r}")
        if reach <= gamma * (1.0 + 1e-12):
            return gamma
        if reach > search_limit:
            raise InvariantBoundNotFound("force escapes the searched range")
        gamma = reach
    raise InvariantBoundNotFound("containment iteration did not settle")


def fresh_sums_window_average(x, K):
    """``window_average`` with its window sums in an array of their own,
    not in the buffer of its cell means.

    ``window_average`` must return the same floats.
    """
    n = x.size
    c = n // 2
    left, right = x[0], x[-1]
    B = 2 * K
    q = 0.5 / B
    n_blocks = (n - 2) // B + 2
    cells = np.zeros(n_blocks * B)
    dev = cells[: n - 1]
    np.add(x[:-1], x[1:], out=dev)
    dev *= q
    dev[: c - 1] -= (left + left) * q
    dev[c - 1] -= (left + right) * q
    dev[c:] -= (right + right) * q
    blocks = cells.reshape(n_blocks, B)
    prefix = np.cumsum(blocks, axis=1)
    total = prefix[:-1, -1:].copy()
    prefix -= blocks
    windows = prefix[1:] - prefix[:-1]
    windows += total
    out = windows.reshape(-1)[: n - B]
    lo = c - B
    out[:lo] += left
    out[c:] += right
    out[lo:c] += left + (right - left) * (np.arange(1, 2 * B, 2) / (2 * B))
    return out


def kept_target_minimize(cfg, pot):
    """``minimize``'s step loop with the accepted iterate's step target kept
    between steps, so a rejected step reuses it instead of evaluating W again.

    Returns the profile, the history, ``lambda_history`` and the rejected
    steps of a run that converges or runs to ``max_iters`` (no plateau
    check); ``minimize`` must give the same floats.
    """
    def evaluated(w):
        ev = Evaluation(w, pot)
        return ev.report(), ev.step_target

    w = shock_profile(cfg.L, cfg.D)
    head, tail = w.pinned
    w.values[head], w.values[tail] = w.left_value, w.right_value
    report, target = evaluated(w)
    lam = cfg.lambda0
    history, lambdas = [report], [lam]
    it = rejected = streak = 0
    while it < cfg.max_iters:
        v = (1.0 - lam) * w.values + lam * target
        v[head], v[tail] = w.left_value, w.right_value
        cand = w.with_values(v)
        cand_report, cand_target = evaluated(cand)
        if cand_report.L > report.L + 1e-15 * max(1.0, abs(report.L)):
            lam *= 0.5
            rejected += 1
            streak = 0
            continue
        it += 1
        w, report, target = cand, cand_report, cand_target
        history.append(report)
        lambdas.append(lam)
        if report.grad_norm <= cfg.grad_tol:
            break
        streak += 1
        if streak == 5:
            streak = 0
            lam = min(1.5 * lam, 0.95)
    return w, history, lambdas, rejected


@pytest.fixture(scope="session")
def front_005():
    """Converged front for the mildly non-convex quartic, with iterate trace."""
    pot = QuarticPotential(0.05)
    gamma = compute_invariant_bound(pot)
    cfg = SolverConfig(gamma=gamma)
    sups, quots = [], []

    def trace(it, values):
        sups.append(float(np.max(np.abs(values))))
        quots.append(float(np.max(np.abs(np.diff(values)))) / (2 * cfg.L / cfg.D))

    result = minimize(cfg, pot, callback=trace)
    return {"pot": pot, "gamma": gamma, "cfg": cfg, "result": result,
            "sups": sups, "quots": quots}


@pytest.fixture(scope="session")
def front_03():
    pot = QuarticPotential(0.3)
    gamma = compute_invariant_bound(pot)
    cfg = SolverConfig(gamma=gamma)
    sups, quots = [], []

    def trace(it, values):
        sups.append(float(np.max(np.abs(values))))
        quots.append(float(np.max(np.abs(np.diff(values)))) / (2 * cfg.L / cfg.D))

    result = minimize(cfg, pot, callback=trace)
    return {"pot": pot, "gamma": gamma, "cfg": cfg, "result": result,
            "sups": sups, "quots": quots}
