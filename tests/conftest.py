import numpy as np
import pytest

from fpufronts import GridProfile, Potential, QuarticPotential, SolverConfig, compute_invariant_bound, minimize

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


class NaNBeyondPotential(Potential):
    """phi(u) = 3 u^2 / 2, not a number past |u| > 1.5.

    The force 3u drives the flow out of [-1.5, 1.5] on its first step.
    """

    def phi(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(np.abs(u) > 1.5, np.nan, 1.5 * u**2)

    def phi_prime(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(np.abs(u) > 1.5, np.nan, 3.0 * u)


class UphillForcePotential(Potential):
    """phi = 0, so the action is half the squared L2 norm of the extended W,
    but the force returned is 3u, not phi' = 0.

    The Euler direction 3 A^2 W - W then has a positive inner product with
    the true gradient W wherever W is nearly +-1, as on the shock, so every
    candidate raises the (convex, quadratic) action at every step size.
    """

    def phi(self, u):
        return np.zeros_like(np.asarray(u, dtype=float))

    def phi_prime(self, u):
        return 3.0 * np.asarray(u, dtype=float)


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
