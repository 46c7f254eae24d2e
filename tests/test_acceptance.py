"""Acceptance gate: one test per shipped capability, at its stated tolerance.

Two checks are expected to fail and are left failing deliberately; the
blocking analysis is in the "Acceptance suite" section of README.md:

* criterion 6 asserts the Lipschitz bound for *every* accepted iterate, but
  the mandated shock initial datum has difference quotient 1/h and any
  correct scheme needs a short geometric smoothing transient before entering
  the constraint set (entry and subsequent invariance are asserted in
  tests/test_solver.py and hold);
* criterion 7 asserts the tilted family collapses to +1, but the specified
  tilt direction puts the global defect minimum near u = -1.107, so the flow
  honestly grows a plateau there instead.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from fpufronts import (
    GraphViolatingPotential,
    GridProfile,
    NORMALIZED,
    QuarticPotential,
    SolverConfig,
    TiltedPotential,
    apply_averaging,
    check_energy_law,
    compute_invariant_bound,
    evolve,
    functional_L,
    functional_N,
    gradient,
    init_from_front,
    inner_product,
    is_monotone,
    jump_residuals,
    measure_front_speed,
    minimize,
    n_identity_check,
    quadratic_M,
    sample_front,
    separate_phases,
    shock_profile,
)
from fpufronts.phases import interior_plateau

from conftest import compact_perturbation, pinned_tanh_profile

L, D = 20.0, 3200
H = 2 * L / D


def test_criterion_01_operator_identities():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(100):
        w1 = compact_perturbation(rng, scale=0.5)
        w2 = compact_perturbation(rng, scale=0.5)
        sym = inner_product(apply_averaging(w1), w2) - inner_product(w1, apply_averaging(w2))
        assert abs(sym) <= 1e-12
        u1 = apply_averaging(w1)
        assert np.max(np.abs(u1.values)) <= np.max(np.abs(w1.values)) + 1e-14

    nodes = np.linspace(-L, L, D + 1)
    for k in (0.5, 1.0, 2.0, 5.0):
        w = GridProfile(L, D, np.sin(k * nodes),
                        left_value=float(np.sin(-k * L)),
                        right_value=float(np.sin(k * L)))
        u = apply_averaging(w)
        rho = 2 * np.sin(k / 2) / k
        interior = np.abs(nodes) <= L - 2
        err = np.max(np.abs(u.values[interior] - rho * np.sin(k * nodes[interior])))
        # leading trapezoid error of the window integral of e^{ik phi}
        assert err <= 1.05 * k * np.sin(k / 2) / 6 * H**2 + 1e-12, f"k={k}"
    assert time.monotonic() - start < 10.0


def test_criterion_02_functional_algebra():
    rng = np.random.default_rng(102)
    for _ in range(100):
        w1 = pinned_tanh_profile(rng)
        d = compact_perturbation(rng, scale=0.3)
        w2 = w1.with_values(w1.values + d.values)
        assert n_identity_check(w1, w2) <= 1e-10
        assert quadratic_M(d) >= -1e-12

    # closed-form oracle 1/3; the zero node at the jump costs h/2, so the
    # check runs on a mesh fine enough to push that artifact below tolerance
    sh_fine = shock_profile(2.5, 50_000)
    assert abs(functional_N(sh_fine) - 1 / 3) <= 1e-4

    pot = QuarticPotential(0.1)
    sh = shock_profile(L, D)
    k2 = 2 * sh.K
    shifted = sh.with_values(np.concatenate([np.full(k2, -1.0), sh.values[:-k2]]))
    assert abs(functional_L(shifted, pot) - functional_L(sh, pot)) <= 1e-10


def test_criterion_03_gradient_correctness():
    rng = np.random.default_rng(103)
    eps = 1e-5
    for beta in (0.05, 0.3):
        pot = QuarticPotential(beta)
        profiles = [shock_profile(L, D)] + [pinned_tanh_profile(rng) for _ in range(10)]
        for w in profiles:
            d = compact_perturbation(rng, scale=0.2)
            g = gradient(w, pot)
            directional = float(np.sum(g.values * d.values) * w.h)
            plus = functional_L(w.with_values(w.values + eps * d.values), pot)
            minus = functional_L(w.with_values(w.values - eps * d.values), pot)
            fd = (plus - minus) / (2 * eps)
            assert abs(fd - directional) <= 1e-5 * max(abs(directional), 1e-8)


def test_criterion_04_front_convex_force():
    start = time.monotonic()
    pot = QuarticPotential(0.05)
    gamma = compute_invariant_bound(pot)
    res = minimize(SolverConfig(gamma=gamma), pot)
    assert res.outcome == "front_converged"
    assert res.final_grad_norm <= 1e-8
    assert is_monotone(res.profile)
    sep = separate_phases(apply_averaging(res.profile), gamma)
    assert sep.m == 1
    assert time.monotonic() - start <= 60.0


def test_criterion_05_front_nonconvex_force(front_03):
    res = front_03["result"]
    assert res.outcome == "front_converged"
    assert not is_monotone(res.profile)
    assert np.max(res.profile.values) > 1.0  # overshoot
    sep = separate_phases(apply_averaging(res.profile), front_03["gamma"])
    assert sep.m == 1


def test_criterion_06_constraint_set_invariance(front_005, front_03):
    # Asserted literally for every accepted iterate. The Lipschitz half is
    # expected to fail on the shock-smoothing transient; see module docstring.
    for name, fx in (("beta=0.05", front_005), ("beta=0.3", front_03)):
        gamma = fx["gamma"]
        sups = np.array(fx["sups"][1:])   # accepted iterates only
        quots = np.array(fx["quots"][1:])
        assert np.all(sups <= gamma + 1e-12), name
        bad = np.nonzero(quots > 2 * gamma + 1e-9)[0]
        assert bad.size == 0, (
            f"{name}: difference quotient exceeds 2*Gamma on accepted iterates "
            f"{bad + 1} (shock-smoothing transient; max quotient "
            f"{quots.max():.1f} vs bound {2 * gamma:.4f}; all later iterates comply)"
        )


def test_criterion_07_counterexample_phenomenology():
    # graph-condition violation: extending plateau at the defect minimizer
    pot = GraphViolatingPotential(0.1, -0.5)
    cfg = SolverConfig(gamma=2.0)
    runs = []

    def trace(it, values):
        pl = interior_plateau(GridProfile(cfg.L, cfg.D, values))
        runs.append(pl[1] if pl else 0)

    res = minimize(cfg, pot, callback=trace)
    assert res.outcome == "plateau_diverging"
    w_star = res.plateau_value
    assert abs(w_star - float(pot.phi_prime(w_star))) <= 1e-3

    actions = np.array([rep.L for rep in res.history])
    i0, i1 = 60, min(140, len(actions) - 1)
    slope = (actions[i0] - actions[i1]) / (i1 - i0)
    growth = (runs[i1] - runs[i0]) / (i1 - i0) * H  # phase units per iteration
    predicted = abs(float(pot.psi(w_star))) * growth
    assert slope == pytest.approx(predicted, rel=0.2)

    # Remark-style sequence: each unit of extra plateau buys 2 Psi(u*)
    gamma = compute_invariant_bound(pot)
    L2, D2 = 28.0, 4480
    nodes = np.linspace(-L2, L2, D2 + 1)

    def plateau_profile(n):
        ramp = n + 1.0 / gamma
        v = np.where(np.abs(nodes) <= n, 0.0, np.sign(nodes))
        mid = (np.abs(nodes) > n) & (np.abs(nodes) < ramp)
        v[mid] = np.sign(nodes[mid]) * (np.abs(nodes[mid]) - n) / (ramp - n)
        prof = GridProfile(L2, D2, v)
        k2 = 2 * prof.K
        vv = prof.values.copy()
        vv[:k2] = -1.0
        vv[-k2:] = 1.0
        return prof.with_values(vv)

    target = 2 * float(pot.psi(0.0))
    values = {n: functional_L(plateau_profile(n), pot) for n in range(20, 25)}
    for n in range(20, 24):
        diff = values[n + 1] - values[n]
        assert diff == pytest.approx(target, rel=0.05), f"n={n}"

    # tilted family: asserted as specified (collapse to +1); the actual
    # phenomenology is a plateau at the global defect minimizer near -1.107,
    # so this check fails by design. See module docstring.
    res_t = minimize(SolverConfig(gamma=2.0), TiltedPotential(0.1, 0.1))
    assert res_t.outcome == "collapsed_to_constant", (
        f"tilted(0.1, 0.1) gave {res_t.outcome!r} with plateau value "
        f"{res_t.plateau_value}; collapse to +1 needs the opposite tilt sign"
    )
    assert res_t.plateau_value == pytest.approx(1.0, abs=1e-3)


def test_criterion_08_macroscopic_consistency(front_005, front_03):
    for fx in (front_005, front_03):
        pot = fx["pot"]
        fd = NORMALIZED
        res = jump_residuals(fd, pot)
        assert max(abs(r) for r in res) <= 1e-9

        fp_m = float(pot.phi_prime(fd.r_minus))
        fp_p = float(pot.phi_prime(fd.r_plus))

        def integrand(r, pot=pot, fd=fd, fp_m=fp_m, fp_p=fp_p):
            secant = fp_m + (fp_p - fp_m) * (r - fd.r_minus) / (fd.r_plus - fd.r_minus)
            return float(pot.phi_prime(r)) - secant

        area, _ = quad(integrand, fd.r_minus, fd.r_plus)
        assert abs(area) <= 1e-8


def test_criterion_09_dynamic_verification(front_005):
    start = time.monotonic()
    res = front_005["result"]
    pot = front_005["pot"]
    n = 400
    state = init_from_front(res, NORMALIZED, n_atoms=n, dt=0.01)
    final, snaps = evolve(state, pot, 20.0, gamma=front_005["gamma"],
                          snapshot_stride=73)
    snaps = [state] + snaps

    j = np.arange(n, dtype=float)
    r_ref, _ = sample_front(res, NORMALIZED, j - n / 2 - final.t)
    margin = slice(20, n - 20)
    assert np.max(np.abs(final.r[margin] - r_ref[margin])) <= 0.05

    speed = measure_front_speed(snaps)
    assert abs(speed - 1.0) <= 0.02

    report = check_energy_law(snaps, pot, sigma=1.0)
    assert report.energy_drift_rel <= 1e-4
    assert time.monotonic() - start <= 120.0


def test_criterion_10_mesh_convergence():
    pot = QuarticPotential(0.05)
    gamma = compute_invariant_bound(pot)
    profiles = {}
    for d in (800, 1600, 3200):
        r = minimize(SolverConfig(gamma=gamma, D=d), pot)
        assert r.outcome == "front_converged"
        profiles[d] = r.profile.values
    d1 = np.max(np.abs(profiles[800] - profiles[1600][::2]))
    d2 = np.max(np.abs(profiles[1600] - profiles[3200][::2]))
    order = np.log2(d1 / d2)
    assert order >= 1.8
