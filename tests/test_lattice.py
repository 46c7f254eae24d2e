import numpy as np
import pytest

from fpufronts import (
    ChainState,
    NORMALIZED,
    QuarticPotential,
    RunResult,
    boundary_flux,
    check_energy_law,
    evolve,
    init_from_front,
    measure_front_speed,
    sample_front,
    shock_profile,
    total_energy,
)
from fpufronts.errors import NotAFront


def constant_state(r0, v0, n=100, dt=0.01):
    return ChainState(r=np.full(n, r0), v=np.full(n, v0), t=0.0, dt=dt,
                      r_minus=r0, v_minus=v0, r_plus=r0, v_plus=v0)


def test_constant_state_is_equilibrium():
    pot = QuarticPotential(0.2)
    state = constant_state(0.7, -0.3)
    out = evolve(state, pot, 5.0)
    assert np.max(np.abs(out.r - 0.7)) < 1e-14
    assert np.max(np.abs(out.v + 0.3)) < 1e-14


def test_init_requires_converged_front():
    sh = shock_profile(20.0, 3200)
    fake = RunResult(profile=sh, history=[], outcome="max_iters_reached",
                     final_grad_norm=1.0)
    with pytest.raises(NotAFront):
        init_from_front(fake, NORMALIZED)


def test_dt_cap():
    pot = QuarticPotential(0.2)
    state = constant_state(0.0, 0.0, dt=0.2)
    with pytest.raises(ValueError):
        evolve(state, pot, 1.0)


def test_sample_front_limits(front_005):
    res = front_005["result"]
    phi = np.array([-100.0, 100.0])
    r, v = sample_front(res, NORMALIZED, phi)
    assert r == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert v == pytest.approx([1.0, -1.0], abs=1e-12)


def test_front_translates_rigidly(front_005):
    res = front_005["result"]
    pot = front_005["pot"]
    n = 400
    state = init_from_front(res, NORMALIZED, n_atoms=n, dt=0.01)
    final = evolve(state, pot, 10.0, gamma=front_005["gamma"])
    j = np.arange(n, dtype=float)
    r_ref, v_ref = sample_front(res, NORMALIZED, j - n / 2 - 1.0 * final.t)
    margin = slice(20, n - 20)
    assert np.max(np.abs(final.r[margin] - r_ref[margin])) < 0.05
    assert np.max(np.abs(final.v[margin] - v_ref[margin])) < 0.05


def test_time_reversibility(front_005):
    res = front_005["result"]
    pot = front_005["pot"]
    state = init_from_front(res, NORMALIZED, n_atoms=200, dt=0.01)
    fwd = evolve(state, pot, 1.0, gamma=front_005["gamma"])
    # reverse: negate velocities including the clamped ghosts, evolve, negate
    back = ChainState(r=fwd.r.copy(), v=-fwd.v, t=0.0, dt=fwd.dt,
                      r_minus=fwd.r_minus, v_minus=-fwd.v_minus,
                      r_plus=fwd.r_plus, v_plus=-fwd.v_plus)
    out = evolve(back, pot, 1.0, gamma=front_005["gamma"])
    assert np.max(np.abs(out.r - state.r)) < 1e-8
    assert np.max(np.abs(out.v + state.v)) < 1e-8


def test_evolve_matches_two_force_leapfrog(front_005):
    # reusing the end-of-step force as the next half kick changes no bit
    res = front_005["result"]
    pot = front_005["pot"]
    state = init_from_front(res, NORMALIZED, n_atoms=200, dt=0.01)
    out = evolve(state, pot, 1.0, gamma=front_005["gamma"])

    def forces(r):
        fp = pot.phi_prime(r)
        return fp - np.concatenate([[pot.phi_prime(state.r_minus)], fp[:-1]])

    def strain_rate(v):
        return np.append(v[1:], state.v_plus) - v

    r, v, dt = state.r.copy(), state.v.copy(), state.dt
    for _ in range(100):
        v = v + 0.5 * dt * forces(r)
        r = r + dt * strain_rate(v)
        v = v + 0.5 * dt * forces(r)
    assert np.array_equal(out.r, r)
    assert np.array_equal(out.v, v)


def test_second_order_convergence(front_005):
    res = front_005["result"]
    pot = front_005["pot"]
    errors = []
    for dt in (0.04, 0.02, 0.01):
        state = init_from_front(res, NORMALIZED, n_atoms=200, dt=dt)
        out = evolve(state, pot, 2.0, gamma=front_005["gamma"])
        errors.append(out.r.copy())
    e1 = np.max(np.abs(errors[0] - errors[2]))
    e2 = np.max(np.abs(errors[1] - errors[2]))
    assert e1 / e2 > 3.0  # ~4x for a second-order scheme


def test_measured_speed_matches_sigma(front_005):
    res = front_005["result"]
    pot = front_005["pot"]
    state = init_from_front(res, NORMALIZED, n_atoms=400, dt=0.01)
    _, snaps = evolve(state, pot, 20.0, gamma=front_005["gamma"], snapshot_stride=73)
    speed = measure_front_speed([state] + snaps)
    assert speed == pytest.approx(1.0, rel=0.02)


def test_energy_law_residual_and_drift(front_005):
    res = front_005["result"]
    pot = front_005["pot"]
    state = init_from_front(res, NORMALIZED, n_atoms=400, dt=0.01)
    _, snaps = evolve(state, pot, 20.0, gamma=front_005["gamma"], snapshot_stride=73)
    report = check_energy_law([state] + snaps, pot, sigma=1.0)
    assert report.residual_sup <= 0.02
    assert report.energy_drift_rel <= 1e-4


def test_energy_law_zero_for_constant_state():
    pot = QuarticPotential(0.2)
    state = constant_state(0.3, 0.1, n=200)
    snaps = [state]
    s = state
    for _ in range(5):
        s = evolve(s, pot, 1.3)
        snaps.append(s)
    report = check_energy_law(snaps, pot, sigma=1.0)
    assert report.residual_sup < 1e-12
    assert report.energy_drift_rel < 1e-12


def test_total_energy_and_flux_bookkeeping():
    pot = QuarticPotential(0.2)
    state = constant_state(0.5, 0.2, n=50)
    e = total_energy(state, pot)
    assert e == pytest.approx(50 * (0.5 * 0.04 + float(pot.phi(0.5))), abs=1e-12)
    # constant state: flux in equals flux out
    assert boundary_flux(state, pot) == pytest.approx(0.0, abs=1e-14)
