from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from fpufronts import (
    ChainState,
    EnergyLaw,
    GraphViolatingPotential,
    NORMALIZED,
    QuarticPotential,
    RunResult,
    SolverConfig,
    TabulatedPotential,
    TiltedPotential,
    boundary_flux,
    check_energy_law,
    compute_invariant_bound,
    evolve,
    front_crossing,
    front_speed,
    init_from_front,
    measure_front_speed,
    minimize,
    normalize_potential,
    sample_front,
    shock_profile,
    solve_front_data,
    total_energy,
    verify_front,
)
from fpufronts import lattice
from fpufronts.errors import BlowUp, NotAFront

from conftest import no_least_squares, whole_chain_verify


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


# a step above the cap, or one that is not positive or not a number, and a
# span that is negative or not finite
@pytest.mark.parametrize("dt, T", [(0.2, 1.0), (-0.01, 1.0), (0.0, 1.0), (np.nan, 1.0),
                                   (0.01, -1.0), (0.01, np.inf), (0.01, np.nan)],
                         ids=["dt_above_cap", "dt_negative", "dt_zero", "dt_nan",
                              "T_negative", "T_inf", "T_nan"])
def test_dt_cap(dt, T):
    pot = QuarticPotential(0.2)
    state = constant_state(0.0, 0.0, dt=dt)
    with pytest.raises(ValueError):
        evolve(state, pot, T)


def test_chain_clock_refuses_a_step_count_that_is_not_finite():
    # 1e300 / 1e-320 overflows to inf, which round() cannot make an integer
    with pytest.raises(ValueError, match=r"^T/dt = 1e\+300/1e-320 is no finite step count$"):
        lattice.chain_clock(1e-320, 1e300)


# A strain bound 10*gamma that no strain can meet; NaN compares false with it
@pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
def test_gamma_that_is_not_positive_is_refused_before_the_first_step(gamma):
    state = constant_state(0.0, 0.0)
    seen = []
    with pytest.raises(ValueError, match=f"^gamma must be a number > 0, not {gamma!r}$"):
        evolve(state, QuarticPotential(0.2), 1.0, gamma=gamma, snapshot_stride=1,
               observe=seen.append)
    assert seen == []


def test_verify_front_refuses_a_run_shorter_than_its_stride(front_005):
    # 50 steps at a stride of 73 take no snapshot after the start
    res, pot, gamma = front_005["result"], front_005["pot"], front_005["gamma"]
    with pytest.raises(ValueError, match="^a run of 50 steps is shorter than its stride, 73$"):
        verify_front(res.profile, NORMALIZED, pot, gamma=gamma, n_atoms=100, T=0.5, dt=0.01,
                     stride=73)


def test_dt_cap_and_empty_span_are_accepted():
    pot = QuarticPotential(0.2)
    assert evolve(constant_state(0.0, 0.0, dt=0.05), pot, 0.1).t == pytest.approx(0.1)
    assert evolve(constant_state(0.0, 0.0), pot, 0.0).t == 0.0


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


def full_chain_leapfrog(state, pot, T, gamma, snapshot_stride=None):
    """Two-force kick-drift-kick on every atom: the reference ``evolve`` must match.

    Returns (r, v, snapshots as (r, v) pairs, step of the first strain beyond
    10*gamma or None).
    """

    def forces(r):
        fp = pot.phi_prime(r)
        return fp - np.concatenate([[pot.phi_prime(state.r_minus)], fp[:-1]])

    def strain_rate(v):
        return np.append(v[1:], state.v_plus) - v

    r, v, dt = state.r.copy(), state.v.copy(), state.dt
    snapshots = []
    for step in range(int(round(T / dt))):
        v = v + 0.5 * dt * forces(r)
        r = r + dt * strain_rate(v)
        v = v + 0.5 * dt * forces(r)
        if np.max(np.abs(r)) > 10.0 * gamma:
            return r, v, snapshots, step
        if snapshot_stride and (step + 1) % snapshot_stride == 0:
            snapshots.append((r.copy(), v.copy()))
    return r, v, snapshots, None


def exact_run(r, v, r_state, v_state):
    """Number of leading atoms exactly at the state (r_state, v_state)."""
    at = (r == r_state) & (v == v_state)
    return at.size if at.all() else int(at.argmin())


def test_evolve_matches_two_force_leapfrog(front_005):
    # reusing the end-of-step force as the next half kick changes no bit
    res = front_005["result"]
    pot = front_005["pot"]
    state = init_from_front(res, NORMALIZED, n_atoms=200, dt=0.01)
    out = evolve(state, pot, 1.0, gamma=front_005["gamma"])
    r, v, _, blowup = full_chain_leapfrog(state, pot, 1.0, front_005["gamma"])
    assert blowup is None
    assert np.array_equal(out.r, r)
    assert np.array_equal(out.v, v)


def test_active_window_matches_full_chain(front_005):
    # A long chain whose window widens many times on both sides: the atoms
    # left out of the step are exactly the ones the full chain leaves alone.
    res, pot, gamma = front_005["result"], front_005["pot"], front_005["gamma"]
    n = 2000
    state = init_from_front(res, NORMALIZED, n_atoms=n, dt=0.05)
    final, snaps = evolve(state, pot, 200.0, gamma=gamma, snapshot_stride=37)
    r, v, ref_snaps, blowup = full_chain_leapfrog(state, pot, 200.0, gamma, 37)
    assert blowup is None
    assert np.array_equal(final.r, r)
    assert np.array_equal(final.v, v)
    assert len(snaps) == len(ref_snaps) == 108
    for s, (rs, vs) in zip(snaps, ref_snaps):
        assert np.array_equal(s.r, rs)
        assert np.array_equal(s.v, vs)

    # the departure from each state spread by several window chunks, and
    # neither tail was reached
    heads = [exact_run(s.r, s.v, state.r_minus, state.v_minus) for s in (state, final)]
    tails = [exact_run(s.r[::-1], s.v[::-1], state.r_plus, state.v_plus)
             for s in (state, final)]
    assert heads[0] - heads[1] > 2 * lattice._CHUNK
    assert tails[0] - tails[1] > 2 * lattice._CHUNK
    assert heads[1] > 0 and tails[1] > 0


def test_active_window_matches_full_chain_from_a_jump():
    # Near u = 0 this quartic has phi'' = 301, so dt**2 * phi'' = 0.75 and a
    # departure from the states does not round away as it spreads: from a
    # sharp jump it reaches a new atom on each side on every step.
    pot = QuarticPotential(75.0)
    n = 400
    left = np.arange(n) < n // 2
    state = ChainState(r=np.where(left, -0.01, 0.01), v=np.where(left, 0.02, -0.02),
                       t=0.0, dt=0.05, r_minus=-0.01, v_minus=0.02, r_plus=0.01, v_plus=-0.02)
    final, snaps = evolve(state, pot, 5.0, snapshot_stride=1)
    r, v, ref_snaps, blowup = full_chain_leapfrog(state, pot, 5.0, 2.0, 1)
    assert blowup is None
    assert np.array_equal(final.r, r)
    assert np.array_equal(final.v, v)
    for s, (rs, vs) in zip(snaps, ref_snaps, strict=True):
        assert np.array_equal(s.r, rs)
        assert np.array_equal(s.v, vs)
    # 100 steps: one atom per step on each side, and one more to the right
    # in the first step
    assert exact_run(final.r, final.v, -0.01, 0.02) == n // 2 - 100
    assert exact_run(final.r[::-1], final.v[::-1], 0.01, -0.02) == n // 2 - 101


def _family(family, beta):
    """The quartic of ``beta`` as a ``user_table`` or renormalized to its
    states +-1, tilted by 0.02, or with the graph-violating defect of c = -0.5."""
    base = QuarticPotential(beta)
    if family == "user_table":
        u = np.linspace(-4.0, 4.0, 801)
        return TabulatedPotential(u, base.phi(u))
    if family == "tilted":
        return TiltedPotential(beta, 0.02)
    if family == "graph_violating":
        return GraphViolatingPotential(beta, -0.5)
    return normalize_potential(base, solve_front_data(-1.0, 1.0, None, 1, base))


@pytest.mark.parametrize("family", ["user_table", "normalized", "tilted", "graph_violating"])
def test_evolve_matches_full_chain_for_other_families(front_005, family):
    # The ghost slots hold phi'(r_minus) and v_plus; with another potential
    # family, phi' of the ghost and of an atom at the state must still agree
    # bit for bit, window widenings and the step of a BlowUp included.  The
    # tilted quartic has phi'(+-1) = +-1 - 0.02, off the normalization, but
    # an atom between two at one state still gets force 0.
    res, gamma = front_005["result"], front_005["gamma"]
    pot = _family(family, 0.05)
    state = init_from_front(res, NORMALIZED, n_atoms=1000, dt=0.05)
    final, snaps = evolve(state, pot, 100.0, gamma=gamma, snapshot_stride=13)
    r, v, ref_snaps, blowup = full_chain_leapfrog(state, pot, 100.0, gamma, 13)
    assert blowup is None
    assert np.array_equal(final.r, r)
    assert np.array_equal(final.v, v)
    for s, (rs, vs) in zip(snaps, ref_snaps, strict=True):
        assert np.array_equal(s.r, rs)
        assert np.array_equal(s.v, vs)
    assert exact_run(state.r, state.v, -1.0, 1.0) - exact_run(final.r, final.v, -1.0, 1.0) \
        > lattice._CHUNK

    # phi''(+-1) = 1 - 8 beta (1 + c) for the graph-violating defect
    unstable = _family(family, 0.6 if family == "graph_violating" else 0.3)
    state = init_from_front(res, NORMALIZED, n_atoms=1000, dt=0.01)
    *_, ref_step = full_chain_leapfrog(state, unstable, 50.0, gamma)
    assert ref_step is not None
    with pytest.raises(BlowUp, match=f"at step {ref_step}$"):
        evolve(state, unstable, 50.0, gamma=gamma)


def test_evolve_matches_full_chain_at_physical_states():
    # A front solved at the physical states r = -+1.2 (sigma = 0.954987) on
    # the quartic it came from, as verify runs it: the chain's states are
    # not the normalization's, and the guard bands compare against them, so
    # the window, every float and every snapshot are still the full chain's.
    pot = QuarticPotential(0.05)
    fd = solve_front_data(-1.2, 1.2, None, 1, pot)
    assert fd.sigma == pytest.approx(0.954987, abs=1e-6)
    norm = normalize_potential(pot, fd)
    gamma = compute_invariant_bound(norm)
    res = minimize(SolverConfig(gamma=gamma), norm)
    state = init_from_front(res, fd, n_atoms=1000, dt=0.05)
    final, snaps = evolve(state, pot, 100.0, gamma=gamma, snapshot_stride=13)
    r, v, ref_snaps, blowup = full_chain_leapfrog(state, pot, 100.0, gamma, 13)
    assert blowup is None
    assert np.array_equal(final.r, r)
    assert np.array_equal(final.v, v)
    for s, (rs, vs) in zip(snaps, ref_snaps, strict=True):
        assert np.array_equal(s.r, rs)
        assert np.array_equal(s.v, vs)
    # the departure from each state spread through a guard band, so the
    # window widened on both sides
    assert exact_run(state.r, state.v, fd.r_minus, fd.v_minus) \
        - exact_run(final.r, final.v, fd.r_minus, fd.v_minus) > lattice._GUARD
    assert exact_run(state.r[::-1], state.v[::-1], fd.r_plus, fd.v_plus) \
        - exact_run(final.r[::-1], final.v[::-1], fd.r_plus, fd.v_plus) > lattice._GUARD


def test_inexact_tails_integrate_the_whole_chain(front_005):
    res, pot, gamma = front_005["result"], front_005["pot"], front_005["gamma"]
    state = init_from_front(res, NORMALIZED, n_atoms=600, dt=0.01)
    state.r[[0, -1]] += 1e-13  # no atom run is exactly at either state
    out = evolve(state, pot, 5.0, gamma=gamma)
    r, v, _, _ = full_chain_leapfrog(state, pot, 5.0, gamma)
    assert np.array_equal(out.r, r)
    assert np.array_equal(out.v, v)
    assert out.r[0] != state.r[0] and out.r[-1] != state.r[-1]


def test_blow_up_step_matches_full_chain(front_005):
    # phi''(+-1) = 1 - 8 beta < 0 for beta = 0.3: the front region explodes
    # while the exact tails stay put
    res, gamma = front_005["result"], front_005["gamma"]
    pot = QuarticPotential(0.3)
    state = init_from_front(res, NORMALIZED, n_atoms=1000, dt=0.01)
    *_, ref_step = full_chain_leapfrog(state, pot, 50.0, gamma)
    assert ref_step is not None
    with pytest.raises(BlowUp, match=f"at step {ref_step}$"):
        evolve(state, pot, 50.0, gamma=gamma)
    # A sharp velocity pulse on a stiff chain at rest, run 12 steps and
    # reversed, focuses back: its strain leaves 10*gamma between two window
    # checks and is inside it at every check, so only a test after each
    # step, as the full chain makes, sees it.
    stiff, pulse = QuarticPotential(75.0), constant_state(0.0, 0.0, n=200, dt=0.02)
    pulse.v[100] = 0.5
    r, v, _, _ = full_chain_leapfrog(pulse, stiff, 0.24, np.inf)
    pulse = replace(pulse, r=r, v=-v)
    *_, ref_step = full_chain_leapfrog(pulse, stiff, 0.8, 0.0015)
    _, _, at_checks, _ = full_chain_leapfrog(pulse, stiff, 0.8, np.inf, lattice._CHECK_EVERY)
    assert ref_step is not None and max(np.max(np.abs(r)) for r, _ in at_checks) <= 0.015
    with pytest.raises(BlowUp, match=f"at step {ref_step}$"):
        evolve(pulse, stiff, 0.8, gamma=0.0015)


@pytest.mark.parametrize("stride", [-3, 0, 2.5, 4.0, "7"])
def test_a_stride_that_is_not_a_positive_integer_is_refused(front_005, stride):
    # Such a stride once took no snapshot and raised nothing, or, for
    # verify_front, raised that the front crossing was not visible.
    res, pot, gamma = front_005["result"], front_005["pot"], front_005["gamma"]
    state = init_from_front(res, NORMALIZED, n_atoms=100, dt=0.05)
    message = f"stride must be an integer of at least 1, not {stride!r}$"
    with pytest.raises(ValueError, match=f"^snapshot_{message}"):
        evolve(state, pot, 1.0, gamma=gamma, snapshot_stride=stride)
    with pytest.raises(ValueError, match=f"^snapshot_{message}"):
        evolve(state, pot, 1.0, gamma=gamma, snapshot_stride=stride,
               observe=lambda s: None)
    with pytest.raises(ValueError, match=f"^{message}"):
        verify_front(res.profile, NORMALIZED, pot, gamma=gamma, n_atoms=100, T=1.0, dt=0.05,
                     stride=stride)


@pytest.mark.parametrize("inexact_tails", [False, True], ids=["windowed", "inexact_tails"])
def test_nan_strain_blows_up_at_step_0(front_005, inexact_tails):
    # NaN compares false with any bound: a test written as |r| > bound
    # would integrate it, and the NaN would spread through the chain.
    res, pot, gamma = front_005["result"], front_005["pot"], front_005["gamma"]
    state = init_from_front(res, NORMALIZED, n_atoms=600, dt=0.01)
    if inexact_tails:
        state.r[[0, -1]] += 1e-13  # the whole chain is integrated
    state.r[300] = np.nan  # on the front, inside the window
    with pytest.raises(BlowUp, match="at step 0$"):
        evolve(state, pot, 5.0, gamma=gamma)


@pytest.mark.parametrize("field", ["r", "v"])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("departure", ["ulp", "nan"])
def test_departure_in_a_guard_band_widens_the_window(front_005, side, field, departure):
    # An observer at every window check (stride _CHECK_EVERY: it runs just
    # before the check) writes a one-ulp departure, or a NaN, into the first
    # exact guard band it sees on one side, and predicts every next window by
    # the mask rule: a band widens its side by _CHUNK unless all its atoms
    # are exactly at the state ((r == state) & (v == state)).  The window
    # follows that rule at every check, and widens at the written one.  A
    # NaN, which no check can see widen the window, is integrated at the
    # next step, which blows up.
    pot, gamma = front_005["pot"], front_005["gamma"]
    state = init_from_front(front_005["result"], NORMALIZED, n_atoms=2000, dt=0.05)
    G, C = lattice._GUARD, lattice._CHUNK
    windows, predicted, written = [], [], []

    def exact(s, band, r_state, v_state):
        return ((s.r[band] == r_state) & (s.v[band] == v_state)).all()

    def observe(s):
        lo, hi = s.window
        if predicted:
            assert (lo, hi) == predicted[-1]
        left, right = slice(lo, lo + G), slice(hi - G, hi)
        if not written:
            band, r_state, v_state = ((left, s.r_minus, s.v_minus) if side == "left"
                                      else (right, s.r_plus, s.v_plus))
            if exact(s, band, r_state, v_state):
                x = s.r if field == "r" else s.v
                j = band.start + G // 2
                x[j] = np.nextafter(x[j], np.inf) if departure == "ulp" else np.nan
                written.append(len(windows))
        windows.append((lo, hi))
        predicted.append((
            max(0, lo - C) if lo > 0 and not exact(s, left, s.r_minus, s.v_minus) else lo,
            min(state.n_atoms, hi + C) if hi < state.n_atoms
            and not exact(s, right, s.r_plus, s.v_plus) else hi,
        ))

    def run():
        evolve(state, pot, 20.0, gamma=gamma, snapshot_stride=lattice._CHECK_EVERY,
               observe=observe)

    if departure == "nan":
        with pytest.raises(BlowUp) as blow_up:
            run()
        assert str(blow_up.value).endswith(f"at step {(written[0] + 1) * lattice._CHECK_EVERY}")
        return
    run()
    assert written, "no exact guard band to write into"
    k = written[0]
    lo, hi = windows[k]
    assert windows[k + 1] == ((lo - C, hi) if side == "left" else (lo, hi + C))


def test_tail_state_beyond_bound_blows_up_at_step_0():
    # The atoms left of the window sit at a strain beyond 10*gamma = 20:
    # the window's check of the atoms it leaves out finds it at step 0, as
    # the full chain does.
    pot = QuarticPotential(0.2)
    left = np.arange(400) < 200
    state = ChainState(r=np.where(left, 25.0, 0.0), v=np.zeros(400), t=0.0, dt=0.01,
                       r_minus=25.0, v_minus=0.0, r_plus=0.0, v_plus=0.0)
    *_, ref_step = full_chain_leapfrog(state, pot, 1.0, 2.0)
    assert ref_step == 0
    with pytest.raises(BlowUp, match="at step 0$"):
        evolve(state, pot, 1.0)


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


def test_front_speed_needs_two_visible_crossings():
    assert front_speed([0.0, 1.0, 2.0], [None, 3.0, 5.0]) == 2.0
    with pytest.raises(ValueError, match="not visible"):
        front_speed([0.0, 1.0, 2.0], [None, 3.0, None])


@pytest.mark.parametrize("times, crossings", [
    ([0.0, 1e-320, 2e-320], [200.0, 200.0, 200.0]),
    ([5.0, 5.0], [200.0, 201.0]),
    ([0.0, 1.0], [200.0, np.inf]),
    ([0.0, 1e-160], [0.0, 1e300]),
], ids=["subnormal_times", "equal_times", "infinite_crossing", "overflowing_slope"])
def test_front_speed_without_a_finite_slope_raises(times, crossings):
    # The centred times' squares sum to 0 (they underflow, or the times are
    # one), or the slope is not finite: no speed, rather than NaN or inf.
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="no finite slope"):
        front_speed(times, crossings)


def test_measured_speed_matches_sigma(front_005):
    res = front_005["result"]
    pot = front_005["pot"]
    state = init_from_front(res, NORMALIZED, n_atoms=400, dt=0.01)
    _, snaps = evolve(state, pot, 20.0, gamma=front_005["gamma"], snapshot_stride=73)
    speed = measure_front_speed([state] + snaps)
    assert speed == pytest.approx(1.0, rel=0.02)


def test_energy_law_drift(front_005):
    res = front_005["result"]
    pot = front_005["pot"]
    state = init_from_front(res, NORMALIZED, n_atoms=400, dt=0.01)
    _, snaps = evolve(state, pot, 20.0, gamma=front_005["gamma"], snapshot_stride=73)
    report = check_energy_law([state] + snaps, pot, sigma=1.0)
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
    assert report.energy_drift_rel < 1e-12


def test_total_energy_and_flux_bookkeeping():
    pot = QuarticPotential(0.2)
    state = constant_state(0.5, 0.2, n=50)
    e = total_energy(state, pot)
    assert e == pytest.approx(50 * (0.5 * 0.04 + float(pot.phi(0.5))), abs=1e-12)
    # constant state: flux in equals flux out
    assert boundary_flux(state, pot) == pytest.approx(0.0, abs=1e-14)


def reference_front_speed(snapshots):
    """Mid-level crossing fit written out on the snapshot list: the
    least-squares slope in closed form over the centred times and crossings."""
    s0 = snapshots[0]
    level = 0.5 * (s0.v_minus + s0.v_plus)
    times, crossings = [], []
    for s in snapshots:
        d = s.v - level
        idx = np.nonzero(d[:-1] * d[1:] <= 0)[0]
        if idx.size:
            i = idx[0]
            crossings.append(i + (d[i] / (d[i] - d[i + 1]) if d[i] != d[i + 1] else 0.0))
            times.append(s.t)
    t = np.array(times) - np.mean(times)
    c = np.array(crossings) - np.mean(crossings)
    return float(np.sum(t * c) / np.sum(t * t))


def reference_energy_drift(snapshots, pot):
    """The energy drift written out on the snapshot list: the largest change
    of the whole-chain total energy, less the boundary flux integrated by the
    trapezoidal rule, relative to the first energy (or to 1)."""
    times = np.array([s.t for s in snapshots])
    energies = np.array([total_energy(s, pot) for s in snapshots])
    fluxes = np.array([boundary_flux(s, pot) for s in snapshots])
    flux_int = np.concatenate([[0.0], np.cumsum(
        0.5 * (fluxes[1:] + fluxes[:-1]) * np.diff(times))])
    drift = np.max(np.abs(energies - energies[0] - flux_int))
    return float(drift / max(abs(energies[0]), 1.0))


def _growing_window_chain(front):
    # the chain of test_active_window_matches_full_chain
    state = init_from_front(front["result"], NORMALIZED, n_atoms=2000, dt=0.05)
    return state, 200.0, 37


def _inexact_tails_chain(front):
    state = init_from_front(front["result"], NORMALIZED, n_atoms=600, dt=0.01)
    state.r[[0, -1]] += 1e-13
    return state, 5.0, 7


def _short_stride_chain(front):
    # sigma * dt * stride = 0.2: every fifth snapshot repeats the phases
    state = init_from_front(front["result"], NORMALIZED, n_atoms=400, dt=0.05)
    return state, 20.0, 4


chains = pytest.mark.parametrize("chain", [_growing_window_chain, _inexact_tails_chain,
                                            _short_stride_chain],
                                  ids=["growing_window", "inexact_tails", "short_stride"])


@chains
def test_speed_and_energy_drift_equal_references(front_005, chain):
    pot, gamma = front_005["pot"], front_005["gamma"]
    state, T, stride = chain(front_005)
    _, snaps = evolve(state, pot, T, gamma=gamma, snapshot_stride=stride)
    snaps = [state] + snaps
    assert measure_front_speed(snaps) == reference_front_speed(snaps)
    assert check_energy_law(snaps, pot, 1.0).energy_drift_rel == reference_energy_drift(snaps, pot)


@chains
def test_observed_window_leaves_only_atoms_at_the_states(front_005, chain):
    pot, gamma = front_005["pot"], front_005["gamma"]
    state, T, stride = chain(front_005)
    n, windows = state.n_atoms, []

    def observe(s):
        lo, hi = s.window
        assert 0 <= lo <= hi <= n
        assert np.all((s.r[:lo] == s.r_minus) & (s.v[:lo] == s.v_minus))
        assert np.all((s.r[hi:] == s.r_plus) & (s.v[hi:] == s.v_plus))
        windows.append((lo, hi))

    evolve(state, pot, T, gamma=gamma, snapshot_stride=stride, observe=observe)
    # the window only widens
    assert all(lo1 <= lo0 and hi1 >= hi0 for (lo0, hi0), (lo1, hi1) in zip(windows, windows[1:]))
    if chain is _inexact_tails_chain:
        assert set(windows) == {(0, n)}
    else:
        assert windows[-1][1] - windows[-1][0] < n


@chains
def test_energy_law_energies_equal_total_energy(front_005, chain):
    # Of an evolve run's snapshots the law evaluates the energy density only
    # inside the window, yet each total is the whole chain's np.sum.  A
    # second run from the start state follows the first into the same law:
    # its narrower windows leave atoms that the first run moved.
    pot, gamma = front_005["pot"], front_005["gamma"]
    state, T, stride = chain(front_005)
    law = EnergyLaw(pot)
    copies, windows, evaluated = [], [], []

    def observe(s):
        evaluated.append(0)
        law.add(s)
        copies.append(ChainState(s.r.copy(), s.v.copy(), s.t, s.dt,
                                 s.r_minus, s.v_minus, s.r_plus, s.v_plus))
        windows.append(s.window)

    density = lattice._energy_density

    def count(r, v, p):
        evaluated[-1] += r.size
        return density(r, v, p)

    with mock.patch.object(lattice, "_energy_density", side_effect=count):
        observe(state)
        for _ in range(2):
            evolve(state, pot, T, gamma=gamma, snapshot_stride=stride, observe=observe)
    assert law.energies == [total_energy(c, pot) for c in copies]
    # the atoms evaluated per snapshot: all of them for the start state (no
    # window) and for each run's first snapshot, the window for the others
    n, per_run = state.n_atoms, (len(windows) - 1) // 2
    first = {0, 1, 1 + per_run}
    assert evaluated == [n if k in first else hi - lo for k, (lo, hi) in
                         enumerate([(0, n)] + windows[1:])]
    if chain is not _inexact_tails_chain:
        assert min(evaluated) < n


@chains
def test_verify_front_start_state_equals_whole_chain(front_005, chain):
    # verify_front reads the start state's sup error and crossing between its
    # runs at the states, which evolve reads for its first window: they are
    # the whole chain's floats, also where the tails are off the states and
    # the runs are empty.
    res, pot, gamma = front_005["result"], front_005["pot"], front_005["gamma"]
    state, T, stride = chain(front_005)
    n = state.n_atoms
    args = dict(gamma=gamma, n_atoms=n, T=T, dt=state.dt, stride=stride)
    with mock.patch.object(lattice, "_chain_on", return_value=state):
        with mock.patch.object(lattice, "_crossing", wraps=lattice._crossing) as crossing:
            check = verify_front(res.profile, NORMALIZED, pot, **args)
        whole = whole_chain_verify(res, NORMALIZED, pot, **args)
    assert check == whole
    # the start state's crossing reads from the last atom of the left run to
    # the first of the right run
    head, tail = lattice._state_runs(state)
    if chain is _inexact_tails_chain:
        assert (head, tail) == (0, 0)
    else:
        assert head > 1 and tail > 1
    assert crossing.call_args_list[0].args[0].size == n - max(head - 1, 0) - max(tail - 1, 0)


def test_observe_sees_the_returned_snapshots(front_005):
    res, pot, gamma = front_005["result"], front_005["pot"], front_005["gamma"]
    state = init_from_front(res, NORMALIZED, n_atoms=600, dt=0.05)
    final, snaps = evolve(state, pot, 30.0, gamma=gamma, snapshot_stride=11)
    seen = []
    out = evolve(state, pot, 30.0, gamma=gamma, snapshot_stride=11,
                 observe=lambda s: seen.append((s.t, s.r.copy(), s.v.copy())))
    assert isinstance(out, ChainState)
    assert np.array_equal(out.r, final.r) and np.array_equal(out.v, final.v)
    assert len(seen) == len(snaps) == 54
    for (t, r, v), s in zip(seen, snaps):
        assert t == s.t
        assert np.array_equal(r, s.r)
        assert np.array_equal(v, s.v)
    with pytest.raises(ValueError, match="snapshot_stride"):
        evolve(state, pot, 1.0, observe=seen.append)


# The snapshot times of the 8000-atom verify over T = 400 (stride 73, dt 0.01).
VERIFY_TIMES = [k * 73 * 0.01 for k in range(548)]


def verify_like_snapshots(rng):
    """548 snapshots of an 8000-atom chain as the verify over T = 400 sees
    them: a live state whose window of atoms drawn from ``rng`` widens from
    38 atoms to about 750, reaching from the front back to the radiation
    behind it, and whose other atoms sit at (-1, 1) on the left and (1, -1)
    on the right."""
    n = 8000
    r, v = np.empty(n), np.empty(n)
    for t in VERIFY_TIMES:
        lo, hi = 3981 - int(0.8 * t), 4019 + int(t)
        r[:lo], v[:lo], r[hi:], v[hi:] = -1.0, 1.0, 1.0, -1.0
        r[lo:hi], v[lo:hi] = rng.uniform(-0.9, 0.9, (2, hi - lo))
        yield ChainState(r, v, t, 0.01, -1.0, 1.0, 1.0, -1.0, (lo, hi))


def traced_peak(run):
    import tracemalloc

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_energy_law_report_memory_is_one_block():
    # The law keeps no per-snapshot arrays.  Per snapshot it keeps three
    # floats (time, energy, flux), and of the last snapshot one block, its
    # energy-density array of 8000 atoms, 64 kB: its adds and report peak
    # near 0.26 MB, and one more 8000-atom array held through them crosses
    # the bound.  Keeping only the strains of each snapshot's atoms off
    # the states would add about 1.7 MB, and two samples per phase-grid
    # point near them 1.3 MB.  The generator is made before the trace, so
    # that numpy.random's first import is not traced.
    rng = np.random.default_rng(0)

    def run():
        law = EnergyLaw(QuarticPotential(0.05))
        for s in verify_like_snapshots(rng):
            law.add(s)
        law.report()

    assert traced_peak(run) < 0.29e6


# A snapshot of another chain than the first one's, here the middle one of
# three, is refused by name: its energy and flux belong to another balance.
@pytest.mark.parametrize("atoms, r_minus", [(140, -1.0), (100, -0.5)],
                         ids=["atom_count", "left_state"])
def test_energy_law_refuses_another_chain(front_005, atoms, r_minus):
    res, pot = front_005["result"], front_005["pot"]
    first = init_from_front(res, NORMALIZED, n_atoms=100, dt=0.05)
    middle = init_from_front(res, NORMALIZED, n_atoms=atoms, dt=0.05)
    middle.t, middle.r_minus = 0.5, r_minus
    last = init_from_front(res, NORMALIZED, n_atoms=100, dt=0.05)
    last.t = 1.0
    with pytest.raises(ValueError, match=r"snapshot 1 has \(atoms, r_minus, v_minus, r_plus, "
                                         rf"v_plus\) = \({atoms}, {r_minus}, "):
        check_energy_law([first, middle, last], pot, 1.0)


def test_verify_front_refuses_a_chain_inside_its_margins(front_005):
    # 40 atoms are the two 20-atom margins alone: no atom is left whose
    # sup error could be read, so verify_front refuses rather than report 0.
    res, pot, gamma = front_005["result"], front_005["pot"], front_005["gamma"]
    with pytest.raises(ValueError, match="a chain of 40 atoms has no interior inside two "
                                         "20-atom margins"):
        verify_front(res.profile, NORMALIZED, pot, gamma=gamma, n_atoms=40, T=1.0, dt=0.01,
                     stride=10)


def test_verify_front_default_run_equals_whole_chain(front_005):
    # The default verify: 400 atoms over T = 20, a snapshot every 73 steps.
    # Its window-only sup errors and crossings are the whole chain's floats.
    # The speed is fitted in closed form, without LAPACK's least squares.
    res, pot, gamma = front_005["result"], front_005["pot"], front_005["gamma"]
    args = dict(gamma=gamma, n_atoms=400, T=20.0, dt=0.01, stride=73)
    with no_least_squares():
        check = verify_front(res.profile, NORMALIZED, pot, **args)
    assert check == whole_chain_verify(res, NORMALIZED, pot, **args)
    assert len(check.times) == 28
    assert check.sup_errors[-1] < 0.05
    assert check.speed == pytest.approx(1.0, rel=0.02)

    # Adding the window's offset after frac, not before, would change the
    # last bit of several of these crossings.
    state = init_from_front(res, NORMALIZED, n_atoms=400, dt=0.01)
    _, snaps = evolve(state, pot, 20.0, gamma=gamma, snapshot_stride=73)
    late = []
    for s, c in zip([state] + snaps, check.crossings, strict=True):
        a = max(lattice._state_runs(s)[0] - 1, 0)
        late.append(a + front_crossing(s.v[a:], 0.0) != c)
    assert sum(late) >= 3


def test_sup_error_falls_at_second_order_in_the_mesh(front_005):
    # The chain follows the front more closely as the mesh is refined: the
    # last sup error of a 400-atom chain over T = 20 falls from 4.19e-4 at
    # D = 1600 to 1.08e-4 at D = 3200, order 1.96.  The step dt = 0.005
    # keeps the leapfrog's error below the mesh's; at D = 3200 the mesh's
    # error floors the sup error's order in dt, so that is not tested.
    res, pot, gamma, cfg = (front_005[k] for k in ("result", "pot", "gamma", "cfg"))
    coarse = minimize(replace(cfg, D=cfg.D // 2), pot)
    assert coarse.outcome == "front_converged"
    args = dict(gamma=gamma, n_atoms=400, T=20.0, dt=0.005, stride=146)
    coarse_sup, fine_sup = (verify_front(r.profile, NORMALIZED, pot, **args).sup_errors[-1]
                            for r in (coarse, res))
    assert np.log2(coarse_sup / fine_sup) >= 1.8


def test_energy_drift_falls_at_second_order_in_the_step(front_005):
    # Leapfrog is second order: halving dt, with the snapshots at the same
    # times, takes the drift from 8.11e-9 to 2.03e-9, order 2.0006.
    res, pot, gamma = front_005["result"], front_005["pot"], front_005["gamma"]
    coarse, fine = (verify_front(res.profile, NORMALIZED, pot, gamma=gamma, n_atoms=400,
                                 T=20.0, dt=dt, stride=stride).energy.energy_drift_rel
                    for dt, stride in ((0.02, 36), (0.01, 72)))
    assert np.log2(coarse / fine) >= 1.8


def test_sup_error_falls_at_second_order_in_the_step(front_005):
    # On a D = 12800 front the last sup error of a 400-atom chain over
    # T = 20, snapshots 0.72 apart, reads 1.27e-4, 3.69e-5 and 1.43e-5 at
    # dt = 0.02, 0.01 and 0.005.  The mesh's own error floors it, so two
    # steps alone give order 1.79; the differences of three cancel the
    # floor, e(dt) = e_mesh + c dt^p, and give p = 1.996.
    pot, gamma, cfg = front_005["pot"], front_005["gamma"], front_005["cfg"]
    fine = minimize(replace(cfg, D=12800), pot)
    assert fine.outcome == "front_converged"
    e1, e2, e3 = (verify_front(fine.profile, NORMALIZED, pot, gamma=gamma, n_atoms=400,
                               T=20.0, dt=dt, stride=stride).sup_errors[-1]
                  for dt, stride in ((0.02, 36), (0.01, 72), (0.005, 144)))
    assert np.log2((e1 - e2) / (e2 - e3)) >= 1.8
