"""Property tests of the averaging operator, the quadratic part and the
gradient over random aligned grids, at the tolerances of the fixed-grid tests,
of the averaging's window sums against the same sums in an array of their
own, of a converged front's action under admissible bumps and along -grad L,
of the tabulated potential against SciPy's PCHIP as an oracle, of the energy
law's block-by-block energy density against ``total_energy``, of
``verify_front``'s window-only reductions (the state runs, the crossing and
the whole verification) against the whole chain, of the closed-form front
speed against ``np.polyfit`` and rational arithmetic, of the plateau median
against ``np.median``, of the tilted quartic against its closed form, of
the scans' generated samples against ``np.linspace``, and of the blocked
admissibility scans against the same scans on whole sample arrays.

A grid is aligned when half the unit window is K whole cells: L = m/4 with
D = m K gives h = 1/(2K) for every integer m >= 8 (L >= 2) and K >= 1.
Profile values come from a seeded generator, so each example is a grid, a
seed and, where it matters, an extension value or a padding width.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fpufronts import (
    NORMALIZED,
    ChainState,
    EnergyLaw,
    FrontData,
    GraphViolatingPotential,
    GridProfile,
    Potential,
    QuarticPotential,
    SolverConfig,
    TabulatedPotential,
    TiltedPotential,
    apply_averaging,
    averaged_extended,
    check_assumptions,
    compute_invariant_bound,
    front_crossing,
    functional_L,
    gradient,
    inner_product,
    interior_plateau,
    minimize,
    n_identity_check,
    total_energy,
    verify_front,
    window_kernel,
)
from fpufronts import lattice, phases, potentials, solver
from fpufronts.action import _trapezoid
from fpufronts.errors import BlowUp, InvariantBoundNotFound
from fpufronts.grid import window_average
from fpufronts.phases import _median

from conftest import (
    fresh_sums_window_average,
    whole_array_check_assumptions,
    whole_array_invariant_bound,
    whole_chain_verify,
)

grids = st.tuples(st.integers(8, 100), st.integers(1, 40)).map(
    lambda mk: (mk[0] / 4, mk[0] * mk[1]))
seeds = st.integers(0, 2**32 - 1)
levels = st.floats(-3.0, 3.0, allow_nan=False)
examples = settings(max_examples=60, deadline=None)


def _noise(seed, D, scale):
    return np.random.default_rng(seed).uniform(-scale, scale, D + 1)


def pinned_profile(grid, seed):
    """Random heteroclinic profile whose outer window widths sit at -1 / +1."""
    L, D = grid
    prof = GridProfile(L, D, _noise(seed, D, 1.5))
    v = prof.values.copy()
    v[: 2 * prof.K] = -1.0
    v[-2 * prof.K:] = 1.0
    return prof.with_values(v)


def compact_profile(grid, seed, scale=0.5):
    """Random perturbation vanishing on the outer window widths, zero extension."""
    L, D = grid
    prof = GridProfile(L, D, _noise(seed, D, scale), left_value=0.0, right_value=0.0)
    v = prof.values.copy()
    v[: 2 * prof.K] = 0.0
    v[-2 * prof.K:] = 0.0
    return prof.with_values(v)


@examples
@given(grids, seeds, levels, levels, st.integers(0, 80))
def test_averaging_matches_convolution(grid, seed, left, right, pad):
    L, D = grid
    prof = GridProfile(L, D, _noise(seed, D, 2.0), left_value=left, right_value=right)
    K = prof.K
    pad = pad % (2 * K + 1)
    reference = np.convolve(prof.extended(pad + K), window_kernel(K), "valid")
    assert np.max(np.abs(averaged_extended(prof, pad) - reference)) <= 1e-13


# The window sums go into the buffer of the cell means: the floats of sums
# in an array of their own, for windows of 2 to 400 cells, random values
# between constant runs of any length at either end, and either extension.
@examples
@given(st.integers(1, 200), seeds, levels, levels, st.data())
@example(K=1, seed=0, left=-1.0, right=1.0, data=None)
@example(K=160, seed=1, left=-1.0, right=1.0, data=None)
def test_window_average_equals_fresh_sums(K, seed, left, right, data):
    extra, tails = (0, 0) if data is None else (
        data.draw(st.integers(0, 3000)), data.draw(st.integers(0, 3 * K)))
    x = np.random.default_rng(seed).uniform(-2.0, 2.0, 4 * K + extra)
    x[: tails + 1], x[x.size - tails - 1:] = left, right
    got = window_average(x, K)
    assert got.tobytes() == fresh_sums_window_average(x, K).tobytes()


# N and P sum in one buffer: the floats of np.trapezoid, for 2 to 40 000
# values of either sign spread over 17 decades.
@examples
@given(st.integers(2, 40_000), seeds, st.floats(1e-6, 1e3))
@example(n=2, seed=0, dx=0.003125)
@example(n=13441, seed=1, dx=0.003125)
def test_trapezoid_equals_np_trapezoid(n, seed, dx):
    rng = np.random.default_rng(seed)
    y = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-8, 9, n)
    assert float(_trapezoid(y, dx)).hex() == float(np.trapezoid(y, dx=dx)).hex()


@examples
@given(grids, seeds, seeds)
def test_averaging_symmetry(grid, seed1, seed2):
    w1 = compact_profile(grid, seed1)
    w2 = compact_profile(grid, seed2)
    lhs = inner_product(apply_averaging(w1), w2)
    rhs = inner_product(w1, apply_averaging(w2))
    assert abs(lhs - rhs) <= 1e-12


@examples
@given(grids, levels)
def test_averaging_fixes_constants_exactly(grid, c):
    L, D = grid
    prof = GridProfile(L, D, np.full(D + 1, c), left_value=c, right_value=c)
    assert np.all(apply_averaging(prof).values == c)


@examples
@given(grids, seeds, st.integers(0, 80))
def test_averaging_fixes_tails_exactly(grid, seed, pad):
    w = pinned_profile(grid, seed)
    K = w.K
    pad = pad % (2 * K + 1)
    u_ext = averaged_extended(w, pad)
    assert np.all(u_ext[: pad + K] == -1.0)
    assert np.all(u_ext[-(pad + K):] == 1.0)


@examples
@given(grids, seeds, seeds)
def test_n_identity(grid, seed1, seed2):
    w1 = pinned_profile(grid, seed1)
    w2 = w1.with_values(w1.values + compact_profile(grid, seed2, scale=0.3).values)
    assert n_identity_check(w1, w2) <= 1e-10


@examples
@given(grids, seeds, seeds, st.floats(0.01, 1.0))
def test_gradient_matches_finite_differences(grid, seed1, seed2, beta):
    pot = QuarticPotential(beta)
    w = pinned_profile(grid, seed1)
    d = compact_profile(grid, seed2, scale=0.2)
    eps = 1e-5
    directional = float(np.sum(gradient(w, pot).values * d.values) * w.h)
    plus = functional_L(w.with_values(w.values + eps * d.values), pot)
    minus = functional_L(w.with_values(w.values - eps * d.values), pot)
    fd = (plus - minus) / (2 * eps)
    assert fd == pytest.approx(directional, rel=1e-5, abs=1e-12)


def plateau_reference(w, min_nodes=50, value_tol=1e-3, distinct_tol=1e-2, margin_units=2.0):
    """``interior_plateau`` with the longest run found by a Python loop."""
    v = w.values[np.abs(w.nodes) <= w.L - margin_units]
    if v.size < min_nodes:
        return None
    cand = v[1:][np.abs(np.diff(v)) <= value_tol]
    cand = cand[np.minimum(np.abs(cand - 1.0), np.abs(cand + 1.0)) > distinct_tol]
    if cand.size == 0:
        return None
    val = float(np.median(cand))
    best = run = 0
    for flag in np.abs(v - val) <= value_tol:
        run = run + 1 if flag else 0
        best = max(best, run)
    return (val, best) if best >= min_nodes else None


@examples
@given(grids, seeds, levels, st.integers(1, 150), st.integers(1, 80))
def test_plateau_run_length_matches_loop(grid, seed, level, mean_run, min_nodes):
    # runs of random length alternate between the level (within the value
    # tolerance) and scattered values
    L, D = grid
    rng = np.random.default_rng(seed)
    lengths = rng.geometric(1.0 / mean_run, size=D + 1)
    on = np.repeat(rng.random(D + 1) < 0.5, lengths)[: D + 1]
    values = np.where(on, level + rng.uniform(-4e-4, 4e-4, D + 1), rng.uniform(-3, 3, D + 1))
    w = GridProfile(L, D, values)
    with mock.patch.object(phases, "_PLATEAU_NODES", min_nodes):
        got = interior_plateau(w)
    assert got == plateau_reference(w, min_nodes=min_nodes)


# finite samples, drawn often from signed zeros, subnormals and one repeated
# value, in arrays of odd and even size
median_samples = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0]),
              st.floats(allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(median_samples)
@example([-0.0])
@example([-0.0, -0.0])
@example([1.7e308])
@example([0.0, -0.0])
@example([-0.0, 0.0, 2.0, -2.0])
def test_median_equals_np_median(values):
    a = np.array(values)
    with np.errstate(over="ignore"):  # the mean of two huge values overflows in both
        assert np.float64(_median(a)).tobytes() == np.median(a).tobytes()


diverging_flows = pytest.mark.parametrize(
    "pot", [GraphViolatingPotential(0.1, -0.5), TiltedPotential(0.1, 0.1)],
    ids=["graph_violating", "tilted"])


@diverging_flows
def test_diverging_flows_read_the_np_median_plateau(pot, monkeypatch):
    # every plateau check of the flow reads what np.median gave, so the
    # flow and its plateau_value are unchanged
    readings = []

    def checked(w):
        found = interior_plateau(w)
        assert found == plateau_reference(w)
        readings.append(found)
        return found

    monkeypatch.setattr(solver, "interior_plateau", checked)
    res = minimize(SolverConfig(gamma=2.0), pot)
    assert res.outcome == "plateau_diverging"
    assert readings[-1][0] == res.plateau_value


@diverging_flows
def test_plateau_check_runs_no_numpy_sort(pot, monkeypatch):
    # the plateau median sorts Python floats; the first numpy sort or
    # partition of a process would fault in numpy's sort code
    readings = []

    def checked(w):
        expected = plateau_reference(w)
        with mock.patch("numpy.partition", side_effect=AssertionError("np.partition called")), \
                mock.patch("numpy.sort", side_effect=AssertionError("np.sort called")):
            found = interior_plateau(w)
        assert found == expected
        readings.append(found)
        return found

    monkeypatch.setattr(solver, "interior_plateau", checked)
    assert minimize(SolverConfig(gamma=2.0), pot).outcome == "plateau_diverging"
    assert readings[-1] is not None


# The tilted quartic is built on the quartic: its floats are still those of
# the closed form it was written out as, bit for bit.
@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8), st.floats(1e-6, 1e6),
       st.floats(-1e6, 1e6))
@example(u=[-1.0, -0.0, 0.0, 1.0], beta=0.1, eps=0.1)
def test_tilted_equals_its_closed_form(u, beta, eps):
    pot = TiltedPotential(beta, eps)
    u = np.array(u)
    phi = 0.5 * u**2 - beta * (u**2 - 1.0) ** 2 - eps * (u - 1.0)
    phi_prime = u - 4.0 * beta * u * (u**2 - 1.0) - eps
    phi_second = 1.0 - 4.0 * beta * (3.0 * u**2 - 1.0)
    assert pot.phi(u).tobytes() == phi.tobytes()
    assert pot.phi_prime(u).tobytes() == phi_prime.tobytes()
    assert pot.phi_second(u).tobytes() == phi_second.tobytes()


# knot gaps of mixed size, and value steps that are often exactly 0 (flat
# runs) and change sign (local extrema)
gaps = st.lists(st.floats(0.01, 3.0), min_size=1, max_size=39)
steps = st.one_of(st.just(0.0), st.floats(-4.0, 4.0))


@settings(max_examples=40, deadline=None)
@given(st.floats(-5.0, 5.0), gaps, st.data())
def test_table_matches_scipy_pchip(x0, h, data):
    from scipy.interpolate import PchipInterpolator

    x = x0 + np.concatenate(([0.0], np.cumsum(h)))
    assume(np.all(np.diff(x) > 0))
    y = np.cumsum([data.draw(levels)] + data.draw(st.lists(steps, min_size=len(h), max_size=len(h))))
    # inside, beyond both ends, exactly at the knots, and not finite
    frac = np.array(data.draw(st.lists(st.floats(-1.0, 2.0), max_size=30)))
    u = np.concatenate((x[0] + frac * (x[-1] - x[0]), x,
                        [x[0] - 50.0, x[-1] + 50.0, np.nan, np.inf, -np.inf]))
    tab = TabulatedPotential(x, y)
    ref = PchipInterpolator(x, y, extrapolate=True)
    assert np.array_equal(tab.phi(u), ref(u), equal_nan=True)
    assert np.array_equal(tab.phi_prime(u), ref.derivative()(u), equal_nan=True)


def _runs_by_loop(r, v, left, right):
    head = 0
    while head < r.size and (r[head], v[head]) == left:
        head += 1
    tail = 0
    while tail < r.size and (r[-1 - tail], v[-1 - tail]) == right:
        tail += 1
    return head, tail


# Chains whose atoms are each at the left state, at the right state or
# elsewhere, the states equal or not: the whole chain at one state, too.
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), seeds, st.booleans(), st.floats(0.0, 1.0))
@example(n=30, seed=0, same_states=True, mixed=0.0)
@example(n=30, seed=1, same_states=False, mixed=0.0)
def test_state_runs_equal_runs_by_loop(n, seed, same_states, mixed):
    rng = np.random.default_rng(seed)
    left, right = (-1.0, 1.0), ((-1.0, 1.0) if same_states else (1.0, -1.0))
    # each atom at the left state, at the right state, or (with odds
    # ``mixed``) off both, the left-state atoms mostly before the others
    kind = np.where(rng.uniform(size=n) < mixed, 2, np.arange(n) >= rng.integers(0, n + 1))
    r = np.where(kind == 0, left[0], np.where(kind == 1, right[0], rng.uniform(-1, 1, n)))
    v = np.where(kind == 0, left[1], np.where(kind == 1, right[1], rng.uniform(-1, 1, n)))
    head, tail = _runs_by_loop(r, v, left, right)
    assert lattice._state_runs(ChainState(r, v, 0.0, 0.01, *left, *right)) == (head, tail)


# Velocity profiles with runs at the two states (equal or not, at the level,
# or so near it that d * d underflows) and atoms off them, and any runs no
# longer than the true ones: the crossing read between the runs is
# front_crossing's over the whole chain.
@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), seeds, st.sampled_from([-1.0, 0.0, 1.0, 2e-170]),
       st.sampled_from([-1.0, 0.0, 1.0, 2e-170]),
       st.sampled_from(["random", "minus", "plus", "tiny", "zero", "nan"]),
       st.floats(0.0, 0.5), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
# five atoms at 1.0, then five at 2e-170 with d * d underflowing: the first
# crossing is the right run's first pair, beyond the atoms read
@example(n=10, seed=1, v_minus=1.0, v_plus=2e-170, where="tiny", off=0.0, at_head=1.0,
         at_tail=1.0)
def test_crossing_between_runs_equals_front_crossing(n, seed, v_minus, v_plus, where, off,
                                                     at_head, at_tail):
    rng = np.random.default_rng(seed)
    v = np.where(np.arange(n) < rng.integers(0, n + 1), v_minus, v_plus)
    v = np.where(rng.uniform(size=n) < off, rng.uniform(-1.5, 1.5, n), v)
    level = {"random": rng.uniform(-1.5, 1.5), "minus": v_minus, "plus": v_plus,
             "tiny": 1e-170, "zero": 0.0, "nan": np.nan}[where]
    head, tail = _runs_by_loop(v, v, (v_minus, v_minus), (v_plus, v_plus))
    head, tail = int(at_head * head), int(at_tail * tail)
    got = lattice._crossing_between_runs(v, level, v_minus, v_plus, head, tail)
    assert repr(got) == repr(front_crossing(v, level))


# Chains shorter than one density block, exactly one block, and not a
# multiple of it, read in full at the first snapshot, then through windows
# of a live state that widen from anywhere, then in full again from a copy:
# every energy is total_energy's float.
BLOCK = lattice._DENSITY_BLOCK


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3 * BLOCK + 10), seeds, st.integers(1, 5))
@example(n=BLOCK - 1, seed=0, snapshots=3)
@example(n=BLOCK, seed=1, snapshots=3)
@example(n=2 * BLOCK + 1, seed=2, snapshots=3)
def test_energy_law_blocks_equal_total_energy(n, seed, snapshots):
    rng = np.random.default_rng(seed)
    pot = QuarticPotential(0.05)
    law = EnergyLaw(pot)
    r, v = np.empty(n), np.empty(n)
    lo, hi = sorted(int(i) for i in rng.integers(0, n + 1, 2))
    copies = []
    for k in range(snapshots):
        r[:lo], v[:lo], r[hi:], v[hi:] = -1.0, 1.0, 1.0, -1.0
        r[lo:hi], v[lo:hi] = rng.uniform(-1.5, 1.5, (2, hi - lo))
        law.add(ChainState(r, v, float(k), 0.01, -1.0, 1.0, 1.0, -1.0, (lo, hi)))
        copies.append(ChainState(r.copy(), v.copy(), float(k), 0.01, -1.0, 1.0, 1.0, -1.0))
        lo, hi = int(rng.integers(0, lo + 1)), int(rng.integers(hi, n + 1))
    law.add(copies[-1])
    assert law.energies == [total_energy(c, pot) for c in copies + copies[-1:]]


def _outcome(run):
    """What ``run()`` returns, or the repr of the BlowUp or ValueError it raises."""
    try:
        return run()
    except (BlowUp, ValueError) as exc:
        return repr(exc)


fronts = st.one_of(
    st.just(NORMALIZED),
    st.builds(lambda rm, rp, vm, vp, same_v, sigma: FrontData(
        rm, rp, vm, vm if same_v else vp, sigma, (sigma**2, 0.0, 0.0)),
        st.floats(-1.2, 1.2), st.floats(-1.2, 1.2), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
        st.booleans(), st.floats(-3.0, 3.0)),
)


# Any front data.  Where the chain's front does not move at sigma, the atoms
# off the states part from those whose reference phase lies on the profile,
# and the sup error is read over the span of both.  Where v_minus == v_plus,
# both states sit at the crossing level and the crossing search reads the
# whole chain.  The first example is the default verify, in which adding the
# window offset after frac changes the last bit of 6 of 28 crossings.
@settings(max_examples=40, deadline=None)
@given(fronts, st.integers(60, 700), st.sampled_from([0.01, 0.02, 0.05]),
       st.integers(1, 60), st.integers(1, 500))
@example(fd=NORMALIZED, n_atoms=400, dt=0.01, stride=73, steps=2000)
@example(fd=FrontData(-1.0, 1.0, 0.5, 0.5, 1.0, (1.0, 0.0, 0.0)), n_atoms=300, dt=0.05,
         stride=7, steps=300)
@example(fd=FrontData(-1.0, 1.0, 1.0, -1.0, 2.5, (6.25, 0.0, 0.0)), n_atoms=500, dt=0.05,
         stride=9, steps=400)
def test_verify_front_equals_whole_chain(front_005, fd, n_atoms, dt, stride, steps):
    assume(steps >= stride)
    args = dict(gamma=front_005["gamma"], n_atoms=n_atoms, T=steps * dt, dt=dt, stride=stride)
    res, pot = front_005["result"], front_005["pot"]
    assert (_outcome(lambda: verify_front(res.profile, fd, pot, **args))
            == _outcome(lambda: whole_chain_verify(res, fd, pot, **args)))


# Any step up to the cap, subnormal ones included, any stride, and a span
# that need not be a whole number of steps: the times verify_front reports,
# and fits the speed through, are those evolve stamps on the snapshots it
# observes, k*dt after step k.
@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, lattice.MAX_DT, exclude_min=True), st.integers(1, 12),
       st.integers(1, 60), st.floats(-0.5, 0.5))
@example(dt=5e-324, stride=1, steps=1, frac=0.0)
def test_verify_front_announces_the_stamped_times(front_005, dt, stride, steps, frac):
    T = (steps + frac) * dt
    n_steps = lattice.chain_clock(dt, T)
    assume(n_steps >= stride)
    times = [k * dt for k in range(0, n_steps + 1, stride)]
    res, pot, gamma = front_005["result"], front_005["pot"], front_005["gamma"]
    state = lattice.init_from_front(res, NORMALIZED, n_atoms=60, dt=dt)
    _, snaps = lattice.evolve(state, pot, T, gamma=gamma, snapshot_stride=stride)
    assert times == [state.t] + [s.t for s in snaps]
    # A step so small that the centred times square to 0 leaves the speed
    # fit no slope, and it raises; the times it was given are read all the same.
    with (np.errstate(all="ignore"),
          mock.patch.object(lattice, "front_speed", wraps=lattice.front_speed) as fit):
        try:
            check = verify_front(res.profile, NORMALIZED, pot, gamma=gamma, n_atoms=60, T=T,
                                 dt=dt, stride=stride)
        except ValueError as exc:
            assert "no finite slope" in str(exc)
        else:
            assert check.times == times
    assert fit.call_args.args[0] == times


def decimals(lo, hi):
    """Floats rounded to 6 decimals, none so tiny that a product underflows."""
    return st.floats(lo, hi).map(lambda x: round(x, 6))


def exact_least_squares_slope(times, crossings):
    """The least-squares slope in rational arithmetic, rounded once."""
    t, c = [Fraction(x) for x in times], [Fraction(x) for x in crossings]
    t_mean, c_mean = sum(t) / len(t), sum(c) / len(c)
    return float(sum((a - t_mean) * (b - c_mean) for a, b in zip(t, c))
                 / sum((a - t_mean) ** 2 for a in t))


# Snapshot times from t0 at a fixed step, crossings on a line with noise of
# up to a few atoms, and a random share of the snapshots without a crossing.
# Both bounds are relative to the data's own slope scale, max|c| / ptp(t),
# not to the slope, which may be near 0.  np.polyfit's bound also grows with
# the conditioning of its least-squares matrix [t, 1], max|t| / ptp(t): where
# two crossings 0.01 apart sit at t = 25 it is off by 1.5e-12 of the scale
# (and by up to 4e-10 of the slope elsewhere), while the closed form stays
# within 1e-15 of the scale from the slope in rational arithmetic.
@settings(max_examples=200, deadline=None)
@given(st.integers(2, 300), st.floats(0.0, 1000.0), st.sampled_from([0.01, 0.05, 0.73, 2.5]),
       decimals(-2.0, 2.0), decimals(-1e4, 1e4), decimals(0.0, 3.0), st.floats(0.0, 0.9), seeds)
def test_front_speed_matches_polyfit(count, t0, step, speed, c0, noise, hidden, seed):
    rng = np.random.default_rng(seed)
    times = t0 + step * np.arange(count)
    crossings = c0 + speed * times + rng.uniform(-noise, noise, count)
    shown = rng.uniform(size=count) >= hidden
    assume(shown.sum() >= 2)
    t, c = times[shown], crossings[shown]
    scale = np.max(np.abs(c)) / np.ptp(t)
    conditioning = max(1.0, np.max(np.abs(t)) / np.ptp(t))
    fit = lattice.front_speed(times.tolist(), np.where(shown, crossings, None).tolist())
    assert abs(fit - np.polyfit(t, c, 1)[0]) <= 1e-12 * scale * conditioning
    assert abs(fit - exact_least_squares_slope(t, c)) <= 1e-14 * scale


class DefectPotential(Potential):
    """A test potential given by its defect psi and psi', with phi = u^2/2 - psi."""

    def __init__(self, psi, psi_prime):
        self._psi, self._psi_prime = psi, psi_prime

    def psi(self, u):
        return self._psi(np.asarray(u, dtype=float))

    def psi_prime(self, u):
        return self._psi_prime(np.asarray(u, dtype=float))

    def phi(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u**2 - self._psi(u)

    def phi_prime(self, u):
        u = np.asarray(u, dtype=float)
        return u - self._psi_prime(u)


def tied_minima(level, centre, width):
    """psi = ``level`` on |u| within ``width`` of ``centre`` and 1 + u^2
    elsewhere: equal minima on both sides, far apart in the scan."""
    return DefectPotential(
        lambda u: np.where(np.abs(np.abs(u) - centre) < width, level, 1.0 + u * u),
        lambda u: 2.0 * u)


def nan_inside(beta, centre, width, force):
    """The quartic defect, NaN on |u - centre| < width: psi only, or also
    psi' and so the force."""
    def hole(u, f):
        return np.where(np.abs(u - centre) < width, np.nan, f)

    return DefectPotential(
        lambda u: hole(u, beta * (u * u - 1.0) ** 2),
        lambda u: hole(u, 4.0 * beta * u * (u * u - 1.0)) if force else
        4.0 * beta * u * (u * u - 1.0))


def random_table(seed, n):
    """A user_table on n random knots of [-7, 7] with random values."""
    rng = np.random.default_rng(seed)
    u = np.unique(rng.uniform(-7.0, 7.0, n))
    assume(u.size >= 2)
    phi = 0.5 * u**2 - rng.uniform(0.0, 0.3) * (u**2 - 1.0) ** 2 + rng.normal(0.0, 0.01, u.size)
    return TabulatedPotential(u, phi)


scan_potentials = st.one_of(
    st.builds(QuarticPotential, st.floats(0.01, 5.0)),
    st.builds(GraphViolatingPotential, st.floats(0.01, 2.0), st.floats(-0.99, -0.01)),
    st.builds(TiltedPotential, st.floats(0.01, 2.0), st.floats(-0.5, 0.5)),
    st.builds(random_table, seeds, st.integers(2, 40)),
    st.builds(tied_minima, st.sampled_from([-1e-3, 0.0, 1e-3]), st.floats(1.5, 5.0),
              st.floats(0.01, 0.3)),
    st.builds(nan_inside, st.floats(0.01, 1.0), st.floats(-6.0, 6.0), st.floats(1e-3, 0.5),
              st.booleans()),
)
# the module's block, and blocks that split the scans into many pieces
scan_blocks = st.sampled_from([potentials._SCAN_BLOCK, 1000, 97])


def _scan_outcome(run):
    """The repr of what ``run()`` returns, a report as its dict, or of the
    InvariantBoundNotFound it raises; the repr tells -0.0 from 0.0 and
    equates two NaNs."""
    try:
        out = run()
    except InvariantBoundNotFound as exc:
        return repr(exc)
    return repr(out.to_dict() if hasattr(out, "to_dict") else out)


# np.linspace's samples as the scans generate them, from index ``skip`` on
# in blocks and one at a time: random finite ranges of at least two samples
# whose step is not 0, as every scan's is.
@settings(max_examples=60, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.integers(2, 3 * potentials._SCAN_BLOCK),
       st.sampled_from([1, 97, 8192]), st.integers(0, 2), st.data())
@example(start=-6.0, stop=6.0, num=100_000, block=8192, skip=0, data=None)
@example(start=1.0, stop=6.0, num=2, block=8192, skip=1, data=None)
def test_samples_equal_np_linspace(start, stop, num, block, skip, data):
    assume((stop - start) / (num - 1) != 0)
    full = np.linspace(start, stop, num)
    u = potentials._Samples(start, stop, num)
    with mock.patch.object(potentials, "_SCAN_BLOCK", block):
        blocks = list(potentials._blocks(u, skip))
    assert [a for a, _ in blocks] == list(range(skip, num, block))
    got = np.concatenate([b for _, b in blocks]) if blocks else np.empty(0)
    assert got.tobytes() == full[skip:].tobytes()  # bit for bit, the sign of 0 too
    picks = {0, num - 1, -1}
    if data is not None:
        picks.add(data.draw(st.integers(-num, num - 1)))
    for i in picks:
        assert np.float64(u.at(i)).tobytes() == full[i].tobytes()
    for i in (num, -num - 1):
        with pytest.raises(IndexError):
            u.at(i)


# A scan whose size is not a multiple of the block, psi with equal minima in
# different blocks (the first is the minimum), and psi that is NaN somewhere
# in the scan (the first NaN is the minimum).
@settings(max_examples=40, deadline=None)
@given(scan_potentials, st.integers(1000, 30_000), st.floats(2.0, 7.0), scan_blocks)
@example(pot=tied_minima(0.0, 3.0, 0.2), n_samples=2 * 8192 + 1, halfwidth=6.0, block=8192)
@example(pot=tied_minima(0.0, 3.0, 0.2), n_samples=100_000, halfwidth=6.0, block=8192)
@example(pot=nan_inside(0.05, 3.0, 0.01, False), n_samples=100_000, halfwidth=6.0, block=8192)
@example(pot=QuarticPotential(0.05), n_samples=100_000, halfwidth=6.0, block=8192)
def test_check_assumptions_equals_whole_arrays(pot, n_samples, halfwidth, block):
    with mock.patch.multiple(potentials, _SCAN_BLOCK=block, _SCAN_SAMPLES=n_samples,
                             _SCAN_HALFWIDTH=halfwidth):
        got = _scan_outcome(lambda: check_assumptions(pot))
    assert got == _scan_outcome(lambda: whole_array_check_assumptions(pot, halfwidth, n_samples))


# The tail scan's last failing sample and the force's reach, NaN included.
@settings(max_examples=40, deadline=None)
@given(scan_potentials, st.integers(2, 20_000), st.floats(1.5, 8.0), scan_blocks)
@example(pot=nan_inside(0.05, 0.5, 0.1, True), n_samples=2000, limit=6.0, block=97)
@example(pot=QuarticPotential(0.3), n_samples=100_000, limit=6.0, block=8192)
def test_invariant_bound_equals_whole_arrays(pot, n_samples, limit, block):
    with mock.patch.multiple(potentials, _SCAN_BLOCK=block, _SCAN_SAMPLES=n_samples,
                             _SCAN_HALFWIDTH=limit):
        got = _scan_outcome(lambda: compute_invariant_bound(pot))
    assert got == _scan_outcome(lambda: whole_array_invariant_bound(pot, limit, n_samples))


def test_invariant_bound_stops_at_a_nan_force():
    # The force is NaN on |u - 0.5| < 0.1, inside the first round's
    # [-Gamma, Gamma]: the search raises in that round, naming the NaN, after
    # its 13 blocks of the force (not all 64 rounds' 832).  A flow still
    # falls back to gamma = 2, and the admissibility report has no gamma.
    from fpufronts.cli import flow_gamma

    pot = nan_inside(0.05, 0.5, 0.1, True)
    with mock.patch.object(pot, "phi_prime", wraps=pot.phi_prime) as force:
        with pytest.raises(InvariantBoundNotFound, match="force is NaN"):
            compute_invariant_bound(pot)
    assert force.call_count == 13 == -(-potentials._SCAN_SAMPLES // potentials._SCAN_BLOCK)
    assert flow_gamma(pot) == (2.0, "fallback")
    report = check_assumptions(pot)
    assert report.gamma is None
    assert report.failed_conditions()[-1] == "invariant_bound"


# A converged front is a local minimizer of the action: a Gaussian bump of
# either sign, anywhere in [-8, 8] and 0.3 to 3 wide, or the steepest
# descent direction -grad L (``bump`` None) scaled to a peak of 1, each zero
# on the pinned window, does not lower L at eps = 1e-3 (a bump raises it by
# at least about 2e-8 on these fronts, -grad L by 2.8e-7 on the beta = 0.05
# front and 3.4e-7 on the beta = 0.3 one, where rounding is near 1e-16).
@settings(max_examples=25, deadline=None)
@given(st.booleans(), st.none() | st.tuples(st.floats(-8.0, 8.0), st.floats(0.3, 3.0),
                                            st.sampled_from([-1.0, 1.0])))
@example(non_monotone=False, bump=None)
@example(non_monotone=True, bump=None)
def test_converged_front_is_a_local_minimizer(front_005, front_03, non_monotone, bump):
    fx = front_03 if non_monotone else front_005
    w, pot = fx["result"].profile, fx["pot"]
    if bump is None:
        h = -gradient(w, pot).values
        h /= np.max(np.abs(h))
    else:
        centre, width, sign = bump
        h = sign * np.exp(-((w.nodes - centre) / width) ** 2)
    for end in w.pinned:
        h[end] = 0.0
    assert functional_L(w.with_values(w.values + 1e-3 * h), pot) >= functional_L(w, pot)
