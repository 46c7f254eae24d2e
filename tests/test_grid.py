import numpy as np
import pytest

from fpufronts import (
    GridProfile,
    apply_averaging,
    averaged_extended,
    inner_product,
    shock_profile,
    window_kernel,
)
from fpufronts.grid import MAX_FLOATS, check_grid

from conftest import compact_perturbation, pinned_tanh_profile


def test_grid_alignment_enforced():
    # D = 3000 gives h = 1/75, K = 37.5: window edge misses the nodes
    with pytest.raises(ValueError, match=r"1/\(2h\) = 37.5 must be a positive integer"):
        GridProfile(20.0, 3000, np.zeros(3001))
    prof = GridProfile(20.0, 3200, np.zeros(3201))
    assert prof.K == 40
    assert prof.h == pytest.approx(1 / 80)


@pytest.mark.parametrize("D", [MAX_FLOATS, 400_000_000_000_000_000_000])
def test_grid_beyond_numpy_arrays_refused(D):
    # aligned (K = 1), but D + 1 nodes are more floats than a numpy array holds
    with pytest.raises(ValueError, match=rf"D \+ 1 = {D + 1} nodes exceed the {MAX_FLOATS} "
                                         "floats numpy holds in one array"):
        check_grid(D / 4, D)
    check_grid((MAX_FLOATS - 1) / 4, MAX_FLOATS - 1)


def test_shock_profile_is_signum_with_zero_origin():
    sh = shock_profile(20.0, 3200)
    nodes = sh.nodes
    mid = sh.index_of(0.0)
    assert sh.values[mid] == 0.0
    assert np.all(sh.values[nodes < 0] == -1.0)
    assert np.all(sh.values[nodes > 0] == 1.0)


def test_window_kernel_sums_to_one():
    for K in (1, 5, 40):
        kern = window_kernel(K)
        assert kern.size == 2 * K + 1
        assert np.sum(kern) == pytest.approx(1.0, abs=1e-14)


def test_averaged_shock_is_linear_ramp():
    # exact integral of sgn over the unit window centred at phi is 2*phi;
    # at |phi| = 1/2 the window endpoint hits the zero-valued jump node and
    # the trapezoid weight costs exactly h/2
    sh = shock_profile(20.0, 3200)
    u = apply_averaging(sh)
    nodes = sh.nodes
    ramp = np.clip(2 * nodes, -1.0, 1.0)
    err = np.abs(u.values - ramp)
    edge = np.isclose(np.abs(nodes), 0.5)
    assert np.max(err[~edge]) < 1e-13
    assert np.max(err[edge]) == pytest.approx(sh.h / 2, abs=1e-13)


def test_averaging_fixes_constants():
    prof = GridProfile(20.0, 3200, np.full(3201, 0.7), left_value=0.7, right_value=0.7)
    u = apply_averaging(prof)
    assert np.max(np.abs(u.values - 0.7)) < 1e-14


def test_averaging_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        w1 = compact_perturbation(rng)
        w2 = compact_perturbation(rng)
        lhs = inner_product(apply_averaging(w1), w2)
        rhs = inner_product(w1, apply_averaging(w2))
        assert abs(lhs - rhs) < 1e-12


def test_averaging_sup_norm_contraction():
    rng = np.random.default_rng(13)
    for _ in range(20):
        w = pinned_tanh_profile(rng)
        u = apply_averaging(w)
        assert np.max(np.abs(u.values)) <= np.max(np.abs(w.values)) + 1e-14


def test_averaging_spectral_symbol():
    L, D = 20.0, 3200
    nodes = np.linspace(-L, L, D + 1)
    h = 2 * L / D
    for k in (0.5, 1.0, 2.0, 5.0):
        w = GridProfile(L, D, np.sin(k * nodes),
                        left_value=float(np.sin(-k * L)),
                        right_value=float(np.sin(k * L)))
        u = apply_averaging(w)
        rho = 2 * np.sin(k / 2) / k
        interior = np.abs(nodes) <= L - 2
        err = np.max(np.abs(u.values[interior] - rho * np.sin(k * nodes[interior])))
        # composite trapezoid of cos over the window: leading error k sin(k/2) h^2 / 6
        assert err <= 1.05 * k * np.sin(k / 2) / 6 * h**2 + 1e-12


def test_averaging_derivative_identity():
    # d/dphi (A W) (phi) = W(phi + 1/2) - W(phi - 1/2)
    rng = np.random.default_rng(17)
    w = pinned_tanh_profile(rng)
    u = apply_averaging(w)
    K, h = w.K, w.h
    central = (u.values[2:] - u.values[:-2]) / (2 * h)
    shifted = np.zeros_like(central)
    v = w.extended(K)
    # node i of central corresponds to extended index i + 1 + K
    idx = np.arange(1, w.D)
    shifted = (v[idx + 2 * K] - v[idx]) / 1.0
    assert np.max(np.abs(central - shifted)) < 50 * h**2


def test_extended_profile_and_tails():
    sh = shock_profile(20.0, 3200)
    ext = sh.extended(80)
    assert ext.size == 3201 + 160
    assert np.all(ext[:80] == -1.0)
    assert np.all(ext[-80:] == 1.0)
    u_ext = averaged_extended(sh, 80)
    assert u_ext.size == ext.size
    assert np.all(u_ext[:80] == -1.0)


def test_inner_product_grid_mismatch():
    a = shock_profile(20.0, 3200)
    b = shock_profile(20.0, 1600)
    with pytest.raises(ValueError, match="profiles live on different grids"):
        inner_product(a, b)


def test_index_of_round_trip():
    sh = shock_profile(20.0, 3200)
    for phi in (-20.0, -3.2125, 0.0, 7.05, 20.0):
        i = sh.index_of(phi)
        assert abs(sh.nodes[i] - phi) < sh.h / 2 + 1e-12
