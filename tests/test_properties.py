"""Property tests of the averaging operator and the quadratic part over random
aligned grids, at the tolerances of the fixed-grid tests.

A grid is aligned when half the unit window is K whole cells: L = m/4 with
D = m K gives h = 1/(2K) for every integer m >= 8 (L >= 2) and K >= 1.
Profile values come from a seeded generator, so each example is a grid, a
seed and, where it matters, an extension value or a padding width.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fpufronts import (
    GridProfile,
    apply_averaging,
    averaged_extended,
    inner_product,
    n_identity_check,
    window_kernel,
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
