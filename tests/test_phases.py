import numpy as np
import pytest

from fpufronts import (
    GridProfile,
    QuarticPotential,
    apply_averaging,
    eta_bar_for,
    interior_plateau,
    is_monotone,
    layer_cost,
    mu_bar_for,
    separate_phases,
    shock_profile,
    zero_set,
)
from fpufronts.errors import AnchorNotInZeroSet, EmptyZeroSet


def two_transition_profile(L=20.0, D=3200, plateau_width=10.0):
    """-1 -> +1 -> -1 -> +1 with interior plateaus of the given width."""
    nodes = np.linspace(-L, L, D + 1)
    v = np.full(D + 1, 1.0)
    v[nodes < -plateau_width - 2] = -1.0
    v[np.abs(nodes) < plateau_width / 2] = -1.0
    # smooth the three transitions a little
    for c, up in ((-plateau_width - 1, True), (-plateau_width / 2, False),
                  (plateau_width / 2, True)):
        ramp = np.clip((nodes - c), -1, 1)
        band = np.abs(nodes - c) <= 1
        v[band] = ramp[band] if up else -ramp[band]
    prof = GridProfile(L, D, v)
    k2 = 2 * prof.K
    v = prof.values.copy()
    v[:k2] = -1.0
    v[-k2:] = 1.0
    return prof.with_values(v)


def test_zero_set_of_averaged_shock():
    u = apply_averaging(shock_profile(20.0, 3200))
    idx = zero_set(u)
    phis = u.nodes[idx]
    assert np.max(np.abs(phis)) <= 0.25 + 1e-12
    assert np.min(np.abs(phis)) == 0.0


def test_zero_set_empty_for_constant():
    prof = GridProfile(20.0, 3200, np.ones(3201), left_value=1.0, right_value=1.0)
    with pytest.raises(EmptyZeroSet):
        zero_set(prof)


def test_eta_bar_value():
    assert eta_bar_for(1.0) == pytest.approx(1 / 8)
    assert eta_bar_for(2.0) == pytest.approx(1 / 16)


def test_mu_bar_positive_under_graph_condition():
    pot = QuarticPotential(0.1)
    mu = mu_bar_for(pot, 1.0)
    # smallest defect in the band 1/4 <= |u| <= 3/4 is at |u| = 3/4
    expected = 2 * (1 / 8) * 0.1 * (0.75**2 - 1) ** 2
    assert mu == pytest.approx(expected, rel=1e-3)
    assert mu > 0


def test_separate_phases_shock_single_layer():
    u = apply_averaging(shock_profile(20.0, 3200))
    sep = separate_phases(u, 1.0)
    assert sep.m == 1
    assert sep.signs == [-1, 1]
    lo, hi = sep.intervals[0]
    assert lo <= -0.25 and hi >= 0.25
    assert sep.sign_consistent


def test_separate_phases_intervals_cover_zero_set_and_are_ordered():
    u = apply_averaging(two_transition_profile())
    sep = separate_phases(u, 1.0)
    assert sep.m == 3
    assert sep.signs == [-1, 1, -1, 1]
    for (a, b), (c, d) in zip(sep.intervals[:-1], sep.intervals[1:]):
        assert b < c
    z = u.nodes[zero_set(u)]
    covered = np.zeros(z.size, dtype=bool)
    for lo, hi in sep.intervals:
        covered |= (z >= lo - 1e-12) & (z <= hi + 1e-12)
    assert np.all(covered)
    for (lo, hi) in sep.intervals:
        assert hi - lo >= 2 * sep.eta_bar - 1e-12


def test_separate_phases_sign_conflict_detection():
    # profile that dips to -0.9 inside a gap claimed positive
    L, D = 20.0, 3200
    nodes = np.linspace(-L, L, D + 1)
    v = np.tanh(3 * nodes)
    v[np.abs(nodes - 5.0) < 0.2] = -0.9
    prof = GridProfile(L, D, v)
    k2 = 2 * prof.K
    vv = prof.values.copy()
    vv[:k2] = -1.0
    vv[-k2:] = 1.0
    prof = prof.with_values(vv)
    sep = separate_phases(prof, 1.0)
    assert not sep.sign_consistent


def test_layer_cost_exceeds_bound():
    pot = QuarticPotential(0.1)
    sh = shock_profile(20.0, 3200)
    cost = layer_cost(sh, pot, 0.0, 1.0)
    assert cost >= mu_bar_for(pot, 1.0) - 1e-12
    assert cost > 0


def test_layer_cost_bad_anchor():
    pot = QuarticPotential(0.1)
    sh = shock_profile(20.0, 3200)
    with pytest.raises(AnchorNotInZeroSet):
        layer_cost(sh, pot, 10.0, 1.0)


def test_is_monotone():
    sh = shock_profile(20.0, 3200)
    assert is_monotone(sh)
    v = sh.values.copy()
    v[1600] = 0.5
    v[1601] = -0.5
    assert not is_monotone(sh.with_values(v))


def test_interior_plateau_detection():
    L, D = 20.0, 3200
    nodes = np.linspace(-L, L, D + 1)
    v = np.sign(nodes)
    v[np.abs(nodes) <= 3] = 0.2
    prof = GridProfile(L, D, v)
    found = interior_plateau(prof)
    assert found is not None
    val, run = found
    assert val == pytest.approx(0.2, abs=1e-6)
    assert run >= 6 / prof.h * 0.9


def test_interior_plateau_rejects_clean_front():
    L, D = 20.0, 3200
    nodes = np.linspace(-L, L, D + 1)
    prof = GridProfile(L, D, np.tanh(2 * nodes))
    assert interior_plateau(prof) is None
