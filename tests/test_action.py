import numpy as np
import pytest
from scipy.integrate import quad

from fpufronts import (
    GraphViolatingPotential,
    GridProfile,
    QuarticPotential,
    TabulatedPotential,
    TiltedPotential,
    apply_averaging,
    functional_L,
    functional_N,
    functional_P,
    gradient,
    n_identity_check,
    normalize_potential,
    quadratic_M,
    shock_profile,
    solve_front_data,
)
from fpufronts.action import Evaluation

from conftest import compact_perturbation, pinned_tanh_profile


def test_n_of_shock_closed_form():
    # (A W_sh)(phi) = 2 phi on |phi| <= 1/2, so N = (1/2) * int(1 - 4 phi^2) = 1/3.
    # The zero value at the jump node costs h/2, so the oracle needs a fine mesh.
    sh = shock_profile(2.5, 50_000)
    assert abs(functional_N(sh) - 1 / 3) < 1e-4


def test_p_of_shock_quadrature_oracle():
    beta = 0.05
    pot = QuarticPotential(beta)
    # independent oracle: psi(2 phi) integrated over the ramp
    oracle, _ = quad(lambda p: beta * ((2 * p) ** 2 - 1) ** 2, -0.5, 0.5)
    assert oracle == pytest.approx(8 * beta / 15, abs=1e-12)
    sh = shock_profile(2.5, 50_000)
    assert abs(functional_P(sh, pot) - oracle) < 1e-6


def test_functionals_require_exact_tails():
    sh = shock_profile(20.0, 3200)
    v = sh.values.copy()
    v[3] = -0.999
    with pytest.raises(ValueError, match="outer nodes must agree exactly with the boundary extension"):
        functional_N(sh.with_values(v))


def test_quadratic_m_nonnegative():
    rng = np.random.default_rng(23)
    for _ in range(50):
        d = compact_perturbation(rng, scale=0.5)
        assert quadratic_M(d) >= -1e-12


def test_quadratic_m_rejects_nonzero_tails():
    d = GridProfile(20.0, 3200, np.ones(3201), left_value=0.0, right_value=0.0)
    with pytest.raises(ValueError, match="perturbation must vanish on the boundary region"):
        quadratic_M(d)


def test_decomposition_identity_exact():
    rng = np.random.default_rng(29)
    for _ in range(30):
        w1 = pinned_tanh_profile(rng)
        d = compact_perturbation(rng, scale=0.3)
        w2 = w1.with_values(w1.values + d.values)
        assert n_identity_check(w1, w2) < 1e-10


def test_integer_shift_invariance():
    sh = shock_profile(20.0, 3200)
    pot = QuarticPotential(0.1)
    k2 = 2 * sh.K  # one full phase unit
    shifted = sh.with_values(np.concatenate([np.full(k2, -1.0), sh.values[:-k2]]))
    assert abs(functional_L(shifted, pot) - functional_L(sh, pot)) < 1e-10


def test_gradient_support_of_shock():
    # residual of the shock is confined to one window width around the jump
    sh = shock_profile(20.0, 3200)
    pot = QuarticPotential(0.05)
    g = gradient(sh, pot)
    nodes = sh.nodes
    outside = np.abs(nodes) > 1.0 + sh.h
    assert np.max(np.abs(g.values[outside])) < 1e-14


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    eps = 1e-5
    for beta in (0.05, 0.3):
        pot = QuarticPotential(beta)
        for _ in range(5):
            w = pinned_tanh_profile(rng)
            d = compact_perturbation(rng, scale=0.2)
            g = gradient(w, pot)
            directional = float(np.sum(g.values * d.values) * w.h)
            plus = functional_L(w.with_values(w.values + eps * d.values), pot)
            minus = functional_L(w.with_values(w.values - eps * d.values), pot)
            fd = (plus - minus) / (2 * eps)
            assert fd == pytest.approx(directional, rel=1e-5, abs=1e-12)


def test_action_drops_from_shock_to_front():
    # averaging the transition always pays in N, and the quartic front exists
    rng = np.random.default_rng(41)
    sh = shock_profile(20.0, 3200)
    pot = QuarticPotential(0.05)
    w = pinned_tanh_profile(rng, n_bumps=0)
    assert functional_L(w, pot) < functional_L(sh, pot) + 1.0


def test_averaged_profile_tails_are_exact():
    rng = np.random.default_rng(43)
    w = pinned_tanh_profile(rng)
    u = apply_averaging(w)
    k = w.K
    assert np.all(u.values[:k] == -1.0)
    assert np.all(u.values[-k:] == 1.0)


def _table():
    u = np.arange(-400, 401) / 100
    return TabulatedPotential(u, 0.5 * u**2 - 0.05 * (u**2 - 1.0) ** 2)


def _normalized():
    pot = QuarticPotential(0.05)
    return normalize_potential(pot, solve_front_data(-1.2, 1.2, None, +1, pot))


@pytest.mark.parametrize("D", [800, 3200, 12800])
@pytest.mark.parametrize("make_pot", [
    lambda: QuarticPotential(0.05), lambda: TiltedPotential(0.1, 0.1),
    lambda: GraphViolatingPotential(0.1, -0.5), _table, _normalized,
], ids=["quartic", "tilted", "graph_violating", "user_table", "normalized"])
def test_n_and_p_equal_np_trapezoid(D, make_pot):
    # N squares the extended W in place and P evaluates psi block by block
    # (1024 nodes, so D = 3200 and 12800 cross block edges); both give the
    # floats of np.trapezoid over whole arrays
    pot = make_pot()
    w = pinned_tanh_profile(np.random.default_rng(D), D=D)
    ev = Evaluation(w, pot)
    w_ext = w.extended(ev.pad)
    n = 0.5 * np.trapezoid(w_ext**2 - ev.u_ext**2, dx=w.h)
    p = np.trapezoid(pot.psi(ev.u_ext), dx=w.h)
    assert (ev.N.hex(), ev.P.hex()) == (float(n).hex(), float(p).hex())


@pytest.mark.parametrize("part", ["N", "P"])
def test_n_and_p_cannot_be_read_after_the_step_target(part):
    # the step target writes phi'(U) into U's buffer, so N and P read after
    # it would integrate the force; they raise instead, and read before it
    # they keep their floats
    pot = QuarticPotential(0.05)
    w = pinned_tanh_profile(np.random.default_rng(3), D=800)
    first, after = Evaluation(w, pot), Evaluation(w, pot)
    value = getattr(first, part)
    assert first.step_target.tobytes() == after.step_target.tobytes()
    assert getattr(first, part) == value
    with pytest.raises(RuntimeError, match="before the step target"):
        getattr(after, part)


@pytest.mark.parametrize("front", ["front_005", "front_03"])
def test_converged_front_shifted_by_one_node_keeps_its_action(front, request):
    # translation is the action's flat direction: a converged front moved one
    # node either way has the same L to rounding
    fx = request.getfixturevalue(front)
    w, pot = fx["result"].profile, fx["pot"]
    v = w.values
    for shifted in (np.concatenate([[-1.0], v[:-1]]), np.concatenate([v[1:], [1.0]])):
        assert abs(functional_L(w.with_values(shifted), pot) - functional_L(w, pot)) <= 1e-15
