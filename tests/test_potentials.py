import numpy as np
import pytest
from scipy.integrate import quad

from fpufronts import (
    GraphViolatingPotential,
    InvariantBoundNotFound,
    LinearForcePotential,
    QuarticPotential,
    TabulatedPotential,
    TiltedPotential,
    check_assumptions,
    compute_invariant_bound,
    make_potential,
    normalize_potential,
    solve_front_data,
)
from fpufronts.errors import InvalidScan


def test_quartic_psi_closed_form():
    pot = QuarticPotential(0.05)
    u = np.linspace(-2, 2, 101)
    assert np.allclose(pot.psi(u), 0.05 * (u**2 - 1) ** 2, atol=1e-14)
    assert np.allclose(pot.psi(np.array([-1.0, 1.0])), 0.0, atol=1e-15)
    assert np.allclose(pot.phi(np.array([-1.0, 1.0])), 0.5, atol=1e-15)
    assert np.allclose(pot.phi_prime(np.array([-1.0, 1.0])), [-1.0, 1.0], atol=1e-15)


def test_derivative_consistency_all_families():
    rng = np.random.default_rng(7)
    u = rng.uniform(-1.8, 1.8, 400)
    eps = 1e-6
    pots = [
        QuarticPotential(0.3),
        GraphViolatingPotential(0.1, -0.5),
        TiltedPotential(0.1, 0.1),
        LinearForcePotential(),
    ]
    for pot in pots:
        fd = (pot.phi(u + eps) - pot.phi(u - eps)) / (2 * eps)
        assert np.max(np.abs(fd - pot.phi_prime(u))) < 5e-9, pot.family


def test_psi_is_defect_of_phi():
    pot = TiltedPotential(0.2, 0.05)
    u = np.linspace(-2, 2, 101)
    assert np.allclose(pot.psi(u), 0.5 * u**2 - pot.phi(u), atol=1e-14)
    assert np.allclose(pot.psi_prime(u), u - pot.phi_prime(u), atol=1e-14)


def test_quartic_assumptions_hold():
    rep = check_assumptions(QuarticPotential(0.05))
    assert rep.all_ok
    assert rep.failed_conditions() == []
    assert rep.gamma is not None and rep.gamma >= 1.0
    # psi minimum sits at one of the two states
    assert abs(abs(rep.psi_argmin) - 1.0) < 1e-3
    assert rep.psi_min >= -rep.tolerance


def test_quartic_supersonic_boundary():
    # phi''(+-1) = 1 - 8*beta < 1 for every beta > 0
    for beta in (0.01, 0.3, 0.5):
        rep = check_assumptions(QuarticPotential(beta))
        assert rep.supersonic_ok


def test_graph_violating_fails_exactly_graph():
    pot = GraphViolatingPotential(0.1, -0.5)
    rep = check_assumptions(pot)
    assert not rep.graph_ok
    assert rep.monotone_tails_ok
    assert rep.supersonic_ok
    # psi(0) = beta*c is the depth of the dip
    assert pot.psi(0.0) == pytest.approx(-0.05, abs=1e-14)
    assert rep.psi_min <= -0.05 + 1e-6


def test_tilted_fails_graph_via_negative_state_value():
    pot = TiltedPotential(0.1, 0.1)
    rep = check_assumptions(pot)
    assert not rep.graph_ok
    assert pot.psi(-1.0) == pytest.approx(-0.2, abs=1e-14)
    # global minimum of the defect sits just below -1
    assert rep.psi_min == pytest.approx(-0.20561, abs=1e-4)
    # root of u^3 - u + eps/(4 beta) = 0 below -1
    assert rep.psi_argmin == pytest.approx(-1.1072, abs=1e-3)


def test_invariant_bound_quartic_values():
    # small beta: the bound hugs 1; larger beta: interior force maximum wins
    assert compute_invariant_bound(QuarticPotential(0.05)) == pytest.approx(1.0, abs=1e-3)
    gamma = compute_invariant_bound(QuarticPotential(0.3))
    pot = QuarticPotential(0.3)
    # independent oracle: maximize |phi'| over [-gamma, gamma] and check containment
    u = np.linspace(-gamma, gamma, 200_001)
    assert np.max(np.abs(pot.phi_prime(u))) <= gamma * (1 + 1e-10)
    assert gamma == pytest.approx(1.1465, abs=2e-3)


def test_invariant_bound_containment_property():
    rng = np.random.default_rng(3)
    for beta in rng.uniform(0.02, 0.45, 8):
        pot = QuarticPotential(float(beta))
        gamma = compute_invariant_bound(pot)
        u = np.linspace(-gamma, gamma, 50_001)
        assert np.max(np.abs(pot.phi_prime(u))) <= gamma * (1 + 1e-10)
        assert gamma >= 1.0


def test_invariant_bound_missing_for_identity_force():
    with pytest.raises(InvariantBoundNotFound):
        compute_invariant_bound(LinearForcePotential())


def test_scan_rejects_tiny_intervals():
    with pytest.raises(InvalidScan):
        check_assumptions(QuarticPotential(0.1), scan_halfwidth=1.0)
    with pytest.raises(InvalidScan):
        check_assumptions(QuarticPotential(0.1), n_samples=10)


def test_tabulated_roundtrip_matches_quartic():
    base = QuarticPotential(0.2)
    u = np.linspace(-3, 3, 2001)
    tab = TabulatedPotential(u, base.phi(u))
    x = np.linspace(-2.5, 2.5, 777)
    assert np.max(np.abs(tab.phi(x) - base.phi(x))) < 1e-6
    assert np.max(np.abs(tab.phi_prime(x) - base.phi_prime(x))) < 1e-3
    # interpolant derivative matches a central difference of the interpolant
    # (the piecewise cubic has kinks in phi''' at the knots, so the central
    # difference carries an O(eps^2 |phi'''|) error there)
    eps = 1e-6
    fd = (tab.phi(x + eps) - tab.phi(x - eps)) / (2 * eps)
    assert np.max(np.abs(fd - tab.phi_prime(x))) < 1e-7


def test_two_sample_table_is_linear():
    # as in SciPy, two samples give the straight line through them, extended
    tab = TabulatedPotential([-1.0, 3.0], [2.0, -6.0])
    x = np.array([-4.0, -1.0, 0.0, 1.5, 3.0, 7.0])
    assert np.array_equal(tab.phi(x), 2.0 - 2.0 * (x + 1.0))
    assert np.array_equal(tab.phi_prime(x), np.full_like(x, -2.0))


def test_table_end_slopes_keep_shape():
    # left end: the three-point slope -0.5 has the wrong sign and becomes 0;
    # right end: -3.5 overshoots where the secants change sign and is clipped
    # to 3 times the end secant, -3. SciPy does the same.
    from scipy.interpolate import PchipInterpolator

    u, phi = [0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 5.0, 4.0]
    tab = TabulatedPotential(u, phi)
    assert tab.phi_prime(np.array([0.0, 3.0])).tolist() == [0.0, -3.0]
    x = np.linspace(-1.0, 4.0, 101)
    ref = PchipInterpolator(u, phi)
    assert np.array_equal(tab.phi(x), ref(x))
    assert np.array_equal(tab.phi_prime(x), ref.derivative()(x))


def test_factory_dispatch_and_unknown_family():
    pot = make_potential("quartic", {"beta": 0.1})
    assert isinstance(pot, QuarticPotential)
    pot = make_potential("graph_violating", {"beta": 0.1, "c": -0.3})
    assert isinstance(pot, GraphViolatingPotential)
    with pytest.raises(ValueError):
        make_potential("cubic", {})


def test_parameter_validation():
    with pytest.raises(ValueError):
        QuarticPotential(-0.1)
    with pytest.raises(ValueError):
        GraphViolatingPotential(0.1, 0.5)
    with pytest.raises(ValueError):
        GraphViolatingPotential(0.1, -1.5)


def test_graph_violating_psi_integral_oracle():
    # quadrature oracle for the defect mass used in plateau-slope predictions
    pot = GraphViolatingPotential(0.1, -0.5)
    val, _ = quad(lambda x: float(pot.psi(x)), -1.0, 1.0)
    direct = np.trapezoid(pot.psi(np.linspace(-1, 1, 400_001)), dx=2 / 400_000)
    assert direct == pytest.approx(val, abs=1e-10)


# phi_prime as each family wrote it before it took ``out``: the oracle of
# the floats and of the type returned for a scalar or a 0-d u
def _quartic_force(beta, u):
    u = np.asarray(u, dtype=float)
    return u - 4.0 * beta * u * (u**2 - 1.0)


def _table_force(tab, u):
    x, c = tab.u_samples, tab._dc
    u = np.asarray(u, dtype=float)
    i = np.searchsorted(x[1:-1], u, side="right")
    s = u - x[i]
    res = 0.0 + c[-1][i]
    z = s
    for k in range(c.shape[0] - 2, -1, -1):
        res = res + c[k][i] * z
        if k:
            z = z * s
    return res


def _force_families():
    """(potential, its force as written before ``out``) per family."""
    tilted = TiltedPotential(0.1, 0.1)
    table = TabulatedPotential(np.linspace(-4.0, 4.0, 161),
                               QuarticPotential(0.1).phi(np.linspace(-4.0, 4.0, 161)))
    # tilted, so that the renormalization subtracts a mean force
    norm = normalize_potential(tilted, solve_front_data(-1.0, 1.0, None, 1, tilted))

    def gv_force(u):
        u = np.asarray(u, dtype=float)
        return u - 2.0 * 0.1 * u * (u**2 - 1.0) * (3.0 * u**2 + 2.0 * -0.5 - 1.0)

    def norm_force(u):
        u = np.asarray(u, dtype=float)
        base = _quartic_force(0.1, norm.state(u)) - 0.1
        return 2.0 * base / norm._j_fp - 2.0 * norm._m_fp / norm._j_fp

    return {
        "quartic": (QuarticPotential(0.3), lambda u: _quartic_force(0.3, u)),
        "tilted": (tilted, lambda u: _quartic_force(0.1, u) - 0.1),
        "graph_violating": (GraphViolatingPotential(0.1, -0.5), gv_force),
        "user_table": (table, lambda u: _table_force(table, u)),
        "linear_force": (LinearForcePotential(), lambda u: np.asarray(u, dtype=float)),
        "normalized": (norm, norm_force),
    }


_FORCE_POINTS = np.concatenate((
    np.random.default_rng(11).uniform(-6.0, 6.0, 300),
    [-0.0, 0.0, -1.0, 1.0, 5e-324, 1e200, -1e200, np.inf, -np.inf, np.nan],
))


def _same(a, b):
    """Same type, shape and bits, NaNs and signed zeros included."""
    return (type(a) is type(b) and np.shape(a) == np.shape(b)
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


@pytest.mark.parametrize("family", ["quartic", "tilted", "graph_violating", "user_table",
                                    "linear_force", "normalized"])
def test_phi_prime_writes_its_floats_into_out(family):
    # phi_prime(u, out=buf) returns buf holding exactly phi_prime(u), and
    # both are the floats of the force as written before it took out; a
    # scalar or 0-d u still gets the type it got then
    pot, force = _force_families()[family]
    with np.errstate(all="ignore"):
        u = _FORCE_POINTS.copy()
        assert _same(pot.phi_prime(u), force(u))
        buf = np.full_like(u, 7.0)
        assert pot.phi_prime(u, out=buf) is buf
        assert _same(buf, force(u))
        assert np.array_equal(u, _FORCE_POINTS, equal_nan=True)  # u is left as it was
        for x in (0.6, -0.0, 1e200, np.float64(-1.7), np.array(2.5), np.array(np.nan)):
            assert _same(pot.phi_prime(x), force(x))
            buf = np.empty(())
            assert pot.phi_prime(x, out=buf) is buf
            assert _same(buf, np.asarray(force(x)))
