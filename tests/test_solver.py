import numpy as np
import pytest

from fpufronts import (
    ActionReport,
    GraphViolatingPotential,
    QuarticPotential,
    SolverConfig,
    TiltedPotential,
    apply_averaging,
    classify_outcome,
    compute_invariant_bound,
    euler_step,
    gradient,
    is_monotone,
    minimize,
    separate_phases,
    shock_profile,
)
from fpufronts.errors import ConfigInvalid, NonFiniteAction, StepSizeUnderflow

from conftest import NaNBeyondPotential, UphillForcePotential, kept_target_minimize


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        SolverConfig(lambda0=1.5).validate()
    with pytest.raises(ConfigInvalid):
        SolverConfig(lambda0=0.0).validate()
    with pytest.raises(ConfigInvalid):
        SolverConfig(gamma=0.5).validate()
    SolverConfig().validate()


@pytest.mark.parametrize("grad_tol", [0.0, -1.0, float("nan")])
def test_config_rejects_nonpositive_grad_tol(grad_tol):
    with pytest.raises(ConfigInvalid, match="grad_tol"):
        SolverConfig(grad_tol=grad_tol).validate()


def test_euler_step_fixed_point(front_005):
    res = front_005["result"]
    pot = front_005["pot"]
    out = euler_step(res.profile, pot, 0.5)
    assert np.max(np.abs(out.values - res.profile.values)) < 1e-8


def test_euler_step_local_support():
    sh = shock_profile(20.0, 3200)
    pot = QuarticPotential(0.05)
    out = euler_step(sh, pot, 0.5)
    nodes = sh.nodes
    outside = np.abs(nodes) > 1.0 + sh.h
    assert np.max(np.abs(out.values[outside] - sh.values[outside])) < 1e-14


def test_euler_step_lambda_range():
    sh = shock_profile(20.0, 3200)
    with pytest.raises(ConfigInvalid):
        euler_step(sh, QuarticPotential(0.1), 1.0)


def test_front_converged_quartic_mild(front_005):
    res = front_005["result"]
    assert res.outcome == "front_converged"
    assert res.final_grad_norm <= 1e-8
    assert is_monotone(res.profile)
    g = gradient(res.profile, front_005["pot"])
    interior = np.abs(res.profile.nodes) <= res.profile.L - 1
    assert np.max(np.abs(g.values[interior])) < 1e-8


def test_front_converged_quartic_strong_overshoot(front_03):
    res = front_03["result"]
    assert res.outcome == "front_converged"
    assert not is_monotone(res.profile)
    assert np.max(res.profile.values) > 1.0
    assert np.min(res.profile.values) < -1.0


def test_action_history_nonincreasing(front_005, front_03):
    for fx in (front_005, front_03):
        ls = [rep.L for rep in fx["result"].history]
        assert all(b <= a + 1e-14 for a, b in zip(ls[:-1], ls[1:]))


def test_front_profile_antisymmetric(front_005):
    # odd force keeps the antisymmetry of the shock initial data
    v = front_005["result"].profile.values
    assert np.max(np.abs(v + v[::-1])) < 1e-10


def test_determinism(front_005):
    cfg = SolverConfig(gamma=front_005["gamma"])
    res = minimize(cfg, QuarticPotential(0.05))
    assert np.array_equal(res.profile.values, front_005["result"].profile.values)
    assert res.iterations == front_005["result"].iterations


def test_graph_violating_plateau_divergence():
    pot = GraphViolatingPotential(0.1, -0.5)
    cfg = SolverConfig(gamma=2.0)
    res = minimize(cfg, pot)
    assert res.outcome == "plateau_diverging"
    w = res.plateau_value
    assert abs(w - float(pot.phi_prime(w))) <= 1e-3
    assert abs(w) < 0.1  # the defect minimizer of this family sits at 0


def test_tilted_plateau_at_global_defect_minimizer():
    # the +0.1 tilt makes psi smallest near u = -1.107, where the flow
    # grows its plateau; see the acceptance notes for the phenomenology
    pot = TiltedPotential(0.1, 0.1)
    cfg = SolverConfig(gamma=2.0)
    res = minimize(cfg, pot)
    assert res.outcome == "plateau_diverging"
    assert res.plateau_value == pytest.approx(-1.107, abs=5e-3)


def test_mesh_refinement_consistency():
    pot = QuarticPotential(0.05)
    gamma = compute_invariant_bound(pot)
    coarse = minimize(SolverConfig(gamma=gamma, D=1600), pot)
    fine = minimize(SolverConfig(gamma=gamma, D=3200), pot)
    diff = np.max(np.abs(coarse.profile.values - fine.profile.values[::2]))
    h = coarse.profile.h
    assert diff < 2.0 * h**2


def test_classify_synthetic_plateau_history():
    # linearly decreasing action plus a widening interior plateau: only the
    # flow's own plateau check labels a run plateau_diverging, so a history
    # handed to the classifier is a run that stopped without that label
    history = [ActionReport(N=0.0, P=0.0, L=-0.001 * i, grad_norm=0.1)
               for i in range(600)]
    L, D = 20.0, 3200
    nodes = np.linspace(-L, L, D + 1)
    v = np.sign(nodes)
    v[np.abs(nodes) <= 4] = 0.15
    prof = shock_profile(L, D).with_values(v)
    out = classify_outcome(history, prof)
    assert out == "max_iters_reached"


def test_classify_collapsed_profile():
    history = [ActionReport(N=0.0, P=0.0, L=1.0, grad_norm=0.1)] * 10
    L, D = 20.0, 3200
    v = np.ones(D + 1)
    prof = shock_profile(L, D).with_values(v)
    out = classify_outcome(history, prof)
    assert out == "collapsed_to_constant"


def _halvings(lam: float, before: float) -> int | None:
    """k >= 0 with lam == before / 2**k exactly (halving is exact), else None."""
    k = 0
    while lam < before:
        lam *= 2.0
        k += 1
    return k if lam == before else None


def _check_lambda_history(res) -> None:
    lams = res.lambda_history
    assert len(lams) == len(res.history) == res.iterations + 1
    assert all(0.0 < lam <= 0.95 for lam in lams)
    # the first accepted step may already follow rejections of lambda0
    halvings, streak = _halvings(lams[1], lams[0]), 0
    for before, lam in zip(lams[1:-1], lams[2:]):
        streak += 1
        grown = min(1.5 * before, 0.95)
        if streak == 5:
            k = _halvings(lam, grown)
            assert k is not None, f"lambda {before!r} -> {lam!r} missed its growth to {grown!r}"
            streak = 0
        else:
            k = _halvings(lam, before)
            assert k is not None, f"lambda {before!r} -> {lam!r} is neither kept nor halved"
        if k:
            streak = 0
        halvings += k
    assert halvings == res.rejected_steps
    assert res.lambda_final == lams[-1]


def test_lambda_history_tracks_accepted_steps(front_005, front_03):
    # Between two accepted steps lambda is unchanged, grown by 1.5x (capped
    # at 0.95) or halved a whole number of times -- or grown and then halved,
    # when the step after a growth is rejected.  Growth happens exactly
    # after 5 accepted steps with no change of lambda, and the halvings add
    # up to the rejected steps.
    stiff = minimize(SolverConfig(gamma=2.0), QuarticPotential(2.0))
    assert front_03["result"].rejected_steps > 0 and stiff.rejected_steps > 0
    for res in (front_005["result"], front_03["result"], stiff):
        _check_lambda_history(res)


@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_stiff_quartic_does_not_stall(beta):
    # phi''(+-1) = 1 - 8 beta puts Hessian eigenvalues near 8 beta; a step
    # size that can only halve sits at 1 - 8 lambda ~ -1 and took about 3600
    # accepted steps here
    pot = QuarticPotential(beta)
    res = minimize(SolverConfig(gamma=2.0, D=3200), pot)
    assert res.outcome == "front_converged"
    assert res.iterations < 300
    ls = [rep.L for rep in res.history]
    assert all(b <= a + 1e-15 * max(1.0, abs(a)) for a, b in zip(ls[:-1], ls[1:]))


def test_flow_equals_a_loop_that_keeps_the_step_target():
    # minimize drops the step target once a candidate is formed and, after a
    # rejection, evaluates W's target again: the same floats as keeping it
    cfg = SolverConfig(gamma=2.0, D=800)
    pot = QuarticPotential(1.0)
    res = minimize(cfg, pot)
    w, history, lambdas, rejected = kept_target_minimize(cfg, pot)
    assert (res.outcome, res.iterations, res.rejected_steps) == ("front_converged", 58, 6)
    assert res.profile.values.tobytes() == w.values.tobytes()
    assert res.history == history
    assert res.lambda_history == lambdas
    assert res.rejected_steps == rejected


def test_constraint_set_entry_and_invariance(front_005, front_03):
    # Lemma-style invariance: once an iterate satisfies the sup-norm and
    # Lipschitz bounds, all later iterates do too; the shock initial datum
    # itself has quotient 1/h and needs a short smoothing transient.
    for fx in (front_005, front_03):
        gamma = fx["gamma"]
        sups = np.array(fx["sups"])
        quots = np.array(fx["quots"])
        assert np.all(sups <= gamma + 1e-12)
        ok = quots <= 2 * gamma + 1e-9
        entry = int(np.argmax(ok))
        assert entry <= 100
        assert np.all(ok[entry:])


def test_non_finite_action_stops_the_flow():
    # a NaN action compares False against the previous one, so without the
    # check the step is accepted and the flow runs on to max_iters
    with pytest.raises(NonFiniteAction):
        minimize(SolverConfig(gamma=2.0, max_iters=50), NaNBeyondPotential())


def test_step_size_underflow_raises():
    # every candidate raises the action, so lambda halves below 1e-14; the
    # flow must say so instead of classifying the untouched shock
    with pytest.raises(StepSizeUnderflow, match="rejected steps"):
        minimize(SolverConfig(gamma=2.0, D=800), UphillForcePotential())
