import oracle
from workloads import SOLVE_CASES


def _full_profile(case, reference):
    """A profile of D+1 nodes whose sampled nodes equal the reference."""
    D = SOLVE_CASES[case][0]["grid"]["D"]
    stride = oracle.profile_stride(D)
    w = [0.0] * (D + 1)
    for i, x in enumerate(reference[case]["profile_w"]):
        w[i * stride] = x
    return w


def test_front_passes_at_reference_and_fails_when_moved():
    reference = oracle.load_reference()
    summary = {"outcome": "front_converged", "iterations": 1, "final_grad_norm": 9e-9, "plateau_value": None}
    w = _full_profile("desk.q005", reference)
    assert oracle.check_solve("desk.q005", summary, w, reference) == []
    w[1600] += 10 * oracle.PROFILE_TOL
    assert oracle.check_solve("desk.q005", summary, w, reference)
    assert oracle.check_solve("desk.q005", dict(summary, final_grad_norm=2e-8),
                              _full_profile("desk.q005", reference), reference)


def test_wrong_label_and_plateau_residual_are_reported():
    reference = oracle.load_reference()
    plateau = {"outcome": "plateau_diverging", "iterations": 100, "final_grad_norm": 0.1}
    assert oracle.check_solve("fine.tilt", dict(plateau, plateau_value=-1.10716), [], reference) == []
    assert oracle.check_solve("fine.tilt", dict(plateau, plateau_value=-1.0), [], reference)
    assert oracle.check_solve("fine.tilt", dict(plateau, outcome="max_iters_reached", plateau_value=None),
                              [], reference)


def test_unlabelled_case_checks_convergence_not_label():
    summary = {"outcome": "max_iters_reached", "iterations": 112, "final_grad_norm": 9e-9, "plateau_value": None}
    assert oracle.check_solve("desk.tab005", summary, [], {}) == []
    assert oracle.check_solve("desk.tab005", dict(summary, final_grad_norm=1e-3), [], {})
