"""Projected explicit-Euler gradient flow for the discretized action.

The iteration map is

    W -> (1 - lambda) W + lambda A phi'(A W),    0 < lambda < 1,

started from shock initial data with the boundary region pinned to the
asymptotic states.  The step size adapts both ways: a step that increases
the action is rejected and halves lambda, and every 5 consecutive accepted
steps grow lambda by 1.5x, up to 0.95.  The recorded action history is
therefore non-increasing, and stiff potentials, whose largest Hessian
eigenvalue would leave a fixed lambda at the edge of stability, are not held
at the step size of their first rejection.  The flow either converges to a
front (zero gradient, heteroclinic tails), collapses to a constant, or
escapes to minus infinity through an extending interior plateau.

The plateau is caught inside the flow: every 50 accepted steps ``minimize``
compares the interior plateau with the one of the previous check, and a run
whose plateau grew while the action kept falling stops as
``plateau_diverging``.  ``classify_outcome`` labels every other stop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .action import ActionReport, Evaluation
from .errors import NonFiniteAction, StepSizeUnderflow
from .grid import DEFAULT_D, DEFAULT_L, GridProfile, shock_profile
from .phases import interior, interior_plateau
from .potentials import Potential

# Step-size control: lambda grows by _GROW after _GROW_AFTER consecutive
# accepted steps, never beyond _LAMBDA_MAX; a rejected step halves it.
_GROW_AFTER = 5
_GROW = 1.5
_LAMBDA_MAX = 0.95
# Below this step size a candidate differs from its iterate only by rounding.
_LAMBDA_MIN = 1e-14
# A diverging plateau extends within a few hundred iterations before the
# finite window arrests it, so the plateau is checked every _PLATEAU_EVERY
# accepted steps, against the action slope over the same steps.
_PLATEAU_EVERY = 50


@dataclass(frozen=True)
class SolverConfig:
    """The settings of one flow; building one raises ValueError on a bad setting."""

    lambda0: float = 0.5
    max_iters: int = 200_000
    grad_tol: float = 1e-8
    gamma: float = 1.0
    L: float = DEFAULT_L
    D: int = DEFAULT_D

    def __post_init__(self):
        if not (0.0 < self.lambda0 < 1.0):
            raise ValueError("lambda0 must lie in (0, 1)")
        if not self.grad_tol > 0.0:
            raise ValueError("grad_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("iteration limits must be positive")
        if self.gamma < 1.0:
            raise ValueError("gamma must be at least 1")


@dataclass
class RunResult:
    profile: GridProfile
    history: list[ActionReport]
    outcome: str
    final_grad_norm: float
    plateau_value: float | None = None
    iterations: int = 0
    lambda_final: float = 0.0
    lambda_history: list[float] = field(default_factory=list)
    rejected_steps: int = 0


def _pinned(values: np.ndarray, profile: GridProfile) -> np.ndarray:
    """Pin ``profile``'s pinned window to its boundary values in ``values``,
    in place."""
    head, tail = profile.pinned
    values[head], values[tail] = profile.left_value, profile.right_value
    return values


def _evaluated(w: GridProfile, pot: Potential) -> tuple[ActionReport, np.ndarray]:
    """The report of ``w`` and its step target A phi'(A W): all that a step
    reads of an iterate.  The evaluation, with its U = A W, ends here."""
    ev = Evaluation(w, pot)
    if not (np.isfinite(ev.L) and np.isfinite(ev.grad_norm)):
        raise NonFiniteAction(
            f"action {ev.L!r} or gradient norm {ev.grad_norm!r} is not finite; "
            "the potential or its force returned a non-finite value"
        )
    return ev.report(), ev.step_target


def _step(w: GridProfile, target: np.ndarray, lam: float) -> GridProfile:
    """(1 - lam) W + lam A phi'(A W) for W = ``w`` and its step target
    A phi'(A W), boundary re-pinned."""
    return w.with_values(_pinned((1.0 - lam) * w.values + lam * target, w))


def euler_step(w: GridProfile, pot: Potential, lam: float) -> GridProfile:
    """One explicit Euler step of the gradient flow, boundary region re-pinned."""
    if not (0.0 < lam < 1.0):
        raise ValueError("lambda must lie in (0, 1)")
    return _step(w, Evaluation(w, pot).step_target, lam)


def classify_outcome(
    history: list[ActionReport],
    profile: GridProfile,
    grad_tol: float = 1e-8,
) -> str:
    """Deterministic outcome classification of a run that did not diverge.

    Tie order: front_converged > collapsed_to_constant > max_iters_reached.
    ``plateau_diverging`` is not decided here: ``minimize`` stops a run with
    that outcome as soon as its plateau check fires.
    """
    if not history:
        raise ValueError("history must be non-empty")
    final = history[-1]
    v = profile.values
    nodes = profile.nodes
    left_tail = v[(nodes <= -(profile.L - 1.0))]
    right_tail = v[(nodes >= profile.L - 1.0)]
    tails_ok = (np.max(np.abs(left_tail + 1.0)) <= 1e-6
                and np.max(np.abs(right_tail - 1.0)) <= 1e-6)

    vi = interior(profile)
    spread = float(np.max(vi) - np.min(vi))
    heteroclinic = spread > 1.0  # genuinely connects the two phases

    if final.grad_norm <= grad_tol and tails_ok and heteroclinic:
        return "front_converged"

    if spread <= 2e-4:
        return "collapsed_to_constant"

    return "max_iters_reached"


def minimize(cfg: SolverConfig, pot: Potential, callback=None) -> RunResult:
    """Run the projected gradient flow from shock initial data.

    A candidate step whose action exceeds the current one by more than
    rounding (1e-15 relative) is rejected and halves lambda; after 5
    consecutive accepted steps lambda grows by 1.5x, capped at 0.95.
    ``lambda_history`` records the lambda of every accepted step and
    ``rejected_steps`` counts the rejections.

    ``callback``, when given, is invoked as ``callback(it, values)`` after
    every accepted step (and once with the initial data at it = 0).  Raises
    NonFiniteAction as soon as an evaluated profile has a non-finite action
    or gradient norm, and StepSizeUnderflow when rejections drive lambda
    below 1e-14.

    While a candidate is evaluated, and while the plateau is checked, the
    flow holds of the iterate only the profile W and its ``ActionReport``:
    the candidate is formed from W's step target A phi'(A W), which is then
    dropped.  An accepted candidate keeps the step target formed with its
    report for the next step, except across a plateau check; after a
    rejected step or a plateau check W's step target is evaluated again,
    which gives the same floats.  Each evaluation holds U = A W until its
    step target writes the force phi'(U) into U's own buffer.
    """
    w = shock_profile(cfg.L, cfg.D)
    _pinned(w.values, w)
    report, target = _evaluated(w, pot)
    lam = cfg.lambda0
    history: list[ActionReport] = [report]
    lambda_history: list[float] = [lam]
    if callback is not None:
        callback(0, w.values)

    plateau: tuple[float, int] | None = None
    outcome = None
    it = 0
    rejected = 0
    streak = 0  # accepted steps since lambda last changed
    while it < cfg.max_iters:
        if target is None:  # dropped by a rejected step or a plateau check
            target = Evaluation(w, pot).step_target
        cand, target = _step(w, target, lam), None
        cand_report, target = _evaluated(cand, pot)
        if cand_report.L > report.L + 1e-15 * max(1.0, abs(report.L)):
            cand = target = None
            lam *= 0.5
            rejected += 1
            streak = 0
            if lam < _LAMBDA_MIN:
                raise StepSizeUnderflow(
                    f"{rejected} rejected steps drove lambda to {lam!r} after "
                    f"{it} accepted steps at action {report.L!r}; no step size "
                    "lowers the action"
                )
            continue
        it += 1
        w, report = cand, cand_report
        history.append(report)
        lambda_history.append(lam)
        if callback is not None:
            callback(it, w.values)

        if report.grad_norm <= cfg.grad_tol:
            break

        if it % _PLATEAU_EVERY == 0:
            target = None  # the next step evaluates it again
            plateau_prev, plateau = plateau, interior_plateau(w)
            if plateau is not None and plateau_prev is not None:
                slope = (history[-_PLATEAU_EVERY - 1].L - history[-1].L) / _PLATEAU_EVERY
                if plateau[1] > plateau_prev[1] and slope > 1e-12:
                    outcome = "plateau_diverging"
                    break

        streak += 1
        if streak == _GROW_AFTER:
            streak = 0
            lam = min(_GROW * lam, _LAMBDA_MAX)

    if outcome is None:
        outcome = classify_outcome(history, w, grad_tol=cfg.grad_tol)

    plateau_value = None
    if outcome == "plateau_diverging":
        plateau_value = plateau[0]
    elif outcome == "collapsed_to_constant":
        vi = interior(w)
        plateau_value = float(0.5 * (np.max(vi) + np.min(vi)))

    return RunResult(
        profile=w,
        history=history,
        outcome=outcome,
        final_grad_norm=report.grad_norm,
        plateau_value=plateau_value,
        iterations=it,
        lambda_final=lam,
        lambda_history=lambda_history,
        rejected_steps=rejected,
    )
