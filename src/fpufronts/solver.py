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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .action import ActionReport, Evaluation
from .errors import ConfigInvalid, NonFiniteAction, StepSizeUnderflow
from .grid import GridProfile, shock_profile
from .phases import interior_plateau
from .potentials import Potential

# Step-size control: lambda grows by _GROW after _GROW_AFTER consecutive
# accepted steps, never beyond _LAMBDA_MAX; a rejected step halves it.
_GROW_AFTER = 5
_GROW = 1.5
_LAMBDA_MAX = 0.95
# Below this step size a candidate differs from its iterate only by rounding.
_LAMBDA_MIN = 1e-14


@dataclass
class SolverConfig:
    lambda0: float = 0.5
    max_iters: int = 200_000
    grad_tol: float = 1e-8
    stagnation_window: int = 500
    gamma: float = 1.0
    L: float = 20.0
    D: int = 3200

    def validate(self) -> None:
        if not (0.0 < self.lambda0 < 1.0):
            raise ConfigInvalid("lambda0 must lie in (0, 1)")
        if not self.grad_tol > 0.0:
            raise ConfigInvalid("grad_tol must be positive")
        if self.max_iters < 1 or self.stagnation_window < 2:
            raise ConfigInvalid("iteration limits must be positive")
        if self.gamma < 1.0:
            raise ConfigInvalid("gamma must be at least 1")


OUTCOMES = (
    "front_converged",
    "plateau_diverging",
    "collapsed_to_constant",
    "max_iters_reached",
)


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

    def summary(self) -> dict:
        return {
            "outcome": self.outcome,
            "iterations": self.iterations,
            "rejected_steps": self.rejected_steps,
            "final_grad_norm": self.final_grad_norm,
            "final_action": self.history[-1].L if self.history else None,
            "plateau_value": self.plateau_value,
            "lambda_final": self.lambda_final,
        }


def _pinned(values: np.ndarray, K: int) -> np.ndarray:
    """Pin the outer window width (2K nodes) at each end to -1 / +1, in place."""
    values[: 2 * K] = -1.0
    values[-2 * K:] = 1.0
    return values


def _checked(ev: Evaluation) -> Evaluation:
    if not (np.isfinite(ev.L) and np.isfinite(ev.grad_norm)):
        raise NonFiniteAction(
            f"action {ev.L!r} or gradient norm {ev.grad_norm!r} is not finite; "
            "the potential or its force returned a non-finite value"
        )
    return ev


def euler_step(w: GridProfile, pot: Potential, lam: float) -> GridProfile:
    """One explicit Euler step of the gradient flow, boundary region re-pinned."""
    if not (0.0 < lam < 1.0):
        raise ConfigInvalid("lambda must lie in (0, 1)")
    target = Evaluation(w, pot).step_target
    return w.with_values(_pinned((1.0 - lam) * w.values + lam * target, w.K))


def classify_outcome(
    history: list[ActionReport],
    profile: GridProfile,
    grad_tol: float = 1e-8,
    stagnation_window: int = 500,
    plateau_growth: int | None = None,
) -> str:
    """Deterministic outcome classification.

    Tie order: front_converged > collapsed_to_constant > plateau_diverging >
    max_iters_reached.  ``plateau_growth`` is the solver's measured growth of
    the plateau run (nodes) over the last stagnation window, when available.
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

    interior = np.abs(nodes) <= profile.L - 2.0
    vi = v[interior]
    spread = float(np.max(vi) - np.min(vi))
    heteroclinic = spread > 1.0  # genuinely connects the two phases

    if final.grad_norm <= grad_tol and tails_ok and heteroclinic:
        return "front_converged"

    if spread <= 2e-4:
        return "collapsed_to_constant"

    plateau = interior_plateau(profile)
    if plateau is not None and len(history) > stagnation_window:
        window = history[-stagnation_window:]
        drops = [a.L - b.L for a, b in zip(window[:-1], window[1:])]
        decreasing = all(d >= -1e-14 for d in drops)
        slope = (window[0].L - window[-1].L) / (len(window) - 1)
        growing = plateau_growth is None or plateau_growth > 0
        if decreasing and slope > 1e-12 and growing and final.grad_norm > grad_tol:
            return "plateau_diverging"

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
    """
    cfg.validate()
    base = shock_profile(cfg.L, cfg.D)
    K = base.K
    state = _checked(Evaluation(base.with_values(_pinned(base.values.copy(), K)), pot))
    lam = cfg.lambda0
    history: list[ActionReport] = [state.report()]
    lambda_history: list[float] = [lam]
    if callback is not None:
        callback(0, state.profile.values)

    plateau_prev: tuple[float, int] | None = None
    plateau_growth: int | None = None
    outcome = None
    it = 0
    rejected = 0
    streak = 0  # accepted steps since lambda last changed
    while it < cfg.max_iters:
        candidate = _pinned((1.0 - lam) * state.profile.values + lam * state.step_target, K)
        cand_state = _checked(Evaluation(base.with_values(candidate), pot))
        if cand_state.L > state.L + 1e-15 * max(1.0, abs(state.L)):
            lam *= 0.5
            rejected += 1
            streak = 0
            if lam < _LAMBDA_MIN:
                raise StepSizeUnderflow(
                    f"{rejected} rejected steps drove lambda to {lam!r} after "
                    f"{it} accepted steps at action {state.L!r}; no step size "
                    "lowers the action"
                )
            continue
        it += 1
        state = cand_state
        history.append(state.report())
        lambda_history.append(lam)
        if callback is not None:
            callback(it, state.profile.values)

        if state.grad_norm <= cfg.grad_tol:
            break

        # A diverging plateau extends within a few hundred iterations before
        # the finite window arrests it, so the check cadence must be faster
        # than the slope window.
        check_every = min(50, cfg.stagnation_window)
        if it % check_every == 0:
            plateau = interior_plateau(state.profile)
            if plateau is not None and plateau_prev is not None:
                plateau_growth = plateau[1] - plateau_prev[1]
                window = history[-min(cfg.stagnation_window, check_every + 1):]
                slope = (window[0].L - window[-1].L) / (len(window) - 1)
                if plateau_growth > 0 and slope > 1e-12:
                    outcome = "plateau_diverging"
                    break
            plateau_prev = plateau

        streak += 1
        if streak == _GROW_AFTER:
            streak = 0
            lam = min(_GROW * lam, _LAMBDA_MAX)

    profile = state.profile
    if outcome is None:
        outcome = classify_outcome(
            history, profile,
            grad_tol=cfg.grad_tol,
            stagnation_window=cfg.stagnation_window,
            plateau_growth=plateau_growth,
        )

    plateau_value = None
    if outcome == "plateau_diverging":
        plateau = interior_plateau(profile)
        plateau_value = plateau[0] if plateau else None
    elif outcome == "collapsed_to_constant":
        nodes = profile.nodes
        vi = profile.values[np.abs(nodes) <= profile.L - 2.0]
        plateau_value = float(0.5 * (np.max(vi) + np.min(vi)))

    return RunResult(
        profile=profile,
        history=history,
        outcome=outcome,
        final_grad_norm=state.grad_norm,
        plateau_value=plateau_value,
        iterations=it,
        lambda_final=lam,
        lambda_history=lambda_history,
        rejected_steps=rejected,
    )
