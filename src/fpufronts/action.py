"""The discretized action functional, its pieces, and its gradient.

The total action of a profile W splits into a renormalized quadratic part and
a potential part,

    total = quad_n(W) + potential_p(W),

and its gradient with respect to the flat L2 structure is
``W - A phi'(A W)`` where A is the unit-window average.  All integrals are
evaluated through the compact-perturbation shortcut: on a grid whose outer
nodes agree exactly with the boundary extension, every integrand below has
compact support inside [-L-1, L+1], so plain trapezoid sums are exact
restatements of the defining improper integrals.

``Evaluation`` is the one place that extends and averages a profile; the
functionals, the gradient and the solver all read their values from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatch, NonZeroTails, TailNotConverged
from .grid import GridProfile, apply_averaging, averaged_extended, window_average
from .potentials import Potential

# The averaging operator spreads support by half a window, its square by a
# full window; one extra unit of domain covers every integrand.
_PAD_UNITS = 1


@dataclass
class ActionReport:
    """Per-iteration functional values recorded by the solver."""

    N: float
    P: float
    L: float
    grad_norm: float


def _require_exact_tails(profile: GridProfile) -> None:
    k2 = 2 * profile.K
    v = profile.values
    if not (np.all(v[:k2] == profile.left_value) and np.all(v[-k2:] == profile.right_value)):
        raise TailNotConverged(
            "outer nodes must agree exactly with the boundary extension"
        )


class Evaluation:
    """The action kernel for one profile W, in O(D).

    It extends W, averages it, and forms from that what the functionals, the
    gradient and the solver read: N, P, L, ``step_target`` = A phi'(A W) on
    the grid, and the gradient W - A phi'(A W) with its pinned boundary
    region (the outer window width, 2K nodes, at each end) zeroed.  Each is
    computed once, when first read, so ``pot`` may be None when only N is
    read.  Tails are not checked here; the public functionals do that.
    """

    def __init__(self, profile: GridProfile, pot: Potential | None):
        self.profile = profile
        self.pot = pot
        self.pad = 2 * profile.K * _PAD_UNITS
        # W and U = A W on the grid extended by one window width each side.
        self.w_ext = profile.extended(self.pad)
        self.u_ext = averaged_extended(profile, self.pad)

    @cached_property
    def N(self) -> float:
        return float(0.5 * np.trapezoid(self.w_ext**2 - self.u_ext**2, dx=self.profile.h))

    @cached_property
    def P(self) -> float:
        return float(np.trapezoid(self.pot.psi(self.u_ext), dx=self.profile.h))

    @property
    def L(self) -> float:
        return self.N + self.P

    @cached_property
    def step_target(self) -> np.ndarray:
        # A phi'(U) lives on the grid extended by pad - K nodes; keep the grid part.
        K, lo = self.profile.K, self.pad - self.profile.K
        return window_average(self.pot.phi_prime(self.u_ext), K)[lo: lo + self.profile.D + 1]

    @cached_property
    def grad(self) -> np.ndarray:
        k2 = 2 * self.profile.K
        g = self.profile.values - self.step_target
        g[:k2] = 0.0
        g[-k2:] = 0.0
        return g

    @cached_property
    def grad_norm(self) -> float:
        return float(np.sqrt(self.profile.h * np.sum(self.grad**2)))

    def report(self) -> ActionReport:
        return ActionReport(N=self.N, P=self.P, L=self.L, grad_norm=self.grad_norm)


def functional_N(profile: GridProfile) -> float:
    """Renormalized quadratic part: half-integral of W^2 - (A W)^2."""
    _require_exact_tails(profile)
    return Evaluation(profile, None).N


def functional_P(profile: GridProfile, pot: Potential) -> float:
    """Potential part: integral of psi(A W); tails contribute nothing since
    psi(+-1) = 0."""
    _require_exact_tails(profile)
    return Evaluation(profile, pot).P


def functional_L(profile: GridProfile, pot: Potential) -> float:
    """Total action."""
    _require_exact_tails(profile)
    return Evaluation(profile, pot).L


def quadratic_M(perturbation: GridProfile) -> float:
    """Quadratic form on compactly supported perturbations; nonnegative."""
    if perturbation.left_value != 0.0 or perturbation.right_value != 0.0:
        raise NonZeroTails("perturbation extension must be zero")
    k2 = 2 * perturbation.K
    v = perturbation.values
    if np.any(v[:k2] != 0.0) or np.any(v[-k2:] != 0.0):
        raise NonZeroTails("perturbation must vanish on the boundary region")
    return Evaluation(perturbation, None).N


def gradient(profile: GridProfile, pot: Potential) -> GridProfile:
    """Action gradient W - A phi'(A W), returned as a perturbation profile.

    The boundary extension of the result is zero: outside the computational
    window the profile is frozen at its asymptotic states.
    """
    g = profile.values - Evaluation(profile, pot).step_target
    return GridProfile(profile.L, profile.D, g, left_value=0.0, right_value=0.0)


def grad_norm(g: GridProfile) -> float:
    """l2 norm scaled by sqrt(h), the discrete L2 norm of the gradient."""
    return float(np.sqrt(g.h * np.sum(g.values**2)))


def n_identity_check(w1: GridProfile, w2: GridProfile) -> float:
    """Defect of the exact discrete decomposition of the quadratic part:

        N(W2) = N(W1) + M(W2 - W1) + <W2 - W1, W1 - A^2 W1>.

    Should be at machine-rounding scale because the discrete averaging
    operator is exactly symmetric on aligned grids.
    """
    if not w1.same_grid(w2):
        raise GridMismatch("profiles live on different grids")
    _require_exact_tails(w1)
    _require_exact_tails(w2)
    diff = GridProfile(w1.L, w1.D, w2.values - w1.values,
                       left_value=0.0, right_value=0.0)
    u1 = apply_averaging(apply_averaging(w1))
    pairing = float(np.trapezoid(diff.values * (w1.values - u1.values), dx=w1.h))
    lhs = functional_N(w2)
    rhs = functional_N(w1) + quadratic_M(diff) + pairing
    return abs(lhs - rhs)


def relative_action(profile: GridProfile, pot: Potential, reference: GridProfile) -> float:
    """Action relative to a reference profile (usually the shock)."""
    return functional_L(profile, pot) - functional_L(reference, pot)
