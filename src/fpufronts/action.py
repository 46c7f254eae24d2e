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

from .grid import GridProfile, apply_averaging, averaged_extended, window_average
from .potentials import Potential

# The averaging operator spreads support by half a window, its square by a
# full window; one extra unit of domain covers every integrand.
_PAD_UNITS = 1

# The nodes of one psi evaluation in ``Evaluation.P``: it holds this
# block's temporaries, 8 kB each, not the extended grid's.
_PSI_BLOCK = 1024


@dataclass
class ActionReport:
    """Per-iteration functional values recorded by the solver."""

    N: float
    P: float
    L: float
    grad_norm: float


def _require_exact_tails(profile: GridProfile) -> None:
    head, tail = profile.pinned
    v = profile.values
    if not (np.all(v[head] == profile.left_value) and np.all(v[tail] == profile.right_value)):
        raise ValueError("outer nodes must agree exactly with the boundary extension")


def _trapezoid(y: np.ndarray, dx: float) -> float:
    """``np.trapezoid(y, dx=dx)`` for a 1-d ``y``, the same floats, with its
    pairwise sums, products and quotients in one buffer."""
    t = np.add(y[1:], y[:-1])
    t *= dx
    t /= 2.0
    return t.sum()


class Evaluation:
    """The action kernel for one profile W, in O(D).

    It averages W on the grid extended by one window width each side, and
    forms from that what the functionals, the gradient and the solver read:
    N, P, L, ``step_target`` = A phi'(A W) on the grid, and the norm of the
    gradient W - A phi'(A W) with its pinned window (``GridProfile.pinned``)
    zeroed.  Each is computed once, when first read, so ``pot`` may be None
    when only N is read.  It holds U = A W until ``step_target`` is read:
    the force phi'(U) is written into U's own buffer, so U and phi'(U) are
    never held together, and N and P must be read before the step target
    (reading either after it raises ``RuntimeError``).  N builds the
    extended W and the gradient norm the gradient, each only for as long as
    it reads it, P evaluates psi ``_PSI_BLOCK`` nodes at a time into one
    array, and both form their trapezoid sums in one buffer.  Tails are not
    checked here; the public functionals do that.
    """

    def __init__(self, profile: GridProfile, pot: Potential | None):
        self.profile = profile
        self.pot = pot
        self.pad = 2 * profile.K * _PAD_UNITS
        # U = A W on the grid extended by one window width each side.
        self._u_ext: np.ndarray | None = averaged_extended(profile, self.pad)

    @property
    def u_ext(self) -> np.ndarray:
        """U = A W on the extended grid, until ``step_target`` overwrites it."""
        if self._u_ext is None:
            raise RuntimeError(
                "U = A W holds phi'(U) once step_target is read; "
                "read N and P before the step target"
            )
        return self._u_ext

    @cached_property
    def N(self) -> float:
        # W^2 - U^2, in the extended W's own array
        w_ext = self.profile.extended(self.pad)
        np.square(w_ext, out=w_ext)
        w_ext -= np.square(self.u_ext)
        return float(0.5 * _trapezoid(w_ext, self.profile.h))

    @cached_property
    def P(self) -> float:
        # psi is elementwise, so its blocks give the floats of one evaluation
        u = self.u_ext
        psi = np.empty_like(u)
        for a in range(0, u.size, _PSI_BLOCK):
            psi[a: a + _PSI_BLOCK] = self.pot.psi(u[a: a + _PSI_BLOCK])
        return float(_trapezoid(psi, self.profile.h))

    @property
    def L(self) -> float:
        return self.N + self.P

    @cached_property
    def step_target(self) -> np.ndarray:
        # phi'(U) in U's own buffer, which the evaluation then lets go; A
        # phi'(U) lives on the grid extended by pad - K nodes, keep the grid part.
        force, self._u_ext = self.u_ext, None
        self.pot.phi_prime(force, out=force)
        K, lo = self.profile.K, self.pad - self.profile.K
        return window_average(force, K)[lo: lo + self.profile.D + 1]

    @cached_property
    def grad_norm(self) -> float:
        g = self.profile.values - self.step_target
        for end in self.profile.pinned:
            g[end] = 0.0
        return float(np.sqrt(self.profile.h * np.sum(np.square(g, out=g))))

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
        raise ValueError("perturbation extension must be zero")
    v = perturbation.values
    if any(np.any(v[end] != 0.0) for end in perturbation.pinned):
        raise ValueError("perturbation must vanish on the boundary region")
    return Evaluation(perturbation, None).N


def gradient(profile: GridProfile, pot: Potential) -> GridProfile:
    """Action gradient W - A phi'(A W), returned as a perturbation profile.

    The boundary extension of the result is zero: outside the computational
    window the profile is frozen at its asymptotic states.
    """
    g = profile.values - Evaluation(profile, pot).step_target
    return GridProfile(profile.L, profile.D, g, left_value=0.0, right_value=0.0)


def n_identity_check(w1: GridProfile, w2: GridProfile) -> float:
    """Defect of the exact discrete decomposition of the quadratic part:

        N(W2) = N(W1) + M(W2 - W1) + <W2 - W1, W1 - A^2 W1>.

    Should be at machine-rounding scale because the discrete averaging
    operator is exactly symmetric on aligned grids.
    """
    if not w1.same_grid(w2):
        raise ValueError("profiles live on different grids")
    _require_exact_tails(w1)
    _require_exact_tails(w2)
    diff = GridProfile(w1.L, w1.D, w2.values - w1.values,
                       left_value=0.0, right_value=0.0)
    u1 = apply_averaging(apply_averaging(w1))
    pairing = float(np.trapezoid(diff.values * (w1.values - u1.values), dx=w1.h))
    lhs = functional_N(w2)
    rhs = functional_N(w1) + quadratic_M(diff) + pairing
    return abs(lhs - rhs)
