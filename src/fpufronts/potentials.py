"""Interaction potentials and their admissibility diagnostics.

A potential is the physics input of the whole pipeline: it provides the pair
interaction ``phi`` and its exact derivative ``phi_prime``.  The defect

    psi(u) = u**2 / 2 - phi(u)

measures the gap between the front parabola of the normalized problem and the
potential itself; fronts can only minimize the action when ``psi`` is
nonnegative and vanishes exactly at the asymptotic states ``u = -1, +1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import InvalidScan, InvariantBoundNotFound

_FD_STEP = 1e-6


class Potential:
    """Base class: subclasses implement ``phi`` and ``phi_prime`` (vectorized)."""

    family = "base"

    def phi(self, u):
        raise NotImplementedError

    def phi_prime(self, u):
        raise NotImplementedError

    def phi_second(self, u):
        """Second derivative by central differences on ``phi_prime``."""
        u = np.asarray(u, dtype=float)
        return (self.phi_prime(u + _FD_STEP) - self.phi_prime(u - _FD_STEP)) / (2 * _FD_STEP)

    def psi(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u**2 - self.phi(u)

    def psi_prime(self, u):
        u = np.asarray(u, dtype=float)
        return u - self.phi_prime(u)

    def psi_second(self, u):
        u = np.asarray(u, dtype=float)
        return 1.0 - self.phi_second(u)

    def params(self) -> dict:
        return {}


class QuarticPotential(Potential):
    """phi(r) = r^2/2 - beta (r^2-1)^2, the normalized double-defect family.

    Satisfies all admissibility conditions for beta > 0: psi = beta (u^2-1)^2
    is nonnegative, vanishes exactly at +-1, and has monotone tails.
    """

    family = "quartic"

    def __init__(self, beta: float):
        if beta <= 0:
            raise ValueError("beta must be positive")
        self.beta = float(beta)

    def phi(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u**2 - self.beta * (u**2 - 1.0) ** 2

    def phi_prime(self, u):
        u = np.asarray(u, dtype=float)
        return u - 4.0 * self.beta * u * (u**2 - 1.0)

    def phi_second(self, u):
        u = np.asarray(u, dtype=float)
        return 1.0 - 4.0 * self.beta * (3.0 * u**2 - 1.0)

    def params(self):
        return {"beta": self.beta}


class GraphViolatingPotential(Potential):
    """psi(u) = beta (u^2-1)^2 (u^2+c) with c in (-1, 0).

    psi still vanishes at +-1 but dips negative in between (psi(0) = beta*c),
    so the graph condition fails while the tails stay monotone.
    """

    family = "graph_violating"

    def __init__(self, beta: float, c: float):
        if not (-1.0 < c < 0.0):
            raise ValueError("c must lie in (-1, 0)")
        if beta <= 0:
            raise ValueError("beta must be positive")
        self.beta = float(beta)
        self.c = float(c)

    def _psi(self, u):
        return self.beta * (u**2 - 1.0) ** 2 * (u**2 + self.c)

    def _psi_prime(self, u):
        return 2.0 * self.beta * u * (u**2 - 1.0) * (3.0 * u**2 + 2.0 * self.c - 1.0)

    def phi(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u**2 - self._psi(u)

    def phi_prime(self, u):
        u = np.asarray(u, dtype=float)
        return u - self._psi_prime(u)

    def params(self):
        return {"beta": self.beta, "c": self.c}


class TiltedPotential(Potential):
    """psi(u) = beta (u^2-1)^2 + eps (u-1).

    The linear tilt breaks phi(+1) = phi(-1) (psi(-1) = -2*eps), i.e. the
    energy jump condition: the macroscopic constraints cannot all hold for the
    states +-1, so no front exists for this family.
    """

    family = "tilted"

    def __init__(self, beta: float, eps: float):
        if beta <= 0:
            raise ValueError("beta must be positive")
        self.beta = float(beta)
        self.eps = float(eps)

    def phi(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u**2 - self.beta * (u**2 - 1.0) ** 2 - self.eps * (u - 1.0)

    def phi_prime(self, u):
        u = np.asarray(u, dtype=float)
        return u - 4.0 * self.beta * u * (u**2 - 1.0) - self.eps

    def phi_second(self, u):
        u = np.asarray(u, dtype=float)
        return 1.0 - 4.0 * self.beta * (3.0 * u**2 - 1.0)

    def params(self):
        return {"beta": self.beta, "eps": self.eps}


class TabulatedPotential(Potential):
    """Potential from samples, via monotone cubic interpolation.

    ``phi_prime`` is the analytic derivative of the interpolant, so the
    derivative-consistency invariant holds by construction.
    """

    family = "user_table"

    def __init__(self, u_samples, phi_samples):
        u_samples = np.asarray(u_samples, dtype=float)
        phi_samples = np.asarray(phi_samples, dtype=float)
        if u_samples.ndim != 1 or u_samples.shape != phi_samples.shape:
            raise ValueError("samples must be two equal-length 1-d arrays")
        self._interp = PchipInterpolator(u_samples, phi_samples, extrapolate=True)
        self._deriv = self._interp.derivative()
        self.u_samples = u_samples
        self.phi_samples = phi_samples

    def phi(self, u):
        return self._interp(np.asarray(u, dtype=float))

    def phi_prime(self, u):
        return self._deriv(np.asarray(u, dtype=float))

    def params(self):
        return {"n_samples": int(self.u_samples.size)}


class LinearForcePotential(Potential):
    """phi(u) = u^2/2, so psi vanishes identically.

    Degenerate case used in tests: the force is the identity and no invariant
    bound strictly above 1 exists.
    """

    family = "linear_force"

    def phi(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u**2

    def phi_prime(self, u):
        return np.asarray(u, dtype=float)


_FAMILIES = {
    "quartic": lambda p: QuarticPotential(beta=p["beta"]),
    "graph_violating": lambda p: GraphViolatingPotential(beta=p["beta"], c=p["c"]),
    "tilted": lambda p: TiltedPotential(beta=p["beta"], eps=p["eps"]),
    "user_table": lambda p: TabulatedPotential(p["u_samples"], p["phi_samples"]),
}


def make_potential(family: str, params: dict) -> Potential:
    """Construct a built-in potential from a family name and parameter map."""
    try:
        factory = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown potential family {family!r}") from None
    return factory(params)


@dataclass
class AssumptionReport:
    """Outcome of the sampled admissibility scan."""

    graph_ok: bool
    genericity_ok: bool
    monotone_tails_ok: bool
    supersonic_ok: bool
    gamma: float | None
    psi_min: float
    psi_argmin: float
    scan_interval: tuple[float, float]
    tolerance: float

    @property
    def all_ok(self) -> bool:
        return (
            self.graph_ok
            and self.genericity_ok
            and self.monotone_tails_ok
            and self.supersonic_ok
            and self.gamma is not None
        )

    def failed_conditions(self) -> list[str]:
        out = []
        if not self.graph_ok:
            out.append("graph_condition")
        if not self.genericity_ok:
            out.append("genericity")
        if not self.monotone_tails_ok:
            out.append("monotone_tails")
        if not self.supersonic_ok:
            out.append("supersonic")
        if self.gamma is None:
            out.append("invariant_bound")
        return out

    def to_dict(self) -> dict:
        return {
            "graph_ok": self.graph_ok,
            "genericity_ok": self.genericity_ok,
            "monotone_tails_ok": self.monotone_tails_ok,
            "supersonic_ok": self.supersonic_ok,
            "gamma": self.gamma,
            "psi_min": self.psi_min,
            "psi_argmin": self.psi_argmin,
            "scan_interval": list(self.scan_interval),
            "tolerance": self.tolerance,
            "failed": self.failed_conditions(),
        }


def check_assumptions(
    pot: Potential,
    scan_halfwidth: float = 6.0,
    n_samples: int = 100_000,
    tol: float = 1e-10,
) -> AssumptionReport:
    """Sample-based verification of the admissibility conditions.

    All conditions are stated on the whole real line; for the polynomial
    built-in families a dense scan of ``[-scan_halfwidth, scan_halfwidth]``
    plus tail-sign checks is conclusive at desk scale.
    """
    if scan_halfwidth < 2:
        raise InvalidScan("scan_halfwidth must be at least 2")
    if n_samples < 1000:
        raise InvalidScan("n_samples must be at least 1000")

    u = np.linspace(-scan_halfwidth, scan_halfwidth, n_samples)
    spacing = u[1] - u[0]
    psi = np.asarray(pot.psi(u))
    psi_prime = np.asarray(pot.psi_prime(u))

    i_min = int(np.argmin(psi))
    psi_min = float(psi[i_min])
    psi_argmin = float(u[i_min])
    graph_ok = bool(psi_min >= -tol)

    # Genericity: strictly positive curvature at the states, and psi strictly
    # positive away from small neighbourhoods of +-1.
    delta = 10.0 * spacing
    curv = pot.psi_second(np.array([-1.0, 1.0]))
    away = (np.abs(np.abs(u) - 1.0) > delta)
    genericity_ok = bool(np.all(curv > tol) and np.all(psi[away] > tol))

    supersonic_ok = bool(np.all(pot.phi_second(np.array([-1.0, 1.0])) < 1.0 + tol))

    # Monotone tails: the sign of psi' must be constant on a nonempty run that
    # reaches the scan boundary on each side.
    right = psi_prime[u > 1.0]
    left = psi_prime[u < -1.0]
    monotone_tails_ok = bool(
        right.size > 0
        and left.size > 0
        and right[-1] > 0
        and left[0] < 0
    )

    try:
        gamma = compute_invariant_bound(pot, search_limit=scan_halfwidth)
    except InvariantBoundNotFound:
        gamma = None

    return AssumptionReport(
        graph_ok=graph_ok,
        genericity_ok=genericity_ok,
        monotone_tails_ok=monotone_tails_ok,
        supersonic_ok=supersonic_ok,
        gamma=gamma,
        psi_min=psi_min,
        psi_argmin=psi_argmin,
        scan_interval=(-scan_halfwidth, scan_halfwidth),
        tolerance=tol,
    )


def compute_invariant_bound(
    pot: Potential, search_limit: float = 6.0, n_samples: int = 100_000
) -> float:
    """Smallest sampled bound Gamma > 1 with phi'([-Gamma, Gamma]) inside itself.

    First locates the smallest sampled threshold above which the force stays
    strictly between the tails (phi'(u) < u for u above, phi'(u) > u for u
    below), then enlarges by the interior force maximum and verifies the
    containment by dense sampling.  Raises InvariantBoundNotFound when the
    tail condition never holds below ``search_limit``.
    """
    if search_limit <= 1:
        raise InvariantBoundNotFound("search_limit must exceed 1")

    u = np.linspace(1.0, search_limit, n_samples)[1:]
    # Tail condition in terms of the defect: psi'(u) > 0 for u > gamma_tilde
    # and, by symmetry of the check, psi'(-u) < 0.
    ok = (pot.psi_prime(u) > 0) & (pot.psi_prime(-u) < 0)
    if not ok[-1]:
        raise InvariantBoundNotFound("tail condition fails at the search limit")
    bad = np.nonzero(~ok)[0]
    gamma_tilde = float(u[bad[-1] + 1]) if bad.size else float(u[0])

    gamma = gamma_tilde
    for _ in range(64):
        dense = np.linspace(-gamma, gamma, n_samples)
        reach = float(np.max(np.abs(pot.phi_prime(dense))))
        if reach <= gamma * (1.0 + 1e-12):
            return gamma
        if reach > search_limit:
            raise InvariantBoundNotFound("force escapes the searched range")
        gamma = reach
    raise InvariantBoundNotFound("containment iteration did not settle")
