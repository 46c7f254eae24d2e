"""Interaction potentials and their admissibility diagnostics.

A potential is the physics input of the whole pipeline: it provides the pair
interaction ``phi`` and its exact derivative ``phi_prime``.  The defect

    psi(u) = u**2 / 2 - phi(u)

measures the gap between the front parabola of the normalized problem and the
potential itself; fronts can only minimize the action when ``psi`` is
nonnegative and vanishes exactly at the asymptotic states ``u = -1, +1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidScan, InvariantBoundNotFound

_FD_STEP = 1e-6


class Potential:
    """Base class: subclasses implement ``phi`` and ``phi_prime`` (vectorized).

    ``phi_prime(u, out=None)`` takes ``out`` as a ufunc does: the force is
    written into ``out`` where it is given, and returned.  Every family
    writes its last ufunc into it, so ``phi_prime(u, out=buf)`` leaves in
    ``buf`` exactly the floats of ``phi_prime(u)`` and allocates nothing
    for the result (the chain integrator calls it so every step).
    """

    family = "base"
    # the parameters the family takes as lists of numbers, not as numbers
    list_params: tuple[str, ...] = ()

    def phi(self, u):
        raise NotImplementedError

    def phi_prime(self, u, out=None):
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

    def phi_prime(self, u, out=None):
        # u - 4.0*beta*u*(u**2 - 1.0), each IEEE operation as that expression
        # makes it (a product's two factors commute exactly), in temporaries
        u = np.asarray(u, dtype=float)
        t = np.square(u)
        t -= 1.0
        t *= u * (4.0 * self.beta)
        return np.subtract(u, t, out=out)

    def phi_second(self, u):
        u = np.asarray(u, dtype=float)
        return 1.0 - 4.0 * self.beta * (3.0 * u**2 - 1.0)


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

    def phi_prime(self, u, out=None):
        u = np.asarray(u, dtype=float)
        return np.subtract(u, self._psi_prime(u), out=out)


class TiltedPotential(QuarticPotential):
    """psi(u) = beta (u^2-1)^2 + eps (u-1).

    The quartic with phi tilted by the affine term -eps (u - 1); its
    ``phi_second`` is the quartic's, and ``phi`` and ``phi_prime`` subtract
    the tilt from the quartic's floats.

    The linear tilt leaves the jump conditions for the states +-1 intact: an
    affine term in phi is a gauge they are invariant under. It breaks two
    other things. The normalization: phi'(+-1) = +-1 - eps, so the force no
    longer fixes the states. And the graph condition: psi(-1) = -2*eps, and
    for eps != 0 psi has a negative global minimum beyond the state the tilt
    favours, at the root of u^3 - u + eps/(4 beta) = 0 below -1 for eps > 0
    (above +1 for eps < 0). The action is then unbounded below, and no front
    exists.
    """

    family = "tilted"

    def __init__(self, beta: float, eps: float):
        super().__init__(beta)
        self.eps = float(eps)

    def phi(self, u):
        u = np.asarray(u, dtype=float)
        return super().phi(u) - self.eps * (u - 1.0)

    def phi_prime(self, u, out=None):
        return np.subtract(super().phi_prime(u, out=out), self.eps, out=out)


class TabulatedPotential(Potential):
    """Potential from samples, via monotone cubic (PCHIP) interpolation.

    The interpolant is Fritsch and Carlson's monotone piecewise cubic
    (SIAM J. Numer. Anal. 17, 1980) with the slope rule of SciPy's
    ``PchipInterpolator``: at interior knots the weighted harmonic mean of the
    neighbouring secant slopes (Fritsch and Butland, SIAM J. Sci. Stat.
    Comput. 5, 1984), or 0 where they differ in sign or either is 0; at the
    two end knots a one-sided three-point slope, set to 0 or clipped to 3
    times the end secant to keep the shape (Moler, Numerical Computing with
    MATLAB, 2004). Two samples give the straight line. It is built and
    evaluated in numpy with SciPy's coefficients and summation order, so
    ``phi`` and ``phi_prime`` equal SciPy's floats bit for bit. Beyond the
    table the end cubics extrapolate.

    ``phi_prime`` is the analytic derivative of the interpolant, so the
    derivative-consistency invariant holds by construction.

    Input contract (a ``ValueError`` otherwise, as in SciPy): ``u_samples``
    and ``phi_samples`` are equal-length 1-d arrays of at least 2 finite
    values, and ``u_samples`` is strictly increasing.
    """

    family = "user_table"
    list_params = ("u_samples", "phi_samples")

    def __init__(self, u_samples, phi_samples):
        u_samples = np.asarray(u_samples, dtype=float)
        phi_samples = np.asarray(phi_samples, dtype=float)
        if u_samples.ndim != 1 or u_samples.shape != phi_samples.shape:
            raise ValueError("samples must be two equal-length 1-d arrays")
        if u_samples.size < 2:
            raise ValueError("a table needs at least 2 samples")
        if not (np.all(np.isfinite(u_samples)) and np.all(np.isfinite(phi_samples))):
            raise ValueError("samples must be finite")
        if np.any(np.diff(u_samples) <= 0):
            raise ValueError("u_samples must be strictly increasing")
        self.u_samples = u_samples
        self.phi_samples = phi_samples
        self._c = _hermite_coefficients(u_samples, phi_samples)
        self._dc = self._c[:-1] * np.array([3.0, 2.0, 1.0])[:, None]

    def phi(self, u):
        return _evaluate_piecewise(self.u_samples, self._c, u)

    def phi_prime(self, u, out=None):
        return _evaluate_piecewise(self.u_samples, self._dc, u, out)


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end knot, kept shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _hermite_coefficients(x, y):
    """Cubic coefficients, highest power first, shape (4, len(x) - 1)."""
    h = np.diff(x)
    m = np.diff(y) / h
    if x.size == 2:
        d = np.array([m[0], m[0]])
    else:
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d = np.concatenate((
            [_end_slope(h[0], h[1], m[0], m[1])],
            inner,
            [_end_slope(h[-1], h[-2], m[-1], m[-2])],
        ))
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


def _evaluate_piecewise(x, c, u, out=None):
    """Evaluate the piecewise polynomial with coefficients ``c`` at ``u``,
    the last addition into ``out`` where it is given.

    Interval i holds x[i] <= u < x[i + 1]; the count of interior knots at
    or below u gives it, with the end intervals extended beyond the knots
    and the last one closed at x[-1]. The sum runs in ascending powers from
    0.0, as SciPy's ``PPoly`` does, which keeps every float equal to SciPy's
    (a Horner scheme rounds differently).
    """
    u = np.asarray(u, dtype=float)
    i = np.searchsorted(x[1:-1], u, side="right")
    s = u - x[i]
    # silent at u = +-inf and on overflow, as SciPy is
    with np.errstate(invalid="ignore", over="ignore"):
        res = 0.0 + c[-1][i]
        z = s
        for k in range(c.shape[0] - 2, 0, -1):
            res = res + c[k][i] * z
            z = z * s
        return np.add(res, c[0][i] * z, out=out)


class LinearForcePotential(Potential):
    """phi(u) = u^2/2, so psi vanishes identically.

    Degenerate case used in tests: the force is the identity and no invariant
    bound strictly above 1 exists.
    """

    family = "linear_force"

    def phi(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u**2

    def phi_prime(self, u, out=None):
        # np.positive copies every float exactly, -0.0 and NaN included; the
        # force of a scalar or a 0-d u stays a 0-d array, as u is
        u = np.asarray(u, dtype=float)
        return np.asarray(np.positive(u, out=out))


_FAMILIES = {
    "quartic": QuarticPotential,
    "graph_violating": GraphViolatingPotential,
    "tilted": TiltedPotential,
    "user_table": TabulatedPotential,
}
# The parameters some family takes as lists of numbers.
LIST_PARAMS = frozenset(name for cls in _FAMILIES.values() for name in cls.list_params)


def make_potential(family: str, params: dict) -> Potential:
    """Construct a built-in potential from a family name and parameter map.

    ``params`` are the keyword arguments of the family's class, so a
    parameter it does not take, or one it needs and is not given, raises a
    ``ValueError`` that names it, as an unknown family does.
    """
    cls = _FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise ValueError(f"unknown potential family {family!r}")
    try:
        return cls(**params)
    except TypeError as exc:
        raise ValueError(str(exc)) from None


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
        return not self.failed_conditions()

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


# The scans below evaluate the potential on consecutive blocks of this many
# of their samples, each block generated on its own (``_Samples``), so that
# a scan holds a few small arrays whatever its sample count.
_SCAN_BLOCK = 8192


class _Samples:
    """The samples of ``np.linspace(start, stop, num)``, without building the array.

    numpy fills entry i with ``i * step + start``, ``step = (stop - start) /
    (num - 1)``, or with ``(i / (num - 1)) * (stop - start) + start`` where
    that step is 0 (a subnormal range), and then sets the last entry to
    ``stop``; ``num`` 0 or 1 gives ``i * (stop - start) + start``.
    ``points`` and ``at`` repeat those floats, so a slice of the samples
    costs its own length.
    """

    def __init__(self, start: float, stop: float, num: int):
        self.start, self.stop, self.size = float(start), float(stop), num
        self.div = num - 1
        self.delta = self.stop - self.start
        self.step = self.delta / self.div if self.div > 0 else math.nan

    def points(self, i0: int, i1: int) -> np.ndarray:
        """``np.linspace(start, stop, num)[i0:i1]``, for 0 <= i0 <= i1 <= num."""
        y = np.arange(i0, i1, dtype=float)
        if self.div <= 0:
            y *= self.delta
        elif self.step == 0:
            y /= self.div
            y *= self.delta
        else:
            y *= self.step
        y += self.start
        if self.div > 0 and i0 < i1 == self.size:
            y[-1] = self.stop
        return y

    def at(self, i: int) -> float:
        """``np.linspace(start, stop, num)[i]``, a negative ``i`` counting from the end."""
        i = range(self.size)[i]
        return float(self.points(i, i + 1)[0])


def _blocks(u: _Samples, first: int = 0):
    """The samples of ``u`` from index ``first`` on, ``_SCAN_BLOCK`` at a time
    (the last block may be shorter), each with the index of its first sample."""
    for a in range(first, u.size, _SCAN_BLOCK):
        yield a, u.points(a, min(a + _SCAN_BLOCK, u.size))


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

    The scan generates its samples and evaluates psi block by block
    (``_SCAN_BLOCK`` samples at a time), so no array spans the scan, and
    folds each block into two running results: the first minimum of psi
    with its sample, and whether psi stays positive away from the states.
    Both equal the whole-array results exactly, because neither depends on
    how the samples are grouped.  The minimum is the least pair (psi, index)
    with a NaN counted least, ``np.argmin``'s rule, which the fold keeps by
    replacing the running pair only with a NaN or a strictly smaller value
    from a later block; positivity is a conjunction.  The tail test reads
    psi' only at the two ends of the scan.  Every sample, those of the
    blocks and the single ones read (the spacing, the minimizer and the two
    ends), is the float of ``np.linspace(-scan_halfwidth, scan_halfwidth,
    n_samples)``.
    """
    if scan_halfwidth < 2:
        raise InvalidScan("scan_halfwidth must be at least 2")
    if n_samples < 1000:
        raise InvalidScan("n_samples must be at least 1000")

    u = _Samples(-scan_halfwidth, scan_halfwidth, n_samples)
    spacing = u.at(1) - u.at(0)
    delta = 10.0 * spacing

    # psi's first minimum, and whether psi is strictly positive away from
    # small neighbourhoods of +-1
    i_min, psi_min, positive_away = -1, math.nan, True
    for a, ub in _blocks(u):
        psi = np.asarray(pot.psi(ub))
        j = int(np.argmin(psi))
        value = float(psi[j])
        if i_min < 0 or (not math.isnan(psi_min) and (math.isnan(value) or value < psi_min)):
            i_min, psi_min = a + j, value
        away = np.abs(np.abs(ub) - 1.0) > delta
        positive_away = positive_away and bool(np.all(psi[away] > tol))
    psi_argmin = u.at(i_min)
    graph_ok = bool(psi_min >= -tol)

    # Genericity: strictly positive curvature at the states, and psi strictly
    # positive away from small neighbourhoods of +-1 (the scan above).
    curv = pot.psi_second(np.array([-1.0, 1.0]))
    genericity_ok = bool(np.all(curv > tol) and positive_away)

    supersonic_ok = bool(np.all(pot.phi_second(np.array([-1.0, 1.0])) < 1.0 + tol))

    # Monotone tails: the sign of psi' must be constant on a nonempty run that
    # reaches the scan boundary on each side.  Both ends of the scan lie
    # beyond the states (scan_halfwidth >= 2), and the sign is read there.
    ends = np.asarray(pot.psi_prime(np.array([u.at(0), u.at(-1)])))
    monotone_tails_ok = bool(ends[-1] > 0 and ends[0] < 0)

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

    Both scans generate their samples and evaluate the force block by block
    (``_SCAN_BLOCK`` samples at a time), so no array spans a scan, and fold
    each block into a running result: the last sample where the tail
    condition fails, and the force's reach, the largest ``|phi'|``, NaN if
    any sample is NaN, as ``np.max`` gives.  Both equal the whole-array
    results exactly, because neither depends on how the samples are
    grouped: each is a maximum.  The samples are the floats of
    ``np.linspace(1.0, search_limit, n_samples)`` but its first, and of
    ``np.linspace(-gamma, gamma, n_samples)``.
    """
    if search_limit <= 1:
        raise InvariantBoundNotFound("search_limit must exceed 1")

    u = _Samples(1.0, search_limit, n_samples)
    # Tail condition in terms of the defect: psi'(u) > 0 for u > gamma_tilde
    # and, by symmetry of the check, psi'(-u) < 0.  It is tested on every
    # sample but u = 1, which counts as failing: gamma_tilde is the sample
    # after the last failing one.
    last_bad = 0
    for a, ub in _blocks(u, first=1):
        ok = (pot.psi_prime(ub) > 0) & (pot.psi_prime(-ub) < 0)
        bad = np.flatnonzero(~ok)
        if bad.size:
            last_bad = a + int(bad[-1])
    if last_bad + 1 >= u.size:
        raise InvariantBoundNotFound("tail condition fails at the search limit")
    gamma_tilde = u.at(last_bad + 1)

    gamma = gamma_tilde
    for _ in range(64):
        dense = _Samples(-gamma, gamma, n_samples)
        reach = float(np.max([np.max(np.abs(pot.phi_prime(b))) for _, b in _blocks(dense)]))
        if reach <= gamma * (1.0 + 1e-12):
            return gamma
        if reach > search_limit:
            raise InvariantBoundNotFound("force escapes the searched range")
        gamma = reach
    raise InvariantBoundNotFound("containment iteration did not settle")
