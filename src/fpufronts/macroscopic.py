"""Jump algebra for the asymptotic states of a front.

A front connecting (r_minus, v_minus) to (r_plus, v_plus) at speed sigma
corresponds to an energy-conserving shock of the continuum limit: the three
jump conditions couple the states and determine sigma up to sign, and a
parabola of curvature sigma^2 touches the potential tangentially at both
asymptotic strains.  This module solves that algebra, normalizes a potential
to the standard states (+-1 strains, speed 1), and maps solved normalized
profiles back to physical variables.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InadmissibleFront, NotAdmissible
from .grid import GridProfile, apply_averaging
from .potentials import Potential

# The relative tolerances of the kinetic relation in ``solve_front_data``
# and of the jump residuals in ``normalize_potential``.
_KINETIC_TOL = 1e-9
_JUMP_TOL = 1e-8


def jump(minus: float, plus: float) -> float:
    return plus - minus


def mean(minus: float, plus: float) -> float:
    return 0.5 * (minus + plus)


@dataclass
class FrontData:
    """Asymptotic states, wave speed, and the touching parabola.

    The parabola coefficients (a, b, c) describe f(r) = a r^2 / 2 + b r + c,
    so a = sigma^2 is the curvature f'' and f touches the potential
    tangentially at both asymptotic strains.
    """

    r_minus: float
    r_plus: float
    v_minus: float
    v_plus: float
    sigma: float
    parabola: tuple[float, float, float]

    def to_dict(self) -> dict:
        """The fields in their order, the parabola as a list."""
        return {**asdict(self), "parabola": list(self.parabola)}


NORMALIZED = FrontData(
    r_minus=-1.0, r_plus=1.0, v_minus=1.0, v_plus=-1.0,
    sigma=1.0, parabola=(1.0, 0.0, 0.0),
)


def _at_states(pot: Potential, r_minus: float, r_plus: float):
    """phi and phi' at the two strains, each a pair ``(minus, plus)`` of
    floats, then their jumps and means: ``(phi, fp, j_phi, m_phi, j_fp, m_fp)``."""
    r = np.array([r_minus, r_plus], dtype=float)
    phi = tuple(map(float, pot.phi(r)))
    fp = tuple(map(float, pot.phi_prime(r)))
    return phi, fp, jump(*phi), mean(*phi), jump(*fp), mean(*fp)


def jump_residuals(fd: FrontData, pot: Potential) -> tuple[float, float, float]:
    """Left-hand sides of the mass, momentum, and energy jump conditions.

    All three vanish exactly when the data describes an admissible
    energy-conserving shock.
    """
    jr = jump(fd.r_minus, fd.r_plus)
    jv = jump(fd.v_minus, fd.v_plus)
    (f_m, f_p), (fp_m, fp_p), _, _, j_fp, _ = _at_states(pot, fd.r_minus, fd.r_plus)
    e_m = 0.5 * fd.v_minus**2 + f_m
    e_p = 0.5 * fd.v_plus**2 + f_p
    res_mass = fd.sigma * jr + jv
    res_mom = fd.sigma * jv + j_fp
    res_energy = fd.sigma * (e_p - e_m) + (fp_p * fd.v_plus - fp_m * fd.v_minus)
    return res_mass, res_mom, res_energy


def solve_front_data(
    r_minus: float, r_plus: float, v_minus: float | None, sigma_sign: int, pot: Potential
) -> FrontData:
    """Solve the jump conditions for given asymptotic strains.

    Checks the kinetic relation (energy condition rewritten through the
    discrete Leibniz rule) to a relative 1e-9 and the sign of the force
    secant, then fills in the speed, the downstream velocity, and the
    touching parabola.  ``v_minus`` fixes the Galilean gauge; ``None``
    selects the gauge with zero mean velocity.
    """
    if r_minus == r_plus:
        raise ValueError("asymptotic strains must differ")
    if sigma_sign not in (+1, -1):
        raise ValueError("sigma_sign must be +1 or -1")

    jr = jump(r_minus, r_plus)
    mr = mean(r_minus, r_plus)
    _, _, j_phi, m_phi, j_fp, m_fp = _at_states(pot, r_minus, r_plus)

    kinetic = j_phi - jr * m_fp
    scale = abs(j_phi) + abs(jr * m_fp)
    if abs(kinetic) > _KINETIC_TOL * max(1.0, scale):
        raise InadmissibleFront("kinetic", f"residual {kinetic:.3e}")
    slope = j_fp / jr
    if slope <= 0:
        raise InadmissibleFront("subsonic_sign", f"secant slope {slope:.3e}")

    sigma = sigma_sign * math.sqrt(slope)
    if v_minus is None:
        v_minus = 0.5 * sigma * jr
    v_plus = v_minus - sigma * jr
    mr2 = 0.5 * (r_minus**2 + r_plus**2)
    a = sigma**2
    b = m_fp - a * mr
    c = m_phi - mr * m_fp + a * (mr**2 - 0.5 * mr2)
    return FrontData(r_minus, r_plus, v_minus, v_plus, sigma, (a, b, c))


class NormalizedPotential(Potential):
    """Affine renormalization of a potential to the standard front data.

    The state map is u -> <r> + jump(r) u / 2; the potential is rescaled so
    the transformed force satisfies phi'(+-1) = +-1 and phi(+-1) = 1/2.
    """

    family = "normalized"

    def __init__(self, base: Potential, fd: FrontData):
        self.base = base
        self.fd = fd
        self._jr = jump(fd.r_minus, fd.r_plus)
        self._mr = mean(fd.r_minus, fd.r_plus)
        _, _, _, self._m_phi, self._j_fp, self._m_fp = _at_states(base, fd.r_minus, fd.r_plus)

    def state(self, u):
        """Physical strain corresponding to a normalized value."""
        return self._mr + 0.5 * self._jr * np.asarray(u, dtype=float)

    def phi(self, u):
        u = np.asarray(u, dtype=float)
        denom = self._j_fp * self._jr
        return (
            4.0 * self.base.phi(self.state(u)) / denom
            - 2.0 * self._m_fp * u / self._j_fp
            + 0.5
            - 4.0 * self._m_phi / denom
        )

    def phi_prime(self, u, out=None):
        u = np.asarray(u, dtype=float)
        return np.subtract(2.0 * self.base.phi_prime(self.state(u)) / self._j_fp,
                           2.0 * self._m_fp / self._j_fp, out=out)


def normalize_potential(pot: Potential, fd: FrontData) -> NormalizedPotential:
    """Renormalize ``pot`` to the states of ``fd``, whose jump residuals must
    be within 1e-8 * max(1, |sigma|); verifies the result."""
    residuals = jump_residuals(fd, pot)
    if max(abs(r) for r in residuals) > _JUMP_TOL * max(1.0, abs(fd.sigma)):
        raise NotAdmissible(f"jump residuals {residuals}")
    norm = NormalizedPotential(pot, fd)
    ends = np.array([-1.0, 1.0])
    if (np.max(np.abs(norm.phi_prime(ends) - ends)) > 1e-9
            or np.max(np.abs(norm.phi(ends) - 0.5)) > 1e-9):
        raise NotAdmissible("normalization self-check failed")
    return norm


def denormalize_profile(w: GridProfile, fd: FrontData) -> tuple[np.ndarray, np.ndarray]:
    """Physical strain and velocity profiles on the grid nodes.

    The strain profile carries a half-window shift relative to the velocity
    profile; on an aligned grid that shift is an exact node shift of K cells
    (extended by the right boundary value past the window edge).
    """
    u = apply_averaging(w)
    K = w.K
    u_shifted = np.concatenate([u.values[K:], np.full(K, u.right_value)])
    jr = jump(fd.r_minus, fd.r_plus)
    jv = jump(fd.v_minus, fd.v_plus)
    r_profile = mean(fd.r_minus, fd.r_plus) + 0.5 * jr * u_shifted
    v_profile = mean(fd.v_minus, fd.v_plus) + 0.5 * jv * w.values
    return r_profile, v_profile
