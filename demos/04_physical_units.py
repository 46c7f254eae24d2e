"""Round trip through physical units.

A front between arbitrary strains at an arbitrary speed reduces to the
normalized problem (states +-1, speed 1) by an affine change of state and
a rescaling of the potential. This demo takes a quartic potential composed
with an affine state map, solves the macroscopic jump conditions between
r = 1 and r = 5, renormalizes, solves the normalized front, maps the
profile back to physical strain and velocity, and checks that the physical
chain carries it at the speed sigma.
"""

import numpy as np

from fpufronts import (
    Potential,
    QuarticPotential,
    SolverConfig,
    compute_invariant_bound,
    denormalize_profile,
    jump_residuals,
    minimize,
    normalize_potential,
    solve_front_data,
    verify_front,
)


class PhysicalQuartic(Potential):
    """Quartic in disguise: affine state map plus a linear tilt."""

    family = "physical_quartic"

    def __init__(self, beta):
        self.base = QuarticPotential(beta)

    def _u(self, r):
        return (np.asarray(r, dtype=float) - 3.0) / 2.0

    def phi(self, r):
        u = self._u(r)
        return 2.0 * self.base.phi(u) + 0.7 * u - 1.2

    def phi_prime(self, r, out=None):
        # the chain integrator writes the force into its own buffer, out
        u = self._u(r)
        return np.divide(2.0 * self.base.phi_prime(u) + 0.7, 2.0, out=out)


def main():
    pot = PhysicalQuartic(0.05)
    fd = solve_front_data(1.0, 5.0, 0.0, +1, pot)
    print("macroscopic jump conditions solved:")
    print(f"  states r = ({fd.r_minus}, {fd.r_plus}), "
          f"v = ({fd.v_minus:+.4f}, {fd.v_plus:+.4f})")
    print(f"  speed sigma = {fd.sigma:.6f}")
    a, b, c = fd.parabola
    print(f"  touching parabola f(r) = {a:.3f} r^2/2 {b:+.3f} r {c:+.3f}")
    res = jump_residuals(fd, pot)
    print(f"  residuals (mass, momentum, energy): "
          f"{res[0]:.1e}, {res[1]:.1e}, {res[2]:.1e}")

    norm = normalize_potential(pot, fd)
    ends = np.array([-1.0, 1.0])
    print("renormalized potential:")
    print(f"  phi'(+-1) = {np.asarray(norm.phi_prime(ends))}")
    print(f"  phi(+-1)  = {np.asarray(norm.phi(ends))}")

    gamma = compute_invariant_bound(norm)
    result = minimize(SolverConfig(gamma=gamma), norm)
    print(f"normalized solve: {result.outcome}, "
          f"grad norm {result.final_grad_norm:.2e}")

    r_prof, v_prof = denormalize_profile(result.profile, fd)
    print("physical profile limits:")
    print(f"  R: {r_prof[0]:+.6f} -> {r_prof[-1]:+.6f} "
          f"(target {fd.r_minus}, {fd.r_plus})")
    print(f"  V: {v_prof[0]:+.6f} -> {v_prof[-1]:+.6f} "
          f"(target {fd.v_minus:+.4f}, {fd.v_plus:+.4f})")

    check = verify_front(result.profile, fd, pot, gamma=gamma, n_atoms=400, T=20.0,
                         dt=0.01, stride=73)
    print("physical chain, 400 atoms over T = 20:")
    print(f"  sup error {max(check.sup_errors):.1e}, "
          f"speed {check.speed:.5f} (sigma {fd.sigma:.5f})")
    # the bounds of `fpufronts verify`, but stricter: verify reads the sup
    # error of the last snapshot only, this demo that of every snapshot
    if not (max(check.sup_errors) <= 0.05 and abs(check.speed - fd.sigma) <= 0.02 * abs(fd.sigma)):
        raise SystemExit("the physical chain does not carry the front at sigma")


if __name__ == "__main__":
    main()
