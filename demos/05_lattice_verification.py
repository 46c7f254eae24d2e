"""Does the variational front actually travel in the chain?

Independent check of a solved profile: seed a 400-atom chain with the front,
integrate the lattice equations of motion with a symplectic scheme, and
measure that the pattern translates rigidly at the predicted speed while the
chain's energy, corrected by the flux through its clamped ends, holds across
snapshots.  ``verify_front`` is the
check ``fpufronts verify`` runs.
"""

from fpufronts import (
    NORMALIZED,
    QuarticPotential,
    SolverConfig,
    compute_invariant_bound,
    minimize,
    verify_front,
)


def main():
    pot = QuarticPotential(0.05)
    gamma = compute_invariant_bound(pot)
    res = minimize(SolverConfig(gamma=gamma), pot)
    print(f"variational solve: {res.outcome}")

    n, T = 400, 20.0
    check = verify_front(res.profile, NORMALIZED, pot, gamma=gamma, n_atoms=n, T=T, dt=0.01,
                         stride=73)
    print(f"integrated {n} atoms to t = {T:.1f} "
          f"({len(check.times)} snapshots, the last at t = {check.times[-1]:.2f})")
    print(f"sup distance to the translated front profile there: {check.sup_errors[-1]:.2e}")
    print(f"measured front speed: {check.speed:.6f} (prediction: 1.0)")
    print(f"relative energy drift: {check.energy.energy_drift_rel:.2e}")


if __name__ == "__main__":
    main()
