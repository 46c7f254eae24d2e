"""Action-minimizing heteroclinic fronts in FPU-type atom chains.

The pipeline: pick a potential, check admissibility, normalize the asymptotic
states through the macroscopic jump conditions, minimize the discretized
action by projected gradient flow, diagnose the separation of phases, and
verify the resulting wave against direct chain dynamics.

The namespace is lazy (PEP 562): ``import fpufronts`` loads no submodule, and
a submodule is imported the first time one of the names it exports is read,
so ``fpufronts.QuarticPotential`` loads ``potentials`` alone and only a chain
check loads ``lattice``.  ``from fpufronts import *`` imports them all.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it exports.
_EXPORTS = {
    "potentials": (
        "Potential", "QuarticPotential", "GraphViolatingPotential",
        "TiltedPotential", "TabulatedPotential", "make_potential",
        "check_assumptions", "compute_invariant_bound", "AssumptionReport",
    ),
    "grid": (
        "GridProfile", "shock_profile", "window_kernel", "apply_averaging",
        "averaged_extended", "inner_product",
    ),
    "action": (
        "ActionReport", "functional_N", "functional_P", "functional_L",
        "quadratic_M", "gradient", "n_identity_check",
    ),
    "macroscopic": (
        "FrontData", "NORMALIZED", "jump_residuals", "solve_front_data",
        "NormalizedPotential", "normalize_potential", "denormalize_profile",
    ),
    "phases": (
        "PhaseSeparation", "zero_set", "eta_bar_for", "mu_bar_for",
        "separate_phases", "layer_cost", "is_monotone", "interior_plateau",
    ),
    "solver": (
        "SolverConfig", "RunResult", "euler_step",
        "classify_outcome", "minimize",
    ),
    "lattice": (
        "ChainState", "sample_front", "init_from_front", "evolve",
        "total_energy", "boundary_flux", "EnergyLaw", "EnergyLawReport",
        "check_energy_law", "front_crossing", "front_speed", "measure_front_speed",
        "FrontVerification", "verify_front",
    ),
    "errors": (
        "FpuFrontsError", "InadmissibleFront", "NotAdmissible",
        "InvariantBoundNotFound", "WindowMisaligned", "GridMismatch",
        "TailNotConverged", "NonZeroTails", "EmptyZeroSet", "AnchorNotInZeroSet",
        "LayerCostBelowBound", "ConfigInvalid", "NotAFront", "BlowUp",
        "NonFiniteAction", "StepSizeUnderflow",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
