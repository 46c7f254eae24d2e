"""Action-minimizing heteroclinic fronts in FPU-type atom chains.

The pipeline: pick a potential, check admissibility, normalize the asymptotic
states through the macroscopic jump conditions, minimize the discretized
action by projected gradient flow, diagnose the separation of phases, and
verify the resulting wave against direct chain dynamics.
"""

__version__ = "0.1.0"

from .action import (
    ActionReport,
    functional_L,
    functional_N,
    functional_P,
    grad_norm,
    gradient,
    n_identity_check,
    quadratic_M,
)
from .errors import (
    BlowUp,
    ConfigInvalid,
    EmptyZeroSet,
    FpuFrontsError,
    GridMismatch,
    InadmissibleFront,
    InvariantBoundNotFound,
    NonFiniteAction,
    NotAdmissible,
    NotAFront,
    StepSizeUnderflow,
    TailNotConverged,
    WindowMisaligned,
)
from .grid import (
    GridProfile,
    apply_averaging,
    averaged_extended,
    inner_product,
    shock_profile,
    window_kernel,
)
from .lattice import (
    ChainState,
    EnergyLaw,
    EnergyLawReport,
    FrontVerification,
    boundary_flux,
    check_energy_law,
    evolve,
    front_crossing,
    front_speed,
    init_from_front,
    measure_front_speed,
    sample_front,
    total_energy,
    verify_front,
)
from .macroscopic import (
    NORMALIZED,
    FrontData,
    NormalizedPotential,
    denormalize_profile,
    jump_residuals,
    normalize_potential,
    solve_front_data,
)
from .phases import (
    PhaseSeparation,
    eta_bar_for,
    interior_plateau,
    is_monotone,
    layer_cost,
    mu_bar_for,
    separate_phases,
    zero_set,
)
from .potentials import (
    AssumptionReport,
    GraphViolatingPotential,
    LinearForcePotential,
    Potential,
    QuarticPotential,
    TabulatedPotential,
    TiltedPotential,
    check_assumptions,
    compute_invariant_bound,
    make_potential,
)
from .solver import (
    OUTCOMES,
    RunResult,
    SolverConfig,
    classify_outcome,
    euler_step,
    minimize,
)

__all__ = [
    "__version__",
    # potentials
    "Potential", "QuarticPotential", "GraphViolatingPotential",
    "TiltedPotential", "TabulatedPotential", "LinearForcePotential",
    "make_potential", "check_assumptions", "compute_invariant_bound",
    "AssumptionReport",
    # grid
    "GridProfile", "shock_profile", "window_kernel", "apply_averaging",
    "averaged_extended", "inner_product",
    # action
    "ActionReport", "functional_N", "functional_P", "functional_L",
    "quadratic_M", "gradient", "grad_norm", "n_identity_check",
    # macroscopic
    "FrontData", "NORMALIZED", "jump_residuals", "solve_front_data",
    "NormalizedPotential", "normalize_potential", "denormalize_profile",
    # phases
    "PhaseSeparation", "zero_set", "eta_bar_for", "mu_bar_for",
    "separate_phases", "layer_cost", "is_monotone", "interior_plateau",
    # solver
    "SolverConfig", "RunResult", "OUTCOMES", "euler_step",
    "classify_outcome", "minimize",
    # lattice
    "ChainState", "sample_front", "init_from_front", "evolve",
    "total_energy", "boundary_flux", "EnergyLaw", "EnergyLawReport",
    "check_energy_law", "front_crossing", "front_speed", "measure_front_speed",
    "FrontVerification", "verify_front",
    # errors
    "FpuFrontsError", "InadmissibleFront", "NotAdmissible",
    "InvariantBoundNotFound", "WindowMisaligned", "GridMismatch",
    "TailNotConverged", "EmptyZeroSet", "ConfigInvalid", "NotAFront",
    "BlowUp", "NonFiniteAction", "StepSizeUnderflow",
]
