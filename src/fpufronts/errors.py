"""Exception types shared across the package."""


class FpuFrontsError(Exception):
    """Base class for all package errors."""


class InvalidScan(FpuFrontsError):
    """Assumption scan requested on an interval that is too small."""


class InvariantBoundNotFound(FpuFrontsError):
    """No invariant interval for the force could be located below the search limit."""


class InadmissibleFront(FpuFrontsError):
    """Asymptotic states do not admit an energy-conserving shock.

    ``reason`` is one of ``"kinetic"`` (kinetic relation fails) or
    ``"subsonic_sign"`` (secant slope of the force is not positive).
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


class NotAdmissible(FpuFrontsError):
    """Front data violates the jump conditions beyond tolerance."""


class WindowMisaligned(FpuFrontsError):
    """Grid spacing does not align the unit averaging window with grid nodes."""


class GridMismatch(FpuFrontsError):
    """Two profiles do not share the same grid."""


class TailNotConverged(FpuFrontsError):
    """Profile tails deviate from the boundary extension, invalidating the
    compact-perturbation shortcut for the functionals."""


class NonZeroTails(FpuFrontsError):
    """Perturbation profile has nonzero values in the boundary region."""


class EmptyZeroSet(FpuFrontsError):
    """Profile has no transition region; it does not connect -1 to +1."""


class SignInconsistent(FpuFrontsError):
    """Profile is not uniformly signed between transition layers."""


class AnchorNotInZeroSet(FpuFrontsError):
    """Layer-cost anchor lies outside the zero set of the averaged profile."""


class LayerCostBelowBound(FpuFrontsError):
    """Measured transition-layer cost falls below the guaranteed lower bound."""


class ConfigInvalid(FpuFrontsError):
    """Solver or run configuration is inconsistent."""


class NotAFront(FpuFrontsError):
    """Operation requires a converged front profile."""


class BlowUp(FpuFrontsError):
    """Chain integration left the physically meaningful range."""


class NonFiniteAction(FpuFrontsError):
    """The flow produced a non-finite action or gradient norm."""


class StepSizeUnderflow(FpuFrontsError):
    """Every candidate step raised the action until lambda fell below 1e-14."""
