"""Domain failures: the program's answers that there is no front here.

Each class names a way a potential, a set of asymptotic states, a profile, a
flow or a chain run fails what the theory asks of it; the CLI exits 1 on any
of them.  A bad argument is not one of them: it raises ``ValueError`` at the
rule that catches it, and the CLI turns a config's into exit 2.
"""


class FpuFrontsError(Exception):
    """Base class for all package errors."""


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


class EmptyZeroSet(FpuFrontsError):
    """Profile has no transition region; it does not connect -1 to +1."""


class LayerCostBelowBound(FpuFrontsError):
    """Measured transition-layer cost falls below the guaranteed lower bound."""


class BlowUp(FpuFrontsError):
    """Chain integration left the physically meaningful range."""


class NonFiniteAction(FpuFrontsError):
    """The flow produced a non-finite action or gradient norm."""


class StepSizeUnderflow(FpuFrontsError):
    """Every candidate step raised the action until lambda fell below 1e-14."""
