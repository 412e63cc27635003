"""Exception hierarchy shared by all sobex modules."""


class SobexError(Exception):
    """Base class for all toolkit errors."""


class ChartDomainError(SobexError):
    """A chart point lies outside the declared coordinate domain."""


class InvalidSurfaceError(SobexError):
    """A surface definition is inconsistent (e.g. warp factor <= 0)."""


class InvalidDomainError(SobexError):
    """A domain definition is inconsistent (e.g. radial profile <= 0)."""


class ChartExitError(SobexError):
    """A trajectory left the chart; carries the usable partial trajectory."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class IntegrationFailure(SobexError):
    """The ODE integrator failed to reach the requested arclength."""


class ComparisonBreakdownError(SobexError):
    """A comparison profile degenerated (first conjugate/focal point hit)."""


class OutOfTubeError(SobexError):
    """A point lies outside the tubular neighborhood of the boundary."""


class FootAmbiguityError(SobexError):
    """Two boundary foot points are equally close; regularity is violated."""


class FocalPointError(SobexError):
    """A normal Jacobi field vanished inside the working tube."""


class RegularityError(SobexError):
    """An operation requires an admissible chart but the checks failed."""


class AssemblyError(SobexError):
    """Discrete operator assembly failed (degenerate weights, bad sizes)."""


class EvaluationError(SobexError):
    """An evaluator returned a non-finite value at a quadrature node."""


class ParameterError(ValueError, SobexError):
    """An operation received parameters outside its admissible range."""


class ConfigError(ValueError, SobexError):
    """A run configuration violates the schema."""
