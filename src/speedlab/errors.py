"""Exception types shared across the package.

Names follow the operation contracts: solver-level failures (SingularSolve,
BlowupError, NoConvergence, MonotonicityLost), regime guards (NotMonostable,
NoInteriorMinimum, D1Violated), measurement guards (DomainTooSmall,
NoCrossing, TooFewPoints), and resolution guards that a finer grid or other
input lifts (StiffReaction, TooFewNodes, SparseSupport).  The resolution
guards are also ValueErrors, so callers that catch ValueError still see
them.
"""


class SpeedlabError(Exception):
    """Base class for all package errors."""


class ParseError(SpeedlabError):
    """Expression does not match the coefficient grammar."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class EvalError(SpeedlabError):
    """Expression produced a non-finite value at a grid node."""


class NonEllipticError(SpeedlabError):
    """Diffusion coefficient is not strictly positive somewhere."""


class SingularSolve(SpeedlabError):
    """An implicit step matrix could not be solved."""


class BlowupError(SpeedlabError):
    """A nonlinear evolution exceeded the a-priori bound guard."""


class NoConvergence(SpeedlabError):
    """Iteration cap reached before the requested tolerance."""

    def __init__(self, message, iterations=None, residual=None):
        self.iterations = iterations
        self.residual = residual
        super().__init__(message)


class MonotonicityLost(SpeedlabError):
    """A recursion iterate fell below its predecessor beyond roundoff."""


class NotMonostable(SpeedlabError):
    """Growth eigenvalue is non-positive, no positive speed regime."""


class NoInteriorMinimum(SpeedlabError):
    """mu -> lambda(mu)/mu is monotone on the search range."""

    def __init__(self, message, endpoint_data=None):
        self.endpoint_data = endpoint_data or {}
        super().__init__(message)


class D1Violated(SpeedlabError):
    """Coupled eigenfunction series is non-contractive (D1 fails)."""

    def __init__(self, message, lambdabar):
        self.lambdabar = lambdabar
        super().__init__(message)


class ShiftOutOfRange(SpeedlabError):
    """Requested profile shift exceeds the safe fraction of the domain."""


class InconsistentClassification(SpeedlabError):
    """Profile classifications are non-monotone along the speed axis."""

    def __init__(self, message, trace=None):
        self.trace = trace or []
        super().__init__(message)


class DomainTooSmall(SpeedlabError):
    """The front domain is narrower than the run can reach (checked before it starts)."""


class NoCrossing(SpeedlabError):
    """Normalized field does not cross the front threshold."""


class TooFewPoints(SpeedlabError):
    """Not enough retained trace points for a speed fit."""


class StiffReaction(SpeedlabError, ValueError):
    """dt times the reaction Lipschitz bound is >= 1; the line step loses order."""


class TooFewNodes(SpeedlabError, ValueError):
    """A recursion profile has fewer nodes than the recursion resolves."""


class SparseSupport(SpeedlabError, ValueError):
    """The orbit's self-limitation e is positive on too small a share of nodes."""


class ValidationError(SpeedlabError):
    """Scenario configuration failed schema or guard validation."""
