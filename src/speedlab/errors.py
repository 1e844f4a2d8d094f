"""Exception types shared across the package.

Each package error derives from exactly one category, whose class attributes
give the report status and exit code of a run that ends in it: ValidationError
(rejected input), NumericalFailure (a solver failed) or Inconclusive (a regime,
measurement or resolution guard stopped).  The two resolution guards,
StiffReaction and TooFewNodes, which a finer grid lifts, are also
ValueErrors.  An error carries only its message, which is what a report
records; a failed certificate such as D1 is a verdict, not an error.
NoInteriorMinimum alone keeps data, lambda/mu at both ends of the search
range, which becomes the H4 details.
"""


class SpeedlabError(Exception):
    """Base class for all package errors; its category sets status and exit_code."""


class ValidationError(SpeedlabError):
    status = "validation-failure"
    exit_code = 2


class NumericalFailure(SpeedlabError):
    status = "numerical-failure"
    exit_code = 3


class Inconclusive(SpeedlabError):
    status = "inconclusive"
    exit_code = 4


class ParseError(ValidationError):
    """Expression does not match the coefficient grammar."""


class EvalError(ValidationError):
    """Expression produced a non-finite value at a grid node."""


class NonEllipticError(ValidationError):
    """Diffusion coefficient is not strictly positive somewhere."""


class SingularSolve(NumericalFailure):
    """An implicit step matrix could not be solved."""


class BlowupError(NumericalFailure):
    """A nonlinear evolution exceeded the a-priori bound guard."""


class NoConvergence(NumericalFailure):
    """Iteration cap reached before the requested tolerance."""


class MonotonicityLost(NumericalFailure):
    """A recursion iterate fell below its predecessor beyond roundoff."""


class NotMonostable(Inconclusive):
    """Growth eigenvalue is non-positive, no positive speed regime."""


class NoInteriorMinimum(Inconclusive):
    """mu -> lambda(mu)/mu is monotone on the search range."""

    def __init__(self, message, endpoint_data=None):
        self.endpoint_data = endpoint_data or {}
        super().__init__(message)


class ShiftOutOfRange(Inconclusive):
    """Requested profile shift exceeds the safe fraction of the domain."""


class InconsistentClassification(Inconclusive):
    """Profile classifications are non-monotone along the speed axis."""


class NoCrossing(Inconclusive):
    """Normalized field does not cross the front threshold."""


class TooFewPoints(Inconclusive):
    """Not enough retained trace points for a speed fit."""


class StiffReaction(Inconclusive, ValueError):
    """dt times the reaction Lipschitz bound is >= 1; the line step loses order."""


class TooFewNodes(Inconclusive, ValueError):
    """A recursion profile has fewer nodes than the recursion resolves."""
