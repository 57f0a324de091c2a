"""Exception hierarchy shared across the package."""


class ProfixError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(ProfixError):
    """An argument violates a documented precondition."""


class InvalidConfig(ProfixError):
    """A configuration object or file is malformed or inconsistent."""


class NumericOverflow(ProfixError):
    """A linear predictor is too large to exponentiate safely."""


class NoConvergence(ProfixError):
    """An iterative solver exhausted its iteration budget.

    Carries the best residual seen so the caller can judge how close the
    run came to the tolerance.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class ContractionViolation(ProfixError):
    """The nuisance operator is not contracting where the theory needs it."""


class SingularResolvent(ProfixError):
    """The linearized fixed-point system could not be inverted."""


class RiskSetEmpty(ProfixError):
    """No weighted mass is at risk at an event time."""


class DenominatorCollapse(ProfixError):
    """The self-consistency denominator dropped to zero or below."""


class SupportViolation(ProfixError):
    """A record falls outside the support of the current density estimate."""


class OracleEvalFailure(ProfixError):
    """A finite-difference probe point could not be evaluated."""


class SingularJacobian(ProfixError):
    """The Newton system for the estimating equation is numerically singular."""


class SingularInformation(ProfixError):
    """The estimated information matrix is too ill-conditioned to invert."""


class HarnessAlarm(ProfixError):
    """Too many Monte Carlo replications failed; the report is still attached."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
