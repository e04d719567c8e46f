"""Exception hierarchy shared by all adiakit modules."""


class AdiakitError(Exception):
    """Base class for all library errors."""


class DomainError(AdiakitError):
    """A phase-space point lies outside the system's validity box."""


class NumericalError(AdiakitError):
    """An evaluation produced a non-finite or meaningless result."""


class IntegrationError(AdiakitError):
    """ODE integration failed to deliver the requested state."""


class MaxStepsExceeded(IntegrationError):
    """The step budget ran out before reaching the end time."""

    def __init__(self, message, last_time=None):
        super().__init__(message)
        self.last_time = last_time


class StepSizeUnderflow(IntegrationError):
    """The adaptive controller shrank the step below the resolvable size."""

    def __init__(self, message, last_time=None):
        super().__init__(message)
        self.last_time = last_time


class HypothesisViolation(AdiakitError):
    """A structural hypothesis check failed while strict mode is on."""


class InvalidParameter(AdiakitError):
    """A fixture or configuration parameter is out of range."""


class DegenerateFamily(AdiakitError):
    """The sl(2) matrix field does not satisfy det A = 1."""


class NotFound(AdiakitError):
    """A requested fixture name is not registered."""


class UnsupportedOrder(AdiakitError):
    """Only invariant-series orders 0, 1 and 2 are implemented."""


class SlopeUndefined(AdiakitError):
    """A convergence-slope fit needs at least two grid points."""


class ConfigError(AdiakitError):
    """A run configuration file is malformed or contains unknown keys."""


class PrecisionWarning(UserWarning):
    """Finite-difference noise may dominate the reported value.

    Raised by F₂ with a numeric flow, whose sensitivities are central
    differences, when the estimated noise exceeds 1 % of the differenced signal,
    also when that signal is exactly zero but the differenced values were
    not; never when the noise estimate itself is zero.
    """
