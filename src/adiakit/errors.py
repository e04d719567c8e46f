"""Exception hierarchy shared by all adiakit modules."""


class AdiakitError(Exception):
    """Base class for all library errors."""


class DomainError(AdiakitError):
    """A phase-space point lies outside the system's validity box."""


class NumericalError(AdiakitError):
    """An evaluation produced a non-finite or meaningless result."""


class IntegrationError(AdiakitError):
    """ODE integration failed to deliver the requested state; ``last_time`` is
    the time it reached, where known."""

    def __init__(self, message, last_time=None):
        super().__init__(message)
        self.last_time = last_time


class MaxStepsExceeded(IntegrationError):
    """The step budget ran out before reaching the end time."""


class StepSizeUnderflow(IntegrationError):
    """The adaptive controller shrank the step below the resolvable size."""


class InvalidParameter(AdiakitError):
    """A fixture or configuration parameter is out of range."""


class DegenerateFamily(AdiakitError):
    """The sl(2) matrix field does not satisfy det A = 1."""


class UnsupportedDerivative(AdiakitError):
    """A derivative the numeric flow cannot carry: a nested dual base point."""


class UnresolvedQuadrature(UserWarning):
    """Orbit profiles were still unresolved at the node cap: ⟨·⟩ and 𝒮 alias."""


class TraceError(AdiakitError):
    """An oracle uses an operation the tracer cannot record."""


class NotFound(AdiakitError):
    """A requested fixture name is not registered."""


class UnsupportedOrder(AdiakitError):
    """Only invariant-series orders 0, 1 and 2 are implemented."""


class SlopeUndefined(AdiakitError):
    """A convergence-slope fit needs at least two grid points."""


class ConfigError(AdiakitError):
    """A run configuration file is malformed or contains unknown keys."""

