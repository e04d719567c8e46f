"""adiakit: adiabatic invariants of slow-fast Hamiltonian systems.

Construct second-order approximate first integrals F = J + εF₁ + ε²/2·F₂ for
systems whose fast dynamics is periodic, verify the structural hypotheses
behind the construction, and measure the drift of each truncation order over
horizons T ~ 1/ε.
"""

from .circle import CircleAction, OrbitSamples
from .errors import (AdiakitError, ConfigError, DegenerateFamily, DomainError,
                     IntegrationError, InvalidParameter,
                     MaxStepsExceeded, NotFound, NumericalError,
                     SlopeUndefined, StepSizeUnderflow, TraceError,
                     UnresolvedQuadrature, UnsupportedDerivative, UnsupportedOrder)
from .fixtures import (Fixture, charged_particle, elastic_pendulum,
                       get_fixture, list_fixtures, verify_transverse_momentum)
from .integrators import IntegratorConfig, Trajectory, integrate
from .invariants import (HypothesisReport, InvariantSeries, assemble, check_hypotheses,
                         check_momentum_map, check_period_energy, f1, f2,
                         lie_derivative, momentum_from_action, ty2_residual)
from .phase import (Box, DiffEngine, PhasePoint, SlowFastSystem, field_fast,
                    field_full, field_slow, grad_fast, grad_full, grad_slow)

__version__ = "0.1.0"
