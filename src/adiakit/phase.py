"""Phase-space model: points, systems, Poisson brackets and Hamiltonian fields.

Coordinate layout
-----------------
The fast block is ordered ``(y_1..y_r, x_1..x_r)`` and the slow block
``(p_1..p_k, q_1..q_k)``; flattened vectors use the block order
``(y.., x.., p.., q..)``. All vector-valued operations below follow these
offsets.

Oracles
-------
Scalar observables are callables ``f(fast, slow)`` where ``fast`` and ``slow``
are sequences of kernel scalars (floats, numpy arrays for batched points, or
:class:`~adiakit.kernel.Dual` numbers). Writing every oracle against the
kernel keeps a single source of truth for plain, batched and differentiated
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import kernel as sk
from .errors import DomainError, NumericalError

__all__ = [
    "PhasePoint",
    "Box",
    "SlowFastSystem",
    "DiffEngine",
    "grad_fast",
    "grad_slow",
    "grad_full",
    "bracket_of_partials",
    "field_fast",
    "field_slow",
    "field_full",
]

@dataclass(frozen=True)
class PhasePoint:
    """Immutable state: fast coordinates ``(y, x)`` and slow ``(p, q)``."""

    fast: np.ndarray
    slow: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fast", np.atleast_1d(np.asarray(self.fast, dtype=float)))
        object.__setattr__(self, "slow", np.atleast_1d(np.asarray(self.slow, dtype=float)))
        if self.fast.ndim != 1 or self.slow.ndim != 1:
            raise ValueError("PhasePoint blocks must be one-dimensional")
        if self.fast.size % 2 or self.slow.size % 2:
            raise ValueError("fast and slow blocks must have even length")
        if not (np.all(np.isfinite(self.fast)) and np.all(np.isfinite(self.slow))):
            raise NumericalError("PhasePoint coordinates must be finite")

    def __eq__(self, other):
        if not isinstance(other, PhasePoint):
            return NotImplemented
        return (np.array_equal(self.fast, other.fast)
                and np.array_equal(self.slow, other.slow))

    def __hash__(self):
        return hash((self.fast.tobytes(), self.slow.tobytes()))

    @property
    def coords(self) -> np.ndarray:
        """Flat vector in block order (y.., x.., p.., q..)."""
        return np.concatenate([self.fast, self.slow])

    @classmethod
    def from_coords(cls, coords: Sequence[float], r: int, k: int) -> "PhasePoint":
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (2 * r + 2 * k,):
            raise ValueError(f"expected {2 * r + 2 * k} coordinates, got {coords.shape}")
        return cls(coords[: 2 * r], coords[2 * r :])

    def state(self):
        """Kernel-state view: (list of fast scalars, list of slow scalars)."""
        return list(self.fast), list(self.slow)


@dataclass(frozen=True)
class Box:
    """Per-coordinate validity box over the flat (y.., x.., p.., q..) layout."""

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "low", np.asarray(self.low, dtype=float))
        object.__setattr__(self, "high", np.asarray(self.high, dtype=float))
        if self.low.shape != self.high.shape:
            raise ValueError("box bounds must have matching shapes")

    def contains(self, coords: np.ndarray) -> bool:
        coords = np.asarray(coords, dtype=float)
        return bool(np.all(coords >= self.low) and np.all(coords <= self.high))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Uniform points from the box (finite bounds required)."""
        if not (np.all(np.isfinite(self.low)) and np.all(np.isfinite(self.high))):
            raise ValueError("cannot sample from an unbounded box")
        return rng.uniform(self.low, self.high, size=(size, self.low.size))


@dataclass(frozen=True)
class SlowFastSystem:
    """Problem description: dimensions, oracles and validity region.

    ``H``, ``omega`` and ``J`` are kernel-generic scalar oracles
    ``f(fast, slow)``. ``fast_flow``, when provided, is the analytic
    unit-frequency flow of the fast dynamics: ``fast_flow(t, fast, slow)``
    returns the fast block advanced by phase ``t`` (slow block frozen), and
    must itself be kernel-generic so it can be differentiated by dual lifting.
    """

    r: int
    k: int
    H: Callable
    omega: Callable
    J: Optional[Callable] = None
    fast_flow: Optional[Callable] = None
    domain: Optional[Box] = None
    name: str = ""

    @property
    def dim(self) -> int:
        return 2 * self.r + 2 * self.k

    def point(self, coords: Sequence[float]) -> PhasePoint:
        return PhasePoint.from_coords(coords, self.r, self.k)

    def require_in_domain(self, m: PhasePoint) -> None:
        if self.domain is not None and not self.domain.contains(m.coords):
            raise DomainError(f"point {m.coords} lies outside the system domain")


class DiffEngine:
    """Exact partial derivatives by dual lifting, one coordinate at a time.

    It has no state and one method. It stays a class so that every gradient
    of the package goes through the one attribute ``DiffEngine.partials``,
    looked up at call time as ``DEFAULT_ENGINE.partials``: a profiler that
    wraps that attribute sees every call (``bench/child.py`` counts them).
    """

    def partials(self, f: Callable, fast, slow, block: str):
        """List of partial derivatives of ``f`` along one coordinate block."""
        out = []
        for i in range(len(fast if block == "fast" else slow)):
            shifted = [list(fast), list(slow)]
            coords = shifted[0 if block == "fast" else 1]
            tag = sk.fresh_tag()
            coords[i] = sk.Dual(coords[i], 1.0, tag)
            out.append(sk.extract_partial(f(*shifted), tag))
        return out


DEFAULT_ENGINE = DiffEngine()


def _stack(parts):
    arrays = np.broadcast_arrays(*[np.asarray(p, dtype=float) for p in parts])
    return np.stack(arrays, axis=-1)


def _check_finite(arr, what):
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"{what} produced a non-finite result")
    return arr


def grad_fast(system: SlowFastSystem, f: Callable, m: PhasePoint) -> np.ndarray:
    """Fast-block gradient (∂f/∂y_1..y_r, ∂f/∂x_1..x_r) at ``m``."""
    system.require_in_domain(m)
    fast, slow = m.state()
    return _check_finite(_stack(DEFAULT_ENGINE.partials(f, fast, slow, "fast")), "grad_fast")


def grad_slow(system: SlowFastSystem, f: Callable, m: PhasePoint) -> np.ndarray:
    """Slow-block gradient (∂f/∂p_1..p_k, ∂f/∂q_1..q_k) at ``m``."""
    system.require_in_domain(m)
    fast, slow = m.state()
    return _check_finite(_stack(DEFAULT_ENGINE.partials(f, fast, slow, "slow")), "grad_slow")


def grad_full(system: SlowFastSystem, f: Callable, m: PhasePoint) -> np.ndarray:
    """Gradient over all 2r + 2k coordinates in flat layout order."""
    system.require_in_domain(m)
    fast, slow = m.state()
    parts = (DEFAULT_ENGINE.partials(f, fast, slow, "fast")
             + DEFAULT_ENGINE.partials(f, fast, slow, "slow"))
    return _check_finite(_stack(parts), "grad_full")


def bracket_of_partials(df, dg):
    """Σ_i (df_i·dg_{n+i} − df_{n+i}·dg_i) for partials listed as (momenta.., positions..).

    This is the one canonical pairing behind every bracket: with slow partials
    it is {f, g}₁, with fast partials {f, g}₀. Entries may be floats, batched
    arrays or duals.
    """
    n = len(df) // 2
    total = 0.0
    for i in range(n):
        total = total + df[i] * dg[n + i] - df[n + i] * dg[i]
    return total


def field_fast(system: SlowFastSystem, m: PhasePoint) -> np.ndarray:
    """Unperturbed Hamiltonian velocity (ẏ, ẋ) = (−∂H/∂x, ∂H/∂y)."""
    g = grad_fast(system, system.H, m)
    r = system.r
    return np.concatenate([-g[..., r:], g[..., :r]], axis=-1)


def field_slow(system: SlowFastSystem, m: PhasePoint) -> np.ndarray:
    """Perturbation velocity (ṗ, q̇) = (−∂H/∂q, ∂H/∂p), without the ε factor."""
    g = grad_slow(system, system.H, m)
    k = system.k
    return np.concatenate([-g[..., k:], g[..., :k]], axis=-1)


def field_full(system: SlowFastSystem, m: PhasePoint, eps: float) -> np.ndarray:
    """Full vector field: fast block plus ε times the slow block."""
    return np.concatenate([field_fast(system, m), eps * field_slow(system, m)], axis=-1)

