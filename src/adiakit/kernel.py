"""Scalar kernel: one arithmetic surface for floats, numpy arrays and dual numbers.

Every Hamiltonian/frequency/momentum oracle in this package is written against
the functions below (``sin``, ``cos``, ``sqrt``, ...) and plain ``+ - * / **``.
The same oracle source then evaluates

* on floats (plain evaluation),
* on numpy arrays (batched evaluation over many phase points at once),
* on :class:`Dual` numbers (exact forward-mode differentiation), including
  duals whose components are arrays or further duals (nested derivatives).

Each differentiation pass seeds its duals with a fresh ``tag``; arithmetic
between duals of different tags treats the lower-tagged one as a constant.
This keeps nested passes (second derivatives, derivatives through closed
forms that differentiate internally) from confusing their perturbations.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "Dual",
    "value",
    "seed",
    "fresh_tag",
    "derivative",
    "extract_partial",
    "map_parts",
    "broadcast",
    "sin",
    "cos",
    "sqrt",
    "exp",
    "log",
]

_TAGS = itertools.count(1)


def fresh_tag() -> int:
    """A new perturbation tag; every differentiation pass must use its own."""
    return next(_TAGS)


class Dual:
    """First-order dual number ``val + eps·δ`` with ``δ² = 0``.

    ``val`` and ``eps`` may be floats, numpy arrays, or ``Dual`` instances of
    a lower tag (nesting gives higher derivatives). Comparisons act on the
    underlying values so that domain checks and branches behave exactly as in
    plain evaluation.
    """

    __slots__ = ("val", "eps", "tag")

    # Keep numpy from consuming ``ndarray (op) Dual`` elementwise.
    __array_priority__ = 1000.0

    def __init__(self, val, eps, tag: int = 0):
        self.val = val
        self.eps = eps
        self.tag = tag

    def __repr__(self):
        return f"Dual({self.val!r}, {self.eps!r}, tag={self.tag})"

    def _parts(self, other):
        """Align two operands on the dominant tag; lower tags are constants."""
        tx = self.tag
        ty = other.tag if isinstance(other, Dual) else None
        if ty is None or tx > ty:
            return tx, self.val, self.eps, other, None
        if tx < ty:
            return ty, self, None, other.val, other.eps
        return tx, self.val, self.eps, other.val, other.eps

    def __add__(self, other):
        tag, xv, xe, yv, ye = self._parts(other)
        if xe is None:
            return Dual(xv + yv, ye, tag)
        if ye is None:
            return Dual(xv + yv, xe, tag)
        return Dual(xv + yv, xe + ye, tag)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        tag, xv, xe, yv, ye = self._parts(other)
        if xe is None:
            return Dual(xv * yv, xv * ye, tag)
        if ye is None:
            return Dual(xv * yv, xe * yv, tag)
        return Dual(xv * yv, xv * ye + xe * yv, tag)

    __rmul__ = __mul__

    def __truediv__(self, other):
        tag, xv, xe, yv, ye = self._parts(other)
        if ye is None:
            return Dual(xv / yv, xe / yv, tag)
        inv = 1.0 / yv
        if xe is None:
            v = xv * inv
            return Dual(v, -v * inv * ye, tag)
        v = xv * inv
        return Dual(v, (xe - v * ye) * inv, tag)

    def __rtruediv__(self, other):
        inv = 1.0 / self.val
        v = other * inv
        return Dual(v, -v * inv * self.eps, self.tag)

    def __pow__(self, n):
        if isinstance(n, Dual):
            raise TypeError("dual exponents are not supported; use exp/log")
        if n == 0:
            return Dual(self.val ** 0, self.eps * 0.0, self.tag)
        return Dual(self.val ** n, n * self.val ** (n - 1) * self.eps, self.tag)

    def __neg__(self):
        return Dual(-self.val, -self.eps, self.tag)

    def __pos__(self):
        return self

    def __abs__(self):
        s = np.sign(value(self))
        return Dual(self.val * s, self.eps * s, self.tag)

    # Comparisons on values only: branch decisions match plain evaluation.
    def __lt__(self, other):
        return value(self) < value(other)

    def __le__(self, other):
        return value(self) <= value(other)

    def __gt__(self, other):
        return value(self) > value(other)

    def __ge__(self, other):
        return value(self) >= value(other)

    def __float__(self):
        return float(value(self))


def value(x):
    """Strip all dual layers, returning the underlying float or array."""
    while isinstance(x, Dual):
        x = x.val
    return x


def seed(x, dot=1.0, tag=None):
    """Lift ``x`` to a dual carrying the directional derivative ``dot``."""
    return Dual(x, dot, fresh_tag() if tag is None else tag)


def extract_partial(out, tag):
    """Derivative of an evaluation result with respect to the given tag."""
    if isinstance(out, Dual) and out.tag == tag:
        return out.eps
    # no dependence on the seeded coordinate
    return np.zeros(np.shape(value(out)))


def map_parts(fn, x):
    """Apply ``fn`` to every float or array part of a (possibly nested) dual.

    Right for maps that act on each part alone, such as broadcasting or a
    linear operator along the trailing axis: a multidual pass carries its
    direction axis in front of the value's axes, so trailing axes line up in
    every part.
    """
    if isinstance(x, Dual):
        return Dual(map_parts(fn, x.val), map_parts(fn, x.eps), x.tag)
    return fn(x)


def broadcast(x, shape):
    """``x`` broadcast to ``shape``; dual parts keep their leading direction axes."""
    def part(a):
        a = np.asarray(a, dtype=float)
        return np.broadcast_to(a, np.broadcast_shapes(a.shape, shape))

    return map_parts(part, x)


def derivative(f, x):
    """d f / d x at ``x`` for a unary kernel-generic ``f`` (float or array)."""
    tag = fresh_tag()
    return extract_partial(f(Dual(x, 1.0, tag)), tag)


def sin(x):
    if isinstance(x, Dual):
        return Dual(sin(x.val), cos(x.val) * x.eps, x.tag)
    return np.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.val), -sin(x.val) * x.eps, x.tag)
    return np.cos(x)


def sqrt(x):
    if isinstance(x, Dual):
        root = sqrt(x.val)
        return Dual(root, x.eps / (2.0 * root), x.tag)
    return np.sqrt(x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.val)
        return Dual(e, e * x.eps, x.tag)
    return np.exp(x)


def log(x):
    if isinstance(x, Dual):
        return Dual(log(x.val), x.eps / x.val, x.tag)
    return np.log(x)
